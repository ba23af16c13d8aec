"""Benchmark of the mpdsa CLI: disorder trials per second on pinned configs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout.  One operation is one CLI
invocation in a fresh interpreter (``worker.py``) on a config generated
from ``--seed``; operations repeat until ``--seconds`` have passed.  Every
output is checked against ``reference.py``.  Between invocations fixed
kernels time the machine's speed (``SpeedProbe``), and the end-to-end times
are scaled to the reference speed.  With ``--trace 1`` each
config runs twice, plain and traced (``layertrace.py``), and the per-layer
figures come from the traced invocations.  The second-to-last stdout line
holds the environment; the last is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# every run ends well inside the 180 s a run is allowed
RUN_LIMIT_S = 150.0
# set-up probes per run, after one discarded warm-up probe
SETUP_PROBES = 3
# seconds the SpeedProbe kernels take at the reference speed
REFERENCE_PROBE_S = 0.017


def base_config(coupling: float, marginal: str, step_range: int, experiment: dict) -> dict:
    return {
        "schema_version": 1,
        "geometry": {"kind": "lattice", "d": 1},
        "particles": 2,
        "coupling": coupling,
        "disorder": {"kind": "iid", "marginal": marginal},
        "interaction": {"kind": "step", "amplitude": 1.0, "range": step_range},
        "convention": "fixed",
        "scaling": {"initial_scale": 6, "mass": 1.0},
        "experiments": [experiment],
    }


@dataclass(frozen=True)
class Workload:
    command: tuple  # CLI subcommand, then the flags that follow --config/--out
    config: dict  # the config without its seed
    trials: int  # disorder trials per invocation
    exit_codes: tuple  # exit codes of a correct run
    default_seed: int
    check: str  # output check in reference.py


WORKLOADS = {
    # acceptance 05: exit 1 when the audit records its (genuine) violations
    "predicates-r16": Workload(
        ("predicates",),
        base_config(
            30.0,
            "uniform",
            2,
            {
                "kind": "predicates",
                "center": [1, 0],
                "radius": 16,
                "sub_scale": 6,
                "trials": 4,
                "energies": [0.0, 5.0, 15.0],
            },
        ),
        trials=4,
        exit_codes=(0, 1),
        default_seed=550_001,
        check="check_predicates",
    ),
    # acceptance 08: default pair set (17 pairs), 2000-point time grid
    "dynamics-r16": Workload(
        ("dynamics",),
        base_config(
            30.0,
            "uniform",
            2,
            {
                "kind": "dynamics",
                "center": [1, 0],
                "radius": 16,
                "trials": 3,
                "time_points": 2000,
            },
        ),
        trials=3,
        exit_codes=(0,),
        default_seed=550_001,
        check="check_dynamics",
    ),
    # acceptance 07: singular event at E = 0, 1000 trials per coupling
    "sweep-r6": Workload(
        ("sweep", "--axis", "g", "--values", "3,30"),
        base_config(
            3.0,
            "gaussian",
            1,
            {
                "kind": "event",
                "event": "singular",
                "energy": 0.0,
                "center": [1, 0],
                "radius": 6,
                "trials": 1000,
            },
        ),
        trials=2000,
        exit_codes=(0,),
        default_seed=770_001,
        check="check_sweep",
    ),
}


def config_seed(workload: str, seed: int, k: int) -> int:
    """Seed of the k-th config of a run; config 0 takes the seed itself."""
    if k == 0:
        return seed
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# -- environment ---------------------------------------------------------------


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in thread_vars},
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
    }


# -- machine speed -------------------------------------------------------------


class SpeedProbe:
    """Times fixed kernels to follow the speed of a shared machine.

    On a few shared cores one invocation of a fixed config takes up to 1.7
    times as long in one minute as in another, and every kind of work
    slows together.  The kernels stand for the program's kinds of work: an
    interpreter loop, a symmetric eigensolve, and a gather and sort over a
    600 x 600 array.  Their inputs are fixed, so only the machine moves
    their time.  A probe takes about 0.15 s.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 300))
        self.np = np
        self.sym = a + a.T
        self.grid = rng.standard_normal((600, 600))
        self.rows = rng.integers(0, 600, 300_000)
        self.cols = rng.integers(0, 600, 300_000)

    def kernels(self) -> list:
        np = self.np
        times = []
        start = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        np.linalg.eigh(self.sym)
        times.append(time.perf_counter() - start)
        start = time.perf_counter()
        np.argsort(self.grid[self.rows, self.cols])
        np.log(np.abs(self.grid) + 1.0)
        times.append(time.perf_counter() - start)
        return times

    def seconds(self) -> float:
        """Geometric mean over the kernels of each one's best of three."""
        runs = [self.kernels() for _ in range(3)]
        best = [min(column) for column in zip(*runs)]
        return statistics.geometric_mean(best)


# -- operations ----------------------------------------------------------------


@dataclass
class Op:
    k: int  # config index
    out_dir: Path
    result: dict | None
    failures: list = field(default_factory=list)
    # factor that takes this invocation's times to the reference speed
    scale: float = 1.0


class Runner:
    """Writes the configs of one run and starts its worker processes."""

    def __init__(self, name: str, seed: int, work: Path, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.configs: dict = {}
        self.longest_s = 0.0

    def config(self, k: int) -> dict:
        if k not in self.configs:
            raw = json.loads(json.dumps(self.workload.config))
            raw["seed"] = config_seed(self.name, self.seed, k)
            self.configs[k] = raw
            (self.work / f"config-{k}.json").write_text(json.dumps(raw))
        return self.configs[k]

    def has_time(self) -> bool:
        return time.monotonic() + self.longest_s < self.deadline

    def invoke(self, k: int, tag: str, trace: bool = False, probe: bool = False) -> Op:
        self.config(k)
        config_path = self.work / f"config-{k}.json"
        out_dir = self.work / tag
        argv = None
        if not probe:
            command = self.workload.command
            argv = [command[0], "--config", str(config_path), "--out", str(out_dir)]
            argv += list(command[1:])
        spec = {"src": str(SRC), "config": str(config_path), "argv": argv, "trace": trace}
        started = time.monotonic()
        spec["spawn_ns"] = time.monotonic_ns()
        op = Op(k, out_dir, None)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            op.failures.append("timed out")
            return op
        finally:
            self.longest_s = max(self.longest_s, time.monotonic() - started)
        if "Traceback (most recent call last)" in proc.stderr:
            op.failures.append("traceback: " + proc.stderr.strip().splitlines()[-1])
        if proc.returncode != 0:
            op.failures.append(f"worker exit {proc.returncode}")
            return op
        op.result = json.loads(proc.stdout.strip().splitlines()[-1])
        code = op.result.get("exit_code")
        if not probe and code not in self.workload.exit_codes:
            op.failures.append(f"exit code {code}")
        return op


def check_ops(runner: Runner, ops: list, reruns: list) -> None:
    """Check every output; the brute-force checks run on the first only.

    ``reruns`` pairs operations on one config whose CSVs must be identical.
    """
    import reference

    check = getattr(reference, runner.workload.check)
    for i, op in enumerate(ops):
        if op.result is None:
            continue
        op.failures += reference.check_manifest(op.out_dir)
        op.failures += check(
            runner.configs[op.k], op.out_dir, op.result["exit_code"], brute_force=i == 0
        )
    for first, second in reruns:
        if first.result is not None and second.result is not None:
            second.failures += reference.compare_outputs(first.out_dir, second.out_dir)


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


# -- metrics -------------------------------------------------------------------

# spans whose call counts or self times are per-layer metrics
LAYER_SPANS = (
    ("configspace.enumerate_ball", ("calls", "self_s")),
    ("disorder.sample_field", ("calls", "self_s")),
    ("operators.assemble_hamiltonian", ("calls", "self_s")),
    ("spectral.diagonalize", ("calls", "self_s")),
    ("msa.AuditContext.eigensystem", ("calls",)),
    ("msa.is_m_loc", ("calls", "self_s")),
    ("msa.is_m_tunneling", ("self_s",)),
    ("msa.is_E_CNR", ("self_s",)),
    ("msa.predicate_report", ("self_s",)),
    ("msa.verify_implications", ("self_s",)),
    ("msa.ns_flags", ("calls", "self_s")),
    ("experiments.propagator_sup", ("calls", "self_s")),
    ("experiments.ef_correlator", ("self_s",)),
    ("experiments.estimate_event_probability", ("self_s",)),
    ("runconfig.load_config", ("self_s",)),
    ("cli.RunWriter.write_csv", ("self_s",)),
    ("cli.RunWriter.finalize", ("self_s",)),
    ("cli.main", ("self_s",)),
)
LAYER_COUNTERS = (
    "disorder.sites_sampled",
    "operators.rows_assembled",
    "spectral.diagonalize.n3_sum",
    "msa.ns_flags.energies",
    "experiments.propagator_sup.phase_evals",
)


def cache_hit_ratio(trace: dict) -> float:
    """1 - eigensystems built / eigensystems requested (0 with no requests)."""
    requests = trace["calls"]["msa.AuditContext.eigensystem"]
    return 1.0 - trace["eigensystem_builds"] / requests if requests else 0.0


def layer_metrics(pairs: list) -> dict:
    """Per-layer metrics: medians over the traced invocations of a run."""
    traced = [t.result for _, t in pairs]
    metrics = {}

    def put(name, unit, values):
        metrics[name] = {"value": statistics.median(values), "unit": unit}

    for span, kinds in LAYER_SPANS:
        for kind in kinds:
            unit = "count" if kind == "calls" else "s"
            put(f"{span}.{kind}", unit, [r["trace"][kind][span] for r in traced])
    for counter in LAYER_COUNTERS:
        put(counter, "count", [r["trace"]["counters"].get(counter, 0) for r in traced])
    put("msa.eigensystem_cache_hit_ratio", "ratio", [cache_hit_ratio(r["trace"]) for r in traced])
    put("setup.import_s", "s", [r["import_s"] for r in traced])
    put("cli.output_bytes", "B", [output_bytes(t.out_dir) for _, t in pairs])
    put("trace.wall_s", "s", [r["run_s"] for r in traced])
    put("trace.self_sum_s", "s", [sum(r["trace"]["self_s"].values()) for r in traced])
    put(
        "trace.overhead",
        "ratio",
        [1.0 - p.result["run_s"] / t.result["run_s"] for p, t in pairs],
    )
    return metrics


def end_to_end_metrics(done: list, probes: list, trials: int, scaled: bool = True) -> dict:
    """Times at the reference speed, or as measured with ``scaled=False``.

    ``trials_per_s`` is every trial over the sum of the timed wall times,
    which evens out the swings of a few seconds that a median of a few
    invocations keeps.
    """

    def scale(op):
        return op.scale if scaled else 1.0

    run_s = sum(op.result["run_s"] * scale(op) for op in done)
    setups = [op.result["setup_s"] * scale(op) for op in probes + done]
    return {
        "trials_per_s": {"value": trials * len(done) / run_s, "unit": "trials/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(op.result["maxrss_kb"] / 1024.0 for op in done),
            "unit": "MB",
        },
    }


# -- main ----------------------------------------------------------------------


def measure(runner: Runner, seconds: float, trace: bool) -> tuple:
    """Returns the result object and the unscaled end-to-end metrics."""
    workload = runner.workload
    runner.invoke(0, "warmup", probe=True)  # compiles bytecode, warms the file cache
    speed = SpeedProbe()
    before = [speed.seconds()]

    def timed(*args, **kwargs) -> Op:
        # scaled by the probes on either side of the invocation
        op = runner.invoke(*args, **kwargs)
        after = speed.seconds()
        op.scale = REFERENCE_PROBE_S / math.sqrt(before[0] * after)
        before[0] = after
        return op

    probes = [timed(0, f"probe{i}", probe=True) for i in range(SETUP_PROBES)]
    probes = [op for op in probes if op.result is not None]

    ops, reruns = [], []
    start = time.monotonic()
    if trace:
        k = 0
        while k == 0 or (time.monotonic() - start < seconds and runner.has_time()):
            plain = runner.invoke(k, f"op{k}-plain")
            traced = runner.invoke(k, f"op{k}-traced", trace=True)
            ops += [plain, traced]
            reruns.append((plain, traced))
            k += 1
    else:
        # config 0 runs twice, so every run checks a rerun
        i = 0
        while i < 2 or (time.monotonic() - start < seconds and runner.has_time()):
            ops.append(timed(max(0, i - 1), f"op{i}"))
            i += 1
        reruns.append((ops[0], ops[1]))

    check_ops(runner, ops, reruns)
    for i, op in enumerate(ops):
        rate = f"{workload.trials / op.result['run_s']:.4f}" if op.result else "-"
        print(
            f"op {i} config {op.k}: {rate} trials/s, scale {op.scale:.3f} {op.failures}",
            file=sys.stderr,
        )
    unscaled = None
    if trace:
        pairs = [(p, t) for p, t in reruns if p.result is not None and t.result is not None]
        if not pairs:
            raise RuntimeError("no traced operation completed")
        metrics = layer_metrics(pairs)
    else:
        done = [op for op in ops if op.result is not None]
        if not done:
            raise RuntimeError("no operation completed")
        metrics = end_to_end_metrics(done, probes, workload.trials)
        unscaled = end_to_end_metrics(done, probes, workload.trials, scaled=False)
        unscaled["time_scale"] = {
            "value": statistics.median(op.scale for op in probes + done),
            "unit": "ratio",
        }
    failed = [op for op in ops if op.failures]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, unscaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mpdsa" / "cli.py").is_file():
        print(f"no mpdsa source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed

    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, seed, work, time.monotonic() + RUN_LIMIT_S)
        result, unscaled = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    context = {"environment": environment(), "workload": args.workload, "seed": seed}
    if unscaled is not None:
        context["unscaled"] = unscaled
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
