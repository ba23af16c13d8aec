"""Kernels on threads: the outputs do not depend on the BLAS thread count,
the core count or the thread a kernel ran on; errors reach the caller."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import mpdsa
from mpdsa import msa
from mpdsa.cli import main
from mpdsa.configspace import LatticeGeometry, enumerate_ball
from mpdsa.disorder import FieldModel, sample_field
from mpdsa.experiments import default_time_grid, propagator_sups
from mpdsa.msa import AuditContext, ScalingParams, predicate_report, verify_implications
from mpdsa.operators import HamiltonianSpec, InteractionModel

SRC = Path(mpdsa.__file__).resolve().parents[1]
PINNABLE = msa.blas_thread_setter() is not None


def bench_config(out_dir, experiment):
    """The benchmark's radius-16 model: two particles, coupling 30."""
    return {
        "schema_version": 1,
        "geometry": {"kind": "lattice", "d": 1},
        "particles": 2,
        "coupling": 30.0,
        "disorder": {"kind": "iid", "marginal": "uniform"},
        "interaction": {"kind": "step", "amplitude": 1.0, "range": 2},
        "convention": "fixed",
        "scaling": {"initial_scale": 6, "mass": 1.0},
        "seed": 550001,
        "output_dir": str(out_dir),
        "experiments": [experiment],
    }


PREDICATES = {"kind": "predicates", "center": [1, 0], "radius": 16, "sub_scale": 6,
              "trials": 1, "energies": [0.0]}
DYNAMICS = {"kind": "dynamics", "center": [1, 0], "radius": 16, "trials": 1,
            "time_points": 200}


def bench_context(seed=550001):
    line = LatticeGeometry(kind="lattice", d=1)
    spec = HamiltonianSpec(geometry=line, n_particles=2, coupling=30.0,
                           interaction=InteractionModel(kind="step", amplitude=1.0, range_=2),
                           convention="fixed")
    ball = enumerate_ball((1, 0), 16, line)
    sample = sample_field(FieldModel(kind="iid", marginal="uniform"), ball.projection, seed)
    return AuditContext(spec, sample, ScalingParams.finite_range(2, initial_scale=6, mass=1.0))


@pytest.fixture
def one_blas_thread():
    """The calling thread at one BLAS thread, as ``cli.main`` sets it."""
    setter = msa.blas_thread_setter()
    previous = None if setter is None else setter(1)
    yield
    if previous is not None:
        setter(previous)


def outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())
            if p.suffix == ".csv" or p.name == "summary.json"}


class TestBlasThreadCount:
    """Every CSV and summary.json is byte-identical at one and two BLAS
    threads (they differed in their last digits before each Python thread
    ran its BLAS calls on one thread)."""

    @pytest.mark.skipif(not PINNABLE, reason="this BLAS cannot set threads per thread")
    @pytest.mark.parametrize("command, experiment", [("predicates", PREDICATES),
                                                     ("dynamics", DYNAMICS)])
    def test_outputs_do_not_depend_on_openblas_threads(self, tmp_path, command, experiment):
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            config = tmp_path / f"c{threads}.json"
            config.write_text(json.dumps(bench_config(out, experiment)))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-m", "mpdsa.cli", command, "--config",
                                   str(config)], env=env, capture_output=True, text=True)
            assert proc.returncode in (0, 1), proc.stderr
            runs.append(outputs(out))
        assert runs[0].keys() == runs[1].keys() and len(runs[0]) >= 2
        assert runs[0] == runs[1]


class TestCoreCount:
    """One usable CPU and three give the same bits."""

    @staticmethod
    def _predicates(monkeypatch, cpus):
        monkeypatch.setattr(msa, "usable_cpus", lambda: cpus)
        ctx = bench_context()
        es = msa.audit_eigensystem(ctx, (1, 0), 16, 6, None)
        reports = [predicate_report(ctx, (1, 0), 16, e, 6) for e in (0.0, 5.0, 15.0)]
        audit = verify_implications(ctx, (1, 0), 16, 6)
        return es, repr(reports) + repr(audit)

    def test_predicates_and_audit(self, monkeypatch, one_blas_thread):
        serial_es, serial = self._predicates(monkeypatch, 1)
        pooled_es, pooled = self._predicates(monkeypatch, 3)
        assert pooled == serial
        assert pooled_es.eigenvalues.tobytes() == serial_es.eigenvalues.tobytes()
        assert pooled_es.eigenvectors.tobytes() == serial_es.eigenvectors.tobytes()

    def test_propagator_sups(self, monkeypatch, one_blas_thread):
        es = bench_context().eigensystem((1, 0), 16)
        members = es.ball.members
        pairs = [(members[0], members[0])] + [(members[0], members[i]) for i in (1, 50, 560)]
        values = []
        for cpus in (1, 3):
            monkeypatch.setattr(msa, "usable_cpus", lambda: cpus)
            values.append(propagator_sups(es, pairs, default_time_grid(2000)).tobytes())
        assert values[0] == values[1]


class TestWhereKernelsRun:
    def test_the_ball_eigh_runs_beside_the_traced_work(self, monkeypatch, one_blas_thread):
        """Only the bare eigh leaves the main thread; assembly and the
        sub-ball spectra stay on it."""
        eigh, values, assemble = np.linalg.eigh, msa.eigenvalues_of, msa.assemble_hamiltonian
        seen = {"eigh": [], "eigvalsh": [], "assemble": []}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                seen[name].append(threading.current_thread())
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", eigh))
        monkeypatch.setattr(msa, "eigenvalues_of", spy("eigvalsh", values))
        monkeypatch.setattr(msa, "assemble_hamiltonian", spy("assemble", assemble))
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        ctx = bench_context()
        msa.audit_eigensystem(ctx, (1, 0), 16, 6, None)
        for energy in (0.0, 5.0, 15.0):
            predicate_report(ctx, (1, 0), 16, energy, 6)
        verify_implications(ctx, (1, 0), 16, 6)
        main_thread = threading.main_thread()
        assert len(seen["eigh"]) == 1 and len(seen["eigvalsh"]) == 12
        assert (seen["eigh"][0] is not main_thread) == PINNABLE
        assert all(t is main_thread for t in seen["eigvalsh"] + seen["assemble"])

    def test_without_the_setter_no_thread_starts(self, monkeypatch, one_blas_thread):
        es = bench_context().eigensystem((1, 0), 16)
        pairs = [(es.ball.members[0], es.ball.members[k]) for k in (0, 7)]
        reference = propagator_sups(es, pairs, default_time_grid(2000)).tobytes()
        _, serial = TestCoreCount._predicates(monkeypatch, 1)
        monkeypatch.setattr(msa, "blas_thread_setter", lambda: None)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 3)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        assert msa.pool_size() == 1
        assert propagator_sups(es, pairs, default_time_grid(2000)).tobytes() == reference
        assert TestCoreCount._predicates(monkeypatch, 3)[1] == serial
        ran = msa.run_pinned([threading.current_thread] * 4, main=threading.current_thread)
        assert ran == [threading.main_thread()] * 4
        assert started == []


class TestManyWorkers:
    def test_more_workers_than_cores(self, monkeypatch, one_blas_thread):
        """Eight workers, switching threads every microsecond, keep the
        task order and the bits."""
        es = bench_context().eigensystem((1, 0), 16)
        pairs = [(es.ball.members[0], es.ball.members[k]) for k in range(0, 561, 40)]
        serial = propagator_sups(es, pairs, default_time_grid(4000)).tobytes()
        monkeypatch.setattr(msa, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = propagator_sups(es, pairs, default_time_grid(4000)).tobytes()
            order = msa.run_pinned([lambda k=k: k for k in range(200)])
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial
        assert order == list(range(200))


class TestErrors:
    def test_a_task_error_reaches_the_caller_and_cancels_the_queue(self, monkeypatch):
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        ran = []

        def fail():
            raise ValueError("task failed")

        def slow(k):
            def task():
                time.sleep(0.05)
                ran.append(k)
            return task

        alive = threading.active_count()
        with pytest.raises(ValueError, match="task failed"):
            msa.run_pinned([fail] + [slow(k) for k in range(20)])
        assert threading.active_count() == alive
        if PINNABLE:
            assert len(ran) < 20

    def test_linalg_error_in_the_predicates_worker_exits_3(self, tmp_path, monkeypatch):
        threads = []

        def broken(*args, **kwargs):
            threads.append(threading.current_thread())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 2)
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        config.write_text(json.dumps(bench_config(out, PREDICATES)))
        alive = threading.active_count()
        assert main(["predicates", "--config", str(config)]) == 3
        assert not out.exists()
        assert threading.active_count() == alive
        assert threads and (threads[0] is not threading.main_thread()) == PINNABLE


class TestManifest:
    def test_records_whether_blas_calls_were_pinned(self, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "c.json"
        experiment = {"kind": "spectrum", "center": [1, 0], "radius": 2, "trials": 1}
        config.write_text(json.dumps(bench_config(out, experiment)))
        assert main(["spectrum", "--config", str(config)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["blas_pinned"] is PINNABLE
