"""Command-line entry point.

Exit codes: 0 success, 1 a deterministic-implication violation was
recorded (the run itself succeeded), 2 invalid configuration or usage
(nothing written), 3 numerical failure.

All CSV output is RFC-4180 style with a header row and full-precision
decimal floats; reruns with the same configuration and seed produce
byte-identical CSV files on the same numpy/BLAS build.  Every BLAS call
of a command runs on one BLAS thread where OpenBLAS can set its thread
count (a process-wide count on numpy 2.4.6's OpenBLAS 0.3.31), so the
files do not depend on ``OPENBLAS_NUM_THREADS`` or the core count.
The manifest lists every output file with its SHA-256 checksum, and that
environment.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .configspace import config_distance
from .disorder import derive_seed
from .experiments import (
    TrialSetup,
    centre_pairs,
    decay_fit,
    default_time_grid,
    dynamics_trials,
    estimate_event_probability,
    event_input_error,
    evc_experiment,
    min_event_trials,
    predicates_trials,
    run_scaling_audit,
    trial_seeds,
)
from .msa import (
    blas_thread_setter,
    check_param_constraints,
    usable_cpus,
)
from .runconfig import (
    MAX_MAGNITUDE,
    MAX_SEED,
    ConfigError,
    build_field_model,
    build_geometry,
    build_interaction,
    build_params,
    build_schedule,
    config_center,
    config_hash,
    load_config,
    validate_config,
)
from .spectral import ResonanceError, lapack_band, lapack_rows

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def environment() -> dict:
    """What a byte-identical rerun needs to match besides config and seed:
    eigensolver and solve results can move in the last bits with the
    numpy/BLAS build, and with its thread count unless ``blas_pinned``
    says each Python thread ran its BLAS calls on one thread.
    ``lapack_rows`` says whether ``dynamics`` read its eigenvector rows
    from the rows solve or from ``eigh`` (``spectral.diagonalize_rows``),
    which differ in the last bits.  ``lapack_band`` says whether the
    ``singular`` event factored and solved its band matrices with
    ``dpbtrf`` and ``dgbsv`` or expanded them to dense for
    ``np.linalg`` (``spectral.GapCertificate``), which may differ in the
    last bits of a boundary value and so, at a tie with the threshold or
    the certificate's margin, in a flag."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": usable_cpus(),
        "blas_pinned": blas_thread_setter() is not None,
        "lapack_rows": lapack_rows(),
        "lapack_band": lapack_band(),
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _nan_path(value, path: str = "") -> str | None:
    """The key path of the first NaN float in a JSON payload, else None."""
    if isinstance(value, float) and value != value:
        return path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, (list, tuple)) else ())
    for key, item in items:
        found = _nan_path(item, f"{path}[{key!r}]")
        if found is not None:
            return found
    return None


class RunWriter:
    """Collects output files, then writes a manifest with checksums.

    The output directory is created at the first write, so a command that
    rejects its configuration leaves nothing behind.
    """

    def __init__(self, out_dir: str, raw_config: dict):
        self.out_dir = out_dir
        self.raw_config = raw_config
        self.files: list = []
        self.started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def _open(self, name: str, **kwargs):
        """The file, opened for writing; an unwritable path is a usage error."""
        try:
            os.makedirs(self.out_dir, exist_ok=True)
            return open(self.path(name), "w", **kwargs)
        except OSError as exc:
            raise ConfigError(f"cannot write output {self.path(name)}: {exc.strerror}") from exc

    def write_csv(self, name: str, header: list, rows: list) -> None:
        """Write the table; a NaN float cell decides nothing, so it raises
        ``FloatingPointError`` before the file is opened (``inf`` passes:
        a boundary Green value at a resonant energy is infinite)."""
        for row in rows:
            for column, value in zip(header, row):
                if isinstance(value, float) and value != value:
                    raise FloatingPointError(f"{name}: column {column!r} holds NaN")
        with self._open(name, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        self.files.append(name)

    def write_json(self, name: str, payload) -> None:
        """Write the payload; a NaN float anywhere in it raises
        ``FloatingPointError``, naming its key path, before the file is
        opened (``inf`` passes, as in ``write_csv``)."""
        where = _nan_path(payload)
        if where is not None:
            raise FloatingPointError(f"{name}: {where} holds NaN")
        with self._open(name) as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        self.files.append(name)

    def finalize(self) -> None:
        outputs = []
        for name in self.files:
            p = self.path(name)
            digest = hashlib.sha256(Path(p).read_bytes()).hexdigest()
            outputs.append(
                {"path": name, "sha256": digest, "bytes": os.path.getsize(p)}
            )
        manifest = {
            "tool_version": __version__,
            "config_sha256": config_hash(self.raw_config),
            "environment": environment(),
            "started_utc": self.started,
            "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "outputs": outputs,
        }
        with self._open("manifest.json") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")


VIOLATION_HEADER = ["experiment", "trial", "lemma", "scale", "energy", "magnitude", "detail"]


def _violation_row(idx: int, trial: int, v) -> list:
    return [idx, trial, v.lemma, v.radius, v.energy, v.magnitude, v.detail]


def _experiments_of(raw: dict, kind: str) -> list:
    experiments = [e for e in raw["experiments"] if e["kind"] == kind]
    if not experiments:
        raise ConfigError(f"config contains no {kind} experiment")
    return experiments


def _setup_for(raw: dict, exp: dict) -> TrialSetup:
    geometry = build_geometry(raw)
    params = build_params(raw)
    center = config_center(exp, geometry, raw["particles"])
    second = None
    if exp.get("second_center") is not None:
        second = config_center(exp, geometry, raw["particles"], "second_center")
    return TrialSetup(
        geometry=geometry,
        params=params,
        field_model=build_field_model(raw),
        interaction=build_interaction(raw),
        center=center,
        radius=exp.get("radius", params.initial_scale),
        coupling=raw.get("coupling", 1.0),
        convention=raw.get("convention", "fixed"),
        sub_scale=exp.get("sub_scale"),
        second_center=second,
    )


def _seed(raw: dict, args) -> int:
    return args.seed if args.seed is not None else raw["seed"]


def _trials(exp: dict, args) -> int:
    return args.trials if args.trials is not None else exp.get("trials", 1)


# -- commands ----------------------------------------------------------------


def cmd_spectrum(raw: dict, writer: RunWriter, args) -> int:
    seed = _seed(raw, args)
    rows = []
    summary = []
    for idx, exp in enumerate(_experiments_of(raw, "spectrum")):
        setup = _setup_for(raw, exp)
        trials = _trials(exp, args)
        for t, ctx in enumerate(setup.contexts(trial_seeds(seed, trials))):
            # no name binds the eigensystem: it dies with ``ctx``, before
            # the next trial's solve
            values = ctx.eigensystem(setup.center, setup.radius).eigenvalues
            rows += [[idx, t, i, lam] for i, lam in enumerate(values.tolist())]
        summary.append(
            {"experiment": idx, "ball_size": len(setup.balls()[0]), "trials": trials}
        )
    writer.write_csv(
        "spectrum.csv", ["experiment", "trial", "index", "eigenvalue"], rows
    )
    writer.write_json("summary.json", {"spectrum": summary})
    return EXIT_OK


def cmd_predicates(raw: dict, writer: RunWriter, args) -> int:
    seed = _seed(raw, args)
    rows = []
    records = []
    violation_rows = []
    total_violations = 0
    diagnostics = []
    plans = []
    for exp in _experiments_of(raw, "predicates"):
        setup = _setup_for(raw, exp)
        sub_scale = exp.get("sub_scale") or max(1, setup.radius // 2)
        if sub_scale >= setup.radius:
            raise ConfigError(f"sub-scale {sub_scale} must be below radius {setup.radius}")
        plans.append((exp, setup, sub_scale))
    for idx, (exp, setup, sub_scale) in enumerate(plans):
        energies = exp.get("energies", [0.0])
        trials = predicates_trials(setup, trial_seeds(seed, _trials(exp, args)), energies,
                                   sub_scale, grid_stride=exp.get("grid_stride"))
        for t, (reps, res) in enumerate(trials):
            for energy, rep in zip(energies, reps):
                rows.append(
                    [
                        idx,
                        t,
                        setup.radius,
                        json.dumps(list(setup.center)),
                        energy,
                        int(rep.e_nr),
                        int(rep.e_cnr),
                        int(rep.e_ns),
                        int(rep.m_localized),
                        int(rep.m_tunneling),
                        rep.worst_boundary_green,
                        rep.ns_threshold,
                    ]
                )
                records.append(
                    {"experiment": idx, "trial": t, **rep.to_jsonable()}
                )
            total_violations += len(res.violations)
            violation_rows += [_violation_row(idx, t, v) for v in res.violations]
            diagnostics.append({"experiment": idx, "trial": t, **res.counters})
    writer.write_csv(
        "predicates.csv",
        [
            "experiment",
            "trial",
            "scale",
            "center",
            "energy",
            "e_nr",
            "e_cnr",
            "e_ns",
            "m_localized",
            "m_tunneling",
            "worst_boundary_green",
            "ns_threshold",
        ],
        rows,
    )
    writer.write_csv("violations.csv", VIOLATION_HEADER, violation_rows)
    writer.write_json(
        "summary.json",
        {"predicates": records, "violation_count": total_violations,
         "diagnostics": diagnostics},
    )
    return EXIT_VIOLATIONS if total_violations else EXIT_OK


def cmd_audit(raw: dict, writer: RunWriter, args) -> int:
    experiments = _experiments_of(raw, "audit")
    seed = _seed(raw, args)
    schedule = build_schedule(raw)
    if schedule is None:
        raise ConfigError("audit needs a schedule block")
    rows = []
    violation_rows = []
    total_violations = 0
    summary = {}
    for idx, exp in enumerate(experiments):
        exp_violations = 0
        setup = _setup_for(raw, exp)
        result = run_scaling_audit(
            setup,
            schedule,
            exp.get("k_max", 0),
            _trials(exp, args),
            derive_seed(seed, "audit", idx),
            matrix_cap=exp.get("matrix_cap", 2500),
            grid_stride=exp.get("grid_stride"),
        )
        for r in result.rows:
            # a skipped scale estimates nothing: empty fields, not nan
            estimate = ("", "", "") if r.skipped else (r.p_hat, r.ci_lo, r.ci_hi)
            rows.append(
                [
                    idx,
                    r.k,
                    r.scale,
                    r.trials,
                    r.non_localized,
                    *estimate,
                    r.schedule_bound,
                    r.violation_count,
                    int(r.skipped),
                    r.note,
                ]
            )
            exp_violations += r.violation_count
        violation_rows += [_violation_row(idx, t, v) for t, v in result.violations]
        constraints = check_param_constraints(setup.params, schedule)
        summary[f"experiment_{idx}"] = {
            "constraints": [
                {"name": c.name, "satisfied": c.satisfied, "margin": c.margin}
                for c in constraints
            ],
            "violation_count": exp_violations,
        }
        total_violations += exp_violations
    writer.write_csv(
        "audit_scales.csv",
        [
            "experiment",
            "k",
            "scale",
            "trials",
            "non_localized",
            "p_hat",
            "ci_lo",
            "ci_hi",
            "schedule_bound",
            "violations",
            "skipped",
            "note",
        ],
        rows,
    )
    writer.write_csv("violations.csv", VIOLATION_HEADER, violation_rows)
    writer.write_json("summary.json", summary)
    return EXIT_VIOLATIONS if total_violations else EXIT_OK


def cmd_evc(raw: dict, writer: RunWriter, args) -> int:
    seed = _seed(raw, args)
    rows = []
    summary = {}
    for idx, exp in enumerate(_experiments_of(raw, "evc")):
        setup = _setup_for(raw, exp)
        if setup.second_center is None:
            raise ConfigError("evc needs a second center")
        report = evc_experiment(
            setup,
            _trials(exp, args),
            exp.get("s_grid", [0.01, 0.05, 0.1]),
            derive_seed(seed, "evc", idx),
            constants=exp.get("constants"),
        )
        closed_ok = None
        if report.closed_form is not None:
            closed_ok = bool(
                np.all(
                    np.abs(report.empirical_cdf - report.closed_form)
                    <= 3.0 * report.stderr + 1e-12
                )
            )
        for i, s in enumerate(report.s_grid):
            rows.append(
                [
                    idx,
                    float(s),
                    float(report.empirical_cdf[i]),
                    float(report.stderr[i]),
                    float(report.bound_curve[i]),
                    float(report.closed_form[i])
                    if report.closed_form is not None
                    else "",
                ]
            )
        summary[f"experiment_{idx}"] = {
            "trials": report.trials,
            "weakly_separable": report.weakly_separable,
            "monotone": report.monotone(),
            "closed_form_within_3_stderr": closed_ok,
        }
    writer.write_csv(
        "evc.csv",
        ["experiment", "s", "empirical_cdf", "stderr", "bound_curve", "closed_form"],
        rows,
    )
    writer.write_json("summary.json", summary)
    return EXIT_OK


def cmd_dynamics(raw: dict, writer: RunWriter, args) -> int:
    seed = _seed(raw, args)
    rows = []
    summary = {}
    for idx, exp in enumerate(_experiments_of(raw, "dynamics")):
        setup = _setup_for(raw, exp)
        ball = setup.balls()[0]
        window = tuple(exp["window"]) if exp.get("window") else None
        t_grid = default_time_grid(exp.get("time_points", 10_000))
        if exp.get("pairs"):
            pairs = [
                (tuple(p[0]), tuple(p[1]))
                if isinstance(p[0], list)
                else (tuple(p[0:1]), tuple(p[1:2]))
                for p in exp["pairs"]
            ]
            for x, y in pairs:
                if not (ball.contains(x) and ball.contains(y)):
                    raise ConfigError(
                        f"dynamics pair {json.dumps([x, y])} is not in the ball of "
                        f"radius {setup.radius} around {json.dumps(setup.center)}"
                    )
        else:
            pairs = centre_pairs(ball)
        trials = _trials(exp, args)
        # rounding allowance of a sum over the ball's n eigenvalues
        allowance = len(ball) * 2.0**-53
        fit_points = {}
        worst_q = 0.0
        worst_comp = 0.0
        worst_prop = 0.0
        q_rows = prop_rows = 0
        values = dynamics_trials(setup, trial_seeds(seed, trials), pairs, t_grid, window)
        for t, trial in enumerate(values):
            for (x, y), (q, comp, prop) in zip(pairs, trial):
                rho = config_distance(x, y, setup.geometry)
                rows.append(
                    [
                        idx,
                        t,
                        json.dumps(list(x)),
                        json.dumps(list(y)),
                        rho,
                        q,
                        prop,
                        comp,
                    ]
                )
                worst_q = max(worst_q, q - 1.0)
                worst_comp = max(worst_comp, abs(comp))
                worst_prop = max(worst_prop, prop - q)
                q_rows += q - 1.0 > allowance
                prop_rows += prop - q > allowance * q
                if rho >= 1:
                    fit_points.setdefault(rho, []).append(q)
        fit = None
        mean_pairs = [
            (rho, float(np.mean(vals))) for rho, vals in sorted(fit_points.items())
        ]
        positive = [(r, v) for r, v in mean_pairs if v > 0]
        if len(positive) >= 3:
            f = decay_fit(positive)
            fit = {
                "m_eff": f.m_eff,
                "a": f.a,
                "c": f.c,
                "residual_linear": f.residual_linear,
                "residual_log": f.residual_log,
                "used_points": f.used_points,
                "excluded_points": f.excluded_points,
                "c_at_grid_edge": f.c_at_grid_edge,
            }
        summary[f"experiment_{idx}"] = {
            "trials": trials,
            "max_correlator_excess": worst_q,
            "max_completeness_defect": worst_comp,
            "max_propagator_excess": worst_prop,
            # rows beyond the rounding allowance, n 2^-53 (times q for sup <= q)
            "correlator_excess_rows": q_rows,
            "propagator_excess_rows": prop_rows,
            "decay_fit": fit,
        }
    writer.write_csv(
        "dynamics.csv",
        [
            "experiment",
            "trial",
            "x",
            "y",
            "rho",
            "correlator_q",
            "propagator_sup",
            "completeness_defect",
        ],
        rows,
    )
    writer.write_json("summary.json", summary)
    return EXIT_OK


def cmd_sweep(raw: dict, writer: RunWriter, args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}")
    if not values:
        raise ConfigError("empty sweep value list")
    for value in values:
        if not math.isfinite(value):
            raise ConfigError(f"sweep value {value!r} is not finite")
        if abs(value) > MAX_MAGNITUDE:
            raise ConfigError(f"sweep value {value!r} exceeds {MAX_MAGNITUDE:g} in magnitude")
        if args.axis == "L0" and value != int(value):
            raise ConfigError(f"L0 sweep value {value!r} is not an integer")
    experiments = _experiments_of(raw, "event")
    if len(experiments) > 1:
        # trend.csv has no experiment column
        raise ConfigError(f"sweep takes one event experiment, got {len(experiments)}")
    exp = experiments[0]
    event = exp.get("event")
    if event is None:
        raise ConfigError("event experiment needs an event")
    trials = _trials(exp, args)
    if trials < min_event_trials(event):
        raise ConfigError(
            f"event {event!r} needs at least {min_event_trials(event)} trials, got {trials}"
        )
    seed = _seed(raw, args)
    # every point's config passes the schema (mass > 0, say) and carries the
    # event's own inputs before any trial
    setups = []
    for value in values:
        sub = json.loads(json.dumps(raw))
        if args.axis == "g":
            sub["coupling"] = value
        elif args.axis == "L0":
            sub.setdefault("scaling", {})["initial_scale"] = int(value)
        elif args.axis == "m":
            sub.setdefault("scaling", {})["mass"] = value
        else:
            raise ConfigError(f"unknown sweep axis {args.axis!r}")
        setup = _setup_for(validate_config(sub), exp)
        if args.axis == "L0":
            setup = dataclasses.replace(setup, radius=int(value))
        problem = event_input_error(setup, event, exp.get("energy"))
        if problem is not None:
            raise ConfigError(problem)
        setups.append((value, setup))
    rows = []
    diagnostics = []
    for value, setup in setups:
        est = estimate_event_probability(
            setup,
            event,
            trials,
            derive_seed(seed, "sweep", repr(value)),
            energy=exp.get("energy"),
        )
        rows.append(
            [args.axis, value, est.successes, est.trials, est.p_hat, est.ci_lo, est.ci_hi]
        )
        if est.cleared is not None:
            diagnostics.append({"value": value, "certificate_cleared": est.cleared,
                                "eigvalsh_screened": est.trials - est.cleared,
                                "blocks": est.blocks,
                                "cholesky_fallback_blocks": est.cholesky_fallback_blocks})
    writer.write_csv(
        "trend.csv",
        ["axis", "value", "successes", "trials", "p_hat", "ci_lo", "ci_hi"],
        rows,
    )
    summary = {"sweep": {"axis": args.axis, "points": len(rows)}}
    if diagnostics:
        summary["diagnostics"] = diagnostics
    writer.write_json("summary.json", summary)
    return EXIT_OK


COMMANDS = {
    "spectrum": cmd_spectrum,
    "predicates": cmd_predicates,
    "audit": cmd_audit,
    "evc": cmd_evc,
    "dynamics": cmd_dynamics,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpdsa",
        description="Spectral experiments on interacting lattice particles in random potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--trials", type=int, default=None, help="trial override")
        if name == "sweep":
            p.add_argument("--axis", choices=["g", "L0", "m"], default=None)
            p.add_argument("--values", default=None, help="comma-separated values")
    return parser


# glibc's mallopt parameters
M_ARENA_MAX, M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -8, -1, -3


def configure_malloc() -> None:
    """Set glibc's malloc up for this program, where libc has ``mallopt``.

    One arena for all threads: by default each thread that allocates gets
    an arena of its own, and memory freed in a worker's arena is not
    reused by the main thread, which raised the peak resident set by about
    a sixth.  Blocks up to 32 MB come from the heap, and up to 512 MB of
    free heap stays mapped, so one trial's n x n matrices and LAPACK
    workspaces are reused by the next instead of each a fresh ``mmap``
    whose pages fault in again.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library handle
        return
    mallopt.restype = ctypes.c_int
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(M_ARENA_MAX, 1)
    mallopt(M_TRIM_THRESHOLD, 512 * 2**20)
    # glibc's ceiling on 64-bit hosts
    mallopt(M_MMAP_THRESHOLD, 32 * 2**20)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or os.environ.get("MPDSA_OUT") or raw.get("output_dir", "out")
    configure_malloc()
    # parallelism comes from independent kernels on threads (msa.run_pinned),
    # never from BLAS: one BLAS thread per Python thread
    set_blas_threads = blas_thread_setter()
    blas_threads = None if set_blas_threads is None else set_blas_threads(1)
    try:
        # validate sweep flags before creating any output
        if args.command == "sweep" and (args.axis is None or args.values is None):
            raise ConfigError("sweep needs --axis and --values")
        if args.trials is not None and args.trials < 1:
            raise ConfigError(f"--trials must be at least 1, got {args.trials}")
        if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
            raise ConfigError(f"--seed must be from 0 to 2**63 - 1, got {args.seed}")
        writer = RunWriter(out_dir, raw)
        code = COMMANDS[args.command](raw, writer, args)
        writer.finalize()
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, ResonanceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        if blas_threads is not None:
            set_blas_threads(blas_threads)


if __name__ == "__main__":
    sys.exit(main())
