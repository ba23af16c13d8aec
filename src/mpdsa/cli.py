"""Command-line entry point.

Exit codes: 0 success, 1 a deterministic-implication violation was
recorded (the run itself succeeded), 2 invalid configuration or usage
(nothing written), 3 numerical failure.

All CSV output is RFC-4180 style with a header row and full-precision
decimal floats; reruns with the same configuration and seed produce
byte-identical CSV files on the same numpy/BLAS build and thread count.
The manifest lists every output file with its SHA-256 checksum, and that
environment.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .configspace import config_distance
from .disorder import derive_seed
from .experiments import (
    TrialSetup,
    decay_fit,
    ef_correlator,
    correlator_completeness,
    default_time_grid,
    estimate_event_probability,
    event_input_error,
    evc_experiment,
    min_event_trials,
    propagator_sups,
    run_scaling_audit,
)
from .msa import check_param_constraints, predicate_report, verify_implications
from .runconfig import (
    MAX_MAGNITUDE,
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
from .spectral import ResonanceError

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
    numpy/BLAS build and its thread count."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": len(cpus) if cpus is not None else os.cpu_count(),
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


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
        os.makedirs(self.out_dir, exist_ok=True)
        return open(self.path(name), "w", **kwargs)

    def write_csv(self, name: str, header: list, rows: list) -> None:
        with self._open(name, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        self.files.append(name)

    def write_json(self, name: str, payload) -> None:
        with self._open(name) as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        self.files.append(name)

    def finalize(self) -> None:
        outputs = []
        for name in self.files:
            p = self.path(name)
            digest = hashlib.sha256(open(p, "rb").read()).hexdigest()
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


def _trial_seeds(seed: int, trials: int) -> list:
    return [derive_seed(seed, "trial", t) for t in range(trials)]


# -- commands ----------------------------------------------------------------


def cmd_spectrum(raw: dict, writer: RunWriter, args) -> int:
    seed = _seed(raw, args)
    rows = []
    summary = []
    for idx, exp in enumerate(_experiments_of(raw, "spectrum")):
        setup = _setup_for(raw, exp)
        trials = _trials(exp, args)
        for t, ctx in enumerate(setup.contexts(_trial_seeds(seed, trials))):
            es = ctx.eigensystem(setup.center, setup.radius)
            for i, lam in enumerate(es.eigenvalues):
                rows.append([idx, t, i, float(lam)])
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
    plans = []
    for exp in _experiments_of(raw, "predicates"):
        setup = _setup_for(raw, exp)
        sub_scale = exp.get("sub_scale") or max(1, setup.radius // 2)
        if sub_scale >= setup.radius:
            raise ConfigError(f"sub-scale {sub_scale} must be below radius {setup.radius}")
        plans.append((exp, setup, sub_scale))
    for idx, (exp, setup, sub_scale) in enumerate(plans):
        trials = _trials(exp, args)
        energies = exp.get("energies", [0.0])
        for t, ctx in enumerate(setup.contexts(_trial_seeds(seed, trials))):
            for energy in energies:
                rep = predicate_report(
                    ctx, setup.center, setup.radius, energy, sub_scale
                )
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
            res = verify_implications(
                ctx, setup.center, setup.radius, sub_scale, grid_stride=exp.get("grid_stride")
            )
            total_violations += len(res.violations)
            violation_rows += [_violation_row(idx, t, v) for v in res.violations]
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
        {"predicates": records, "violation_count": total_violations},
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
            rows.append(
                [
                    idx,
                    r.k,
                    r.scale,
                    r.trials,
                    r.non_localized,
                    r.p_hat,
                    r.ci_lo,
                    r.ci_hi,
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
            # centre against the first member at each distinct distance
            dists = ball.distances_from_center
            pairs = [(ball.center, ball.center)]
            seen = {0}
            for i, r in enumerate(dists):
                if int(r) not in seen:
                    seen.add(int(r))
                    pairs.append((ball.center, ball.members[i]))
        trials = _trials(exp, args)
        fit_points = {}
        worst_q = 0.0
        worst_comp = 0.0
        worst_prop = 0.0
        for t, ctx in enumerate(setup.contexts(_trial_seeds(seed, trials))):
            es = ctx.eigensystem(setup.center, setup.radius)
            sups = propagator_sups(es, pairs, t_grid).tolist()
            for (x, y), prop in zip(pairs, sups):
                q = ef_correlator(es, x, y, window)
                comp = correlator_completeness(es, x, y)
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
            }
        summary[f"experiment_{idx}"] = {
            "trials": trials,
            "max_correlator_excess": worst_q,
            "max_completeness_defect": worst_comp,
            "max_propagator_excess": worst_prop,
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or os.environ.get("MPDSA_OUT") or raw.get("output_dir", "out")
    try:
        # validate sweep flags before creating any output
        if args.command == "sweep" and (args.axis is None or args.values is None):
            raise ConfigError("sweep needs --axis and --values")
        if args.trials is not None and args.trials < 1:
            raise ConfigError(f"--trials must be at least 1, got {args.trials}")
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


if __name__ == "__main__":
    sys.exit(main())
