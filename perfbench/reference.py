"""Output checks for the benchmark, computed apart from the program.

The Hamiltonian of a 1D two-particle ball is rebuilt here from the
definition in the package README: hopping -1 between configurations that
differ by one particle moving one site, the "fixed" diagonal (the sum of
the one-particle degrees, 2 per particle), g times the field summed over
the particles, and the step interaction counted over ordered pairs.  Only
the field values come from the program, through its public sampler,
because they are the program's input.  Green columns come from direct
linear solves, eigenfunctions from a plain LAPACK call and propagators
from ``scipy.linalg.expm``; nothing goes through ``mpdsa.spectral``.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from mpdsa.disorder import FieldModel, derive_seed, sample_field

EPS = float(np.finfo(float).eps)
Z95 = 1.959963984540054

# Defaults of the finite-range scaling regime (mpdsa.msa.ScalingParams).
TAU = 1.0 / 8.0
BETA = 0.5
NUMERICAL_FLOOR = 1e-12
# m-loc demands decay at distances >= L**((1 + varrho) / alpha), with
# varrho = 1/6 and alpha = 4/3, i.e. the exponent 7/8.
LOC_EXPONENT = (7, 8)

# Eigenfunction amplitudes below safety * eps * |H| / gap are rounding
# noise (the adaptive floor the README describes).
NOISE_SAFETY = 32.0

# Relative agreement demanded of worst_boundary_green with a direct solve.
GREEN_RTOL = 1e-6
# Tolerance of the correlator and propagator invariants.
INVARIANT_TOL = 1e-10
# expm at t <= 10 agrees with the exact propagator of an n = 561 ball to
# about 4e-13; the grid times below stay in that range.
EXPM_GRID_INDICES = (0, 400, 800, 1200)
EXPM_TOL = 1e-11
# The sweep's g = 3 count must lie within this many standard deviations of
# the count the reference operator gives on as many trials of its own.
RATE_SIGMAS = 5.0
# Decisions this close to their threshold depend on the last bits of the
# eigensolve and are not compared.
TIE_RTOL = 1e-6


# -- the operator -------------------------------------------------------------


class TwoParticleBall:
    """Hamiltonian of a 1D two-particle ball under the "fixed" convention."""

    def __init__(self, raw: dict, center, radius: int, trial_seed: int):
        c0, c1 = center
        self.members = sorted(
            (a, b)
            for a in range(c0 - radius, c0 + radius + 1)
            for b in range(c1 - radius, c1 + radius + 1)
            if a > b
        )
        self.index = {m: i for i, m in enumerate(self.members)}
        self.center_index = self.index[(c0, c1)]
        self.radius = radius
        disorder = raw.get("disorder", {})
        model = FieldModel(
            kind=disorder.get("kind", "iid"),
            marginal=disorder.get("marginal", "uniform"),
        )
        sites = tuple(range(c1 - radius, c0 + radius + 1))
        field = sample_field(model, sites, trial_seed).values
        coupling = raw["coupling"]
        interaction = raw["interaction"]
        if interaction["kind"] != "step":
            raise ValueError("the reference operator knows the step interaction only")
        pair_energy = 2.0 * interaction["amplitude"]  # ordered pair counting
        step_range = interaction["range"]

        n = len(self.members)
        h = np.zeros((n, n))
        boundary = []
        for i, (a, b) in enumerate(self.members):
            u = pair_energy if a - b <= step_range else 0.0
            h[i, i] = 4.0 + (coupling * (field[a] + field[b]) + u)
            outside = False
            for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                if nb[0] <= nb[1]:
                    continue  # the two particles would meet or swap
                j = self.index.get(nb)
                if j is None:
                    outside = True
                else:
                    h[i, j] = -1.0
            if outside:
                boundary.append(i)
        self.matrix = h
        self.boundary = np.array(boundary)

    def boundary_green(self, energy: float) -> float:
        """max over the interior boundary of |G(x, centre; E)| by a solve."""
        n = len(self.members)
        rhs = np.zeros(n)
        rhs[self.center_index] = 1.0
        g = np.linalg.solve(self.matrix - energy * np.eye(n), rhs)
        return float(np.max(np.abs(g[self.boundary])))

    def worst_loc_ratio(self, mass: float) -> float:
        """Largest |psi(x) psi(y)| / threshold over eigenfunctions and pairs.

        Brute force over all member pairs at distance >= L^(7/8) and every
        eigenfunction; the threshold is e^{-rate dist}, clamped below at
        the per-eigenfunction noise floor.  Localized iff the result <= 1.
        """
        lam, vecs = np.linalg.eigh(self.matrix)
        L = self.radius
        p, q = LOC_EXPONENT
        rmin = 1
        while rmin**q < L**p:
            rmin += 1
        rate = mass * (1.0 + L ** (-TAU))
        arr = np.array(self.members)
        dist = np.max(np.abs(arr[:, None, :] - arr[None, :, :]), axis=2)
        decay = np.where(dist >= rmin, np.exp(-rate * dist), np.inf)
        gaps = np.full(len(lam), np.inf)
        diffs = np.diff(lam)
        gaps[:-1] = diffs
        gaps[1:] = np.minimum(gaps[1:], diffs)
        noise = NOISE_SAFETY * EPS * max(float(np.max(np.abs(lam))), 1.0)
        floors = np.maximum(NUMERICAL_FLOOR, noise / gaps)
        worst = 0.0
        for j in range(len(lam)):
            v = np.abs(vecs[:, j])
            ratio = np.outer(v, v) / np.maximum(decay, floors[j])
            worst = max(worst, float(ratio.max()))
        return worst


def ns_threshold(L: int, mass: float) -> float:
    """Analytic boundary threshold e^{-m (1 + L^-tau) L + 2 L^beta}."""
    return math.exp(-mass * (1.0 + L ** (-TAU)) * L + 2.0 * L**BETA)


def ns_noise_floor(L: int) -> float:
    """Smallest boundary value the program certifies: floor (1 + e^{L^beta})."""
    return NUMERICAL_FLOOR * (1.0 + math.exp(L**BETA))


def trial_ball(raw: dict, trial: int) -> TwoParticleBall:
    exp = raw["experiments"][0]
    return TwoParticleBall(
        raw, exp["center"], exp["radius"], derive_seed(raw["seed"], "trial", trial)
    )


# -- files --------------------------------------------------------------------


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.csv"))}


def check_manifest(out_dir: Path) -> list:
    """Every manifest entry matches its file; every CSV is listed."""
    out_dir = Path(out_dir)
    failures = []
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    listed = set()
    for entry in manifest.get("outputs", []):
        path = out_dir / entry["path"]
        listed.add(entry["path"])
        data = path.read_bytes() if path.is_file() else None
        if data is None:
            failures.append(f"manifest lists missing {entry['path']}")
        elif hashlib.sha256(data).hexdigest() != entry["sha256"]:
            failures.append(f"sha256 mismatch for {entry['path']}")
        elif len(data) != entry["bytes"]:
            failures.append(f"size mismatch for {entry['path']}")
    for p in out_dir.glob("*.csv"):
        if p.name not in listed:
            failures.append(f"{p.name} missing from the manifest")
    return failures


def compare_outputs(first: Path, second: Path) -> list:
    """CSV files of two runs of one configuration are byte-identical."""
    a, b = csv_bytes(first), csv_bytes(second)
    if a.keys() != b.keys():
        return [f"rerun wrote {sorted(b)} instead of {sorted(a)}"]
    return [f"rerun changed {name}" for name in a if a[name] != b[name]]


# -- predicates ---------------------------------------------------------------


def check_predicates(raw: dict, out_dir: Path, exit_code: int, brute_force: bool) -> list:
    """Flags, boundary values and violation witnesses of ``mpdsa predicates``."""
    out_dir = Path(out_dir)
    exp = raw["experiments"][0]
    L = exp["radius"]
    mass = raw["scaling"]["mass"]
    floor = ns_noise_floor(L)
    thr_analytic = ns_threshold(L, mass)
    thr = max(thr_analytic, floor)
    rows = read_csv(out_dir / "predicates.csv")
    violations = read_csv(out_dir / "violations.csv")
    failures = []
    expected_rows = exp["trials"] * len(exp["energies"])
    if len(rows) != expected_rows:
        failures.append(f"{len(rows)} predicate rows, expected {expected_rows}")
    if exit_code != (1 if violations else 0):
        failures.append(f"exit code {exit_code} with {len(violations)} violations")

    balls = {}

    def ball(trial: int) -> TwoParticleBall:
        if trial not in balls:
            balls[trial] = trial_ball(raw, trial)
        return balls[trial]

    for row in rows:
        t, energy = int(row["trial"]), float(row["energy"])
        worst = float(row["worst_boundary_green"])
        where = f"trial {t} energy {energy}"
        if not math.isclose(float(row["ns_threshold"]), thr, rel_tol=1e-12):
            failures.append(f"{where}: ns_threshold {row['ns_threshold']} != {thr!r}")
        if int(row["e_ns"]) != int(worst <= float(row["ns_threshold"])):
            failures.append(f"{where}: e_ns {row['e_ns']} disagrees with {worst!r}")
        if int(row["e_cnr"]) and not int(row["e_nr"]):
            failures.append(f"{where}: e_cnr without e_nr")
        ref = ball(t).boundary_green(energy)
        # below the certification floor both values are rounding noise
        if not abs(worst - ref) <= GREEN_RTOL * ref + floor:
            failures.append(f"{where}: worst_boundary_green {worst!r}, solve gives {ref!r}")
        elif abs(ref - thr) > TIE_RTOL * thr and int(row["e_ns"]) != int(ref <= thr):
            failures.append(f"{where}: e_ns {row['e_ns']} but the solve gives {ref!r}")

    loc_by_trial = {}
    for row in rows:
        loc_by_trial.setdefault(int(row["trial"]), set()).add(int(row["m_localized"]))
    for t, flags in loc_by_trial.items():
        if len(flags) != 1:
            failures.append(f"trial {t}: m_localized differs between energies")

    loc_magnitudes = {}
    for v in violations:
        t = int(v["trial"])
        if v["energy"] == "None":  # the m-loc implication has no energy
            loc_magnitudes[t] = float(v["magnitude"])
            if loc_by_trial.get(t) != {0}:
                failures.append(f"trial {t}: {v['lemma']} on a localized ball")
            continue
        energy = float(v["energy"])
        ref = ball(t).boundary_green(energy)
        recorded = float(v["magnitude"]) * thr_analytic
        if not ref > thr:
            failures.append(f"trial {t} {v['lemma']} at {energy!r}: solve gives {ref!r} <= {thr!r}")
        if not abs(recorded - ref) <= GREEN_RTOL * ref + floor:
            failures.append(f"trial {t} {v['lemma']} at {energy!r}: recorded {recorded!r}, solve {ref!r}")

    if brute_force and 0 in loc_by_trial:
        worst = ball(0).worst_loc_ratio(mass)
        (flag,) = loc_by_trial[0]
        if abs(worst - 1.0) > TIE_RTOL and flag != int(worst <= 1.0):
            failures.append(f"trial 0: m_localized {flag}, brute force ratio {worst!r}")
        recorded = loc_magnitudes.get(0, worst)
        if not math.isclose(recorded, worst, rel_tol=TIE_RTOL):
            failures.append(f"trial 0: m-loc violation ratio {recorded!r}, brute force {worst!r}")
    return failures


# -- dynamics -----------------------------------------------------------------


def time_grid(points: int) -> np.ndarray:
    """The CLI's propagator grid: zero plus a log grid on [1e-2, 1e3]."""
    return np.concatenate([[0.0], np.logspace(-2.0, 3.0, points)])


def check_dynamics(raw: dict, out_dir: Path, exit_code: int, brute_force: bool) -> list:
    """Correlator and propagator invariants of ``mpdsa dynamics``."""
    exp = raw["experiments"][0]
    rows = read_csv(Path(out_dir) / "dynamics.csv")
    failures = []
    trial0 = []
    for row in rows:
        x, y = tuple(json.loads(row["x"])), tuple(json.loads(row["y"]))
        q, prop = float(row["correlator_q"]), float(row["propagator_sup"])
        comp = float(row["completeness_defect"])
        where = f"trial {row['trial']} {x}->{y}"
        if int(row["rho"]) != max(abs(a - b) for a, b in zip(x, y)):
            failures.append(f"{where}: rho {row['rho']}")
        if not q <= 1.0 + INVARIANT_TOL:
            failures.append(f"{where}: correlator {q!r} above 1")
        if not abs(comp) < INVARIANT_TOL:
            failures.append(f"{where}: completeness defect {comp!r}")
        if not prop <= q + INVARIANT_TOL:
            failures.append(f"{where}: propagator {prop!r} above correlator {q!r}")
        if x == y and not abs(prop - 1.0) <= INVARIANT_TOL:
            failures.append(f"{where}: diagonal propagator {prop!r} is not 1")
        if int(row["trial"]) == 0:
            trial0.append((x, y, prop))
    if len(rows) % exp["trials"] or not rows:
        failures.append(f"{len(rows)} rows for {exp['trials']} trials")
    if brute_force:
        ball = trial_ball(raw, 0)
        grid = time_grid(exp["time_points"])
        for i in EXPM_GRID_INDICES:
            u = np.abs(scipy.linalg.expm(-1j * grid[i] * ball.matrix))
            for x, y, prop in trial0:
                value = float(u[ball.index[x], ball.index[y]])
                if not prop >= value - EXPM_TOL:
                    failures.append(f"trial 0 {x}->{y}: sup {prop!r} below |U({grid[i]})| {value!r}")
    return failures


# -- sweep --------------------------------------------------------------------


def wilson(successes: int, trials: int, z: float = Z95) -> tuple:
    """Wilson score interval (p_hat, lo, hi), clamped to contain p_hat."""
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return p, min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def check_sweep(raw: dict, out_dir: Path, exit_code: int, brute_force: bool) -> list:
    """Wilson intervals of ``mpdsa sweep --axis g`` and their ordering."""
    rows = {float(r["value"]): r for r in read_csv(Path(out_dir) / "trend.csv")}
    failures = []
    if sorted(rows) != [3.0, 30.0]:
        return failures + [f"sweep values {sorted(rows)}"]
    for value, row in rows.items():
        s, n = int(row["successes"]), int(row["trials"])
        if n != raw["experiments"][0]["trials"] or not 0 <= s <= n:
            failures.append(f"g={value}: {s} of {n} trials")
            continue
        expected = wilson(s, n)
        got = tuple(float(row[k]) for k in ("p_hat", "ci_lo", "ci_hi"))
        if any(abs(a - b) > 1e-12 for a, b in zip(got, expected)):
            failures.append(f"g={value}: interval {got} != {expected}")
    if not float(rows[30.0]["ci_hi"]) < float(rows[3.0]["ci_lo"]):
        failures.append("g=30 interval does not lie below the g=3 interval")
    if brute_force:
        weak = dict(raw, coupling=3.0)
        s, n = int(rows[3.0]["successes"]), int(rows[3.0]["trials"])
        s_ref = sum(singular_at(weak, derive_seed(raw["seed"], "reference", t)) for t in range(n))
        pooled = (s + s_ref) / (2 * n)
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-12) * 2 / n)
        if abs(s - s_ref) / n > RATE_SIGMAS * sigma:
            failures.append(f"g=3: {s} singular of {n}, reference trials give {s_ref}")
    return failures


def singular_at(raw: dict, trial_seed: int) -> bool:
    """Is the ball singular at the experiment's energy (boundary Green too large)?"""
    exp = raw["experiments"][0]
    L = exp["radius"]
    ball = TwoParticleBall(raw, exp["center"], L, trial_seed)
    thr = max(ns_threshold(L, raw["scaling"]["mass"]), ns_noise_floor(L))
    return not ball.boundary_green(exp["energy"]) <= thr
