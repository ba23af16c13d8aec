"""Monte Carlo experiments over disorder realizations.

Trials are independent: trial t draws its field from the sub-seed
hash(seed, t), so results are reproducible and order-independent, and
aggregate through commutative counters only.  Probabilities carry 95%
Wilson intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .configspace import (
    LatticeGeometry,
    edge_boundary,
    enumerate_ball,
    find_separability_witness,
)
from .disorder import FieldModel, derive_seed, field_array, field_samples
from .msa import (
    AuditContext,
    BlockReports,
    BoundSchedule,
    ScalingParams,
    block_non_singularity,
    energy_grid,
    is_m_tunneling,
    ns_flags,
    verify_implications,
)
from .operators import HamiltonianSpec, InteractionModel
from .spectral import EigenSystem

Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple:
    """(point estimate, lower, upper) of a binomial proportion, at 95%."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    phat = successes / trials
    z = Z95
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = min(max(0.0, center - half), phat)
    hi = max(min(1.0, center + half), phat)
    return phat, lo, hi


@dataclass(frozen=True)
class ProbabilityEstimate:
    successes: int
    trials: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    # singular event: trials the gap certificate screened, blocks of trials,
    # and blocks whose stacked Cholesky failed
    cleared: int | None = None
    blocks: int | None = None
    cholesky_fallback_blocks: int | None = None

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "ProbabilityEstimate":
        p, lo, hi = wilson_interval(successes, trials)
        return cls(successes, trials, p, lo, hi)


# -- trial setup -------------------------------------------------------------


@dataclass(frozen=True)
class TrialSetup:
    """Everything a disorder trial needs except the seed."""

    geometry: LatticeGeometry
    params: ScalingParams
    field_model: FieldModel
    interaction: InteractionModel
    center: tuple
    radius: int
    coupling: float
    convention: str = "fixed"
    sub_scale: int | None = None
    second_center: tuple | None = None

    def ham_spec(self) -> HamiltonianSpec:
        return HamiltonianSpec(
            geometry=self.geometry,
            n_particles=self.params.n_particles,
            coupling=self.coupling,
            interaction=self.interaction,
            convention=self.convention,
        )

    def balls(self) -> list:
        out = [enumerate_ball(self.center, self.radius, self.geometry)]
        if self.second_center is not None:
            out.append(
                enumerate_ball(self.second_center, self.radius, self.geometry)
            )
        return out

    def region(self) -> tuple:
        sites: set = set()
        for b in self.balls():
            sites.update(b.projection)
        return tuple(sorted(sites))

    def context(self, trial_seed: int) -> AuditContext:
        """One row of ``contexts``."""
        return next(self.contexts([trial_seed]))

    def contexts(self, trial_seeds):
        """The ``AuditContext`` of each trial seed in turn, every trial's
        field drawn in one call."""
        spec = self.ham_spec()
        for sample in field_samples(self.field_model, self.region(), trial_seeds):
            yield AuditContext(spec, sample, self.params)


EVENTS = (
    "singular",
    "non_localized",
    "tunneling",
    "distant_pair_singular",
    "always_true",
    "always_false",
)


def event_input_error(setup: TrialSetup, event: str, energy) -> str | None:
    """What the event needs that the setup or energy lacks, else None."""
    if event == "singular" and energy is None:
        return "singular event needs an energy"
    if event in ("singular", "distant_pair_singular") and setup.radius < 1:
        return f"{event} event needs a radius of at least 1"
    if event == "tunneling" and setup.sub_scale is None:
        return "tunneling event needs a sub-scale"
    if event == "tunneling" and setup.sub_scale >= setup.radius:
        return f"sub-scale {setup.sub_scale} must be below radius {setup.radius}"
    if event == "distant_pair_singular" and setup.second_center is None:
        return "pair event needs a second center"
    return None


def _evaluate_event(setup: TrialSetup, event: str, ctx: AuditContext) -> bool:
    if event == "non_localized":
        return not ctx.m_loc(setup.center, setup.radius).localized
    if event == "tunneling":
        ball = ctx.ball(setup.center, setup.radius)
        return is_m_tunneling(ctx, ball, setup.sub_scale).tunneling
    if event == "distant_pair_singular":
        es1 = ctx.eigensystem(setup.center, setup.radius)
        es2 = ctx.eigensystem(setup.second_center, setup.radius)
        grid = energy_grid([es1.eigenvalues, es2.eigenvalues])
        f1, _ = ns_flags(es1, grid, ctx.params)
        f2, _ = ns_flags(es2, grid, ctx.params)
        return bool(np.any((~f1) & (~f2)))
    raise ValueError(f"unknown event {event!r}")


def singular_trials(setup: TrialSetup, energy: float, trial_seeds) -> BlockReports:
    """``is_EmNS`` reports of the setup's ball at the energy, one per trial
    seed, decided in blocks of trials (``msa.block_non_singularity``) from
    one ``field_array`` of every trial's field."""
    region = setup.region()
    return block_non_singularity(
        setup.ham_spec(), region, field_array(setup.field_model, region, trial_seeds),
        setup.center, setup.radius, energy, setup.params,
    )


def min_event_trials(event: str) -> int:
    """Fewest trials the event's probability is estimated from: 30 for a
    random event, none for the two deterministic controls."""
    return 0 if event in ("always_true", "always_false") else 30


def estimate_event_probability(
    setup: TrialSetup,
    event: str,
    trials: int,
    seed: int,
    energy: float | None = None,
) -> ProbabilityEstimate:
    """Probability of the event over seeded trials."""
    if trials < min_event_trials(event):
        raise ValueError(f"need at least {min_event_trials(event)} trials")
    problem = event_input_error(setup, event, energy)
    if problem is not None:
        raise ValueError(problem)
    if event in ("always_true", "always_false"):
        return ProbabilityEstimate.from_counts(trials if event == "always_true" else 0, trials)
    seeds = [derive_seed(seed, "trial", t) for t in range(trials)]
    if event != "singular":
        successes = sum(_evaluate_event(setup, event, ctx) for ctx in setup.contexts(seeds))
        return ProbabilityEstimate.from_counts(successes, trials)
    run = singular_trials(setup, float(energy), seeds)
    est = ProbabilityEstimate.from_counts(sum(not r.non_singular for r in run.reports), trials)
    return replace(est, cleared=sum(r.cleared for r in run.reports), blocks=run.blocks,
                   cholesky_fallback_blocks=run.cholesky_fallback_blocks)


# -- scaling audit -----------------------------------------------------------


@dataclass(frozen=True)
class ScaleRow:
    k: int
    scale: int
    trials: int
    non_localized: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    schedule_bound: float
    violation_count: int
    skipped: bool = False
    note: str = ""


@dataclass
class ScalingAuditResult:
    rows: list
    violations: list


def run_scaling_audit(
    setup: TrialSetup,
    schedule: BoundSchedule,
    k_max: int,
    trials: int,
    seed: int,
    matrix_cap: int = 2500,
    grid_stride: int | None = None,
) -> ScalingAuditResult:
    """Non-localization frequencies along the scale ladder, plus implication
    audits at every scale above the first; scales whose balls exceed the
    matrix cap are skipped with a notice."""
    params = setup.params
    ladder = params.scale_ladder(k_max)
    rows = []
    all_violations = []
    for k, L in enumerate(ladder):
        ball = enumerate_ball(setup.center, L, setup.geometry)
        if len(ball) > matrix_cap:
            rows.append(
                ScaleRow(
                    k, L, 0, 0, math.nan, math.nan, math.nan,
                    schedule.bound(L, params.n_particles, k), 0,
                    skipped=True,
                    note=f"ball size {len(ball)} exceeds cap {matrix_cap}",
                )
            )
            continue
        scale_setup = replace(
            setup, radius=L, sub_scale=ladder[k - 1] if k > 0 else None, second_center=None
        )
        # per-scale master seed, so the k = 0 row reproduces a plain
        # non-localization probability estimate bit for bit
        seed_k = derive_seed(seed, "scale", k)
        nonloc = 0
        vio_count = 0
        seeds = [derive_seed(seed_k, "trial", t) for t in range(trials)]
        for t, ctx in enumerate(scale_setup.contexts(seeds)):
            if not ctx.m_loc(setup.center, L).localized:
                nonloc += 1
            if k > 0:
                res = verify_implications(
                    ctx, setup.center, L, ladder[k - 1], grid_stride=grid_stride
                )
                vio_count += len(res.violations)
                all_violations.extend((t,) + (v,) for v in res.violations)
        p, lo, hi = wilson_interval(nonloc, trials)
        rows.append(
            ScaleRow(
                k, L, trials, nonloc, p, lo, hi,
                schedule.bound(L, params.n_particles, k), vio_count,
            )
        )
    return ScalingAuditResult(rows, all_violations)


# -- eigenvalue-spacing experiments -------------------------------------------


def evc_bound(s: float, L: int, sizes: tuple, constants: dict) -> float:
    """Concentration bound C2 L^A2 (2s)^b2 + |B'||B''| C1 L^A1 (2s)^b1.

    The primed constants (C1, A1, b1) weight the pair term, the
    double-primed ones the mean term; all six are configuration inputs.
    """
    n1, n2 = sizes
    s2 = 2.0 * s
    return constants.get("C2", 1.0) * L ** constants.get("A2", 0.0) * s2 ** constants.get(
        "b2", 1.0
    ) + n1 * n2 * constants.get("C1", 1.0) * L ** constants.get("A1", 0.0) * s2 ** constants.get(
        "b1", 1.0
    )


@dataclass
class EvcReport:
    s_grid: np.ndarray
    empirical_cdf: np.ndarray
    stderr: np.ndarray
    bound_curve: np.ndarray
    closed_form: np.ndarray | None
    distances: np.ndarray
    weakly_separable: bool
    trials: int

    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.empirical_cdf) >= -1e-15))


def evc_experiment(
    setup: TrialSetup, trials: int, s_grid, seed: int, constants: dict | None = None
) -> EvcReport:
    """Empirical CDF of the spectral distance between the setup's ball and
    the ball of the same radius around its second centre.

    Both spectra come from one ``AuditContext`` per trial
    (``TrialSetup.contexts``), so a ball that splits takes the factor path
    as in every other command.  The bound curve is
    (2L+1)^(2 N d) * evc_bound(2s) with the supplied constants; for two
    one-member single-particle balls with a uniform marginal the exact law
    2t - t^2, t = s/|g|, is attached (at g = 0 the distance is 0, so the
    law is the step at s = 0).
    """
    if setup.second_center is None:
        raise ValueError("evc needs a second center")
    constants = constants or {}
    ball_x, ball_y = setup.balls()
    seeds = [derive_seed(seed, "evc", t) for t in range(trials)]
    dists = np.empty(trials)
    for t, ctx in enumerate(setup.contexts(seeds)):
        e1 = ctx.spectrum(setup.center, setup.radius)
        e2 = ctx.spectrum(setup.second_center, setup.radius)
        dists[t] = float(np.min(np.abs(e1[:, None] - e2[None, :])))
    s_grid = np.asarray(list(s_grid), dtype=float)
    cdf = np.array([np.mean(dists <= s) for s in s_grid])
    stderr = np.sqrt(np.maximum(cdf * (1 - cdf), 1e-12) / trials)
    L, n, g = setup.radius, setup.params.n_particles, setup.geometry
    theorem_factor = float(2 * L + 1) ** (2 * n * g.d)
    bound = theorem_factor * np.array(
        [evc_bound(2.0 * s, L, (len(ball_x), len(ball_y)), constants) for s in s_grid]
    )
    closed = None
    model = setup.field_model
    if (
        len(ball_x) == 1
        and len(ball_y) == 1
        and n == 1
        and model.kind == "iid"
        and model.marginal == "uniform"
    ):
        if setup.coupling == 0.0:
            closed = (s_grid >= 0.0).astype(float)
        else:
            t_vals = np.clip(s_grid / abs(setup.coupling), 0.0, 1.0)
            closed = 2.0 * t_vals - t_vals**2
    witness = None
    if g.kind == "lattice":
        witness = find_separability_witness(ball_x, ball_y)
    return EvcReport(
        s_grid=s_grid,
        empirical_cdf=cdf,
        stderr=stderr,
        bound_curve=bound,
        closed_form=closed,
        distances=dists,
        weakly_separable=witness is not None,
        trials=trials,
    )


# -- eigenfunction correlators and dynamics -----------------------------------


def ef_correlator(es: EigenSystem, x, y, window: tuple | None = None) -> float:
    """Unsigned correlator sum over eigenvalues in the window (all if None)."""
    ball = es.ball
    ix, iy = ball.index[tuple(x)], ball.index[tuple(y)]
    prod = np.abs(es.eigenvectors[ix] * es.eigenvectors[iy])
    if window is not None:
        lo, hi = window
        keep = (es.eigenvalues >= lo) & (es.eigenvalues <= hi)
        prod = prod[keep]
    return float(np.sum(prod))


def correlator_completeness(es: EigenSystem, x, y) -> float:
    """Signed full-window sum minus the Kronecker delta (zero in theory)."""
    ball = es.ball
    ix, iy = ball.index[tuple(x)], ball.index[tuple(y)]
    signed = float(np.sum(es.eigenvectors[ix] * es.eigenvectors[iy]))
    return signed - (1.0 if ix == iy else 0.0)


def default_time_grid(points: int = 10_000) -> np.ndarray:
    """Zero plus a log grid on [1e-2, 1e3]; a lower bound probe of sup_t."""
    return np.concatenate([[0.0], np.logspace(-2.0, 3.0, points)])


def propagator_sups(es: EigenSystem, pairs, t_grid=None) -> np.ndarray:
    """max over the grid of |sum_j e^{-i t lambda_j} psi_j(x) psi_j(y)| for
    every (x, y) in ``pairs``.

    Each value is a lower bound on the true supremum over all times and at
    most the unsigned correlator.  One real phase table, cos and sin of
    t * lambda, serves every pair; it is formed over blocks of time points
    of about 1 MB each, so memory stays O(n) in the grid length.
    """
    if t_grid is None:
        t_grid = default_time_grid()
    t_grid = np.asarray(t_grid, dtype=float)
    index = es.ball.index
    ix = [index[tuple(x)] for x, _ in pairs]
    iy = [index[tuple(y)] for _, y in pairs]
    weights = (es.eigenvectors[ix] * es.eigenvectors[iy]).T
    rows = max(1, 2**17 // es.n)
    block_maxima = []
    for start in range(0, len(t_grid), rows):
        angles = np.outer(t_grid[start : start + rows], es.eigenvalues)
        re = np.cos(angles) @ weights
        im = np.sin(angles, out=angles) @ weights
        block_maxima.append(np.max(np.hypot(re, im), axis=0))
    return np.max(block_maxima, axis=0)


def propagator_sup(es: EigenSystem, x, y, t_grid=None) -> float:
    """``propagator_sups`` of the single pair (x, y)."""
    return float(propagator_sups(es, [(x, y)], t_grid)[0])


def finite_volume_dl_bound(L: int, d: int, m: float, f_L: float) -> float:
    """Correlator bound f(L) + 2 |S| e^{-m L} with the boundary count |S|
    of two disjoint radius-L balls enumerated exactly."""
    geom = LatticeGeometry(kind="lattice", d=d)
    origin = (0,) if d == 1 else (tuple([0] * d),)
    boundary_pairs = 2 * len(edge_boundary(enumerate_ball(origin, L, geom)))
    return f_L + 2.0 * boundary_pairs * math.exp(-m * L)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay exponents of positive pair data.

    ``m_eff`` is the slope of -log(v) against distance; ``log_power`` the
    (a, c) pair of the -log(v) = a * log(rho)^(1+c) family with c picked
    from a fixed grid by residual.
    """

    m_eff: float
    intercept: float
    residual_linear: float
    a: float
    c: float
    residual_log: float
    used_points: int
    excluded_points: int


def decay_fit(pairs) -> DecayFit:
    """Fit exponential and stretched-log decay laws to (distance, value)."""
    rho = []
    vals = []
    excluded = 0
    for r, v in pairs:
        if v > 0.0 and r >= 1:
            rho.append(float(r))
            vals.append(float(v))
        else:
            excluded += 1
    if len(rho) < 3:
        raise ValueError("need at least three positive pairs")
    rho = np.asarray(rho)
    neg_log = -np.log(np.asarray(vals))
    # linear law
    design = np.column_stack([rho, np.ones_like(rho)])
    coef, res, _, _ = np.linalg.lstsq(design, neg_log, rcond=None)
    m_eff, intercept = float(coef[0]), float(coef[1])
    res_lin = float(res[0]) if len(res) else 0.0
    # stretched-log law over the c grid
    best = None
    for c in np.arange(0.1, 2.0 + 1e-9, 0.1):
        feat = np.log(rho) ** (1.0 + c)
        design = np.column_stack([feat, np.ones_like(feat)])
        coef, res, _, _ = np.linalg.lstsq(design, neg_log, rcond=None)
        r = float(res[0]) if len(res) else 0.0
        if best is None or r < best[0]:
            best = (r, float(coef[0]), float(c))
    return DecayFit(
        m_eff=m_eff,
        intercept=intercept,
        residual_linear=res_lin,
        a=best[1],
        c=best[2],
        residual_log=best[0],
        used_points=len(rho),
        excluded_points=excluded,
    )
