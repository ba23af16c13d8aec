"""Scale ladder, scaling predicates, and deterministic implication audits.

Structural thresholds (scale recursion, diameter classification, distance
cutoffs) are computed in exact integer arithmetic from rational exponents,
so that e.g. the successor of 8 under exponent 4/3 is exactly 16.  The
analytic quantities (decay rates, non-singularity thresholds) are plain
floats.

Predicate conventions: every comparison is non-strict in favour of the
good event (non-resonant, non-singular, localized), matching the
inequality conventions of the definitions they implement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .configspace import (
    Ball,
    classify_ball,
    canonical_decomposition,
    config_distance,
    enumerate_ball,
    interior_boundary,
    maximal_separation_split,
)
from .disorder import FieldSample
from .operators import (
    HamiltonianSpec,
    assemble_hamiltonian,
    epsilon_bound,
    hamiltonian_diagonals,
    hopping_template,
    interaction_defect,
)
from .spectral import (
    EigenSystem,
    GapCertificate,
    diagonalize,
    eigensystem_from_factors,
    eigenvalues_of,
    eigenvector_noise_floors,
    pairwise_sums,
    resonance_cutoff,
    solve_green_columns,
    stacked_eigenvalues,
)

# -- exact integer powers ----------------------------------------------------


def _floor_root(n: int, k: int) -> int:
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    hi = 1 << (n.bit_length() // k + 2)
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def ceil_root(n: int, k: int) -> int:
    """Smallest integer r with r**k >= n."""
    f = _floor_root(n, k)
    return f if f**k == n else f + 1


def ceil_rational_power(base: int, exponent: Fraction) -> int:
    """Smallest integer >= base**exponent, exactly (base >= 0)."""
    exponent = Fraction(exponent)
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    return ceil_root(base**exponent.numerator, exponent.denominator)


def int_power_exceeds(value: int, base: int, exponent: Fraction) -> bool:
    """Exact test value > base**exponent for integers and rational exponent."""
    exponent = Fraction(exponent)
    return value**exponent.denominator > base**exponent.numerator


def scales(initial_scale: int, alpha: Fraction, count: int) -> list:
    """Scale ladder [L_0 .. L_count], L_{k+1} = ceil(L_k**alpha)."""
    if initial_scale <= 2:
        raise ValueError("initial scale must exceed 2")
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    seq = [int(initial_scale)]
    for _ in range(count):
        nxt = ceil_rational_power(seq[-1], alpha)
        if nxt <= seq[-1]:
            raise RuntimeError("scale ladder failed to increase")
        seq.append(nxt)
    return seq


# -- parameters --------------------------------------------------------------


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return Fraction(int(x[0]), int(x[1]))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**9)


@dataclass(frozen=True)
class ScalingParams:
    """Exponents and thresholds steering the multi-scale predicates.

    The finite-range regime uses the standard exponent set (scale growth
    4/3, contraction margin 1/6, rate softening 1/8, resonance width 1/2).
    The long-range regime derives its exponents from the interaction decay
    parameter ``delta``: margin 2*delta, growth 1 + 4*delta, softening
    delta/2, and switches every diameter/distance threshold to its
    stretched form atomically.
    """

    n_particles: int
    d: int = 1
    regime: str = "finite"  # "finite" | "infinite"
    alpha: Fraction = Fraction(4, 3)
    varrho: Fraction = Fraction(1, 6)
    tau: Fraction = Fraction(1, 8)
    beta: Fraction = Fraction(1, 2)
    beta_prime: Fraction = Fraction(1, 4)
    delta: Fraction | None = None
    theta: float = 0.0
    mass: float = 1.0
    initial_scale: int = 8
    cn_variant: str = "11N"  # "11N" | "2A+3"
    numerical_floor: float = 1e-12

    def __post_init__(self):
        for name in ("alpha", "varrho", "tau", "beta", "beta_prime"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if self.delta is not None:
            object.__setattr__(self, "delta", _frac(self.delta))
        if self.regime not in ("finite", "infinite"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == "infinite" and self.delta is None:
            raise ValueError("long-range regime needs delta")
        if self.cn_variant not in ("11N", "2A+3"):
            raise ValueError(f"unknown distant-pair constant {self.cn_variant!r}")
        if self.n_particles < 1:
            raise ValueError("need at least one particle")

    @classmethod
    def finite_range(cls, n_particles: int, d: int = 1, **kw) -> "ScalingParams":
        return cls(n_particles=n_particles, d=d, regime="finite", **kw)

    @classmethod
    def infinite_range(
        cls, n_particles: int, delta=Fraction(1, 20), d: int = 1, **kw
    ) -> "ScalingParams":
        delta = _frac(delta)
        kw.setdefault("theta", float(delta / (1 + delta)) / 2.0)
        return cls(
            n_particles=n_particles,
            d=d,
            regime="infinite",
            delta=delta,
            varrho=2 * delta,
            alpha=1 + 4 * delta,
            tau=delta / 2,
            **kw,
        )

    # -- derived constants

    @property
    def a_n(self) -> int:
        """Diameter coefficient separating the two interaction classes."""
        return 4 * self.n_particles

    @property
    def c_n(self) -> int:
        """Distant-pair coefficient (two published values, selectable)."""
        if self.cn_variant == "11N":
            return 11 * self.n_particles
        return 2 * self.a_n + 3

    # -- analytic quantities

    def decay_rate(self, L: int, n: int | None = None) -> float:
        """Rate m (1 + L^-tau)^(N - n + 1); the plain rate when n = N."""
        expo = 1
        if self.regime == "infinite":
            n_eff = self.n_particles if n is None else n
            expo = self.n_particles - n_eff + 1
        elif n is not None:
            expo = self.n_particles - n + 1
        return self.mass * (1.0 + float(L) ** (-float(self.tau))) ** expo

    def resonance_scale(self, L: int) -> float:
        """Width e^{-L^beta} below which an energy counts as resonant."""
        return math.exp(-(float(L) ** float(self.beta)))

    def ns_threshold(self, L: int, n: int | None = None) -> float:
        """Boundary decay threshold e^{-rate*L + 2 L^beta}."""
        rate = self.decay_rate(L, n=n)
        return math.exp(-rate * L + 2.0 * float(L) ** float(self.beta))

    def ns_noise_floor(self, L: int) -> float:
        """Smallest boundary Green value double precision can certify.

        Resolvent entries at a non-resonant energy carry absolute noise of
        order eps * resolvent norm; thresholds below this are clamped so
        that predicates state only what the arithmetic can distinguish.
        """
        return self.numerical_floor * (1.0 + 1.0 / self.resonance_scale(L))

    def ns_exponent_margin(self, L: int) -> float:
        """Slack of rate*L - 2 L^beta over the halved-softening rate."""
        m = self.mass
        tau = float(self.tau)
        beta = float(self.beta)
        full = m * (1.0 + L ** (-tau)) * L - 2.0 * L**beta
        half = m * (1.0 + 0.5 * L ** (-tau)) * L
        return full - half

    # -- exact structural thresholds

    def is_pi_diameter(self, diameter: int, L: int) -> bool:
        if self.regime == "finite":
            return diameter > self.a_n * L
        return int_power_exceeds(diameter, L, 1 + self.delta)

    def decomposition_separation_ok(self, separation: int, L: int) -> bool:
        if self.regime == "finite":
            return separation > 2 * L
        p, q = (1 + self.delta).numerator, (1 + self.delta).denominator
        return separation**q > 2**q * L**p

    def pair_is_distant(self, distance: int, radius: int) -> bool:
        if self.regime == "finite":
            return distance >= self.c_n * radius
        cn = 4 * self.n_particles
        p, q = (1 + self.delta).numerator, (1 + self.delta).denominator
        return distance**q > cn**q * radius**p

    def loc_min_distance(self, L: int) -> int:
        """Smallest pair distance at which eigenfunction decay is demanded."""
        return ceil_rational_power(L, (1 + self.varrho) / self.alpha)

    def cnr_min_radius(self, L: int) -> int:
        return ceil_rational_power(L, 1 / self.alpha)

    def truncation_radius_for(self, L: int) -> int:
        """Interaction truncation radius 4N L^{1+delta} (long-range regime)."""
        if self.regime == "finite":
            raise ValueError("truncation radius is a long-range notion")
        p, q = (1 + self.delta).numerator, (1 + self.delta).denominator
        return ceil_root((4 * self.n_particles) ** q * L**p, q)

    def scale_ladder(self, count: int) -> list:
        return scales(self.initial_scale, self.alpha, count)


def smallest_scale_with_ns_margin(params: ScalingParams) -> int:
    """Smallest L at which the non-singularity exponent margin turns >= 0,
    searched up to 10**7."""
    L = 1
    while L <= 10**7 and params.ns_exponent_margin(L) < 0:
        L += 1 if L < 256 else max(1, L // 256)
    if L > 10**7:
        raise RuntimeError("no scale with nonnegative margin below the limit")
    while L > 1 and params.ns_exponent_margin(L - 1) >= 0:
        L -= 1
    return L


@dataclass(frozen=True)
class BoundSchedule:
    """Probability-exponent schedule 2^(N-n) p (1+b)^k.

    The growth factor is accumulated by repeated multiplication so the
    recursions P(n,k) = 2 P(n+1,k) and P(n,k+1) = (1+b) P(n,k) hold
    exactly in floating point.
    """

    p: float
    b: float
    n_particles: int

    def exponent(self, n: int, k: int) -> float:
        value = 2.0 ** (self.n_particles - n) * self.p
        for _ in range(k):
            value *= 1.0 + self.b
        return value

    def bound(self, L: int, n: int, k: int) -> float:
        return float(L) ** (-self.exponent(n, k))


@dataclass(frozen=True)
class ConstraintResult:
    name: str
    satisfied: bool
    margin: float


def check_param_constraints(
    params: ScalingParams, schedule: BoundSchedule | None = None
) -> list:
    """Evaluate every declared inequality between the parameters."""
    a = float(params.alpha)
    vr = float(params.varrho)
    tau = float(params.tau)
    beta = float(params.beta)
    bp = float(params.beta_prime)
    out = [
        ConstraintResult("tau_positive", tau > 0, tau),
        ConstraintResult("tau_below_varrho", tau < vr, vr - tau),
        ConstraintResult("one_plus_varrho_below_alpha", 1 + vr < a, a - 1 - vr),
        ConstraintResult("beta_below_one_minus_tau", beta < 1 - tau, 1 - tau - beta),
        ConstraintResult("beta_prime_positive", bp > 0, bp),
        ConstraintResult("beta_prime_below_beta", bp < beta, beta - bp),
        ConstraintResult("alpha_squared_below_two", a * a < 2, 2 - a * a),
    ]
    if params.regime == "infinite":
        dl = params.delta
        out += [
            ConstraintResult(
                "delta_below_one_fourteenth",
                dl < Fraction(1, 14),
                float(Fraction(1, 14) - dl),
            ),
            ConstraintResult(
                "varrho_equals_two_delta",
                params.varrho == 2 * dl,
                float(params.varrho - 2 * dl),
            ),
            ConstraintResult(
                "alpha_equals_one_plus_four_delta",
                params.alpha == 1 + 4 * dl,
                float(params.alpha - 1 - 4 * dl),
            ),
            ConstraintResult(
                "tau_equals_half_delta",
                params.tau == dl / 2,
                float(params.tau - dl / 2),
            ),
            ConstraintResult(
                "theta_below_delta_fraction",
                0.0 <= params.theta < float(dl / (1 + dl)),
                float(dl / (1 + dl)) - params.theta,
            ),
        ]
    if schedule is not None:
        nd = params.n_particles * params.d
        p_min = 2.0 * a * a / (2.0 - a * a) * nd
        b_cap = min((2.0 - a * a) / (a * a) - 2.0 * nd / schedule.p, math.sqrt(2.0) - 1.0)
        out += [
            ConstraintResult("p_above_mixing_threshold", schedule.p > p_min, schedule.p - p_min),
            ConstraintResult("b_positive", schedule.b > 0, schedule.b),
            ConstraintResult(
                "three_b_within_margin", 0 < 3 * schedule.b <= b_cap, b_cap - 3 * schedule.b
            ),
        ]
    return out


# -- evaluation context ------------------------------------------------------

# cross interaction at or below which a split ball's assembled matrix is
# identical in double precision to the tensor sum of its factors
SPLIT_TOL = 1e-30


class AuditContext:
    """Caches eigensystems, values-only spectra and m-localization reports
    for one (spec, sample) pair.

    When a ball's centre splits into groups farther apart than twice the
    radius and the cross interaction over the gap is at most ``SPLIT_TOL``,
    its spectral data are assembled from the factor balls' instead of a
    dense solve.  ``resolved_for_vectors`` counts balls solved values-only
    and later solved again for their eigenvectors.
    """

    def __init__(self, spec: HamiltonianSpec, sample: FieldSample, params: ScalingParams):
        self.spec = spec
        self.sample = sample
        self.params = params
        self._systems: dict = {}
        self._spectra: dict = {}
        self._locs: dict = {}
        self.resolved_for_vectors = 0

    def ball(self, center, radius: int) -> Ball:
        return enumerate_ball(center, radius, self.spec.geometry)

    def eigensystem(self, center, radius: int) -> EigenSystem:
        key = (tuple(center), radius)
        es = self._systems.get(key)
        if es is None:
            if key in self._spectra:
                self.resolved_for_vectors += 1
            ball = self.ball(center, radius)
            parts = factor_centers(self.spec, ball)
            if parts is None:
                es = diagonalize(self._operator(ball))
            else:
                es = eigensystem_from_factors(*(self.eigensystem(p, radius) for p in parts))
            self._systems[key] = es
        return es

    def spectrum(self, center, radius: int) -> np.ndarray:
        """Ascending eigenvalues of the ball: its eigensystem's when one was
        built, otherwise from a values-only solve (sorted factor sums for a
        split ball), computed once per (centre, radius)."""
        key = (tuple(center), radius)
        es = self._systems.get(key)
        if es is not None:
            return es.eigenvalues
        vals = self._spectra.get(key)
        if vals is None:
            ball = self.ball(center, radius)
            parts = factor_centers(self.spec, ball)
            if parts is None:
                vals = eigenvalues_of(self._operator(ball))
            else:
                vals = pairwise_sums(*(self.spectrum(p, radius) for p in parts))[0]
            self._spectra[key] = vals
        return vals

    def m_loc(self, center, radius: int) -> LocReport:
        """``is_m_loc`` of the ball's eigensystem, computed once per
        (centre, radius); energy plays no role in it."""
        key = (tuple(center), radius)
        rep = self._locs.get(key)
        if rep is None:
            rep = is_m_loc(self.eigensystem(center, radius), self.params)
            self._locs[key] = rep
        return rep

    def _operator(self, ball: Ball):
        return assemble_hamiltonian(_spec_on(self.spec, ball), ball, self.sample)


def factor_centers(spec: HamiltonianSpec, ball: Ball):
    """The two group centres of a ball that factors, else None."""
    if ball.n_particles < 2:
        return None
    split = maximal_separation_split(ball.center, spec.geometry)
    gap = split.separation - 2 * ball.radius
    if gap <= 0 or epsilon_bound(spec.interaction, ball.n_particles, gap - 1) > SPLIT_TOL:
        return None
    return split.part1, split.part2


def _spec_on(spec: HamiltonianSpec, ball: Ball) -> HamiltonianSpec:
    """The spec with the ball's particle number (a factor ball has fewer)."""
    if spec.n_particles != ball.n_particles:
        spec = replace(spec, n_particles=ball.n_particles)
    return spec


# -- sub-ball selection ------------------------------------------------------


def stride_centers(ball: Ball, stride: int, max_center_distance: int) -> list:
    """Members on the stride grid within the given distance of the centre.

    On lattices the grid keeps members all of whose coordinate offsets
    from the centre are multiples of the stride; explicit graphs fall
    back to every stride-th member in canonical order.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    dists = ball.distances_from_center
    keep = dists <= max_center_distance
    g = ball.geometry
    if g.kind == "lattice":
        arr = ball.member_array
        center = np.asarray(ball.center, dtype=np.int64)
        offs = arr - center
        flat = offs.reshape(len(ball), -1)
        keep &= np.all(flat % stride == 0, axis=1)
        return [ball.members[i] for i in np.nonzero(keep)[0]]
    idx = [i for i in np.nonzero(keep)[0]]
    return [ball.members[i] for i in idx[::stride]]


def cnr_radii(params: ScalingParams, L: int) -> list:
    """Sub-ball radii inspected by complete non-resonance: ladder values
    at least L**(1/alpha) and below L."""
    rmin = params.cnr_min_radius(L)
    out = []
    val = params.initial_scale
    seen = set()
    while val < L:
        if val >= rmin and val not in seen:
            out.append(val)
            seen.add(val)
        nxt = ceil_rational_power(val, params.alpha)
        if nxt <= val:
            break
        val = nxt
    if not out and rmin < L:
        out = [rmin]
    return out


def cnr_subballs(params: ScalingParams, ball: Ball) -> list:
    """(center, radius) list for the complete-non-resonance inspection."""
    out = []
    for r in cnr_radii(params, ball.radius):
        stride = max(1, r // 2)
        for c in stride_centers(ball, stride, ball.radius - r):
            out.append((c, r))
    return out


# -- predicates --------------------------------------------------------------


def is_E_NR(es: EigenSystem, energy: float, params: ScalingParams) -> bool:
    """Resolvent norm at most e^{+L^beta} (ties are non-resonant)."""
    return es.spectral_distance(energy) >= params.resonance_scale(es.ball.radius)


def _dist_to_sorted(sorted_vals: np.ndarray, queries: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(sorted_vals, queries)
    left = np.abs(queries - sorted_vals[np.clip(pos - 1, 0, len(sorted_vals) - 1)])
    right = np.abs(sorted_vals[np.clip(pos, 0, len(sorted_vals) - 1)] - queries)
    return np.minimum(left, right)


def is_E_CNR(ctx: AuditContext, ball: Ball, energy: float):
    """No resonant sub-ball (the ball itself included); returns witness.

    Sub-balls are inspected on the documented conservative policy: ladder
    radii at least L**(1/alpha), centres on a half-radius stride grid.
    """
    params = ctx.params
    big = ctx.eigensystem(ball.center, ball.radius)
    if not is_E_NR(big, energy, params):
        return False, (ball.center, ball.radius)
    for center, r in cnr_subballs(params, ball):
        if np.min(np.abs(ctx.spectrum(center, r) - energy)) < params.resonance_scale(r):
            return False, (center, r)
    return True, None


def ns_decision(worst_value, threshold: float):
    """Non-singular iff the worst boundary value is at most the threshold
    (ties favour the good event); elementwise on arrays."""
    return worst_value <= threshold


@dataclass(frozen=True)
class NsReport:
    non_singular: bool
    worst_boundary_value: float
    threshold: float
    resonant: bool = False
    cleared: bool = False  # the gap certificate screened it, with no spectrum


def _clamped_ns_threshold(ball: Ball, params: ScalingParams) -> float:
    """The threshold NS decides with: the analytic one, clamped from below
    at the double-precision noise floor for resolvent entries."""
    L = ball.radius
    return max(params.ns_threshold(L, n=ball.n_particles), params.ns_noise_floor(L))


def ns_flags(es: EigenSystem, energies: np.ndarray, params: ScalingParams):
    """Vectorized boundary-decay test at many energies.

    Decides with the clamped threshold on boundary values refined by one
    step of iterative refinement (``EigenSystem.refined_green_rows``).
    Energies inside the resonance cutoff get flag False and worst value
    +inf (singular by convention).  Returns (flags, worst_values).
    """
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    ball = es.ball
    boundary = interior_boundary(ball)
    if not boundary:
        return np.ones(len(energies), dtype=bool), np.zeros(len(energies))
    rows = [ball.index[c] for c in boundary]
    dist = _dist_to_sorted(es.eigenvalues, energies)
    safe = dist > es.resonance_cutoff()
    worst = np.full(len(energies), np.inf)
    if np.any(safe):
        vals = es.refined_green_rows(ball.center_index(), energies[safe], rows)
        worst[safe] = np.max(np.abs(vals), axis=0)
    return ns_decision(worst, _clamped_ns_threshold(ball, params)), worst


def is_EmNS(es: EigenSystem, energy: float, params: ScalingParams) -> NsReport:
    """Boundary Green decay from the centre at one energy."""
    flags, worst = ns_flags(es, np.array([energy]), params)
    resonant = not math.isfinite(worst[0])
    thr = _clamped_ns_threshold(es.ball, params)
    return NsReport(bool(flags[0]), float(worst[0]), thr, resonant)


def ns_by_solve(
    shifted: np.ndarray, safe: np.ndarray, cleared: np.ndarray, source: int, rows: list,
    threshold: float,
) -> list:
    """``is_EmNS`` without eigenvectors, for a stack of operators on one
    ball, shifted to H_t - E: one report per matrix.  ``source`` is the
    ball's centre row, ``rows`` its interior boundary rows and
    ``threshold`` the clamped threshold of ``is_EmNS``.

    ``safe[t]`` says E lies outside the resonance cutoff of H_t's spectrum;
    an unsafe matrix gets flag False and worst value +inf, as in
    ``ns_flags``.  One stacked dense solve of (H_t - E) g_t = delta_centre
    over the safe matrices gives their boundary values.  ``cleared`` goes
    on the reports as is.
    """
    if not rows:
        return [NsReport(True, 0.0, threshold, cleared=bool(c)) for c in cleared]
    worst = np.full(len(shifted), np.inf)
    if np.any(safe):
        g = solve_green_columns(shifted if safe.all() else shifted[safe], source)
        worst[safe] = np.max(np.abs(g[:, rows]), axis=1)
    flags = ns_decision(worst, threshold)
    return [
        NsReport(bool(f), float(w), threshold, not s, bool(c))
        for f, w, s, c in zip(flags, worst, safe, cleared)
    ]


@dataclass(frozen=True)
class BlockReports:
    """The reports of ``block_non_singularity``, one per field, and how its
    blocks went: ``cholesky_fallback_blocks`` counts the blocks whose
    stacked Cholesky failed, so the certificate factored their matrices
    one at a time."""

    reports: list
    blocks: int
    cholesky_fallback_blocks: int


def block_non_singularity(
    spec: HamiltonianSpec, region, fields, center, radius: int, energy: float,
    params: ScalingParams,
) -> BlockReports:
    """``is_EmNS`` of one ball at one energy under each of many fields,
    without eigenvectors: one report per row of ``fields``, the field on
    ``region`` (as ``hamiltonian_diagonals`` takes it).

    The fields' operators share the ball's hopping template and differ on
    the diagonal only.  They are decided in blocks of
    ``max(1, 2**17 // n**2)`` fields, about 1 MB of matrices, in one stack
    buffer that holds the template off the diagonal throughout: a block
    writes only its diagonals.  ``GapCertificate`` clears most of a block
    without a spectrum; one stacked ``eigvalsh`` screens the rest with the
    resonance cutoff, and ``ns_by_solve`` decides the block with one
    stacked solve.  A split ball keeps its factor spectra (sorted factor
    sums, as ``AuditContext.spectrum`` takes them), which cost less than
    the certificate's joint n^3.
    """
    ball = enumerate_ball(center, radius, spec.geometry)
    n = len(ball)
    block = max(1, 2**17 // n**2)
    ball_spec = _spec_on(spec, ball)
    template = hopping_template(ball_spec, ball)
    rows = min(block, len(fields))
    stack = np.repeat(template.matrix[None], rows, axis=0)
    certificate = None if factor_centers(spec, ball) else GapCertificate(template, rows)
    # rebuilt for the rare block the certificate cannot clear, so that the
    # point holds no n^2 array beyond its two buffers
    del template
    i = np.arange(n)
    source = ball.center_index()
    boundary = [ball.index[c] for c in interior_boundary(ball)]
    threshold = _clamped_ns_threshold(ball, params)
    starts = range(0, len(fields), block)
    reports = []
    for start in starts:
        part = fields[start : start + block]
        # diagonals block by block: a point's working memory stays at the
        # two buffers
        h = hamiltonian_diagonals(ball_spec, ball, region, part)
        shifted = stack[: len(h)]
        shifted[:, i, i] = h
        if certificate is None:
            cleared = np.zeros(len(h), dtype=bool)
            spectra = _stacked_spectra(spec, ball, region, part)
            shifted[:, i, i] -= energy
        else:
            cleared = certificate(shifted, energy)
            spectra = None
            if not cleared.all():
                spectra = stacked_eigenvalues(hopping_template(ball_spec, ball), h[~cleared])
        safe = cleared.copy()
        if spectra is not None:
            dist = np.min(np.abs(spectra - energy), axis=1)
            safe[~cleared] = [not d <= resonance_cutoff(s) for d, s in zip(dist, spectra)]
        reports += ns_by_solve(shifted, safe, cleared, source, boundary, threshold)
    fallbacks = 0 if certificate is None else certificate.fallbacks
    return BlockReports(reports, len(starts), fallbacks)


def _stacked_spectra(spec: HamiltonianSpec, ball: Ball, region, fields) -> np.ndarray:
    """Row t: the ascending spectrum of the ball under ``fields[t]``."""
    parts = factor_centers(spec, ball)
    if parts is None:
        ball_spec = _spec_on(spec, ball)
        return stacked_eigenvalues(
            hopping_template(ball_spec, ball),
            hamiltonian_diagonals(ball_spec, ball, region, fields),
        )
    a, b = (
        _stacked_spectra(spec, enumerate_ball(p, ball.radius, spec.geometry), region, fields)
        for p in parts
    )
    return np.array([pairwise_sums(x, y)[0] for x, y in zip(a, b)])


@dataclass(frozen=True)
class LocReport:
    localized: bool
    worst_ratio: float
    witness: tuple | None
    min_distance: int
    qualifying_pairs: int


def _log_excess_bounds(log_vecs, peaks, dmat, rmin: int, rate: float, floors) -> np.ndarray:
    """Per eigenfunction, an upper bound on the log excess of every pair.

    For the peak x0 of eigenfunction j, a qualifying pair (a, b) has
    rho(x0, a) + rho(x0, b) >= rho(a, b) >= rmin (triangle inequality).
    With prof[r] the largest log amplitude at distance >= r from x0, the
    pair's log product minus its log threshold is at most
    prof[ra] + prof[rb] - max(-rate (ra + rb), log floor_j) over the
    distance pairs ra <= rb with ra + rb >= rmin.  Every step is monotone
    in floating point, so the bound holds for the computed excess too.
    """
    n = log_vecs.shape[1]
    R = int(dmat.max()) + 1
    # prof[j, r]: max log amplitude of eigenfunction j at distance r from
    # its peak, then the suffix maximum over distances >= r
    prof = np.full(n * R, -np.inf)
    keys = np.take(dmat, peaks, axis=1)
    keys += np.arange(n) * R
    # 1-D operands take numpy's fast path; the maximum ignores the order
    np.maximum.at(prof, keys.ravel(), log_vecs.ravel())
    prof = np.maximum.accumulate(prof.reshape(n, R)[:, ::-1], axis=1)[:, ::-1]
    log_floors = np.log(floors)[:, None]
    bounds = np.full(n, -np.inf)
    for rb in range((rmin + 1) // 2, R):
        ra = np.arange(max(0, rmin - rb), rb + 1)
        # rho(a, b) <= min(ra + rb, diameter) bounds the threshold from below
        s = np.minimum(ra + rb, R - 1)
        log_thr = np.maximum(-rate * s, log_floors)
        excess = prof[:, ra] + prof[:, rb, None] - log_thr
        bounds = np.maximum(bounds, excess.max(axis=1))
    return bounds


def is_m_loc(es: EigenSystem, params: ScalingParams) -> LocReport:
    """Eigenfunction product decay over all sufficiently separated pairs.

    Checks |psi(x) psi(y)| <= e^{-rate * dist(x,y)} for every eigenfunction
    and every member pair at distance >= L^((1+varrho)/alpha), with the
    per-pair threshold clamped below at the numerical floor (products
    under the floor are indistinguishable from zero in the eigensolve).
    The worst ratio of product to threshold and its witness are reported;
    exact ties go to the lowest eigenfunction index, then to the first pair
    in descending-amplitude order (equal amplitudes in member order).
    """
    ball = es.ball
    L = ball.radius
    rmin = params.loc_min_distance(L)
    dmat = ball.pairwise_distances
    qualifying = int(np.count_nonzero(dmat >= rmin) // 2)
    if qualifying == 0:
        return LocReport(True, 0.0, None, rmin, 0)
    rate = params.decay_rate(L, n=ball.n_particles)
    # eigenvector entries below eps*|H|/gap are dominated by rounding in
    # the eigensolve; the certifiable floor adapts per eigenfunction
    floors = np.maximum(params.numerical_floor, eigenvector_noise_floors(es))
    # in-place steps keep the peak memory at three n x n arrays
    vecs = np.abs(es.eigenvectors)
    peaks = np.argmax(vecs, axis=0)
    log_vecs = np.maximum(vecs, 1e-320)
    np.log(log_vecs, out=log_vecs)
    bounds = _log_excess_bounds(log_vecs, peaks, dmat, rmin, rate, floors)
    worst = 0.0
    witness = None
    # visiting the largest bounds first lets the worst ratio found so far
    # end the scan and cut the pair enumeration; ties keep the lowest
    # eigenfunction index, as an ascending scan would
    for j in np.argsort(-bounds, kind="stable"):
        j = int(j)
        log_worst = math.log(worst) - 1e-9 if worst > 0.0 else -math.inf
        if bounds[j] < log_worst:
            break
        v = vecs[:, j]
        vmax = v.max()
        floor = floors[j]
        if vmax <= 0.0 or floor >= 1.0:
            continue
        log_floor = math.log(floor)
        # a violating pair needs v(x) v(y) > floor
        cand = np.nonzero(v > floor / vmax)[0]
        if len(cand) < 2:
            continue
        lv = log_vecs[cand, j]
        # descending amplitude, equal amplitudes in member order: the pair
        # order that decides exact ties within an eigenfunction
        order = np.argsort(-lv, kind="stable")
        lv_s = lv[order]
        # unordered pairs (b < a in sorted order) with lv_a + lv_b > floor;
        # pairs that cannot reach the worst ratio so far are not enumerated
        log_cut = log_floor + max(0.0, log_worst)
        counts = np.minimum(
            np.arange(len(cand)),
            np.searchsorted(-lv_s, -(log_cut - lv_s), side="left"),
        )
        total = int(counts.sum())
        if total == 0:
            continue
        pa = np.repeat(np.arange(len(cand)), counts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        pb = np.arange(total) - np.repeat(starts, counts)
        ia = cand[order[pa]]
        ib = cand[order[pb]]
        rho = dmat[ia, ib]
        keep = rho >= rmin
        if not keep.any():
            continue
        log_thr = np.maximum(-rate * rho[keep], log_floor)
        excess = lv_s[pa[keep]] + lv_s[pb[keep]] - log_thr
        k = int(np.argmax(excess))
        ratio = math.exp(min(float(excess[k]), 700.0))
        if ratio > worst or (ratio == worst and witness is not None and j < witness[2]):
            worst = ratio
            sel = np.nonzero(keep)[0][k]
            wa, wb = int(ia[sel]), int(ib[sel])
            witness = (
                ball.members[wa],
                ball.members[wb],
                j,
                int(dmat[wa, wb]),
            )
    return LocReport(worst <= 1.0, worst, witness, rmin, qualifying)


@dataclass(frozen=True)
class TunnelingReport:
    tunneling: bool
    distant_pairs: int
    witness: tuple | None


def is_m_tunneling(ctx: AuditContext, ball: Ball, sub_scale: int) -> TunnelingReport:
    """Does the ball contain two distant non-localized sub-balls?

    Sub-ball centres run over the half-sub-scale stride grid; distance
    thresholds follow the active regime.  Energy plays no role here.
    """
    params = ctx.params
    if sub_scale >= ball.radius:
        raise ValueError("sub-scale must be below the ball radius")
    centers = stride_centers(ball, max(1, sub_scale // 2), ball.radius - sub_scale)
    g = ball.geometry
    distant = 0
    for i, c1 in enumerate(centers):
        for c2 in centers[i + 1 :]:
            if not params.pair_is_distant(config_distance(c1, c2, g), sub_scale):
                continue
            distant += 1
            if not (ctx.m_loc(c1, sub_scale).localized or ctx.m_loc(c2, sub_scale).localized):
                return TunnelingReport(True, distant, (c1, c2))
    return TunnelingReport(False, distant, None)


@dataclass(frozen=True)
class PredicateReport:
    """All predicate flags of one ball at one energy, with witnesses."""

    center: tuple
    radius: int
    energy: float
    mass: float
    e_nr: bool
    e_cnr: bool
    e_ns: bool
    m_localized: bool
    m_tunneling: bool
    worst_boundary_green: float
    ns_threshold: float
    resonant_subball: tuple | None
    loc_witness: tuple | None
    tunneling_witness: tuple | None

    def to_jsonable(self) -> dict:
        def _cfg(c):
            # a configuration as nested integer lists: one entry per
            # particle, each a list of d coordinates when d > 1
            if c is None:
                return None
            return [np.atleast_1d(np.asarray(s, dtype=np.int64)).tolist() for s in c[:2]]

        return {
            "center": list(self.center),
            "radius": self.radius,
            "energy": self.energy,
            "mass": self.mass,
            "e_nr": self.e_nr,
            "e_cnr": self.e_cnr,
            "e_ns": self.e_ns,
            "m_localized": self.m_localized,
            "m_tunneling": self.m_tunneling,
            "worst_boundary_green": self.worst_boundary_green,
            "ns_threshold": self.ns_threshold,
            "resonant_subball": None
            if self.resonant_subball is None
            else {
                "center": list(self.resonant_subball[0]),
                "radius": self.resonant_subball[1],
            },
            "loc_witness": _cfg(self.loc_witness),
            "tunneling_witness": _cfg(self.tunneling_witness),
        }


def predicate_report(
    ctx: AuditContext, center, radius: int, energy: float, sub_scale: int
) -> PredicateReport:
    params = ctx.params
    ball = ctx.ball(center, radius)
    es = ctx.eigensystem(center, radius)
    nr = is_E_NR(es, energy, params)
    cnr, res_witness = is_E_CNR(ctx, ball, energy)
    ns = is_EmNS(es, energy, params)
    loc = ctx.m_loc(center, radius)
    tun = is_m_tunneling(ctx, ball, sub_scale)
    return PredicateReport(
        center=tuple(center),
        radius=radius,
        energy=float(energy),
        mass=params.mass,
        e_nr=nr,
        e_cnr=cnr,
        e_ns=ns.non_singular,
        m_localized=loc.localized,
        m_tunneling=tun.tunneling,
        worst_boundary_green=ns.worst_boundary_value,
        ns_threshold=ns.threshold,
        resonant_subball=res_witness,
        loc_witness=loc.witness,
        tunneling_witness=tun.witness,
    )


# -- implication audits ------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    lemma: str
    center: tuple
    radius: int
    energy: float | None
    magnitude: float
    detail: str


@dataclass
class AuditResult:
    violations: list
    counters: dict


def energy_grid(spectra) -> np.ndarray:
    """Sorted union of the given spectra plus midpoints of adjacent gaps."""
    vals = np.unique(np.concatenate([np.asarray(s, dtype=float) for s in spectra]))
    if len(vals) < 2:
        return vals
    mids = 0.5 * (vals[:-1] + vals[1:])
    return np.unique(np.concatenate([vals, mids]))


def _audit_grid(ctx: AuditContext, es: EigenSystem, sub_scale: int, grid_stride: int | None):
    """(grid centres, energy grid, NR flags, CNR flags) of an implication
    audit of the ball of ``es``.

    Grid sub-balls of radius ``sub_scale`` sit on a stride grid (default
    stride = sub-scale); the energy grid is the union of their spectra plus
    midpoints, or of the ball's own spectrum when no grid sub-ball fits.
    """
    params = ctx.params
    ball = es.ball
    stride = grid_stride if grid_stride is not None else max(1, sub_scale)
    centers = stride_centers(ball, stride, ball.radius - sub_scale)
    spectra = [ctx.spectrum(c, sub_scale) for c in centers]
    grid = energy_grid(spectra or [es.eigenvalues])
    nr = _dist_to_sorted(es.eigenvalues, grid) >= params.resonance_scale(ball.radius)
    cnr = nr.copy()
    for c, r in cnr_subballs(params, ball):
        cnr &= _dist_to_sorted(ctx.spectrum(c, r), grid) >= params.resonance_scale(r)
    return centers, grid, nr, cnr


def _green_violations(lemma: str, center, radius: int, energies, worst, thr: float) -> list:
    """One violation per energy whose boundary Green value broke NS; the
    magnitude and the detail quote the unclamped analytic threshold."""
    return [
        Violation(
            lemma,
            tuple(center),
            radius,
            float(e),
            float(w / thr),
            f"boundary green {w:.3e} above threshold {thr:.3e}",
        )
        for e, w in zip(energies, worst)
    ]


def verify_implications(
    ctx: AuditContext, center, radius: int, sub_scale: int, grid_stride: int | None = None
) -> AuditResult:
    """Audit the deterministic implications on one ball and one sample.

    The for-all-energies quantifier is instantiated on the union of the
    sub-ball spectra plus midpoints (grid sub-balls sit on a stride grid,
    default stride = sub-scale).  Checked implications:

      * localized and non-resonant  ->  non-singular;
      * completely non-resonant and no distant singular sub-ball pair ->
        non-singular;
      * no distant singular sub-ball pair at any grid energy  ->
        localized;
      * on decomposable balls under a long-range interaction: factor
        localization plus complete non-resonance  ->  non-singular, with
        the truncation-error control checked on the split.
    """
    params = ctx.params
    ball = ctx.ball(center, radius)
    es = ctx.eigensystem(center, radius)
    L = ball.radius
    violations: list = []
    counters = {
        "energies": 0,
        "loc_nr_instances": 0,
        "cnr_instances": 0,
        "distant_pairs": 0,
        "pair_energy_exclusions": 0,
        # applicability diagnostics: the implications are proved for large
        # initial scales; these report how far the present scale is from
        # the quantitative side conditions used by the proofs
        "volume_condition_ok": int(
            math.log(len(ball)) <= float(L) ** float(params.beta)
        ),
        "ns_exponent_margin": params.ns_exponent_margin(L),
        "pair_geometry_possible": 0,  # set below
    }

    grid_centers, grid, nr, cnr = _audit_grid(ctx, es, sub_scale, grid_stride)
    counters["energies"] = len(grid)

    loc = ctx.m_loc(center, radius)

    # distant sub-ball pairs (geometry first; empty at desk scales)
    g = ball.geometry
    distant_pairs = []
    for i, c1 in enumerate(grid_centers):
        for c2 in grid_centers[i + 1 :]:
            if params.pair_is_distant(config_distance(c1, c2, g), sub_scale):
                distant_pairs.append((c1, c2))
    counters["distant_pairs"] = len(distant_pairs)

    if len(grid_centers) >= 2:
        max_sep = max(
            config_distance(c1, c2, g)
            for i, c1 in enumerate(grid_centers)
            for c2 in grid_centers[i + 1 :]
        )
        counters["pair_geometry_possible"] = int(
            params.pair_is_distant(max_sep, sub_scale)
        )

    pair_free = np.ones(len(grid), dtype=bool)
    if distant_pairs:
        for c1, c2 in distant_pairs:
            f1, _ = ns_flags(ctx.eigensystem(c1, sub_scale), grid, params)
            f2, _ = ns_flags(ctx.eigensystem(c2, sub_scale), grid, params)
            both_singular = (~f1) & (~f2)
            pair_free &= ~both_singular
        counters["pair_energy_exclusions"] = int(np.count_nonzero(~pair_free))

    need_ns = (loc.localized & nr) | (cnr & pair_free)
    ns_ok = np.zeros(len(grid), dtype=bool)
    worst = np.zeros(len(grid))
    if np.any(need_ns):
        flags, w = ns_flags(es, grid[need_ns], params)
        ns_ok[need_ns] = flags
        worst[need_ns] = w

    thr = params.ns_threshold(L, n=ball.n_particles)
    bad = loc.localized & nr & ~ns_ok
    violations += _green_violations(
        "loc_nr_implies_ns", center, radius, grid[bad], worst[bad], thr
    )
    counters["loc_nr_instances"] = int(np.count_nonzero(loc.localized & nr))

    bad = cnr & pair_free & ~ns_ok
    violations += _green_violations(
        "cnr_no_pair_implies_ns", center, radius, grid[bad], worst[bad], thr
    )
    counters["cnr_instances"] = int(np.count_nonzero(cnr & pair_free))

    if bool(np.all(pair_free)) and not loc.localized:
        violations.append(
            Violation(
                "no_distant_pair_implies_loc",
                tuple(center),
                radius,
                None,
                loc.worst_ratio,
                f"worst product ratio {loc.worst_ratio:.3e} at {loc.witness}",
            )
        )

    return AuditResult(violations, counters)


def verify_longrange_split(
    ctx: AuditContext, center, radius: int, sub_scale: int, grid_stride: int | None = None
) -> AuditResult:
    """Audit the decomposable-ball implication for long-range interactions.

    Hypotheses per energy: the split separation exceeds the truncation
    radius, both factor balls are localized, the ball is completely
    non-resonant.  Conclusion: the ball is non-singular at that energy.
    The truncation-error control (analytic bound below e^{-2mL} and the
    measured defect below the analytic bound) is checked on the split.
    """
    params = ctx.params
    if params.regime != "infinite":
        return AuditResult([], {"skipped": 1})
    ball = ctx.ball(center, radius)
    violations: list = []
    counters = {"energies": 0, "hypothesis_instances": 0}
    if classify_ball(ball, params) != "PI":
        return AuditResult([], {"skipped": 1})
    split = canonical_decomposition(ball, params)
    L = ball.radius
    r_trunc = params.truncation_radius_for(L)
    if split.separation <= r_trunc:
        return AuditResult([], {"skipped": 1})

    model = ctx.spec.interaction
    bound = epsilon_bound(model, ball.n_particles, r_trunc)
    if bound >= math.exp(-2.0 * params.mass * L):
        violations.append(
            Violation(
                "truncation_control",
                tuple(center),
                radius,
                None,
                bound,
                f"analytic defect bound {bound:.3e} not below e^-2mL",
            )
        )
    defect = interaction_defect(split.part1, split.part2, model, ctx.spec.geometry)
    if defect > bound * (1.0 + 1e-9):
        violations.append(
            Violation(
                "truncation_defect",
                tuple(center),
                radius,
                None,
                defect,
                f"measured defect {defect:.3e} above bound {bound:.3e}",
            )
        )

    if not (ctx.m_loc(split.part1, L).localized and ctx.m_loc(split.part2, L).localized):
        return AuditResult(violations, counters)

    es = ctx.eigensystem(center, radius)
    _, grid, _, cnr = _audit_grid(ctx, es, sub_scale, grid_stride)
    counters["energies"] = len(grid)
    counters["hypothesis_instances"] = int(np.count_nonzero(cnr))

    if np.any(cnr):
        flags, worst = ns_flags(es, grid[cnr], params)
        thr = params.ns_threshold(L, n=ball.n_particles)
        violations += _green_violations(
            "split_loc_cnr_implies_ns", center, radius, grid[cnr][~flags], worst[~flags], thr
        )
    return AuditResult(violations, counters)
