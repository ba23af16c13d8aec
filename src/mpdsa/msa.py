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

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .configspace import (
    Ball,
    canonical_config,
    classify_ball,
    canonical_decomposition,
    enumerate_ball,
    maximal_separation_split,
)
from .disorder import FieldSample
from .operators import (
    HamiltonianSpec,
    assemble_hamiltonian,
    diagonal_gather,
    epsilon_bound,
    hopping_template,
    interaction_defect,
)
from .spectral import (
    EigenRows,
    EigenSystem,
    GapCertificate,
    band_order,
    diagonalization,
    diagonalize,
    diagonalize_rows,
    eigensystem_from_factors,
    eigenvalues_of,
    eigenvector_noise_floors,
    openblas,
    pairwise_sums,
    resonance_cutoff,
    spectral_distances,
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

    @functools.cached_property
    def _loc_min_distances(self) -> dict:
        return {}

    def loc_min_distance(self, L: int) -> int:
        """Smallest pair distance at which eigenfunction decay is demanded,
        computed once per scale and kept on the parameters."""
        rmin = self._loc_min_distances.get(L)
        if rmin is None:
            rmin = ceil_rational_power(L, (1 + self.varrho) / self.alpha)
            self._loc_min_distances[L] = rmin
        return rmin

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


# -- threads -----------------------------------------------------------------


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def blas_thread_setter():
    """``openblas_set_num_threads_local`` (OpenBLAS 0.3.27 and later) of
    the OpenBLAS that numpy's Linux wheel bundles (``spectral.openblas``),
    or None where there is none.  It sets the BLAS thread count and
    returns the previous count.  Despite its name the count is
    process-wide on numpy 2.4.6's OpenBLAS 0.3.31: the main thread set 3,
    a new thread set 1, and the main thread's next call returned 1.  So
    callers keep it at one while other threads run kernels."""
    setter = getattr(openblas(), "openblas_set_num_threads_local", None)
    if setter is not None:
        setter.restype = ctypes.c_int
        setter.argtypes = [ctypes.c_int]
    return setter


def pool_size() -> int:
    """Threads that run kernels at once: one per usable CPU, all at one
    BLAS thread (a process-wide count, ``blas_thread_setter``), or one
    where the BLAS thread count cannot be set."""
    return usable_cpus() if blas_thread_setter() is not None else 1


def run_pinned(tasks, main=None, more=None) -> list:
    """The results of the zero-argument callables ``tasks``, in order,
    after running them beside ``main``.

    ``pool_size()`` threads work at once.  With ``main``, the calling
    thread runs it beside up to ``pool_size() - 1`` worker threads that
    take the tasks.  Then it runs ``more``, a zero-argument callable, if
    given: the tasks it returns join the queue behind ``tasks``, and their
    results follow.  Then the calling thread takes tasks from the queue
    too; a worker that finds the queue empty stops, so ``more``'s tasks
    go to the workers still running and the calling thread.  Without
    ``main``, the calling thread waits on up to ``pool_size()`` workers.
    The BLAS thread count is process-wide (``blas_thread_setter``): it is
    set to one before the first worker starts, so every BLAS call, on any
    thread, runs on one BLAS thread, as under ``cli.main``, and a kernel
    computes the same bits on whichever thread runs it.  The caller's
    previous count comes back once every worker is joined.
    Where fewer than two threads would work, the calling thread runs the
    tasks, then ``main``, then ``more``'s tasks, and no thread starts.

    A task's exception reaches the caller with its own type (the first
    failed task's, in task order; ``main``'s before any); the tasks no
    thread has taken are then dropped, and every worker is joined before
    the call returns or raises.  Tasks run off the main thread, so they
    must call nothing that keeps per-process state without a lock
    (``perfbench/layertrace.py``'s spans, say).
    """
    # list.pop is atomic, so the threads share the queue unlocked; the
    # queue alone holds the tasks, so each is freed once it has run
    queue = list(enumerate(tasks))[::-1]
    del tasks
    results, errors = [None] * len(queue), {}
    workers = min(pool_size() - (main is not None), len(queue))

    def run_main():
        main()
        if more is not None:
            added = list(enumerate(more(), len(results)))
            results.extend([None] * len(added))
            queue[:0] = added[::-1]

    def run_queue():
        while queue:
            k, task = queue.pop()
            results[k] = task()

    if workers + (main is not None) < 2:
        run_queue()
        if main is not None:
            run_main()
            run_queue()
        return results

    # a thread takes no task once one has failed, nor once main has failed
    # (cleared)
    def work():
        while queue and not errors:
            try:
                k, task = queue.pop()
            except IndexError:  # another thread took the last task
                return
            try:
                results[k] = task()
            except BaseException as exc:  # raised again on the calling thread
                errors[k] = exc

    def pinned_work():
        blas_thread_setter()(1)
        work()

    # the count a worker sets reaches the calling thread too (numpy 2.4's
    # OpenBLAS 0.3.31), so the caller's is read before any worker starts
    previous = blas_thread_setter()(1)
    threads = [threading.Thread(target=pinned_work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    try:
        if main is not None:
            run_main()
            work()
    except BaseException:
        queue.clear()
        raise
    finally:
        for thread in threads:
            thread.join()
        blas_thread_setter()(previous)
    if errors:
        raise errors[min(errors)]
    return results


# -- evaluation context ------------------------------------------------------

# cross interaction at or below which a split ball's assembled matrix is
# identical in double precision to the tensor sum of its factors
SPLIT_TOL = 1e-30


class AuditContext:
    """Caches eigensystems, values-only spectra, m-localization and
    m-tunneling reports for one (spec, sample) pair.

    One rule fixes every value: ``spectrum`` is always the values-only
    solve and ``eigensystem`` always ``eigh``, whichever was asked first,
    and whether the value was solved alone on the calling thread or with
    others on ``run_pinned``'s workers (``solve``).
    When a ball's centre splits into groups farther apart than twice the
    radius and the cross interaction over the gap is at most ``SPLIT_TOL``,
    its spectral data are assembled from the factor balls' instead of a
    dense solve.
    """

    def __init__(self, spec: HamiltonianSpec, sample: FieldSample, params: ScalingParams):
        self.spec = spec
        self.sample = sample
        self.params = params
        self._systems: dict = {}
        self._spectra: dict = {}
        self._locs: dict = {}
        self._tunnels: dict = {}

    def ball(self, center, radius: int) -> Ball:
        return enumerate_ball(center, radius, self.spec.geometry)

    def eigensystem(self, center, radius: int) -> EigenSystem:
        """The ball's eigensystem (``eigh``), computed once per (centre,
        radius)."""
        key = (tuple(center), radius)
        es = self._systems.get(key)
        if es is None:
            parts = factor_centers(self.spec, center, radius)
            if parts is not None:
                es = eigensystem_from_factors(*(self.eigensystem(p, radius) for p in parts))
            else:
                es = diagonalize(self._operator(self.ball(center, radius)))
            self._systems[key] = es
        return es

    def solve(self, center, radius: int, spectra=(), main=None) -> None:
        """Caches the ball's eigensystem and the spectrum of each (centre,
        radius) pair of ``spectra``, their dense solves run as one task
        list on ``run_pinned``'s pool, beside ``main`` if given.

        The calling thread enumerates the balls and assembles their
        operators, so the tasks are bare kernels: the ball's ``eigh``
        (``spectral.diagonalization``), then ``eigenvalues_of`` of the
        sub-balls, largest first.  With ``main`` the sub-ball operators
        are assembled once ``main`` has returned (``run_pinned``'s
        ``more``), so they are never alive beside what ``main`` holds.  A
        ball that factors is left to ``eigensystem`` and ``spectrum``, which
        assemble it from its factor balls when asked.  Solves already
        cached are not repeated, so every value is the one ``eigensystem``
        or ``spectrum`` would give on its own."""
        systems = self._unsolved([(center, radius)], self._systems)
        values = self._unsolved(spectra, self._spectra)

        def values_only():
            return [functools.partial(eigenvalues_of, self._operator(self.ball(*key)))
                    for key in values]

        tasks = [diagonalization(self._operator(self.ball(*key))) for key in systems]
        if main is None:
            results = run_pinned(tasks + values_only())
        else:
            results = run_pinned(tasks, main=main, more=values_only)
        self._systems.update(zip(systems, results))
        self._spectra.update(zip(values, results[len(systems):]))

    def _unsolved(self, pairs, cache: dict) -> list:
        """The (centre, radius) keys of ``pairs`` that ``cache`` lacks and
        whose balls do not factor, without repeats, largest ball first."""
        keys = dict.fromkeys((tuple(c), r) for c, r in pairs)
        return sorted((key for key in keys
                       if key not in cache and factor_centers(self.spec, *key) is None),
                      key=lambda key: len(self.ball(*key)), reverse=True)

    def eigen_rows(self, center, radius: int, indices) -> EigenRows:
        """Every eigenvalue of the ball, with its eigenvectors' entries at
        the ascending ball indices ``indices`` alone
        (``spectral.diagonalize_rows``); nothing is cached.  A ball that
        factors assembles its eigensystem from its factors' (cached)
        eigensystems and keeps those rows of it."""
        parts = factor_centers(self.spec, center, radius)
        if parts is None:
            return diagonalize_rows(self._operator(self.ball(center, radius)), indices)
        es = eigensystem_from_factors(*(self.eigensystem(p, radius) for p in parts))
        return EigenRows(es.ball, es.eigenvalues, np.asarray(indices, dtype=np.intp),
                         es.rows(indices))

    def spectrum(self, center, radius: int) -> np.ndarray:
        """Ascending eigenvalues of the ball from a values-only solve
        (sorted factor sums for a split ball), computed once per (centre,
        radius); never the eigenvalues of its eigensystem."""
        key = (tuple(center), radius)
        vals = self._spectra.get(key)
        if vals is None:
            parts = factor_centers(self.spec, center, radius)
            if parts is None:
                vals = eigenvalues_of(self._operator(self.ball(center, radius)))
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

    def m_tunneling(self, center, radius: int, sub_scale: int) -> TunnelingReport:
        """``is_m_tunneling`` of the ball at the sub-scale, computed once per
        (centre, radius, sub-scale); energy plays no role in it either."""
        key = (tuple(center), radius, sub_scale)
        rep = self._tunnels.get(key)
        if rep is None:
            rep = is_m_tunneling(self, self.ball(center, radius), sub_scale)
            self._tunnels[key] = rep
        return rep

    def _operator(self, ball: Ball):
        return assemble_hamiltonian(_spec_on(self.spec, ball), ball, self.sample)


def factor_centers(spec: HamiltonianSpec, center, radius: int):
    """The two group centres of the ball around ``center`` if it factors,
    else None."""
    if len(center) < 2:
        return None
    split = maximal_separation_split(canonical_config(center, spec.geometry), spec.geometry)
    gap = split.separation - 2 * radius
    if gap <= 0 or epsilon_bound(spec.interaction, len(center), gap - 1) > SPLIT_TOL:
        return None
    return split.part1, split.part2


def _spec_on(spec: HamiltonianSpec, ball: Ball) -> HamiltonianSpec:
    """The spec with the ball's particle number (a factor ball has fewer)."""
    if spec.n_particles != ball.n_particles:
        spec = replace(spec, n_particles=ball.n_particles)
    return spec


# -- sub-ball selection ------------------------------------------------------


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
        for c in ball.stride_grid(max(1, r // 2), ball.radius - r).centers:
            out.append((c, r))
    return out


# -- predicates --------------------------------------------------------------


def is_E_NR(es: EigenSystem, energy: float, params: ScalingParams) -> bool:
    """Resolvent norm at most e^{+L^beta} (ties are non-resonant)."""
    return bool(spectral_distances(es.eigenvalues, energy)
                >= params.resonance_scale(es.ball.radius))


def _first_resonant(ctx: AuditContext, ball: Ball, energies: np.ndarray) -> tuple:
    """NR and CNR at each energy: (the ball, then its ``cnr_subballs``, as
    (centre, radius); per energy the index of the first whose spectrum lies
    closer than its resonance scale, else -1).  NR holds where it is not 0,
    CNR where it is -1.  The ball's spectrum is its eigensystem's."""
    params = ctx.params
    balls = [(ball.center, ball.radius)] + cnr_subballs(params, ball)
    first = np.full(len(energies), -1)
    for k, (center, r) in enumerate(balls):
        spectrum = ctx.eigensystem(center, r).eigenvalues if k == 0 else ctx.spectrum(center, r)
        resonant = spectral_distances(spectrum, energies) < params.resonance_scale(r)
        first[resonant & (first < 0)] = k
    return balls, first


def is_E_CNR(ctx: AuditContext, ball: Ball, energy: float):
    """No resonant sub-ball (the ball itself included); returns witness.

    Sub-balls are inspected on the documented conservative policy: ladder
    radii at least L**(1/alpha), centres on a half-radius stride grid.
    """
    balls, (k,) = _first_resonant(ctx, ball, np.array([energy], dtype=float))
    return (True, None) if k < 0 else (False, balls[k])


def ns_decision(worst_value, threshold: float):
    """Non-singular iff the worst boundary value is at most the threshold
    (ties favour the good event); elementwise on arrays.  A NaN worst value
    decides nothing: it raises ``FloatingPointError``."""
    if np.isnan(worst_value).any():
        raise FloatingPointError("boundary Green value is NaN")
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
    rows = ball.interior_boundary_rows
    if len(rows) == 0:
        return np.ones(len(energies), dtype=bool), np.zeros(len(energies))
    safe = spectral_distances(es.eigenvalues, energies) > es.resonance_cutoff()
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
    certificate: GapCertificate, h: np.ndarray, energy: float, safe: np.ndarray,
    cleared: np.ndarray, source: int, rows, threshold: float,
) -> list:
    """``is_EmNS`` without eigenvectors, for the operators T + diag(h_t)
    on one ball (T the template of ``certificate``) at one energy: one
    report per row of ``h``.  ``source`` is the ball's centre row,
    ``rows`` its interior boundary rows and ``threshold`` the clamped
    threshold of ``is_EmNS``.

    ``safe[t]`` says E lies outside the resonance cutoff of H_t's
    spectrum, by the gap certificate or by the ``eigvalsh`` screen; an
    unsafe matrix gets flag False and worst value +inf, as in
    ``ns_flags``.  One band solve over the safe matrices of
    (H_t - E) g_t = delta_centre (``GapCertificate.green_columns``) gives
    their boundary values.  ``cleared`` goes on the reports as is.
    """
    if len(rows) == 0:
        return [NsReport(True, 0.0, threshold, cleared=bool(c)) for c in cleared]
    worst = np.full(len(h), np.inf)
    if np.any(safe):
        g = certificate.green_columns(h if safe.all() else h[safe], energy, source)
        worst[safe] = np.max(np.abs(g[:, rows]), axis=1)
    flags = ns_decision(worst, threshold)
    return [
        NsReport(bool(f), float(w), threshold, not s, bool(c))
        for f, w, s, c in zip(flags, worst, safe, cleared)
    ]


@dataclass(frozen=True)
class BlockReports:
    """The reports of ``block_non_singularity``, one per field, and how its
    blocks went: ``cholesky_fallback_blocks`` counts the blocks holding a
    matrix the gap certificate tried and did not clear, which the block
    then screened with ``eigvalsh`` (0 for a split ball, which takes no
    certificate)."""

    reports: list
    blocks: int
    cholesky_fallback_blocks: int


# the band storage of one `singular` block, in doubles (2 MB)
BLOCK_BAND_DOUBLES = 2**18


def block_non_singularity(
    spec: HamiltonianSpec, region, fields, center, radius: int, energy: float,
    params: ScalingParams,
) -> BlockReports:
    """``is_EmNS`` of one ball at one energy under each of many fields,
    without eigenvectors: one report per row of ``fields``, the field on
    ``region`` (as ``diagonal_gather`` takes it).

    The fields' operators share the ball's hopping template and differ on
    the diagonal only, so each is built from its diagonal in band storage
    (``GapCertificate``), in the template's ``band_order``, computed once
    per call and shared by every worker's certificate.  A block holds b
    fields, the most whose general bands (n (3 kd + 1) doubles each, kd
    the template's half-width in that order) fit in
    ``BLOCK_BAND_DOUBLES``: 130 at n = 91 (kd = 7; 77 at the ball order's
    kd = 12), never a function of the worker count.  The blocks go to the
    workers of ``run_pinned`` (``pool_size()`` threads, at most one per
    block) while the calling thread waits.  With w workers, a worker owns
    a ``GapCertificate`` whose buffer holds ceil(b / w) matrices, and
    decides each block it takes as sub-stacks of that size.

    A sub-stack is decided whole on its worker.  The certificate clears
    most trials without a spectrum (one ``dpbtrf`` per sub-stack; 994 to
    999 of 1,000 at n = 91).  The trials it leaves take one stacked
    ``eigvalsh`` and the resonance cutoff; a NaN in such a spectrum
    decides nothing: it raises ``FloatingPointError``.  A split ball takes
    no certificate and screens every trial with its factor spectra (sorted
    factor sums, as ``AuditContext.spectrum`` takes them), which cost less
    than the joint factorization.  Then one ``ns_by_solve`` decides every
    trial outside the cutoff with one ``dgbsv`` over the sub-stack, whose
    columns are the one-trial solves' bit for bit, so the decisions do not
    depend on the number of workers (``GapCertificate``).
    """
    ball = enumerate_ball(center, radius, spec.geometry)
    ball_spec = _spec_on(spec, ball)
    template = hopping_template(ball_spec, ball)
    order, kd = band_order(template.matrix)
    block = max(1, BLOCK_BAND_DOUBLES // (len(ball) * (3 * kd + 1)))
    diagonals = diagonal_gather(ball_spec, ball, region)
    spectra = _spectra_by_field(spec, ball, region, template, diagonals)
    source = ball.center_index()
    boundary = ball.interior_boundary_rows
    threshold = _clamped_ns_threshold(ball, params)
    split = factor_centers(spec, center, radius) is not None
    starts = range(0, len(fields), block)
    workers = min(pool_size(), len(starts))
    rows = -(-min(block, len(fields)) // max(workers, 1))
    # each thread that decides blocks owns its certificate, built at its first block
    owned = threading.local()

    def decide(start):
        """A block's reports."""
        if not hasattr(owned, "certificate"):
            owned.certificate = GapCertificate(template, rows, order)
        certificate = owned.certificate
        part = []
        end = min(start + block, len(fields))
        for s in range(start, end, rows):
            stack = fields[s : min(s + rows, end)]
            h = diagonals(stack)
            cleared = np.zeros(len(h), dtype=bool) if split else certificate(h, energy)
            safe, left = cleared.copy(), ~cleared
            if left.any():
                safe[left] = [spectral_distances(v, energy) > resonance_cutoff(v)
                              for v in spectra(stack[left])]
            part += ns_by_solve(certificate, h, energy, safe, cleared, source, boundary,
                                threshold)
        return part

    results = run_pinned([functools.partial(decide, start) for start in starts])
    fallback = 0 if split else sum(not all(r.cleared for r in part) for part in results)
    return BlockReports([r for part in results for r in part], len(starts), fallback)


def _spectra_by_field(spec: HamiltonianSpec, ball: Ball, region, template, diagonals):
    """The ball's spectra as a function of field rows on ``region``: row t
    of its value is the ascending spectrum under ``fields[t]``.  A whole
    ball stacks ``template`` (its hopping template) with the ``diagonals``
    of its gather; a split ball sorts the sums of its factor balls'
    spectra, the values ``pairwise_sums`` gives."""
    parts = factor_centers(spec, ball.center, ball.radius)
    if parts is None:
        return lambda fields: stacked_eigenvalues(template, diagonals(fields))
    factors = []
    for p in parts:
        factor = enumerate_ball(p, ball.radius, spec.geometry)
        factor_spec = _spec_on(spec, factor)
        factors.append(_spectra_by_field(spec, factor, region,
                                         hopping_template(factor_spec, factor),
                                         diagonal_gather(factor_spec, factor, region)))

    def spectra(fields):
        a, b = (factor(fields) for factor in factors)
        return np.sort((a[:, :, None] + b[:, None, :]).reshape(len(fields), -1), axis=1)

    return spectra


@dataclass(frozen=True)
class LocReport:
    localized: bool
    worst_ratio: float
    witness: tuple | None
    min_distance: int
    qualifying_pairs: int


# eigenfunctions per block of the m-localization profile and scan
LOC_BLOCK = 64
# nats added to the log of each shell maximum (``_log_profiles``)
LOG_SLACK = 1e-9


def _log_profiles(vectors, dmat) -> tuple:
    """(rows, peaks, prof) of the eigenfunctions, the columns of
    ``vectors``: rows[j] = |psi_j|, peaks[j] the first member where it is
    largest, and prof[r, j] the log of its largest amplitude at distance
    >= r from peaks[j], plus LOG_SLACK.  That bounds the log amplitude
    log(max(|psi_j(x)|, 1e-320)) of every such x: the log of a maximum
    falls short of the largest log only where np.log is not monotone, by
    an ulp or two (numpy tests float64 log to 1 ulp; an ulp is under
    2^-43 at |log| <= 737), far inside LOG_SLACK.  A NaN entry raises
    FloatingPointError: argmax stops at a row's first NaN.
    """
    n = vectors.shape[1]
    R = int(dmat.max()) + 1
    shell = np.zeros(n * R)
    rows = np.empty((n, n))
    peaks = np.empty(n, dtype=np.intp)
    keys = np.empty((min(LOC_BLOCK, n), n), dtype=np.intp)
    for lo in range(0, n, LOC_BLOCK):
        hi = min(n, lo + LOC_BLOCK)
        block = np.abs(vectors[:, lo:hi].T, out=rows[lo:hi])
        peaks[lo:hi] = np.argmax(block, axis=1)
        if np.isnan(block[np.arange(hi - lo), peaks[lo:hi]]).any():
            raise FloatingPointError("eigenvector entry or eigenvalue is NaN")
        # keys j R + rho(peak_j, x) in intp: the distances come in their
        # narrowest dtype, where the sum would wrap around silently
        np.add(dmat[peaks[lo:hi]], (np.arange(lo, hi) * R)[:, None],
               out=keys[: hi - lo], casting="unsafe")
        # 1-D operands take numpy's fast path
        np.maximum.at(shell, keys[: hi - lo].ravel(), block.ravel())
    # the suffix maximum over distances >= r
    prof = shell.reshape(n, R).T.copy()
    np.maximum.accumulate(prof[::-1], axis=0, out=prof[::-1])
    np.maximum(prof, 1e-320, out=prof)
    np.log(prof, out=prof)
    prof += LOG_SLACK
    return rows, peaks, prof


def _floor_distance(rmin: int, rate: float, log_floors, D: int) -> int:
    """The distance S in [rmin, D] from which the pair threshold
    max(-rate s, log floor_j) sits at its floor for every j, or D."""
    steps = rate * np.arange(D + 1)
    return max(rmin, min(D, int(np.searchsorted(steps, -log_floors.min()))))


def _log_excess_bounds(prof, rmin: int, rate: float, log_floors) -> np.ndarray:
    """Per eigenfunction, an upper bound on the log excess of every pair.

    A qualifying pair (a, b) of eigenfunction j has excess
    fl(fl(lv_a + lv_b) - thr(rho)), thr(s) = max(fl(-rate s), log
    floor_j), rho = rho(a, b) >= rmin.  Its distances ra <= rb from the
    peak (``_log_profiles``) have rho <= ra + rb, so thr(rho) >= thr(s),
    s = min(ra + rb, D), D the diameter, and lv_a <= prof[ra], lv_b <=
    prof[rb]: fl(fl(prof[ra] + prof[rb]) - thr(s)) bounds the excess, as
    every step is monotone in floating point.  Terms with s > S
    (``_floor_distance``) are at most one with s = S: prof does not rise
    with r, some ra' <= ra, rb' <= rb sum to S, and thr(s) = thr(S).
    """
    R, n = prof.shape
    D = R - 1
    best = np.full(n, -np.inf)
    for s in range(rmin, _floor_distance(rmin, rate, log_floors, D) + 1):
        ra = np.arange(max(0, s - D), s // 2 + 1)
        sums = (prof[ra] + prof[s - ra]).max(axis=0)
        np.maximum(best, sums - np.maximum(-rate * s, log_floors), out=best)
    return best


def _partner_bounds(prof, rmin: int, rate: float, log_floors) -> np.ndarray:
    """part[dd, j] bounds lv_b - thr(rho(a, b)) over the partners b of a
    member a at distance dd from eigenfunction j's peak (notation of
    ``_log_excess_bounds``).  Such a b is r >= rmin - dd from the peak,
    rho <= min(dd + r, D), so lv_b - thr(rho) <= prof[r] -
    thr(min(dd + r, D)); as thr >= log floor_j and prof does not rise,
    prof[cap] - log floor_j covers every r >= cap = max(S - dd, 0).
    lv_a + part[dd, j] bounds the excess up to two roundings, far inside
    LOG_SLACK."""
    R, m = prof.shape
    dd = np.arange(R)
    lo = np.maximum(0, rmin - dd)
    cap = np.maximum(0, _floor_distance(rmin, rate, log_floors, R - 1) - dd)
    part = prof[cap] - log_floors
    # the terms below the cap, (dd, r) for lo <= r < cap, grouped by dd
    width = cap - lo
    ends = np.cumsum(width)
    r = np.arange(ends[-1]) - np.repeat(ends - width - lo, width)
    if len(r):
        near = prof[r] - np.maximum(-rate * (np.repeat(dd, width) + r)[:, None], log_floors)
        some = np.flatnonzero(width)
        part[some] = np.maximum(part[some], np.maximum.reduceat(near, (ends - width)[some], axis=0))
    return part


def _loc_candidates(ctx, cols, log_worst: float) -> list:
    """(j, excess, a, b) for each eigenfunction of ``cols`` with a
    qualifying pair over log_worst's cut: its largest excess and the first
    pair reaching it, a the lower-amplitude member.  Pairs, order and every
    number compared are those of a scan of one eigenfunction at a time;
    pairs that cannot reach log_worst are dropped unseen.  The pairs with
    a peak go first: their best ratio is one the report reaches, so it may
    raise log_worst.
    """
    rows, prof, peaks, bounds, floors, dmat, rmin, rate = ctx
    n = rows.shape[1]
    v = rows[cols]
    ar = np.arange(len(cols))
    pk = peaks[cols]
    # np.log over contiguous rows: the bits of a log of the whole array
    lv = np.log(np.maximum(v, 1e-320))
    top = lv[ar, pk]
    cand = v > (floors[cols] / v[ar, pk])[:, None]
    log_floor = np.array([math.log(f) for f in floors[cols]])
    dist = dmat[pk]
    far = np.flatnonzero(cand & (dist >= rmin))
    row = far // n
    lvx, tp, lf = lv.ravel()[far], top[row], log_floor[row]
    # the product test in both orders, whichever member the scan sorts first
    ok = (tp > lf - lvx) & (lvx > lf - tp)
    if ok.any():
        excess = lvx[ok] + tp[ok] - np.maximum(-rate * dist.ravel()[far[ok]], lf[ok])
        peak_worst = math.exp(min(float(excess.max()), 700.0))
        if peak_worst > 0.0:
            log_worst = max(log_worst, math.log(peak_worst) - 1e-9)
    live = bounds[cols] >= log_worst
    cols, lv, top, cand, log_floor, dist = (
        a[live] for a in (cols, lv, top, cand, log_floor, dist))
    log_cut = log_floor + max(0.0, log_worst)
    # members that can be in a pair over the cut and reach log_worst
    heavy = cand & (lv + top[:, None] > (log_cut - LOG_SLACK)[:, None])
    flat = np.flatnonzero(heavy)
    g, x = np.divmod(flat, n)
    d = dist.ravel()[flat]
    lvs = lv.ravel()[flat]
    part = _partner_bounds(prof[:, cols], rmin, rate, np.log(floors[cols]))
    keep = lvs + part[d, g] > log_worst - LOG_SLACK
    g, x, d, lvs = g[keep], x[keep], d[keep], lvs[keep]
    if len(g) < 2:
        return []
    # each eigenfunction's members in descending amplitude, equal
    # amplitudes in member order: the scan's pair order
    order = np.argsort(-lvs, kind="stable")
    order = order[np.argsort(g[order], kind="stable")]
    g, x, d, lvs = g[order], x[order], d[order], lvs[order]
    starts = np.searchsorted(g, g)
    # pairs (pa, pb), pb before pa, lv[pb] > log_cut - lv[pa]: a prefix of
    # pa's eigenfunction, from one search over (eigenfunction, -lv) pairs
    counts = np.minimum(
        np.arange(len(g)) - starts,
        np.searchsorted(g + 1j * -lvs, g + 1j * (lvs - log_cut[g])) - starts,
    )
    # whole eigenfunctions, at most n^2 / 2 pairs at a time (one has fewer)
    ends = np.cumsum(counts)
    heads = np.flatnonzero(starts == np.arange(len(g)))
    tails = np.r_[heads[1:], len(g)]
    found = []
    k = 0
    while k < len(heads):
        lo = heads[k]
        before = ends[lo - 1] if lo else 0
        k2 = max(k + 1, int(np.searchsorted(ends[tails - 1], before + n * n // 2, side="right")))
        hi = tails[k2 - 1]
        k = k2
        c = counts[lo:hi]
        pa = np.repeat(np.arange(lo, hi), c)
        pb = np.arange(int(c.sum())) - np.repeat(np.cumsum(c) - c - starts[lo:hi], c)
        # rho(a, b) <= d_a + d_b through the peak
        sel = np.flatnonzero(d[pa].astype(np.intp) + d[pb] >= rmin)
        pa, pb = pa[sel], pb[sel]
        rho = np.take(dmat.ravel(), x[pa] * n + x[pb])
        sel = np.flatnonzero(rho >= rmin)
        if len(sel) == 0:
            continue
        pa, pb, rho = pa[sel], pb[sel], rho[sel]
        gp = g[pa]
        excess = lvs[pa] + lvs[pb] - np.maximum(-rate * rho, log_floor[gp])
        # per eigenfunction the largest excess, the first pair on ties
        best = np.lexsort((-excess, gp))
        best = best[np.r_[True, gp[best][1:] != gp[best][:-1]]]
        found += [(int(cols[gp[i]]), float(excess[i]), int(x[pa[i]]), int(x[pb[i]])) for i in best]
    return found


def is_m_loc(es: EigenSystem, params: ScalingParams) -> LocReport:
    """Eigenfunction product decay over all sufficiently separated pairs.

    Checks |psi(x) psi(y)| <= e^{-rate * dist(x,y)} for every eigenfunction
    and every member pair at distance >= L^((1+varrho)/alpha), with the
    per-pair threshold clamped below at the numerical floor (products
    under the floor are indistinguishable from zero in the eigensolve).
    The worst ratio of product to threshold and its witness are reported;
    exact ties go to the lowest eigenfunction index, then to the first pair
    in descending-amplitude order (equal amplitudes in member order).

    Eigenfunctions go in descending ``_log_excess_bounds``, LOC_BLOCK at a
    time, until the bound falls below the worst ratio so far; in a block
    only members whose ``_partner_bounds`` can reach it form pairs.
    Memory: one n x n array (|psi|) beside the eigenvectors; the other
    temporaries hold LOC_BLOCK rows of n, or at most n^2 / 2 pairs.
    """
    ball = es.ball
    L = ball.radius
    rmin = params.loc_min_distance(L)
    dmat = ball.pairwise_distances
    qualifying = ball.pairs_at_least(rmin)
    if qualifying == 0:
        return LocReport(True, 0.0, None, rmin, 0)
    rate = params.decay_rate(L, n=ball.n_particles)
    # eigenvector entries below eps*|H|/gap are dominated by rounding in
    # the eigensolve; the certifiable floor adapts per eigenfunction
    floors = np.maximum(params.numerical_floor, eigenvector_noise_floors(es))
    if np.isnan(floors).any():
        raise FloatingPointError("eigenvector entry or eigenvalue is NaN")
    rows, peaks, prof = _log_profiles(es.eigenvectors, dmat)
    bounds = _log_excess_bounds(prof, rmin, rate, np.log(floors))
    order = np.argsort(-bounds, kind="stable")
    vmax = rows[np.arange(len(peaks)), peaks]
    order = order[(vmax[order] > 0.0) & (floors[order] < 1.0)]
    ctx = (rows, prof, peaks, bounds, floors, dmat, rmin, rate)
    worst = 0.0
    witness = None
    done = 0
    while done < len(order):
        log_worst = math.log(worst) - 1e-9 if worst > 0.0 else -math.inf
        # visiting the largest bounds first lets the worst ratio found so
        # far end the scan; ties keep the lowest eigenfunction index, as an
        # ascending scan would
        stop = done + int(np.count_nonzero(bounds[order[done:]] >= log_worst))
        cols = order[done:min(stop, done + LOC_BLOCK)]
        if len(cols) == 0:
            break
        found = _loc_candidates(ctx, cols, log_worst)
        done += len(cols)
        for j, excess, a, b in found:
            ratio = math.exp(min(excess, 700.0))
            if ratio > worst or (ratio == worst and witness is not None and j < witness[2]):
                worst = ratio
                witness = (ball.members[a], ball.members[b], j, int(dmat[a, b]))
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
    distant = 0
    for c1, c2, dist in ball.stride_grid(max(1, sub_scale // 2), ball.radius - sub_scale).pairs:
        if not params.pair_is_distant(dist, sub_scale):
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
    ctx.solve(center, radius, cnr_subballs(params, ball))
    es = ctx.eigensystem(center, radius)
    nr = is_E_NR(es, energy, params)
    cnr, res_witness = is_E_CNR(ctx, ball, energy)
    ns = is_EmNS(es, energy, params)
    loc = ctx.m_loc(center, radius)
    tun = ctx.m_tunneling(center, radius, sub_scale)
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


def _sorted_distinct(vals: np.ndarray) -> np.ndarray:
    """``np.unique`` of finite values, without the ``numpy.ma`` import it
    makes: the same sort, keeping the first of each run of equal values."""
    vals = np.sort(vals)
    keep = np.empty(len(vals), dtype=bool)
    keep[:1] = True
    np.not_equal(vals[1:], vals[:-1], out=keep[1:])
    return vals[keep]


def energy_grid(spectra) -> np.ndarray:
    """Sorted union of the given spectra plus midpoints of adjacent gaps.
    A non-finite value decides nothing: it raises ``FloatingPointError``."""
    vals = np.concatenate([np.asarray(s, dtype=float) for s in spectra])
    if not np.isfinite(vals).all():
        raise FloatingPointError("spectrum value is not finite")
    vals = _sorted_distinct(vals)
    if len(vals) < 2:
        return vals
    mids = 0.5 * (vals[:-1] + vals[1:])
    return _sorted_distinct(np.concatenate([vals, mids]))


def _grid_balls(ball: Ball, sub_scale: int, grid_stride: int | None):
    """(stride grid, grid sub-balls as (centre, radius)) of an implication
    audit of the ball: sub-balls of radius ``sub_scale`` on a stride grid
    (default stride = sub-scale)."""
    stride = grid_stride if grid_stride is not None else max(1, sub_scale)
    sub_grid = ball.stride_grid(stride, ball.radius - sub_scale)
    return sub_grid, [(c, sub_scale) for c in sub_grid.centers]


def audit_spectra(params: ScalingParams, ball: Ball, sub_scale: int,
                  grid_stride: int | None) -> list:
    """The sub-balls whose spectra an implication audit of the ball reads:
    its grid sub-balls, then its ``cnr_subballs``."""
    return _grid_balls(ball, sub_scale, grid_stride)[1] + cnr_subballs(params, ball)


def _audit_grid(ctx: AuditContext, center, radius: int, sub_scale: int, grid_stride: int | None):
    """(eigensystem, stride grid, energy grid, NR flags, CNR flags) of an
    implication audit of the ball.

    The energy grid is the union of the grid sub-balls' spectra plus
    midpoints, or of the ball's own spectrum when no grid sub-ball fits.
    The ball's eigensystem and every spectrum of ``audit_spectra`` are
    solved as one task list (``AuditContext.solve``).
    """
    ball = ctx.ball(center, radius)
    sub_grid, grid_balls = _grid_balls(ball, sub_scale, grid_stride)
    ctx.solve(center, radius, audit_spectra(ctx.params, ball, sub_scale, grid_stride))
    es = ctx.eigensystem(center, radius)
    spectra = [ctx.spectrum(c, r) for c, r in grid_balls]
    grid = energy_grid(spectra or [es.eigenvalues])
    _, first = _first_resonant(ctx, ball, grid)
    return es, sub_grid, grid, first != 0, first < 0


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
        localized.

    The long-range split implication is ``verify_longrange_split``'s.
    """
    params = ctx.params
    ball = ctx.ball(center, radius)
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

    es, sub_grid, grid, nr, cnr = _audit_grid(ctx, center, radius, sub_scale, grid_stride)
    counters["energies"] = len(grid)

    loc = ctx.m_loc(center, radius)

    # distant sub-ball pairs (geometry first; empty at desk scales)
    pairs = sub_grid.pairs
    distant_pairs = [(c1, c2) for c1, c2, d in pairs if params.pair_is_distant(d, sub_scale)]
    counters["distant_pairs"] = len(distant_pairs)

    if pairs:
        max_sep = max(d for _, _, d in pairs)
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

    es, _, grid, _, cnr = _audit_grid(ctx, center, radius, sub_scale, grid_stride)
    counters["energies"] = len(grid)
    counters["hypothesis_instances"] = int(np.count_nonzero(cnr))

    if np.any(cnr):
        flags, worst = ns_flags(es, grid[cnr], params)
        thr = params.ns_threshold(L, n=ball.n_particles)
        violations += _green_violations(
            "split_loc_cnr_implies_ns", center, radius, grid[cnr][~flags], worst[~flags], thr
        )
    return AuditResult(violations, counters)
