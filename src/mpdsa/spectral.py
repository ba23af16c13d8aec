"""Exact diagonalization, Green functions, and descent inequalities.

Everything here is deterministic given an assembled operator.  The Green
function of a symmetric matrix at a non-eigenvalue energy is evaluated in
the eigenbasis; a resonance guard refuses energies closer to the spectrum
than 1e-12 times the spectral norm, since no inequality of the scaling
analysis is ever evaluated at an eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .configspace import (
    Ball,
    config_distance,
    edge_boundary,
    enumerate_ball,
    exterior_boundary,
    interior_boundary,
    product_rows,
)
from .operators import OperatorMatrix, kronecker_sum_on


class ResonanceError(ValueError):
    """Energy too close to the spectrum for a stable resolvent."""

    def __init__(self, energy: float, distance: float):
        super().__init__(
            f"energy {energy} is within {distance} of the spectrum"
        )
        self.energy = energy
        self.distance = distance


ASYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Full spectral data of an operator on a ball.

    ``eigenvalues`` ascend; ``eigenvectors`` has the matching orthonormal
    columns.  Defect methods quantify how well the spectral-theorem
    invariants hold for this numerical decomposition.
    """

    operator: OperatorMatrix
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def ball(self) -> Ball:
        return self.operator.ball

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def spectral_norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues), initial=0.0))

    def residual_norm(self) -> float:
        h = self.operator.matrix
        r = h @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.linalg.norm(r, 2))

    def orthonormality_defect(self) -> float:
        v = self.eigenvectors
        return float(np.max(np.abs(v.T @ v - np.eye(self.n))))

    def completeness_defect(self) -> float:
        v = self.eigenvectors
        return float(np.max(np.abs(v @ v.T - np.eye(self.n))))

    def spectral_distance(self, energy: float) -> float:
        return float(np.min(np.abs(self.eigenvalues - energy)))

    def resolvent_norm(self, energy: float) -> float:
        d = self.spectral_distance(energy)
        if d == 0.0:
            return math.inf
        return 1.0 / d

    def resonance_cutoff(self) -> float:
        return resonance_cutoff(self.eigenvalues)

    def check_energy(self, energy: float) -> None:
        d = self.spectral_distance(energy)
        if d <= self.resonance_cutoff():
            raise ResonanceError(energy, d)

    def green_column(self, source_idx: int, energies: np.ndarray) -> np.ndarray:
        """G(x, source; E) for all x, vectorized over energies.

        Shape (n, len(energies)).  No resonance guard: callers screening
        many energies must apply their own.
        """
        energies = np.atleast_1d(np.asarray(energies, dtype=float))
        weights = self.eigenvectors[source_idx]  # psi_j(source)
        denom = self.eigenvalues[:, None] - energies[None, :]
        return self.eigenvectors @ (weights[:, None] / denom)

    def refined_green_rows(self, source_idx: int, energies: np.ndarray, rows) -> np.ndarray:
        """``green_column`` on the given rows after one step of iterative
        refinement with the eigendecomposition as the solver:
        r = delta_source - (H - E) g0, then g1 = g0 + V (V^T r) / (lambda - E).

        The eigenbasis sum carries absolute errors of order eps |H| / dist(E),
        which swamp entries far below that; the step brings them to the
        accuracy of a direct solve.  Shape (len(rows), len(energies)).
        """
        energies = np.atleast_1d(np.asarray(energies, dtype=float))
        v = self.eigenvectors
        g0 = self.green_column(source_idx, energies)
        r = g0 * energies
        r -= self.operator.matrix @ g0
        r[source_idx] += 1.0
        correction = (v.T @ r) / (self.eigenvalues[:, None] - energies[None, :])
        return g0[rows] + v[rows] @ correction


def resonance_cutoff(eigenvalues: np.ndarray) -> float:
    """Distance to the spectrum at or below which no resolvent is
    evaluated: 1e-12 times the spectral norm."""
    return 1e-12 * max(float(np.max(np.abs(eigenvalues), initial=0.0)), 1e-300)


def solve_green_columns(shifted: np.ndarray, source_idx: int) -> np.ndarray:
    """G(x, source; E) for all x and every matrix of a stack shifted to
    H_t - E, from one dense solve of the stacked systems
    (H_t - E) g_t = delta_source; row t holds g_t.

    No resonance guard: callers screen the energy against the spectra.
    """
    k, n, _ = shifted.shape
    rhs = np.zeros((k, n, 1))
    rhs[:, source_idx] = 1.0
    return np.linalg.solve(shifted, rhs)[..., 0]


class GapCertificate:
    """Cholesky gap certificates for matrices H_t = T + diag(h_t) that
    share one hopping template T (symmetric, zero diagonal, entries 0
    and -1, as ``hopping_template`` returns it).

    Called on a stack of such matrices and an energy E, it gives one bool
    per matrix: True when a Cholesky factor proves that no eigenvalue of
    H_t lies near E.  The stack is shifted in place: its diagonal holds
    d_t = fl(h_t - E) afterwards, so the stack holds A_t = H_t - E.

    With N_t = ||H_t||_inf + |E| = max_i (deg_i + |h_ti|) + |E| and
    sigma_t = 10 n sqrt(eps) N_t, one stacked Cholesky factors
    S_t = A_t^2 - sigma_t^2 I; if it fails, each matrix is factored alone.
    S_t is formed without a matrix product, from

        A_t^2 = T^2 + [T_ij (d_i + d_j) on the hopping pairs] + diag(d_i^2),

    where T^2, a matrix of small integers, is computed once and is exact.
    A hopping entry takes one rounding (of d_i + d_j), two where T^2_ij is
    not zero; a diagonal entry takes the rounding of d_i^2, one add and the
    sigma^2 subtraction.  With u = eps / 2 that is at most a few u N_t per
    hopping entry (N_t >= 1 wherever there is one) and about 3 u N_t^2 on
    the diagonal, so the formed square lies within about 4 eps N_t^2 of
    S_t in the 2-norm; a matrix product would err by up to gamma_n N_t^2.
    A Cholesky that completes is the exact factor of a matrix within about
    n gamma_{n+1} N_t^2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 10.3), and the shift fl(h - E) moves A_t by at most
    u N_t.  So success means A_t^2 > (sigma_t^2 - (n^2 + 4) eps N_t^2) I:
    every eigenvalue of H_t is at least about 9.8 n sqrt(eps) N_t from E,
    over 1e5 times ``resonance_cutoff`` and far beyond the error of
    ``eigvalsh``.

    The symmetry check runs on the template before T is read.  The
    squares live in one buffer of ``rows`` matrices, the most a stack may
    hold, filled with T^2 once; a call rewrites only the hopping pairs and
    the diagonal.  ``fallbacks`` counts the calls whose stacked Cholesky
    failed.
    """

    def __init__(self, template: OperatorMatrix, rows: int):
        t = _symmetric_part(template)
        if np.any(np.diag(t)):
            raise ValueError("a hopping template must have a zero diagonal")
        square = t @ t
        self._pairs = np.nonzero(np.triu(t))
        self._pair_hops = t[self._pairs]
        self._pair_squares = square[self._pairs]
        self._diagonal_squares = np.diag(square).copy()
        self._degrees = np.sum(np.abs(t), axis=1)
        self._squares = np.repeat(square[None], rows, axis=0)
        self.fallbacks = 0

    def __call__(self, stack: np.ndarray, energy: float) -> np.ndarray:
        square = self.square(stack, energy)
        if _factors(square):
            return np.ones(len(square), dtype=bool)
        self.fallbacks += 1
        return np.array([_factors(m) for m in square], dtype=bool)

    def square(self, stack: np.ndarray, energy: float) -> np.ndarray:
        """Shift the stack in place and form its S_t in the buffer; returns
        the buffer's first len(stack) matrices."""
        k, n, _ = stack.shape
        i = np.arange(n)
        h = stack[:, i, i]
        norm = np.max(self._degrees + np.abs(h), axis=1) + abs(energy)
        sigma = 10 * n * math.sqrt(np.finfo(float).eps) * norm
        d = h - energy
        stack[:, i, i] = d
        square = self._squares[:k]
        a, b = self._pairs
        cross = self._pair_squares + self._pair_hops * (d[:, a] + d[:, b])
        square[:, a, b] = cross
        square[:, b, a] = cross
        square[:, i, i] = (self._diagonal_squares + d * d) - (sigma * sigma)[:, None]
        return square


def _factors(matrices: np.ndarray) -> bool:
    """Whether Cholesky factors the matrix, or every matrix of a stack."""
    try:
        np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        return False
    return True


def _symmetric_part(op: OperatorMatrix) -> np.ndarray:
    """(H + H^T) / 2, after checking that H is symmetric to tolerance.

    An exactly symmetric H is its own symmetric part and is returned
    as is, without copies."""
    if np.array_equal(op.matrix, op.matrix.T):
        return op.matrix
    scale = max(op.norm_bound(), 1.0)
    if op.asymmetry() > ASYMMETRY_TOL * scale:
        raise ValueError(
            f"matrix asymmetry {op.asymmetry():g} exceeds tolerance"
        )
    return 0.5 * (op.matrix + op.matrix.T)


def diagonalize(op: OperatorMatrix) -> EigenSystem:
    """Eigendecomposition of a symmetric operator matrix."""
    return diagonalization(op)()


def diagonalization(op: OperatorMatrix):
    """``diagonalize`` in two steps: the symmetry check runs now, and the
    returned callable runs the bare ``np.linalg.eigh`` and wraps its
    result, so it can run on another thread."""
    matrix = _symmetric_part(op)
    return lambda: EigenSystem(op, *np.linalg.eigh(matrix))


def eigenvalues_of(op: OperatorMatrix) -> np.ndarray:
    """Ascending eigenvalues of a symmetric operator matrix, without the
    eigenvectors: the same checks as ``diagonalize``, then ``eigvalsh``."""
    return np.linalg.eigvalsh(_symmetric_part(op))


def stacked_eigenvalues(template: OperatorMatrix, diagonals: np.ndarray) -> np.ndarray:
    """``eigenvalues_of`` the template with each row of ``diagonals`` on
    its diagonal, in one ``eigvalsh``; row t holds the spectrum of
    template + diag(diagonals[t]).

    A diagonal changes no entry of H - H^T, so the symmetry check runs
    once, on the template.  The template's row sums are no larger than
    any matrix's, so its tolerance is the tightest of them."""
    _symmetric_part(template)
    stack = np.repeat(template.matrix[None], len(diagonals), axis=0)
    i = np.arange(template.n)
    stack[:, i, i] = diagonals
    return np.linalg.eigvalsh(stack)


# multiple of eps * |H| / gap below which an eigenvector entry is noise
NOISE_SAFETY = 32.0


def eigenvector_noise_floors(es: EigenSystem) -> np.ndarray:
    """Per-eigenfunction amplitude below which entries are rounding noise.

    Computed eigenvector entries carry an absolute error of order
    eps * |H| / gap, where gap is the distance to the nearest other
    eigenvalue; amplitudes under that cannot be certified either way.
    """
    lam = es.eigenvalues
    gaps = np.full(es.n, np.inf)
    if es.n > 1:
        diffs = np.diff(lam)
        gaps[:-1] = diffs
        gaps[1:] = np.minimum(gaps[1:], diffs)
    noise = NOISE_SAFETY * np.finfo(float).eps * max(es.spectral_norm, 1.0)
    return noise / np.maximum(gaps, 1e-300)


def pairwise_sums(vals_a: np.ndarray, vals_b: np.ndarray) -> tuple:
    """(ascending sums vals_a[i] + vals_b[j], product index i*len(vals_b)+j
    of each): the spectrum of a Kronecker sum from its factor spectra.
    Equal sums keep product order (stable sort)."""
    sums = (vals_a[:, None] + vals_b[None, :]).ravel()
    order = np.argsort(sums, kind="stable")
    return sums[order], order


def eigensystem_from_factors(
    es_a: EigenSystem, es_b: EigenSystem
) -> EigenSystem:
    """Spectral data of the Kronecker sum, assembled from factor data.

    Valid when the joint ball factors exactly and the cross interaction
    is numerically negligible; eigenvalues are pairwise sums and
    eigenvectors are products of the factor eigenvectors.  The product
    basis is mapped to the joint rows once, for the operator and the
    eigenvectors alike.
    """
    joint, rows = product_rows(es_a.ball, es_b.ball)
    op = kronecker_sum_on(es_a.operator, es_b.operator, joint, rows)
    vals, order = pairwise_sums(es_a.eigenvalues, es_b.eigenvalues)
    # entry (row, k) of kron(V_A, V_B)[rows][:, order], in one product
    ia, ib = np.divmod(rows, es_b.n)
    ja, jb = np.divmod(order, es_b.n)
    vecs = np.take(es_a.eigenvectors[ia], ja, axis=1)
    vecs *= np.take(es_b.eigenvectors[ib], jb, axis=1)
    return EigenSystem(op, vals, vecs)


@dataclass(frozen=True)
class GreenEvaluation:
    """Resolvent kernel at one energy."""

    energy: float
    kernel: np.ndarray
    spectral_distance: float
    resolvent_norm: float

    def entry(self, i: int, j: int) -> float:
        return float(self.kernel[i, j])


def green_function(es: EigenSystem, energy: float) -> GreenEvaluation:
    """Full resolvent kernel in the delta basis at a non-resonant energy."""
    es.check_energy(energy)
    inv = 1.0 / (es.eigenvalues - energy)
    kernel = (es.eigenvectors * inv) @ es.eigenvectors.T
    dist = es.spectral_distance(energy)
    return GreenEvaluation(float(energy), kernel, dist, 1.0 / dist)


# -- resolvent patching inequality ------------------------------------------

# relative slack a patching inequality's two sides may differ by in rounding
GRI_REL_SLACK = 1e-9


@dataclass(frozen=True)
class PatchReport:
    """Both sides of one patching inequality evaluation."""

    lhs: float
    rhs: float
    constant: int
    satisfied: bool
    detail: str = ""


def verify_gri(
    es_small: EigenSystem, es_large: EigenSystem, energy: float, x, y
) -> PatchReport:
    """Check |G_large(x,y)| <= C * max_in |G_small(x,.)| * max_out |G_large(.,y)|.

    ``x`` must be the center of the small ball, ``y`` a member of the
    large ball outside the small one; C is the exact number of hopping
    pairs crossing the small ball's border inside the large ball.  Exact
    for operators assembled with the "fixed" diagonal convention.
    """
    small, large = es_small.ball, es_large.ball
    x = tuple(x)
    y = tuple(y)
    if x != small.center:
        raise ValueError("x must be the center of the small ball")
    if small.contains(y):
        raise ValueError("y must lie outside the small ball")
    pairs = edge_boundary(small, large)
    constant = len(pairs)
    g_small = green_function(es_small, energy)
    g_large = green_function(es_large, energy)
    xi_small = small.center_index()
    inner = max(
        abs(g_small.entry(xi_small, small.index[v]))
        for v in interior_boundary(small, large)
    )
    yi = large.index[y]
    outer = max(
        abs(g_large.entry(large.index[w], yi))
        for w in exterior_boundary(small, large)
    )
    lhs = abs(g_large.entry(large.index[x], yi))
    rhs = constant * inner * outer
    return PatchReport(lhs, rhs, constant, lhs <= rhs * (1.0 + GRI_REL_SLACK))


def verify_gri_eigenfunction(
    es_small: EigenSystem, es_large: EigenSystem, which: int
) -> PatchReport:
    """Eigenfunction form: |psi(x)| <= C ||G_small(E)|| max_{rho<=l+1} |psi|.

    ``which`` selects an eigenfunction of the large ball; its eigenvalue
    must be non-resonant for the small ball.
    """
    small, large = es_small.ball, es_large.ball
    energy = float(es_large.eigenvalues[which])
    es_small.check_energy(energy)
    pairs = edge_boundary(small, large)
    constant = len(pairs)
    psi = es_large.eigenvectors[:, which]
    x = small.center
    lhs = abs(float(psi[large.index[x]]))
    norm = es_small.resolvent_norm(energy)
    ell = small.radius
    g = large.geometry
    neighborhood = max(
        abs(float(psi[large.index[cfg]]))
        for cfg in large.members
        if config_distance(x, cfg, g) <= ell + 1
    )
    rhs = constant * norm * neighborhood
    return PatchReport(lhs, rhs, constant, lhs <= rhs * (1.0 + GRI_REL_SLACK))


# -- subharmonic descent -----------------------------------------------------


@dataclass(frozen=True)
class SubharmonicReport:
    holds: bool
    worst_ratio: float
    witness: tuple | None
    admissible_centers: int


def subharmonic_check(
    f, domain: Ball, ell: int, q: float, floor: float = 0.0
) -> SubharmonicReport:
    """Verify f(x) <= q * max over the radius-ell ball around x, everywhere.

    ``f`` maps the domain's members to nonnegative reals (dict, or array
    aligned with the member order).  Admissible centers are members whose
    radius-ell sector ball lies entirely inside the domain; distances are
    configuration distances.  The maximum includes the center itself, so
    ratios never exceed one.  Values at or below ``floor`` count as zero:
    for data from an eigensolve, set it to the amplitude noise level, below
    which the inequality cannot be certified either way.
    """
    if not 0 <= ell:
        raise ValueError("ell must be >= 0")
    values = _as_value_map(f, domain)
    if floor > 0.0:
        values = {cfg: (0.0 if v <= floor else v) for cfg, v in values.items()}
    worst = 0.0
    witness = None
    admissible = 0
    g = domain.geometry
    for x in domain.members:
        sub = enumerate_ball(x, ell, g)
        if not all(domain.contains(cfg) for cfg in sub.members):
            continue
        admissible += 1
        m = max(values[cfg] for cfg in sub.members)
        fx = values[x]
        if m <= 0.0:
            continue  # fx <= m <= 0 forces fx == 0 for nonnegative f
        ratio = fx / m
        if ratio > worst:
            worst = ratio
            witness = x
    return SubharmonicReport(worst <= q, worst, witness, admissible)


def _as_value_map(f, domain: Ball) -> dict:
    if isinstance(f, dict):
        missing = [cfg for cfg in domain.members if cfg not in f]
        if missing:
            raise ValueError(f"function misses members, e.g. {missing[0]}")
        vals = {cfg: float(f[cfg]) for cfg in domain.members}
    else:
        arr = np.asarray(f, dtype=float)
        if arr.shape != (len(domain),):
            raise ValueError("array length does not match the domain")
        vals = {cfg: float(v) for cfg, v in zip(domain.members, arr)}
    if any(v < 0 for v in vals.values()):
        raise ValueError("subharmonic check needs nonnegative values")
    return vals


def radial_descent_bound(L: int, ell: int, q: float, maximum: float) -> float:
    """Value bound at the center after floor((L+1)/(ell+1)) descent steps."""
    if not L >= ell >= 0:
        raise ValueError("need L >= ell >= 0")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    return q ** ((L + 1) // (ell + 1)) * maximum


def radial_descent_bound_two(
    r1: int, r2: int, ell: int, q: float, maximum: float
) -> float:
    """Two-argument descent: exponents of both radial descents add."""
    if min(r1, r2) < ell or ell < 0:
        raise ValueError("need r1, r2 >= ell >= 0")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    steps = (r1 + 1) // (ell + 1) + (r2 + 1) // (ell + 1)
    return q**steps * maximum
