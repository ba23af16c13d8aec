"""Exact diagonalization, Green functions, and descent inequalities.

Everything here is deterministic given an assembled operator.  The Green
function of a symmetric matrix at a non-eigenvalue energy is evaluated in
the eigenbasis; a resonance guard refuses energies closer to the spectrum
than 1e-12 times the spectral norm, since no inequality of the scaling
analysis is ever evaluated at an eigenvalue.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        return float(spectral_distances(self.eigenvalues, energy))

    def rows(self, indices) -> np.ndarray:
        """Entries psi_j(x) of every eigenvector at the ball index (or
        indices) ``indices``: row r holds those at ``indices[r]``."""
        return self.eigenvectors[indices]

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


def spectral_distances(spectrum: np.ndarray, energies) -> np.ndarray:
    """dist(E, spectrum) at each of the ``energies``, from the two values of
    the ascending ``spectrum`` either side of E: rounding is monotone, so it
    is bit for bit the minimum of |lambda - E| over the spectrum.  A NaN in
    the spectrum or among the energies raises ``FloatingPointError``."""
    if np.isnan(spectrum).any():
        raise FloatingPointError("spectrum value is NaN")
    if np.isnan(energies).any():
        raise FloatingPointError("energy is NaN")
    pos = np.searchsorted(spectrum, energies)
    below = np.abs(energies - spectrum[np.maximum(pos - 1, 0)])
    above = np.abs(spectrum[np.minimum(pos, len(spectrum) - 1)] - energies)
    return np.minimum(below, above)


def resonance_cutoff(eigenvalues: np.ndarray) -> float:
    """Distance to the spectrum at or below which no resolvent is
    evaluated: 1e-12 times the spectral norm."""
    return 1e-12 * max(float(np.max(np.abs(eigenvalues), initial=0.0)), 1e-300)


class GapCertificate:
    """Gap certificates and Green columns, in LAPACK band storage, for
    matrices H_t = T + diag(h_t) that share one hopping template T
    (symmetric, zero diagonal, entries 0 and -1, as ``hopping_template``
    returns it).  In ball order a hop moves one particle by one site, so
    T is banded, with half-width 12 at n = 91.  The certificate stores
    every band in ``order`` (``band_order`` of T unless given: reverse
    Cuthill–McKee, or the identity where that is no narrower), where
    ``width``, T's half-width kd, is 7 at n = 91.  Diagonals come in and
    Green columns go out in ball order; the rows are permuted inside, and
    a permutation changes no eigenvalue.

    Called on diagonals ``h`` (one row per matrix) and an energy E, it
    gives one bool per matrix: True when a Cholesky factor proves that no
    eigenvalue of H_t lies near E.  With d_t = fl(h_t - E), A_t = H_t - E,
    N_t = ||H_t||_inf + |E| = max_i (deg_i + |h_ti|) + |E| and
    sigma_t = 10 n sqrt(eps) N_t, a Cholesky factors the lower band
    (half-width 2 kd) of S_t = A_t^2 - sigma_t^2 I, formed without a
    matrix product from

        A_t^2 = T^2 + [T_ij (d_i + d_j) on the hopping pairs] + diag(d_i^2),

    where T^2, a band of small integers, is computed once and is exact.
    A hopping entry takes one rounding (of d_i + d_j), two where T^2_ij is
    not zero; a diagonal entry takes the rounding of d_i^2, one add and the
    sigma^2 subtraction.  With u = eps / 2 that is at most a few u N_t per
    hopping entry (N_t >= 1 wherever there is one) and about 3 u N_t^2 on
    the diagonal, so the formed square lies within about 4 eps N_t^2 of
    S_t in the 2-norm; a matrix product would err by up to gamma_n N_t^2.
    A Cholesky that completes is the exact factor of a matrix within
    n gamma_{2kd+2} N_t^2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 10.3, with the band width: an entry of L L^T sums at
    most 2 kd + 1 products, so the dense gamma_{n+1} only shrinks), and the
    shift fl(h - E) moves A_t by at most u N_t.  So success means
    A_t^2 > (sigma_t^2 - (n^2 + 4) eps N_t^2) I: every eigenvalue of H_t
    is at least about 9.8 n sqrt(eps) N_t from E, over 1e5 times
    ``resonance_cutoff`` and far beyond the error of ``eigvalsh``.

    ``green_columns`` solves (H_t - E) g_t = delta_source by band LU with
    partial pivoting (``dgbsv``); a zero pivot raises ``LinAlgError``.  A
    stack of k bands, C-ordered (k, n, width), is the Fortran band of the
    k n x k n block-diagonal matrix (every slot past a matrix's edge holds
    0), so one call of each routine takes the stack, and ``dpbtrf``
    restarts after each matrix it does not clear.  A wide band's factors
    may then differ in the last bits from one-matrix calls; Thm 10.3 holds
    in any summation order.  Where the routines are missing
    (``lapack_band``), the bands are expanded to the dense matrices they
    store for ``np.linalg.cholesky`` and ``np.linalg.solve``.  The
    symmetry check runs on the template before T is read.  Both stacks
    share one buffer of ``rows`` x n x (3 kd + 1) doubles, ``rows`` the
    most matrices one call takes: k lower bands of the S_t (at most
    2 kd + 1 slots a row) or k general bands of the A_t (3 kd + 1).  A
    call copies the template's band over every slot it reads, then writes
    the hopping pairs and the diagonal.
    """

    def __init__(self, template: OperatorMatrix, rows: int, order=None):
        t = _symmetric_part(template)
        if np.any(np.diag(t)):
            raise ValueError("a hopping template must have a zero diagonal")
        n = len(t)
        self.order = band_order(t)[0] if order is None else np.asarray(order)
        # ball member i sits at row _position[i] of the band
        self._position = np.argsort(self.order)
        t = t[np.ix_(self.order, self.order)]
        self.width = kd = half_width(t)
        square = t @ t
        self._pairs = np.nonzero(np.triu(t))
        self._pair_hops = t[self._pairs]
        self._pair_squares = square[self._pairs]
        self._diagonal_squares = np.diag(square).copy()
        self._degrees = np.sum(np.abs(t), axis=1)
        # S's lower band: S(i, j) at [j, i - j]; A's: A(i, j) at [j, 2 kd + i - j],
        # after kd slots for the LU's fill-in
        ks = min(2 * kd, n - 1)
        self._square_entries = _band_entries(n, range(ks + 1), 0)
        self._hop_entries = _band_entries(n, range(-kd, kd + 1), 2 * kd)
        self._square_band = _to_band(square, self._square_entries, ks + 1)
        self._hop_band = _to_band(t, self._hop_entries, 3 * kd + 1)
        self._buffer = np.empty(rows * self._hop_band.size)

    def __call__(self, h: np.ndarray, energy: float) -> np.ndarray:
        square = self.square(h, energy)
        if not lapack_band():
            return np.array([_cholesky_succeeds(_to_dense(s, self._square_entries))
                             for s in square], dtype=bool)
        (k, n, width), start = square.shape, 0
        cleared = np.ones(k, dtype=bool)
        # INFO = i > 0: the leading minor of order i is the first not positive
        while start < k and (info := _lapack_call("dpbtrf", "L", (k - start) * n, width - 1,
                                                  square[start:], width)):
            start += (info - 1) // n + 1
            cleared[start - 1] = False
        return cleared

    def square(self, h: np.ndarray, energy: float) -> np.ndarray:
        """The lower bands of the S_t in band order, in the buffer:
        S_t(order[i], order[j]) at [t, j, i - j] for j <= i <= j + 2 kd."""
        k, n = h.shape
        d = h[:, self.order]
        norm = np.max(self._degrees + np.abs(d), axis=1) + abs(energy)
        sigma = 10 * n * math.sqrt(np.finfo(float).eps) * norm
        d -= energy
        square = self._stack(self._square_band, k)
        a, b = self._pairs
        # in place, so a long sub-stack's temporaries stay few; each step
        # rounds as squares + hops * (d_a + d_b) and d^2 + squares - sigma^2 do
        pair = d[:, a]
        pair += d[:, b]
        pair *= self._pair_hops
        pair += self._pair_squares
        square[:, a, b - a] = pair
        d *= d
        d += self._diagonal_squares
        d -= (sigma * sigma)[:, None]
        square[:, :, 0] = d
        return square

    def green_columns(self, h: np.ndarray, energy: float, source: int) -> np.ndarray:
        """G(x, source; E) for all x and every matrix T + diag(h_t), in
        ball order: row t holds the solution g_t of
        (H_t - E) g_t = delta_source, with H_t - E = T + diag(fl(h_t - E)).

        No resonance guard: callers screen the energy against the spectra.
        """
        k, n = h.shape
        shifted = self._stack(self._hop_band, k)
        np.subtract(h[:, self.order], energy, out=shifted[:, :, 2 * self.width])
        g = np.zeros((k, n))
        g[:, self._position[source]] = 1.0
        kd, pivots = self.width, np.empty(k * n, dtype=np.int64)
        if not lapack_band():
            dense = [_to_dense(band, self._hop_entries) for band in shifted]
            g = np.linalg.solve(np.array(dense), g[..., None])[..., 0]
        elif _lapack_call("dgbsv", k * n, kd, kd, 1, shifted, 3 * kd + 1, pivots, g, k * n) > 0:
            raise np.linalg.LinAlgError("Singular matrix")
        return g[:, self._position]

    def _stack(self, band: np.ndarray, k: int) -> np.ndarray:
        """k copies of ``band``, C-ordered (k, n, width), over the buffer's head."""
        stack = self._buffer[: k * band.size].reshape(k, *band.shape)
        stack[:] = band
        return stack


def half_width(matrix: np.ndarray) -> int:
    """A matrix's band half-width: max |i - j| over its nonzero (i, j)."""
    i, j = np.nonzero(matrix)
    return int(np.max(np.abs(i - j), initial=0))


def band_order(matrix: np.ndarray) -> tuple:
    """(order, kd): a reverse Cuthill–McKee order of the graph of the
    matrix's off-diagonal nonzeros (i ~ j where entry (i, j) or (j, i) is
    not zero), and kd the half-width of ``matrix[order][:, order]``; the
    identity and the matrix's own half-width where the order would not
    narrow the band.

    Each connected component is visited breadth first from its first
    member of least degree, a member's unvisited neighbours by ascending
    degree, ties by index; the visit order is then reversed (Cuthill &
    McKee, 1969; George & Liu, *Computer Solution of Large Sparse Positive
    Definite Systems*, 1981).  No set or hash order enters, so the order
    is the same on every run.  A 1D two-particle ball's hopping template
    has kd = 2L in ball order and L + 1 in this one (L its radius).
    """
    n = len(matrix)
    graph = (matrix != 0) | (matrix.T != 0)
    np.fill_diagonal(graph, False)
    degrees = np.count_nonzero(graph, axis=1)
    rows, cols = np.nonzero(graph)
    # member v's neighbours, by ascending degree, ties by index, at
    # neighbours[starts[v]:starts[v + 1]]
    neighbours = cols[np.lexsort((cols, degrees[cols], rows))].tolist()
    starts = np.concatenate(([0], np.cumsum(degrees))).tolist()
    seen, visited = [False] * n, []
    for start in np.argsort(degrees, kind="stable").tolist():
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        # the loop reaches the members it appends: breadth first
        for v in component:
            for u in neighbours[starts[v]:starts[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    component.append(u)
        visited += component
    order = np.array(visited[::-1], dtype=np.intp)
    position = np.argsort(order)
    kd = int(np.max(np.abs(rows - cols), initial=0))
    narrowed = int(np.max(np.abs(position[rows] - position[cols]), initial=0))
    return (order, narrowed) if narrowed < kd else (np.arange(n), kd)


def _band_entries(n: int, offsets, origin: int) -> tuple:
    """(rows, columns, band slots) of the entries (j + o, j) of an n x n
    matrix, o in ``offsets``, in LAPACK band storage in C order (row j of
    the band is Fortran's column j): entry (j + o, j) at [j, origin + o]."""
    o, j = np.meshgrid(np.asarray(offsets), np.arange(n), indexing="ij")
    keep = (0 <= j + o) & (j + o < n)
    return (j + o)[keep], j[keep], (origin + o)[keep]


def _to_band(matrix: np.ndarray, entries: tuple, width: int) -> np.ndarray:
    """The band of ``matrix`` at ``entries``, every other slot zero."""
    rows, cols, slots = entries
    band = np.zeros((len(matrix), width))
    band[cols, slots] = matrix[rows, cols]
    return band


def _to_dense(band: np.ndarray, entries: tuple) -> np.ndarray:
    """The n x n matrix a band stores, zero outside it (a lower band gives
    the lower triangle, all ``np.linalg.cholesky`` reads)."""
    rows, cols, slots = entries
    matrix = np.zeros((len(band), len(band)))
    matrix[rows, cols] = band[cols, slots]
    return matrix


def _cholesky_succeeds(matrix: np.ndarray) -> bool:
    """Whether ``np.linalg.cholesky`` factors the matrix."""
    try:
        np.linalg.cholesky(matrix)
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
    returned callable runs the bare ``eigh`` and wraps its result, so it
    can run on another thread."""
    matrix = _symmetric_part(op)
    return lambda: EigenSystem(op, *eigh(matrix))


@dataclass(frozen=True)
class EigenRows:
    """Ascending eigenvalues of an operator on a ball, with its eigenvector
    entries at a few members only: ``vectors[r, j]`` is psi_j at the
    member of ball index ``indices[r]`` (ascending)."""

    ball: Ball
    eigenvalues: np.ndarray
    indices: np.ndarray
    vectors: np.ndarray

    def rows(self, indices) -> np.ndarray:
        """``EigenSystem.rows`` of ball indices held here; KeyError on
        any other."""
        pos = np.searchsorted(self.indices, indices)
        if np.any(np.take(self.indices, pos, mode="clip") != indices):
            raise KeyError(f"no eigenvector row held for ball index {indices}")
        return self.vectors[pos]


@lru_cache(maxsize=None)
def openblas():
    """The OpenBLAS that numpy's Linux wheel bundles, or None where there
    is none."""
    package = os.path.dirname(os.path.abspath(np.__file__))
    for path in sorted(glob.glob(os.path.join(package, "..", "numpy.libs", "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


# each routine's arguments before INFO: c a character, i an integer, a an array
LAPACK_ARGUMENTS = {
    "dsytrd": "ciaiaaaai",  # uplo n a lda d e tau work lwork
    "dstedc": "ciaaaiaiai",  # compz n d e z ldz work lwork iwork liwork
    "dormtr": "ccciiaiaaiai",  # side uplo trans m n a lda tau c ldc work lwork
    "dpbtrf": "ciiai",  # uplo n kd ab ldab
    "dgbsv": "iiiiaiaai",  # n kl ku nrhs ab ldab ipiv b ldb
    "dsyevd": "cciaiaaiai",  # jobz uplo n a lda w work lwork iwork liwork
}
_INT = ctypes.POINTER(ctypes.c_int64)


@lru_cache(maxsize=None)
def lapack_routine(name: str):
    """LAPACK routine ``name`` of ``openblas()``, in its 64-bit integer
    build (the one ``np.linalg`` calls), with its argument types declared
    (gfortran passes each character argument's length last), or None."""
    routine = getattr(openblas(), f"scipy_{name}_64_", None)
    if routine is not None:
        kinds = LAPACK_ARGUMENTS[name]
        types = {"c": ctypes.c_char_p, "i": _INT, "a": ctypes.c_void_p}
        routine.argtypes = ([types[k] for k in kinds] + [_INT]
                            + [ctypes.c_size_t] * kinds.count("c"))
        routine.restype = None
    return routine


def lapack_rows() -> bool:
    """Whether ``diagonalize_rows`` finds its three LAPACK routines."""
    return all(lapack_routine(name) is not None for name in ("dsytrd", "dstedc", "dormtr"))


def lapack_band() -> bool:
    """Whether ``GapCertificate`` finds its two band routines."""
    return all(lapack_routine(name) is not None for name in ("dpbtrf", "dgbsv"))


def _lapack_call(name: str, *args) -> int:
    """Runs LAPACK routine ``name`` on the arguments before its INFO, in
    Fortran order (str, int or contiguous ndarray); returns INFO."""
    kinds = LAPACK_ARGUMENTS[name]
    if len(args) != len(kinds):
        raise TypeError(f"{name} takes {len(kinds)} arguments before INFO, not {len(args)}")
    info = ctypes.c_int64(0)
    refs = [arg.encode() if kind == "c" else arg.ctypes if kind == "a"
            else ctypes.byref(ctypes.c_int64(arg)) for kind, arg in zip(kinds, args)]
    lapack_routine(name)(*refs, ctypes.byref(info), *[1] * kinds.count("c"))
    return info.value


def _workspace(name: str, *args) -> np.ndarray:
    """The optimal workspace of routine ``name``, from its query with the
    arguments ``args``: None stands for the workspace, -1 for its size."""
    query = np.empty(1)
    _lapack_call(name, *(query if a is None else a for a in args))
    return np.empty(int(query[0]))


def _dsyevd(jobz: str, matrix: np.ndarray) -> tuple:
    """``dsyevd`` on the lower triangle of a copy of the symmetric
    ``matrix``, with the workspace its own query asks for, as
    ``np.linalg.eigh`` (JOBZ = 'V') and ``eigvalsh`` (JOBZ = 'N') call it:
    (ascending eigenvalues, the copy, which holds the eigenvectors as
    columns in Fortran order for 'V').  A solve that fails to converge
    raises ``np.linalg.LinAlgError``, as theirs does."""
    n = len(matrix)
    a = np.array(matrix, dtype=np.float64, order="F")
    values = np.empty(n)
    iquery = np.empty(1, dtype=np.int64)
    work = _workspace("dsyevd", jobz, "L", n, a, max(n, 1), values, None, -1, iquery, -1)
    iwork = np.empty(int(iquery[0]), dtype=np.int64)
    info = _lapack_call("dsyevd", jobz, "L", n, a, max(n, 1), values, work, len(work),
                        iwork, len(iwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd did not converge (info {info})")
    return values, a


def _transpose_in_place(a: np.ndarray, block: int = 64) -> None:
    """Transposes the square array ``a`` in place, a block pair at a time,
    so no second n x n array is made."""
    n = len(a)
    for i in range(0, n, block):
        diagonal = a[i : i + block, i : i + block]
        diagonal[...] = diagonal.T.copy()
        for j in range(i + block, n, block):
            upper = a[i : i + block, j : j + block].copy()
            a[i : i + block, j : j + block] = a[j : j + block, i : i + block].T
            a[j : j + block, i : i + block] = upper.T


def eigh(matrix: np.ndarray) -> tuple:
    """``np.linalg.eigh`` of a symmetric matrix, bit for bit: the same
    ``dsyevd`` call (``_dsyevd``) on its own copy of the matrix, which then
    becomes the C-ordered eigenvector array (``_transpose_in_place``).  So
    the solve needs one n x n array and the 2 n^2 workspace besides the
    input, where ``np.linalg.eigh`` needs two, and it releases the GIL as
    ``eigh`` does.  Where the routine is missing, ``np.linalg.eigh`` runs.
    """
    if lapack_routine("dsyevd") is None:
        return np.linalg.eigh(matrix)
    values, a = _dsyevd("V", matrix)
    vectors = a.T  # C-ordered view of the Fortran-ordered columns: V^T
    _transpose_in_place(vectors)
    return values, vectors


def eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh`` of a symmetric matrix, bit for bit: the same
    ``dsyevd`` call (``_dsyevd``).  ``np.linalg.eigvalsh`` holds the GIL
    for its whole run on one matrix of up to about 500 rows, while this
    ctypes call releases it, so values-only solves on ``msa.run_pinned``'s
    workers run beside the calling thread's Python.  Where the routine is
    missing, ``np.linalg.eigvalsh`` runs."""
    if lapack_routine("dsyevd") is None:
        return np.linalg.eigvalsh(matrix)
    return _dsyevd("N", matrix)[0]


# dsyevd scales a matrix whose largest entry lies outside [2^-485, 2^485]
# (sqrt of safe minimum / eps, and its inverse) before it reduces it
DSYEVD_UNSCALED = (2.0**-485, 2.0**485)


def diagonalize_rows(op: OperatorMatrix, indices) -> EigenRows:
    """Every eigenvalue of a symmetric operator matrix, and its
    eigenvectors' entries at the ascending ball indices ``indices`` alone.

    The steps are those ``np.linalg.eigh`` runs in ``dsyevd``: ``dsytrd``
    reduces the lower triangle to a tridiagonal T = Q^T H Q, and ``dstedc``
    computes T's eigenvalues and eigenvectors Z, so the eigenvalues are
    bit for bit ``eigh``'s.  Where ``dsyevd`` then forms all n rows of Q Z,
    ``dormtr`` forms C = Q^T E on the unit columns E of the indices, and
    the rows are C^T Z: O(k n^2) work for k rows instead of n^3.  They
    agree with ``eigh``'s to rounding, about n eps.  Where a routine is
    missing, or ``dsyevd`` would scale the matrix first, the rows are read
    from ``eigh``.  A ``dstedc`` that fails to converge raises
    ``np.linalg.LinAlgError``, as ``eigh`` does.
    """
    matrix = _symmetric_part(op)
    indices = np.asarray(indices, dtype=np.intp)
    n, k = op.n, len(indices)
    largest = float(np.max(np.abs(matrix), initial=0.0))
    lo, hi = DSYEVD_UNSCALED
    if not lapack_rows() or 0.0 < largest < lo or largest > hi:
        values, vectors = np.linalg.eigh(matrix)
        return EigenRows(op.ball, values, indices, vectors[indices])
    a = np.array(matrix, order="F")
    values, off, tau = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(n - 1, 1))
    work = _workspace("dsytrd", "L", n, a, n, values, off, tau, None, -1)
    _lapack_call("dsytrd", "L", n, a, n, values, off, tau, work, len(work))
    z = np.empty((n, n), order="F")
    iquery = np.empty(1, dtype=np.int64)
    work = _workspace("dstedc", "I", n, values, off, z, n, None, -1, iquery, -1)
    iwork = np.empty(int(iquery[0]), dtype=np.int64)
    info = _lapack_call("dstedc", "I", n, values, off, z, n, work, len(work), iwork, len(iwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"dstedc did not converge (info {info})")
    c = np.zeros((n, k), order="F")
    c[indices, np.arange(k)] = 1.0
    work = _workspace("dormtr", "L", "L", "T", n, k, a, n, tau, c, n, None, -1)
    _lapack_call("dormtr", "L", "L", "T", n, k, a, n, tau, c, n, work, len(work))
    return EigenRows(op.ball, values, indices, c.T @ z)


def eigenvalues_of(op: OperatorMatrix) -> np.ndarray:
    """Ascending eigenvalues of a symmetric operator matrix, without the
    eigenvectors: the same checks as ``diagonalize``, then ``eigvalsh``,
    which releases the GIL while it solves."""
    return eigvalsh(_symmetric_part(op))


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
