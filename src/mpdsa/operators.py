"""Finite-volume operators on sector balls.

The Hamiltonian of a ball is  H = -Laplacian + g * (one-particle potential
summed over particles) + (two-body interaction energy), assembled as a
dense symmetric matrix indexed by the ball's canonical member order.

Two diagonal conventions are supported:

  * "induced": diagonal = degree within the ball (the canonical graph
    Laplacian of the ball viewed as a graph; rows sum to zero);
  * "fixed": diagonal = sum of the one-particle degrees of the occupied
    sites (2*N*d on the integer lattice), i.e. the truncation of the
    full-space operator that keeps only hopping pairs inside the ball.

Nested restrictions under the "fixed" convention differ purely by the
hopping terms crossing the boundary, which is what the resolvent patching
identities used by the scaling analysis require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .configspace import (
    Ball,
    LatticeGeometry,
    merge_configs,
    product_rows,
)
from .disorder import FieldSample, MissingDataError


# -- interactions -----------------------------------------------------------


@dataclass(frozen=True)
class InteractionModel:
    """Two-body potential U(r) with optional hard truncation.

    kinds:
      * "none": U = 0;
      * "step": U(r) = amplitude for r <= range_, else 0 (so ``range_``
        is the largest interacting distance);
      * "subexp": U(r) = prefactor * exp(-rate * r**(1 - tail_exponent));
      * "table": explicit values, zero off the table.

    ``pair_counting`` fixes how the configuration energy sums pairs:
    "ordered" counts every unordered pair twice (the raw double sum over
    i != j), "unordered" counts it once.
    """

    kind: str = "none"
    amplitude: float = 0.0
    range_: int = 0
    prefactor: float = 0.0
    rate: float = 1.0
    tail_exponent: float = 0.0
    table: tuple = ()
    truncation_radius: int | None = None
    pair_counting: str = "ordered"

    def __post_init__(self):
        if self.kind not in ("none", "step", "subexp", "table"):
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.pair_counting not in ("ordered", "unordered"):
            raise ValueError("pair_counting must be 'ordered' or 'unordered'")
        if self.kind == "subexp" and not 0.0 <= self.tail_exponent < 1.0:
            raise ValueError("tail exponent must lie in [0, 1)")
        if self.truncation_radius is not None and self.truncation_radius < 0:
            raise ValueError("truncation radius must be >= 0")

    def pair_value(self, r: int) -> float:
        """U(r) at integer distance r >= 0, after truncation."""
        if self.truncation_radius is not None and r > self.truncation_radius:
            return 0.0
        if self.kind == "none":
            return 0.0
        if self.kind == "step":
            return self.amplitude if r <= self.range_ else 0.0
        if self.kind == "subexp":
            return self.prefactor * math.exp(
                -self.rate * r ** (1.0 - self.tail_exponent)
            )
        for rr, val in self.table:
            if rr == r:
                return val
        return 0.0

    def tail_sup(self, radius: float) -> float:
        """sup over real r > radius of |U(r)| (truncation respected)."""
        cut = self.truncation_radius
        if cut is not None and radius >= cut:
            return 0.0
        if self.kind == "none":
            return 0.0
        if self.kind == "step":
            return abs(self.amplitude) if radius < self.range_ else 0.0
        if self.kind == "subexp":
            return abs(self.prefactor) * math.exp(
                -self.rate * max(radius, 0.0) ** (1.0 - self.tail_exponent)
            )
        vals = [
            abs(v)
            for rr, v in self.table
            if rr > radius and (cut is None or rr <= cut)
        ]
        return max(vals, default=0.0)


def interaction_energy(x, model: InteractionModel, geometry: LatticeGeometry) -> float:
    """Two-body energy of a configuration (ordered double sum by default)."""
    total = 0.0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            total += model.pair_value(geometry.site_distance(x[i], x[j]))
    if model.pair_counting == "ordered":
        total *= 2.0
    return total


def truncate_interaction(model: InteractionModel, radius: int) -> InteractionModel:
    """Pointwise truncation U(r) -> U(r) 1{r <= radius}; idempotent."""
    if radius < 0:
        raise ValueError("truncation radius must be >= 0")
    if model.truncation_radius is not None:
        radius = min(radius, model.truncation_radius)
    return replace(model, truncation_radius=radius)


def epsilon_bound(model: InteractionModel, n_particles: int, radius: float) -> float:
    """Upper bound on the cross energy of any split separated beyond radius.

    For a configuration split into groups of sizes n' + n'' = N whose
    mutual distance exceeds ``radius``, the energy defect
    |U(x) - U(x') - U(x'')| is the cross-pair sum, at most
    (pair factor) * max n'n'' * sup_{r > radius} |U(r)|.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if n_particles < 2:
        return 0.0
    worst_pairs = (n_particles // 2) * ((n_particles + 1) // 2)
    factor = 2.0 if model.pair_counting == "ordered" else 1.0
    return factor * worst_pairs * model.tail_sup(radius)


def interaction_defect(x1, x2, model: InteractionModel, geometry) -> float:
    """|U(joint) - U(x1) - U(x2)| computed directly."""
    joint = merge_configs(x1, x2, geometry)
    return abs(
        interaction_energy(joint, model, geometry)
        - interaction_energy(x1, model, geometry)
        - interaction_energy(x2, model, geometry)
    )


# -- matrices ---------------------------------------------------------------


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense symmetric matrix indexed by a ball's canonical member order."""

    ball: Ball
    matrix: np.ndarray
    convention: str = "induced"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.ball), len(self.ball)):
            raise ValueError("matrix shape does not match the ball")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return len(self.ball)

    def asymmetry(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T), initial=0.0))

    def norm_bound(self) -> float:
        """Row-sum bound on the spectral norm."""
        return float(np.max(np.sum(np.abs(self.matrix), axis=1), initial=0.0))


@dataclass(frozen=True)
class _BallStructure:
    """The field-independent part of H on one ball, O(n) in size.

    ``hops`` holds the index arrays (i, j), i < j, of the hopping pairs;
    ``sites`` the index in ``ball.projection`` of each member's particles,
    shape (n, N), in member order.
    """

    hops: tuple
    laplacian_diagonal: np.ndarray
    interaction_diagonal: np.ndarray
    sites: np.ndarray


def _interaction_diagonal(ball: Ball, model: InteractionModel) -> np.ndarray:
    """``interaction_energy`` of every member: pairs summed in the same
    order, each U(r) read from a table over the distances that occur."""
    arr = ball.member_array
    n, npart = len(ball), ball.n_particles
    dists = [
        ball.geometry.site_distances(arr[:, i], arr[:, j])
        for i in range(npart)
        for j in range(i + 1, npart)
    ]
    top = max((int(r.max()) for r in dists), default=0)
    table = np.array([model.pair_value(r) for r in range(top + 1)])
    total = np.zeros(n)
    for r in dists:
        total += table[r]
    if model.pair_counting == "ordered":
        total *= 2.0
    return total


@lru_cache(maxsize=512)
def _build_structure(ball: Ball, convention: str, interaction: InteractionModel) -> _BallStructure:
    n, g = len(ball), ball.geometry
    hops = np.asarray(ball.edge_index_pairs, dtype=np.int64).reshape(-1, 2).T
    # np.unique sorts the distinct sites as ball.projection does, so its
    # inverse indexes ball.projection
    sites = np.unique(
        ball.member_array.reshape(n * ball.n_particles, -1), axis=0, return_inverse=True
    )[1].reshape(n, ball.n_particles)
    if convention == "induced":
        # degree within the ball
        diag = np.bincount(hops.ravel(), minlength=n).astype(float)
    else:
        degrees = np.array([g.site_degree(s) for s in ball.projection], dtype=np.int64)
        diag = degrees[sites].sum(axis=1).astype(float)
    return _BallStructure(
        (hops[0], hops[1]), diag, _interaction_diagonal(ball, interaction), sites
    )


def _structure(ball: Ball, convention: str, interaction: InteractionModel) -> _BallStructure:
    """The ball's structure for the convention and interaction, cached
    like the balls themselves."""
    if convention not in ("induced", "fixed"):
        raise ValueError(f"unknown diagonal convention {convention!r}")
    return _build_structure(ball, convention, interaction)


def _assemble(st: _BallStructure, diagonal: np.ndarray) -> np.ndarray:
    """Dense matrix, hopping -1 on the structure's pairs and ``diagonal``
    on the diagonal."""
    matrix = np.diag(np.asarray(diagonal, dtype=float))
    i, j = st.hops
    matrix[i, j] = -1.0
    matrix[j, i] = -1.0
    return matrix


def laplacian_matrix(ball: Ball, convention: str = "induced") -> OperatorMatrix:
    """Negative graph Laplacian of the ball, hopping -1 on sector edges."""
    st = _structure(ball, convention, InteractionModel())
    return OperatorMatrix(ball, _assemble(st, st.laplacian_diagonal), convention)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Recipe for assembling H = -Laplacian + g V + U on a ball."""

    geometry: LatticeGeometry
    n_particles: int
    coupling: float = 1.0
    interaction: InteractionModel = InteractionModel()
    convention: str = "induced"


def hamiltonian_diagonals(spec: HamiltonianSpec, ball: Ball, region, fields) -> np.ndarray:
    """Row t: the diagonal of H on the ball under field t, where
    ``fields[t, k]`` is its value at ``region[k]``; the region must cover
    the ball's sites.  ``hopping_template`` plus diag(row t) equals
    ``assemble_hamiltonian`` under field t entry for entry."""
    return diagonal_gather(spec, ball, region)(fields)


def diagonal_gather(spec: HamiltonianSpec, ball: Ball, region):
    """``hamiltonian_diagonals`` on one ball and region, as a function of
    the field rows alone: the region-to-column table is built here, once,
    and a call is only the numpy gather and sum."""
    if ball.n_particles != spec.n_particles:
        raise ValueError("ball particle number does not match the spec")
    st = _structure(ball, spec.convention, spec.interaction)
    column = {s: k for k, s in enumerate(region)}
    missing = [s for s in ball.projection if s not in column]
    if missing:
        raise MissingDataError(f"region misses sites {missing[:3]}")
    # column of fields that holds particle k of member m
    sites = np.array([column[s] for s in ball.projection], dtype=np.intp)[st.sites]

    def diagonals(fields) -> np.ndarray:
        fields = np.asarray(fields)
        # potential summed over particles in member order, as potential_energy does
        potential = np.zeros((len(fields), len(ball)))
        for k in range(ball.n_particles):
            potential += fields[:, sites[:, k]]
        return st.laplacian_diagonal + (spec.coupling * potential + st.interaction_diagonal)

    return diagonals


def hopping_template(spec: HamiltonianSpec, ball: Ball) -> OperatorMatrix:
    """H on the ball with its diagonal left zero: the hopping part every
    field shares."""
    st = _structure(ball, spec.convention, spec.interaction)
    return OperatorMatrix(ball, _assemble(st, np.zeros(len(ball))), spec.convention)


def assemble_hamiltonian(spec: HamiltonianSpec, ball: Ball, sample: FieldSample) -> OperatorMatrix:
    """Assembled operator on the ball; the sample must cover its sites.
    ``hopping_template`` plus the diagonal of ``hamiltonian_diagonals``
    under the sample's field."""
    field = [[sample[s] for s in ball.projection]]
    (diagonal,) = hamiltonian_diagonals(spec, ball, ball.projection, field)
    st = _structure(ball, spec.convention, spec.interaction)
    return OperatorMatrix(ball, _assemble(st, diagonal), spec.convention)


def kronecker_sum(ha: OperatorMatrix, hb: OperatorMatrix) -> OperatorMatrix:
    """H_A (x) 1 + 1 (x) H_B, reindexed to the merged ball's canonical order.

    Requires the two center configurations to be separated far enough that
    the joint ball is exactly the product of the factors; the spectrum of
    the result is the set of pairwise sums of the factor spectra.
    """
    return kronecker_sum_on(ha, hb, *product_rows(ha.ball, hb.ball))


def kronecker_sum_on(ha: OperatorMatrix, hb: OperatorMatrix, joint: Ball, rows) -> OperatorMatrix:
    """``kronecker_sum`` on the joint ball and rows of ``product_rows``.

    Only the entries kron(H_A, 1) + kron(1, H_B) can make nonzero are
    written: H_A among the joint rows sharing a B factor member, then H_B
    added among those sharing an A factor member.
    """
    na, nb = len(ha.ball), len(hb.ball)
    # joint row of product row i*nb + j, as an na x nb table
    table = np.empty(na * nb, dtype=np.int64)
    table[rows] = np.arange(len(rows))
    table = table.reshape(na, nb)
    mat = np.zeros((len(rows), len(rows)))
    same_b = table.T
    mat[same_b[:, :, None], same_b[:, None, :]] = ha.matrix
    mat[table[:, :, None], table[:, None, :]] += hb.matrix
    return OperatorMatrix(joint, mat, ha.convention)
