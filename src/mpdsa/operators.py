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

import numpy as np

from .configspace import (
    Ball,
    GeometryError,
    LatticeGeometry,
    enumerate_ball,
    factorization_check,
    merge_configs,
)
from .disorder import FieldSample, MissingDataError, potential_energy


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


def laplacian_matrix(ball: Ball, convention: str = "induced") -> OperatorMatrix:
    """Negative graph Laplacian of the ball, hopping -1 on sector edges."""
    if convention not in ("induced", "fixed"):
        raise ValueError(f"unknown diagonal convention {convention!r}")
    n = len(ball)
    mat = np.zeros((n, n))
    for i, j in ball.edge_index_pairs:
        mat[i, j] = mat[j, i] = -1.0
    if convention == "induced":
        diag = -np.sum(mat, axis=1)
    else:
        g = ball.geometry
        diag = np.array(
            [sum(g.site_degree(s) for s in cfg) for cfg in ball.members],
            dtype=float,
        )
    mat[np.diag_indices(n)] = diag
    return OperatorMatrix(ball, mat, convention)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Recipe for assembling H = -Laplacian + g V + U on a ball."""

    geometry: LatticeGeometry
    n_particles: int
    coupling: float = 1.0
    interaction: InteractionModel = InteractionModel()
    convention: str = "induced"


def assemble_hamiltonian(spec: HamiltonianSpec, ball: Ball, sample: FieldSample) -> OperatorMatrix:
    """Assembled operator on the ball; the sample must cover its sites."""
    if ball.n_particles != spec.n_particles:
        raise ValueError("ball particle number does not match the spec")
    if not sample.covers(ball.projection):
        missing = [s for s in ball.projection if s not in sample.values]
        raise MissingDataError(f"sample misses sites {missing[:3]}")
    op = laplacian_matrix(ball, spec.convention)
    diag = np.array(
        [
            spec.coupling * potential_energy(cfg, sample)
            + interaction_energy(cfg, spec.interaction, spec.geometry)
            for cfg in ball.members
        ]
    )
    mat = op.matrix.copy()
    mat[np.diag_indices(len(ball))] += diag
    return OperatorMatrix(ball, mat, spec.convention)


def kronecker_sum(ha: OperatorMatrix, hb: OperatorMatrix) -> OperatorMatrix:
    """H_A (x) 1 + 1 (x) H_B, reindexed to the merged ball's canonical order.

    Requires the two center configurations to be separated far enough that
    the joint ball is exactly the product of the factors; the spectrum of
    the result is the set of pairwise sums of the factor spectra.
    """
    ball_a, ball_b = ha.ball, hb.ball
    if ball_a.geometry != ball_b.geometry:
        raise GeometryError("factor balls live on different geometries")
    if ball_a.radius != ball_b.radius:
        raise GeometryError("factor balls must share the radius")
    g = ball_a.geometry
    radius = ball_a.radius
    if not factorization_check(ball_a.center, ball_b.center, radius, g):
        raise GeometryError(
            "joint ball does not factor into the given sub-balls"
        )
    joint = enumerate_ball(
        merge_configs(ball_a.center, ball_b.center, g), radius, g
    )
    na, nb = len(ball_a), len(ball_b)
    kron = np.kron(ha.matrix, np.eye(nb)) + np.kron(np.eye(na), hb.matrix)
    prod_of_joint = product_rows(ball_a, ball_b, joint)
    mat = kron[np.ix_(prod_of_joint, prod_of_joint)]
    return OperatorMatrix(joint, mat, ha.convention)


def product_rows(ball_a: Ball, ball_b: Ball, joint: Ball) -> np.ndarray:
    """Product row i*len(ball_b)+j of each joint row, the joint row being
    the one of merge(members_a[i], members_b[j])."""
    g = joint.geometry
    nb = len(ball_b)
    prod_of_joint = np.empty(len(joint), dtype=np.int64)
    for i, a in enumerate(ball_a.members):
        for j, b in enumerate(ball_b.members):
            prod_of_joint[joint.index[merge_configs(a, b, g)]] = i * nb + j
    return prod_of_joint
