import math

import numpy as np
import pytest

from mpdsa.configspace import GeometryError, LatticeGeometry, enumerate_ball, merge_configs
from mpdsa.disorder import (
    FieldModel,
    FieldSample,
    MissingDataError,
    field_array,
    potential_energy,
    sample_field,
)
from mpdsa.operators import (
    HamiltonianSpec,
    InteractionModel,
    assemble_hamiltonian,
    epsilon_bound,
    hamiltonian_diagonals,
    hopping_template,
    interaction_defect,
    interaction_energy,
    kronecker_sum,
    laplacian_matrix,
    truncate_interaction,
)

STEP = InteractionModel(kind="step", amplitude=2.0, range_=1)
SUBEXP = InteractionModel(kind="subexp", prefactor=1.0, rate=1.0, tail_exponent=0.0)


class TestInteraction:
    def test_step_three_particles(self, line):
        # only the pair at distance one interacts; ordered sum doubles it
        assert interaction_energy((5, 1, 0), STEP, line) == pytest.approx(4.0)

    def test_single_particle(self, line):
        assert interaction_energy((3,), STEP, line) == 0.0

    def test_subexp_pair(self, line):
        assert interaction_energy((3, 0), SUBEXP, line) == pytest.approx(
            2.0 * math.exp(-3.0)
        )

    def test_unordered_counting_halves(self, line):
        half = InteractionModel(
            kind="step", amplitude=2.0, range_=1, pair_counting="unordered"
        )
        assert interaction_energy((5, 1, 0), half, line) == pytest.approx(2.0)

    def test_truncation_noop_on_short_range(self):
        assert truncate_interaction(STEP, 1).pair_value(1) == 2.0
        assert truncate_interaction(STEP, 1).pair_value(2) == 0.0

    def test_truncation_kills_tail(self):
        trunc = truncate_interaction(SUBEXP, 0)
        assert trunc.pair_value(0) == pytest.approx(1.0)
        assert trunc.pair_value(1) == 0.0

    def test_truncation_idempotent(self):
        twice = truncate_interaction(truncate_interaction(SUBEXP, 5), 2)
        once = truncate_interaction(SUBEXP, 2)
        assert twice == once

    def test_table_model(self, line):
        table = InteractionModel(kind="table", table=((1, 0.5), (2, -0.25)))
        assert interaction_energy((1, 0), table, line) == pytest.approx(1.0)
        assert interaction_energy((2, 0), table, line) == pytest.approx(-0.5)
        assert interaction_energy((9, 0), table, line) == 0.0


class TestEpsilonBound:
    def test_short_range_vanishes(self):
        assert epsilon_bound(STEP, 2, 1) == 0.0

    def test_subexp_two_particles(self):
        assert epsilon_bound(SUBEXP, 2, 4.0) == pytest.approx(2.0 * math.exp(-4.0))

    def test_four_particles_coefficient(self):
        # worst split 2+2 gives four cross pairs, doubled by ordered counting
        assert epsilon_bound(SUBEXP, 4, 3.0) == pytest.approx(8.0 * math.exp(-3.0))

    def test_radius_zero(self):
        # sup over r > 0: the step still acts at distance 1
        assert epsilon_bound(STEP, 2, 0) == 4.0
        with pytest.raises(ValueError):
            epsilon_bound(STEP, 2, -1)

    def test_bound_dominates_measured_defect(self, line):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sep = int(rng.integers(5, 30))
            base = sorted(rng.choice(4, size=2, replace=False))
            x2 = tuple(int(b) for b in base)
            x1 = tuple(int(b) + 3 + sep for b in base)
            gap = min(a - b for a in x1 for b in x2) - 1
            defect = interaction_defect(x1, x2, SUBEXP, line)
            assert defect <= epsilon_bound(SUBEXP, 4, gap) + 1e-15


class TestLaplacian:
    def test_path_of_three(self, line):
        ball = enumerate_ball((0,), 1, line)
        lap = laplacian_matrix(ball, "induced")
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(lap.matrix, expected)

    def test_row_sums_vanish_induced(self, line):
        ball = enumerate_ball((4, 1), 2, line)
        lap = laplacian_matrix(ball, "induced")
        assert np.max(np.abs(lap.matrix.sum(axis=1))) == 0.0

    def test_single_point_conventions(self, line):
        ball = enumerate_ball((0,), 0, line)
        assert laplacian_matrix(ball, "induced").matrix[0, 0] == 0.0
        assert laplacian_matrix(ball, "fixed").matrix[0, 0] == 2.0 * line.d

    def test_fixed_diagonal_two_particles(self, line):
        ball = enumerate_ball((1, 0), 2, line)
        lap = laplacian_matrix(ball, "fixed")
        assert np.all(np.diag(lap.matrix) == 4.0)

    def test_symmetry(self, line):
        ball = enumerate_ball((3, 1), 3, line)
        assert laplacian_matrix(ball, "induced").asymmetry() == 0.0


class TestAssembly:
    def _spec(self, line, coupling=5.0, interaction=STEP, convention="fixed"):
        return HamiltonianSpec(
            geometry=line,
            n_particles=2,
            coupling=coupling,
            interaction=interaction,
            convention=convention,
        )

    def test_zero_coupling_no_interaction_equals_laplacian(self, line):
        ball = enumerate_ball((3, 1), 2, line)
        spec = HamiltonianSpec(geometry=line, n_particles=2, coupling=0.0)
        sample = sample_field(FieldModel(), ball.projection, 1)
        h = assemble_hamiltonian(spec, ball, sample)
        assert np.array_equal(h.matrix, laplacian_matrix(ball, "induced").matrix)

    def test_single_configuration_ball(self, line):
        ball = enumerate_ball((1, 0), 0, line)
        spec = self._spec(line)
        sample = FieldSample(FieldModel(), 0, {0: 0.25, 1: 0.5})
        h = assemble_hamiltonian(spec, ball, sample)
        # degree 4 + g (V(0)+V(1)) + doubled pair interaction
        assert h.matrix.shape == (1, 1)
        assert h.matrix[0, 0] == pytest.approx(4.0 + 5.0 * 0.75 + 4.0)

    def test_against_brute_force_assembly(self, line):
        ball = enumerate_ball((3, 1), 1, line)
        spec = self._spec(line)
        sample = sample_field(FieldModel(), ball.projection, 42)
        h = assemble_hamiltonian(spec, ball, sample)
        n = len(ball)
        brute = np.zeros((n, n))
        for i, x in enumerate(ball.members):
            brute[i, i] = (
                4.0
                + 5.0 * (sample[x[0]] + sample[x[1]])
                + (4.0 if x[0] - x[1] == 1 else 0.0)
            )
            for j, y in enumerate(ball.members):
                if i != j and sorted(abs(a - b) for a, b in zip(x, y)) == [0, 1]:
                    brute[i, j] = -1.0
        assert np.max(np.abs(h.matrix - brute)) == 0.0

    def test_missing_site_raises(self, line):
        ball = enumerate_ball((3, 1), 1, line)
        spec = self._spec(line)
        sample = FieldSample(FieldModel(), 0, {0: 0.1})
        with pytest.raises(MissingDataError):
            assemble_hamiltonian(spec, ball, sample)

    def test_interaction_locality(self, line):
        ball = enumerate_ball((3, 1), 1, line)
        spec = self._spec(line)
        inside = sample_field(FieldModel(), ball.projection, 7)
        widened = dict(inside.values)
        widened.update({99: 0.77, -50: 0.33})
        outside = FieldSample(FieldModel(), 7, widened)
        h1 = assemble_hamiltonian(spec, ball, inside)
        h2 = assemble_hamiltonian(spec, ball, outside)
        assert np.array_equal(h1.matrix, h2.matrix)

    def test_truncation_error_over_ball(self, line):
        ball = enumerate_ball((9, 0), 2, line)
        for radius in (2, 4):
            trunc = truncate_interaction(SUBEXP, radius)
            worst = 0.0
            for cfg in ball.members:
                worst = max(
                    worst,
                    abs(
                        interaction_energy(cfg, SUBEXP, line)
                        - interaction_energy(cfg, trunc, line)
                    ),
                )
            assert worst <= 2.0 * SUBEXP.tail_sup(radius) + 1e-15


def reference_laplacian(ball, convention):
    """The per-member construction the structure cache replaced."""
    n = len(ball)
    mat = np.zeros((n, n))
    for i, j in ball.edge_index_pairs:
        mat[i, j] = mat[j, i] = -1.0
    if convention == "induced":
        diag = -np.sum(mat, axis=1)
    else:
        g = ball.geometry
        diag = np.array(
            [sum(g.site_degree(s) for s in cfg) for cfg in ball.members], dtype=float
        )
    mat[np.diag_indices(n)] = diag
    return mat


def reference_assembly(spec, ball, sample):
    mat = reference_laplacian(ball, spec.convention)
    diag = np.array(
        [
            spec.coupling * potential_energy(cfg, sample)
            + interaction_energy(cfg, spec.interaction, spec.geometry)
            for cfg in ball.members
        ]
    )
    mat[np.diag_indices(len(ball))] += diag
    return mat


class TestAssemblyOracle:
    """Assembly from the cached ball structure against the per-member loop."""

    INTERACTIONS = [
        InteractionModel(),
        InteractionModel(kind="step", amplitude=1.5, range_=2),
        InteractionModel(kind="subexp", prefactor=2.0, rate=0.7, tail_exponent=0.3,
                         truncation_radius=3),
        InteractionModel(kind="table", table=((1, 1.0), (2, -0.5)), pair_counting="unordered"),
    ]

    def _balls(self, line, plane):
        hexagon = LatticeGeometry(
            kind="graph", adjacency=((1, 5), (0, 2), (1, 3), (2, 4), (3, 5), (4, 0))
        )
        cases = [
            (line, (0,), 4), (line, (1, 0), 3), (line, (6, 2, 0), 2),
            (plane, ((0, 0),), 2), (plane, ((1, 0), (0, 0)), 2),
            (plane, ((1, 1), (0, 1), (0, 0)), 1),
            (hexagon, (2,), 2), (hexagon, (3, 0), 1), (hexagon, (4, 2, 0), 1),
        ]
        return [enumerate_ball(c, r, g) for g, c, r in cases]

    def test_against_the_member_loop(self, line, plane):
        checked = 0
        for ball in self._balls(line, plane):
            for convention in ("induced", "fixed"):
                assert np.array_equal(
                    laplacian_matrix(ball, convention).matrix, reference_laplacian(ball, convention)
                )
                for k, interaction in enumerate(self.INTERACTIONS):
                    model = FieldModel(marginal="gaussian" if k % 2 else "uniform")
                    sample = sample_field(model, ball.projection, 17 + k)
                    spec = HamiltonianSpec(ball.geometry, ball.n_particles, 2.5, interaction,
                                           convention)
                    h = assemble_hamiltonian(spec, ball, sample)
                    assert np.array_equal(h.matrix, reference_assembly(spec, ball, sample))
                    checked += 1
        assert checked == 9 * 2 * 4

    def test_stacked_assembly_against_the_member_loop(self, line, plane):
        for ball in self._balls(line, plane):
            for convention in ("induced", "fixed"):
                spec = HamiltonianSpec(ball.geometry, ball.n_particles, 2.5, STEP, convention)
                samples = [sample_field(FieldModel(), ball.projection, s) for s in range(3)]
                fields = field_array(FieldModel(), ball.projection, range(3))
                template = hopping_template(spec, ball)
                diagonals = hamiltonian_diagonals(spec, ball, ball.projection, fields)
                assert not np.any(np.diag(template.matrix))
                for sample, diagonal in zip(samples, diagonals):
                    matrix = template.matrix + np.diag(diagonal)
                    assert np.array_equal(matrix, reference_assembly(spec, ball, sample))

    def test_stacked_assembly_checks_every_sample(self, line):
        ball = enumerate_ball((4, 1), 3, line)
        spec = HamiltonianSpec(line, 2, 7.0, STEP, "fixed")
        short = ball.projection[1:]
        with pytest.raises(MissingDataError, match="region misses sites"):
            hamiltonian_diagonals(spec, ball, short, field_array(FieldModel(), short, (1, 2)))

    def test_structure_cache_serves_every_sample(self, line):
        ball = enumerate_ball((4, 1), 3, line)
        spec = HamiltonianSpec(line, 2, 7.0, STEP, "fixed")
        for seed in range(3):
            sample = sample_field(FieldModel(), ball.projection, seed)
            h = assemble_hamiltonian(spec, ball, sample)
            assert np.array_equal(h.matrix, reference_assembly(spec, ball, sample))


class TestKroneckerSum:
    def test_one_by_one(self, line):
        ba = enumerate_ball((10,), 0, line)
        bb = enumerate_ball((0,), 0, line)
        from mpdsa.operators import OperatorMatrix

        ha = OperatorMatrix(ba, np.array([[2.5]]), "fixed")
        hb = OperatorMatrix(bb, np.array([[-1.0]]), "fixed")
        ks = kronecker_sum(ha, hb)
        assert ks.matrix.shape == (1, 1)
        assert ks.matrix[0, 0] == pytest.approx(1.5)

    def test_pairwise_sum_spectrum(self, line):
        ba = enumerate_ball((20,), 1, line)
        bb = enumerate_ball((0,), 1, line)
        spec1 = HamiltonianSpec(geometry=line, n_particles=1, coupling=3.0)
        sample = sample_field(FieldModel(), sorted(set(ba.projection) | set(bb.projection)), 5)
        ha = assemble_hamiltonian(spec1, ba, sample)
        hb = assemble_hamiltonian(spec1, bb, sample)
        ks = kronecker_sum(ha, hb)
        sums = np.sort(
            (np.linalg.eigvalsh(ha.matrix)[:, None] + np.linalg.eigvalsh(hb.matrix)[None, :]).ravel()
        )
        assert np.max(np.abs(np.linalg.eigvalsh(ks.matrix) - sums)) < 1e-10

    def test_matches_direct_assembly_on_split_ball(self, line):
        # separated groups: the assembled two-particle operator equals the
        # tensor sum of the one-particle operators entrywise
        for radius in (1, 2, 3):
            x1, x2 = (30,), (0,)
            joint = enumerate_ball(merge_configs(x1, x2, line), radius, line)
            sample = sample_field(FieldModel(), joint.projection, radius)
            spec2 = HamiltonianSpec(
                geometry=line, n_particles=2, coupling=7.0, interaction=STEP,
                convention="fixed",
            )
            spec1 = HamiltonianSpec(
                geometry=line, n_particles=1, coupling=7.0, interaction=STEP,
                convention="fixed",
            )
            direct = assemble_hamiltonian(spec2, joint, sample)
            ha = assemble_hamiltonian(spec1, enumerate_ball(x1, radius, line), sample)
            hb = assemble_hamiltonian(spec1, enumerate_ball(x2, radius, line), sample)
            ks = kronecker_sum(ha, hb)
            assert ks.ball.members == joint.members
            assert np.max(np.abs(ks.matrix - direct.matrix)) < 1e-12

    def test_rejects_non_factoring_groups(self, line):
        spec1 = HamiltonianSpec(geometry=line, n_particles=1, coupling=1.0)
        ba = enumerate_ball((3,), 2, line)
        bb = enumerate_ball((0,), 2, line)
        sample = sample_field(FieldModel(), range(-5, 10), 1)
        ha = assemble_hamiltonian(spec1, ba, sample)
        hb = assemble_hamiltonian(spec1, bb, sample)
        with pytest.raises(GeometryError):
            kronecker_sum(ha, hb)
