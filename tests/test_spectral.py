import numpy as np
import pytest

from mpdsa.configspace import enumerate_ball, interior_boundary, merge_configs
from mpdsa.disorder import FieldModel, derive_seed, sample_field
from mpdsa.msa import ScalingParams, is_EmNS
from mpdsa.operators import (
    HamiltonianSpec,
    InteractionModel,
    OperatorMatrix,
    assemble_hamiltonian,
    laplacian_matrix,
)
from mpdsa.spectral import (
    ResonanceError,
    _symmetric_part,
    diagonalize,
    eigensystem_from_factors,
    eigenvalues_of,
    eigenvector_noise_floors,
    gap_certificate,
    green_function,
    radial_descent_bound,
    radial_descent_bound_two,
    resonance_cutoff,
    stacked_eigenvalues,
    subharmonic_check,
    verify_gri,
    verify_gri_eigenfunction,
)


def random_operator(line, seed, center=(3, 1), radius=4, coupling=5.0, convention="fixed"):
    ball = enumerate_ball(center, radius, line)
    spec = HamiltonianSpec(
        geometry=line,
        n_particles=len(center),
        coupling=coupling,
        interaction=InteractionModel(kind="step", amplitude=1.0, range_=1),
        convention=convention,
    )
    sample = sample_field(FieldModel(), ball.projection, seed)
    return assemble_hamiltonian(spec, ball, sample)


class TestDiagonalize:
    def test_path_three_spectrum(self, line):
        ball = enumerate_ball((0,), 1, line)
        es = diagonalize(laplacian_matrix(ball, "induced"))
        # oracle: roots of the characteristic polynomial -x^3 + 4x^2 - 3x
        roots = np.sort(np.roots([1.0, -4.0, 3.0, 0.0]))
        assert np.allclose(es.eigenvalues, roots, atol=1e-12)

    def test_diagonal_matrix(self, line):
        ball = enumerate_ball((0,), 1, line)
        op = OperatorMatrix(ball, np.diag([3.0, -1.0, 2.0]))
        es = diagonalize(op)
        assert np.array_equal(es.eigenvalues, np.array([-1.0, 2.0, 3.0]))

    def test_one_by_one(self, line):
        ball = enumerate_ball((0,), 0, line)
        es = diagonalize(OperatorMatrix(ball, np.array([[7.5]])))
        assert es.eigenvalues[0] == 7.5
        assert abs(abs(es.eigenvectors[0, 0]) - 1.0) < 1e-15

    def test_rejects_asymmetric(self, line):
        ball = enumerate_ball((0,), 1, line)
        bad = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            diagonalize(OperatorMatrix(ball, bad))

    def test_spectral_theorem_invariants(self, line):
        es = diagonalize(random_operator(line, seed=12))
        scale = max(es.spectral_norm, 1.0)
        assert es.residual_norm() < 1e-9 * scale
        assert es.orthonormality_defect() < 1e-9
        assert es.completeness_defect() < 1e-9

    def test_factor_assembly_matches_dense(self, line):
        spec1 = HamiltonianSpec(geometry=line, n_particles=1, coupling=4.0)
        ba = enumerate_ball((40,), 2, line)
        bb = enumerate_ball((0,), 2, line)
        sample = sample_field(
            FieldModel(), sorted(set(ba.projection) | set(bb.projection)), 3
        )
        esa = diagonalize(assemble_hamiltonian(spec1, ba, sample))
        esb = diagonalize(assemble_hamiltonian(spec1, bb, sample))
        joint = eigensystem_from_factors(esa, esb)
        dense = diagonalize(joint.operator)
        assert np.max(np.abs(joint.eigenvalues - dense.eigenvalues)) < 1e-10
        assert joint.residual_norm() < 1e-9 * max(joint.spectral_norm, 1.0)
        assert joint.completeness_defect() < 1e-9


class TestValuesOnlySolve:
    def test_matches_eigh(self, line):
        for seed in range(5):
            op = random_operator(line, seed=seed, coupling=3.0 + 7.0 * seed)
            assert np.max(np.abs(eigenvalues_of(op) - diagonalize(op).eigenvalues)) < 1e-12

    def test_rejects_asymmetric(self, line):
        ball = enumerate_ball((0,), 1, line)
        bad = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            eigenvalues_of(OperatorMatrix(ball, bad))


class TestGapCertificate:
    """``gap_certificate`` against the ``eigvalsh`` screen it stands in for:
    every matrix it clears lies outside the resonance cutoff, and at least
    about 9.8 n sqrt(eps) (||H||_inf + |E|) from E, as its docstring proves."""

    OFFSETS = (0.0, 1e-15, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2)

    @staticmethod
    def _operators(line, plane, path_graph):
        # n = 1, 11, 53, 378, 280 (three particles), 41, 133 (plane), 10, 3 (graph)
        cases = [
            (line, (0,), 0), (line, (3,), 5), (line, (3, 1), 4), (line, (1, 0), 13),
            (line, (9, 5, 0), 3), (plane, ((0, 0),), 4), (plane, ((1, 0), (0, 0)), 2),
            (path_graph, (2, 0), 4), (path_graph, (2,), 1),
        ]
        rng = np.random.default_rng(2026)
        for k, (geometry, center, radius) in enumerate(cases):
            ball = enumerate_ball(center, radius, geometry)
            spec = HamiltonianSpec(
                geometry=geometry, n_particles=len(center), coupling=float(rng.uniform(0.5, 40)),
                interaction=InteractionModel(kind="step", amplitude=1.0, range_=1),
                convention="fixed",
            )
            model = FieldModel(marginal=("uniform", "gaussian")[k % 2])
            yield assemble_hamiltonian(spec, ball, sample_field(model, ball.projection, k)), rng

    def test_cleared_energies_pass_the_eigvalsh_screen(self, line, plane, path_graph):
        eps = np.finfo(float).eps
        cleared_far = screened_near = 0
        for op, rng in self._operators(line, plane, path_graph):
            n, norm = op.n, op.norm_bound()
            vals = eigenvalues_of(op)
            for j in rng.choice(n, size=min(n, 3), replace=False):
                for offset in self.OFFSETS:
                    energy = float(vals[j] + rng.choice([-1.0, 1.0]) * offset * norm)
                    stack = op.matrix[None].copy()
                    (cleared,) = gap_certificate(stack, energy)
                    shifted = op.matrix.copy()
                    shifted[np.diag_indices(n)] -= energy
                    assert np.array_equal(stack[0], shifted)
                    dist = float(np.min(np.abs(vals - energy)))
                    scale = n * np.sqrt(eps) * (norm + abs(energy))
                    if cleared:
                        assert dist > resonance_cutoff(vals)
                        assert dist >= 9.0 * scale
                        cleared_far += 1
                    else:
                        # the Cholesky succeeds wherever the gap is wide enough
                        assert dist < 100.0 * scale
                        screened_near += offset <= 1e-7
        assert cleared_far > 100 and screened_near > 50

    def test_stacked_matches_one_at_a_time(self, line):
        ops = [random_operator(line, seed=s) for s in range(6)]
        stack = np.array([op.matrix for op in ops])
        energy = float(eigenvalues_of(ops[3])[10])
        got = gap_certificate(stack.copy(), energy)
        assert got.tolist() == [gap_certificate(m[None].copy(), energy)[0] for m in stack]
        assert not got[3] and got.sum() == 5


class TestSymmetryCheck:
    def test_exactly_symmetric_matrix_is_not_copied(self, line):
        op = random_operator(line, seed=2)
        assert _symmetric_part(op) is op.matrix
        es = diagonalize(op)
        vals, vecs = np.linalg.eigh(0.5 * (op.matrix + op.matrix.T))
        assert np.array_equal(es.eigenvalues, vals) and np.array_equal(es.eigenvectors, vecs)

    def test_rounding_asymmetry_is_symmetrized(self, line):
        op = random_operator(line, seed=3)
        nudged = op.matrix.copy()
        nudged[0, 1] += 1e-15
        got = _symmetric_part(OperatorMatrix(op.ball, nudged))
        assert np.array_equal(got, 0.5 * (nudged + nudged.T))

    def test_asymmetric_matrix_raises(self, line):
        ball = enumerate_ball((0,), 1, line)
        bad = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])
        for solve in (diagonalize, eigenvalues_of):
            with pytest.raises(ValueError, match="asymmetry"):
                solve(OperatorMatrix(ball, bad))
        stack = np.array([bad + np.diag([1.0, 2.0, 3.0])])
        with pytest.raises(ValueError, match="asymmetry"):
            stacked_eigenvalues(OperatorMatrix(ball, bad), stack)

    def test_stacked_eigenvalues_match_one_at_a_time(self, line):
        ops = [random_operator(line, seed=s) for s in range(4)]
        template = OperatorMatrix(ops[0].ball, ops[0].matrix - np.diag(np.diag(ops[0].matrix)))
        stack = np.array([op.matrix for op in ops])
        got = stacked_eigenvalues(template, stack)
        for row, op in zip(got, ops):
            assert np.array_equal(row, eigenvalues_of(op))


class TestFactorPathOracle:
    """The factor path against the explicit Kronecker products it replaces."""

    @pytest.mark.parametrize("centers, radius", [(((40,), (0,)), 3), (((30, 29), (0,)), 2)])
    def test_bitwise_equal_to_kron(self, line, centers, radius):
        balls = [enumerate_ball(c, radius, line) for c in centers]
        sample = sample_field(FieldModel(), sorted({s for b in balls for s in b.projection}), 8)
        ops = [
            assemble_hamiltonian(
                HamiltonianSpec(geometry=line, n_particles=len(b.center), coupling=6.0,
                                interaction=InteractionModel(kind="step", amplitude=1.0, range_=1),
                                convention="fixed"),
                b, sample,
            )
            for b in balls
        ]
        esa, esb = (diagonalize(op) for op in ops)
        joint = eigensystem_from_factors(esa, esb)
        assert joint.ball.members == enumerate_ball(merge_configs(*centers, line), radius, line).members
        # product row of every joint row, by explicit merge
        index = {merge_configs(a, b, line): i * esb.n + j
                 for i, a in enumerate(esa.ball.members) for j, b in enumerate(esb.ball.members)}
        rows = np.array([index[cfg] for cfg in joint.ball.members])
        kron_op = np.kron(ops[0].matrix, np.eye(esb.n)) + np.kron(np.eye(esa.n), ops[1].matrix)
        assert np.array_equal(joint.operator.matrix, kron_op[np.ix_(rows, rows)])
        sums = (esa.eigenvalues[:, None] + esb.eigenvalues[None, :]).ravel()
        order = np.argsort(sums, kind="stable")
        assert np.array_equal(joint.eigenvalues, sums[order])
        assert np.array_equal(joint.eigenvectors, np.kron(esa.eigenvectors, esb.eigenvectors)[rows][:, order])


class TestRefinedGreenRows:
    """One refinement step against a direct solve of (H - E) g = delta."""

    @pytest.mark.parametrize("coupling, radius, seed", [(30.0, 8, 0), (30.0, 10, 1), (10.0, 8, 2), (60.0, 12, 3)])
    def test_matches_solve(self, line, coupling, radius, seed):
        ball = enumerate_ball((1, 0), radius, line)
        spec = HamiltonianSpec(geometry=line, n_particles=2, coupling=coupling,
                               interaction=InteractionModel(kind="step", amplitude=1.0, range_=2),
                               convention="fixed")
        es = diagonalize(assemble_hamiltonian(spec, ball, sample_field(FieldModel(), ball.projection, seed)))
        rows = [ball.index[c] for c in interior_boundary(ball)]
        src = ball.center_index()
        lam = es.eigenvalues
        # grid energies, energies 1e-5 from an eigenvalue, and a gap midpoint
        energies = np.array([0.0, 5.0, 15.0, lam[es.n // 2] + 1e-5, lam[3] - 1e-5, lam[-1] + 1e-5,
                             0.5 * (lam[10] + lam[11])])
        refined = es.refined_green_rows(src, energies, rows)
        for k, energy in enumerate(energies):
            delta = np.zeros(es.n)
            delta[src] = 1.0
            solve = np.linalg.solve(es.operator.matrix - energy * np.eye(es.n), delta)[rows]
            worst = np.max(np.abs(solve))
            assert abs(np.max(np.abs(refined[:, k])) - worst) <= 1e-6 * worst
            assert np.max(np.abs(refined[:, k] - solve)) <= 1e-6 * worst

    def test_refinement_is_needed_below_the_rounding_level(self, line):
        # at strong disorder the boundary values sit far below eps |G|: the
        # eigenbasis sum is noise there, the refined value is not
        ball = enumerate_ball((1, 0), 12, line)
        spec = HamiltonianSpec(geometry=line, n_particles=2, coupling=60.0,
                               interaction=InteractionModel(kind="step", amplitude=1.0, range_=2),
                               convention="fixed")
        es = diagonalize(assemble_hamiltonian(spec, ball, sample_field(FieldModel(), ball.projection, 3)))
        rows = [ball.index[c] for c in interior_boundary(ball)]
        src = ball.center_index()
        delta = np.zeros(es.n)
        delta[src] = 1.0
        worst = np.max(np.abs(np.linalg.solve(es.operator.matrix, delta)[rows]))
        plain = np.max(np.abs(es.green_column(src, [0.0])[rows]))
        refined = np.max(np.abs(es.refined_green_rows(src, [0.0], rows)))
        assert abs(plain - worst) > 1e3 * worst
        assert abs(refined - worst) <= 1e-6 * worst


class TestGreenFunction:
    def test_one_by_one_value(self, line):
        ball = enumerate_ball((0,), 0, line)
        es = diagonalize(OperatorMatrix(ball, np.array([[3.0]])))
        g = green_function(es, 1.0)
        assert g.kernel[0, 0] == pytest.approx(0.5)

    def test_kernel_symmetry(self, line):
        es = diagonalize(random_operator(line, seed=5))
        g = green_function(es, -2.0)
        assert np.max(np.abs(g.kernel - g.kernel.T)) < 1e-12

    def test_resolvent_identity(self, line):
        ball = enumerate_ball((0,), 10, line)  # 21 sites
        n = len(ball)
        rng = np.random.default_rng(21)
        b = rng.standard_normal((n, n))
        op = OperatorMatrix(ball, 0.5 * (b + b.T))
        es = diagonalize(op)
        energy = 0.137
        g = green_function(es, energy)
        defect = (op.matrix - energy * np.eye(n)) @ g.kernel - np.eye(n)
        assert np.max(np.abs(defect)) < 1e-8

    def test_resonance_guard(self, line):
        ball = enumerate_ball((0,), 0, line)
        es = diagonalize(OperatorMatrix(ball, np.array([[3.0]])))
        with pytest.raises(ResonanceError) as err:
            green_function(es, 3.0 + 1e-15)
        assert err.value.distance <= 1e-12 * 3.0

    def test_norm_equals_inverse_distance(self, line):
        es = diagonalize(random_operator(line, seed=9))
        energy = 0.618
        g = green_function(es, energy)
        two_norm = np.linalg.norm(g.kernel, 2)
        assert g.resolvent_norm == pytest.approx(two_norm, rel=1e-9)
        assert g.resolvent_norm == pytest.approx(1.0 / g.spectral_distance, rel=1e-12)


class TestPatchingInequality:
    def _instance(self, line, seed, coupling):
        big = enumerate_ball((1, 0), 8, line)
        spec = HamiltonianSpec(
            geometry=line,
            n_particles=2,
            coupling=coupling,
            interaction=InteractionModel(kind="step", amplitude=1.0, range_=1),
            convention="fixed",
        )
        sample = sample_field(FieldModel(), big.projection, seed)
        es_big = diagonalize(assemble_hamiltonian(spec, big, sample))
        return big, spec, sample, es_big

    def test_seeded_instances_hold(self, line):
        rng = np.random.default_rng(0)
        checked = 0
        for seed in range(60):
            coupling = 3.0 if seed % 2 else 30.0
            big, spec, sample, es_big = self._instance(line, seed, coupling)
            inner_center = big.members[int(rng.integers(0, len(big)))]
            from mpdsa.configspace import config_distance

            if config_distance(big.center, inner_center, line) > 8 - 2:
                continue
            small = enumerate_ball(inner_center, 2, line)
            es_small = diagonalize(assemble_hamiltonian(spec, small, sample))
            y = big.members[int(rng.integers(0, len(big)))]
            if small.contains(y):
                continue
            lo = float(es_big.eigenvalues[0]) - 1.0
            hi = float(es_big.eigenvalues[-1]) + 1.0
            energy = float(rng.uniform(lo, hi))
            if (
                es_big.spectral_distance(energy) < 1e-8
                or es_small.spectral_distance(energy) < 1e-8
            ):
                continue
            rep = verify_gri(es_small, es_big, energy, inner_center, y)
            assert rep.satisfied, (seed, rep)
            checked += 1
        assert checked >= 25

    def test_trivial_field_adjacent_outside(self, line):
        big = enumerate_ball((1, 0), 4, line)
        spec = HamiltonianSpec(geometry=line, n_particles=2, coupling=0.0, convention="fixed")
        sample = sample_field(FieldModel(), big.projection, 0)
        es_big = diagonalize(assemble_hamiltonian(spec, big, sample))
        small = enumerate_ball((1, 0), 1, line)
        es_small = diagonalize(assemble_hamiltonian(spec, small, sample))
        y = (3, 0)  # adjacent to the exterior boundary of the small ball
        rep = verify_gri(es_small, es_big, 0.321, (1, 0), y)
        assert rep.satisfied and rep.lhs > 0

    def test_eigenfunction_form(self, line):
        big, spec, sample, es_big = self._instance(line, seed=77, coupling=30.0)
        small = enumerate_ball((2, -1), 2, line)
        es_small = diagonalize(assemble_hamiltonian(spec, small, sample))
        checked = 0
        for j in range(0, es_big.n, 17):
            if es_small.spectral_distance(float(es_big.eigenvalues[j])) < 1e-8:
                continue
            rep = verify_gri_eigenfunction(es_small, es_big, j)
            assert rep.satisfied, (j, rep)
            checked += 1
        assert checked >= 5


class TestSubharmonic:
    def test_constant_function_fails(self, line):
        domain = enumerate_ball((0,), 3, line)
        rep = subharmonic_check({c: 1.0 for c in domain.members}, domain, 1, 0.9)
        assert not rep.holds
        assert rep.worst_ratio == pytest.approx(1.0)

    def test_geometric_decay_ratio(self, line):
        domain = enumerate_ball((0,), 3, line)
        q = 0.35
        f = {c: q ** abs(10 - c[0]) for c in domain.members}
        rep = subharmonic_check(f, domain, 1, q)
        assert rep.holds
        assert rep.worst_ratio == pytest.approx(q)

    def test_zero_function_holds(self, line):
        domain = enumerate_ball((0,), 2, line)
        rep = subharmonic_check({c: 0.0 for c in domain.members}, domain, 1, 0.1)
        assert rep.holds and rep.worst_ratio == 0.0

    def test_rejects_negative_values(self, line):
        domain = enumerate_ball((0,), 1, line)
        with pytest.raises(ValueError):
            subharmonic_check({c: -1.0 for c in domain.members}, domain, 1, 0.5)

    def test_array_input(self, line):
        domain = enumerate_ball((0,), 2, line)
        q = 0.5
        f = np.array([q ** abs(9 - c[0]) for c in domain.members])
        assert subharmonic_check(f, domain, 1, q).holds


class TestRadialDescent:
    def test_floor_arithmetic(self):
        assert radial_descent_bound(7, 1, 0.5, 1.0) == pytest.approx(0.0625)

    def test_single_step(self):
        assert radial_descent_bound(5, 5, 0.3, 2.0) == pytest.approx(0.6)

    def test_two_argument_version(self):
        assert radial_descent_bound_two(3, 3, 1, 0.5, 1.0) == pytest.approx(0.0625)

    def test_synthetic_subharmonic_functions_obey_bound(self, line):
        # multi-peak geometric cones with peaks outside the domain are
        # genuinely subharmonic; the certified ratio then bounds the centre
        rng = np.random.default_rng(14)
        domain_radius = 7
        domain = enumerate_ball((0,), domain_radius, line)
        for trial in range(100):
            q = float(rng.uniform(0.2, 0.8))
            ell = int(rng.integers(1, 3))
            scale = float(rng.uniform(0.5, 4.0))
            peaks = rng.choice([-1, 1], size=int(rng.integers(1, 4)))
            offsets = rng.integers(domain_radius + ell + 1, domain_radius + 20, size=len(peaks))
            sites = [int(p * o) for p, o in zip(peaks, offsets)]
            f = {
                c: scale * max(q ** abs(s - c[0]) for s in sites)
                for c in domain.members
            }
            rep = subharmonic_check(f, domain, ell, q**ell * (1 + 1e-12))
            assert rep.holds, (trial, rep.worst_ratio)
            bound = radial_descent_bound(
                domain_radius, ell, max(rep.worst_ratio, 1e-12), max(f.values())
            )
            assert f[domain.center] <= bound * (1.0 + 1e-12)

    def test_operator_kernels_descend(self, line):
        # eigenfunction products on a strongly disordered ball satisfy the
        # descent bound with the exact boundary-count contraction factor;
        # the non-singularity threshold (width allowance included) is what
        # the certified hypotheses actually imply per step
        params = ScalingParams.finite_range(2, initial_scale=6, mass=4.0)
        big = enumerate_ball((1, 0), 12, line)
        spec = HamiltonianSpec(
            geometry=line, n_particles=2, coupling=3000.0, convention="fixed"
        )
        ell = 1
        checked = 0
        region = range(min(big.projection) - 2, max(big.projection) + 3)
        from mpdsa.configspace import edge_boundary

        x_ref = (9, -8)
        domain = enumerate_ball(x_ref, 4, line)
        constant = max(
            len(edge_boundary(enumerate_ball(v, ell, line), big))
            for v in domain.members
            if all(
                domain.contains(c)
                for c in enumerate_ball(v, ell + 1, line).members
            )
        )
        q = constant * params.ns_threshold(ell, n=2)
        assert q < 1.0
        for seed in range(10):
            sample = sample_field(FieldModel(), region, derive_seed(99, "k", seed))
            es = diagonalize(assemble_hamiltonian(spec, big, sample))
            sub_systems = [
                diagonalize(
                    assemble_hamiltonian(spec, enumerate_ball(v, ell, line), sample)
                )
                for v in domain.members
            ]
            noise = eigenvector_noise_floors(es)
            for j in range(0, es.n, 12):
                energy = float(es.eigenvalues[j])
                hyp_ok = True
                for sub_es in sub_systems:
                    if sub_es.spectral_distance(energy) <= sub_es.resonance_cutoff():
                        hyp_ok = False
                        break
                    if not is_EmNS(sub_es, energy, params).non_singular:
                        hyp_ok = False
                        break
                if not hyp_ok:
                    continue
                psi = np.abs(es.eigenvectors[:, j])
                y0 = big.members[int(np.argmax(psi))]
                floor = float(noise[j] * psi.max())
                f = {
                    c: float(psi[big.index[c]] * psi[big.index[y0]])
                    for c in domain.members
                }
                rep = subharmonic_check(f, domain, ell + 1, q, floor=floor)
                assert rep.holds, (seed, j, rep.worst_ratio)
                bound = radial_descent_bound(4, ell + 1, q, max(max(f.values()), 1e-300))
                assert f[x_ref] <= bound + floor
                checked += 1
        assert checked >= 10

    def test_noise_floor_prevents_spurious_descent_failures(self, line):
        # regression: without the amplitude noise floor, eigenfunctions
        # living far from the probe domain produce ratio-of-rounding-noise
        # "violations" of a contraction that genuinely holds
        params = ScalingParams.finite_range(2, initial_scale=6, mass=4.0)
        big = enumerate_ball((1, 0), 12, line)
        spec = HamiltonianSpec(
            geometry=line, n_particles=2, coupling=3000.0, convention="fixed"
        )
        ell = 1
        region = range(min(big.projection) - 2, max(big.projection) + 3)
        from mpdsa.configspace import edge_boundary

        x_ref = (9, -8)
        domain = enumerate_ball(x_ref, 4, line)
        constant = max(
            len(edge_boundary(enumerate_ball(v, ell, line), big))
            for v in domain.members
            if all(
                domain.contains(c)
                for c in enumerate_ball(v, ell + 1, line).members
            )
        )
        q = constant * params.ns_threshold(ell, n=2)
        assert q < 1.0
        spurious = 0
        floored = 0
        kernels = 0
        for seed in range(3):
            sample = sample_field(FieldModel(), region, derive_seed(99, "k", seed))
            es = diagonalize(assemble_hamiltonian(spec, big, sample))
            sub_systems = [
                diagonalize(
                    assemble_hamiltonian(spec, enumerate_ball(v, ell, line), sample)
                )
                for v in domain.members
            ]
            noise = eigenvector_noise_floors(es)
            for j in range(0, es.n, 8):
                energy = float(es.eigenvalues[j])
                hyp_ok = all(
                    s.spectral_distance(energy) > s.resonance_cutoff()
                    and is_EmNS(s, energy, params).non_singular
                    for s in sub_systems
                )
                if not hyp_ok:
                    continue
                kernels += 1
                psi = np.abs(es.eigenvectors[:, j])
                y0 = big.members[int(np.argmax(psi))]
                floor = float(noise[j] * psi.max())
                f = {
                    c: float(psi[big.index[c]] * psi[big.index[y0]])
                    for c in domain.members
                }
                if not subharmonic_check(f, domain, ell + 1, q).holds:
                    spurious += 1
                if not subharmonic_check(f, domain, ell + 1, q, floor=floor).holds:
                    floored += 1
        assert kernels >= 30
        assert spurious >= 1  # raw rounding noise breaks the check
        assert floored == 0  # the certified check is clean
