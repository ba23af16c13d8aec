import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mpdsa import msa, spectral
from mpdsa.configspace import LatticeGeometry, enumerate_ball, interior_boundary
from mpdsa.disorder import FieldModel, FieldSample, derive_seed, sample_field
from mpdsa.experiments import TrialSetup
from mpdsa.msa import (
    AuditContext,
    BoundSchedule,
    LocReport,
    ScalingParams,
    block_non_singularity,
    ceil_rational_power,
    check_param_constraints,
    cnr_radii,
    cnr_subballs,
    energy_grid,
    is_E_CNR,
    is_E_NR,
    is_EmNS,
    is_m_loc,
    is_m_tunneling,
    ns_decision,
    predicate_report,
    scales,
    smallest_scale_with_ns_margin,
    stride_centers,
    verify_implications,
    verify_longrange_split,
)
from mpdsa.operators import HamiltonianSpec, InteractionModel, OperatorMatrix, assemble_hamiltonian
from mpdsa.spectral import diagonalize, eigensystem_from_factors, eigenvector_noise_floors


def make_context(line, seed, coupling=300.0, mass=1.0, center=(1, 0), radius=8,
                 interaction=InteractionModel(kind="step", amplitude=1.0, range_=2),
                 initial_scale=6, n=2, regime_params=None):
    params = regime_params or ScalingParams.finite_range(
        n, initial_scale=initial_scale, mass=mass
    )
    ball = enumerate_ball(center, radius, line)
    spec = HamiltonianSpec(
        geometry=line, n_particles=n, coupling=coupling,
        interaction=interaction, convention="fixed",
    )
    sample = sample_field(FieldModel(), ball.projection, seed)
    return AuditContext(spec, sample, params)


class TestScales:
    def test_power_of_two(self):
        assert scales(8, Fraction(4, 3), 1) == [8, 16]

    def test_power_of_three(self):
        assert scales(27, Fraction(4, 3), 1) == [27, 81]

    def test_non_integer_power(self):
        assert scales(10, Fraction(4, 3), 1) == [10, 22]

    def test_strictly_increasing(self):
        seq = scales(6, Fraction(4, 3), 5)
        assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_rejects_tiny_start(self):
        with pytest.raises(ValueError):
            scales(2, Fraction(4, 3), 1)

    def test_exact_ceiling(self):
        assert ceil_rational_power(16, Fraction(3, 4)) == 8
        assert ceil_rational_power(16, Fraction(7, 8)) == 12
        assert ceil_rational_power(256, Fraction(7, 8)) == 128


class TestParams:
    def test_decay_rate_exact_power(self):
        params = ScalingParams.finite_range(2)
        assert params.decay_rate(256) == pytest.approx(1.5, abs=1e-14)
        assert replace(params, mass=2.0).decay_rate(256) == pytest.approx(3.0, abs=1e-14)

    def test_long_range_rate_exponent(self):
        params = ScalingParams.infinite_range(3, delta=Fraction(1, 20))
        base = params.decay_rate(256, n=3)
        assert base == pytest.approx(1.0 + 256 ** (-float(params.tau)))
        two_level = params.decay_rate(256, n=2)
        assert two_level == pytest.approx(base**2)

    def test_rate_exceeds_mass(self):
        params = ScalingParams.finite_range(2, mass=1.3)
        for L in (2, 10, 100):
            assert params.decay_rate(L) > 1.3

    def test_long_range_exponent_relations(self):
        params = ScalingParams.infinite_range(2, delta=Fraction(1, 20))
        assert params.varrho == Fraction(1, 10)
        assert params.alpha == Fraction(6, 5)
        assert params.tau == Fraction(1, 40)
        assert float(params.varrho - params.delta) > float(params.tau)

    def test_distant_pair_constant_variants(self):
        assert ScalingParams.finite_range(2).c_n == 22
        assert ScalingParams.finite_range(2, cn_variant="2A+3").c_n == 19

    def test_loc_min_distance_default_exponent(self):
        params = ScalingParams.finite_range(2)
        assert (1 + params.varrho) / params.alpha == Fraction(7, 8)
        assert params.loc_min_distance(16) == 12
        assert params.loc_min_distance(256) == 128

    def test_schedule_recursions_exact(self):
        sched = BoundSchedule(p=36.0, b=0.07, n_particles=3)
        for k in (0, 1, 5, 9):
            for n in (1, 2):
                assert sched.exponent(n, k) == 2.0 * sched.exponent(n + 1, k)
            assert sched.exponent(2, k + 1) == (1 + sched.b) * sched.exponent(2, k)

    def test_constraint_threshold_value(self):
        params = ScalingParams.finite_range(2, d=1)
        sched = BoundSchedule(p=33.0, b=0.01, n_particles=2)
        results = {c.name: c for c in check_param_constraints(params, sched)}
        # 2 a^2/(2-a^2) = 16 at growth exponent 4/3, times N d = 2
        assert results["p_above_mixing_threshold"].satisfied
        assert results["p_above_mixing_threshold"].margin == pytest.approx(1.0, abs=1e-9)
        assert all(
            results[name].satisfied
            for name in (
                "tau_positive",
                "tau_below_varrho",
                "one_plus_varrho_below_alpha",
                "beta_below_one_minus_tau",
                "alpha_squared_below_two",
            )
        )

    def test_b_constraint_fails_beyond_cap(self):
        params = ScalingParams.finite_range(2, d=1)
        sched = BoundSchedule(p=100.0, b=math.sqrt(2.0) - 1.0 + 0.01, n_particles=2)
        results = {c.name: c for c in check_param_constraints(params, sched)}
        assert not results["three_b_within_margin"].satisfied

    def test_exponent_margin_smallest_scale(self):
        params = ScalingParams.finite_range(2, mass=1.0)
        # oracle: the margin is m L^(1-tau)/2 - 2 L^beta >= 0, i.e.
        # L >= (4/m)^(1/(1 - tau - beta)) = 4**(8/3)
        oracle = math.ceil(4.0 ** (8.0 / 3.0))
        assert smallest_scale_with_ns_margin(params) == oracle == 41
        assert params.ns_exponent_margin(41) >= 0 > params.ns_exponent_margin(40)


class TestPredicates:
    def test_nr_small_matrix(self, line):
        ball = enumerate_ball((0,), 4, line)
        mat = np.zeros((len(ball), len(ball)))
        mat[0, 0] = 3.0
        es = diagonalize(OperatorMatrix(ball, mat))
        params = ScalingParams.finite_range(1)
        assert is_E_NR(es, 1.0, params)  # resolvent norm 1 <= e^2

    def test_nr_boundary_tie(self, line):
        ball = enumerate_ball((0,), 4, line)
        t = math.exp(-(4.0**0.5))
        es = diagonalize(OperatorMatrix(ball, np.diag([t] * len(ball))))
        params = ScalingParams.finite_range(1)
        assert is_E_NR(es, 0.0, params)  # distance exactly e^{-L^beta}

    def test_ns_decision_tie_convention(self):
        assert ns_decision(0.5, 0.5)
        assert not ns_decision(0.5000001, 0.5)

    def test_diagonal_operator_is_ns(self, line):
        ball = enumerate_ball((1, 0), 3, line)
        rng = np.random.default_rng(0)
        es = diagonalize(OperatorMatrix(ball, np.diag(rng.uniform(5, 9, len(ball)))))
        params = ScalingParams.finite_range(2, mass=1.0)
        rep = is_EmNS(es, 0.0, params)
        assert rep.non_singular and rep.worst_boundary_value == 0.0

    def test_singular_by_resonance_convention(self, line):
        ball = enumerate_ball((1, 0), 3, line)
        rng = np.random.default_rng(1)
        diag = rng.uniform(5, 9, len(ball))
        es = diagonalize(OperatorMatrix(ball, np.diag(diag)))
        params = ScalingParams.finite_range(2)
        rep = is_EmNS(es, float(diag[3]), params)
        assert not rep.non_singular and rep.resonant

    def test_cnr_detects_resonant_subball(self, line):
        ctx = make_context(line, seed=5, radius=8, initial_scale=6)
        ball = ctx.ball((1, 0), 8)
        subs = cnr_subballs(ctx.params, ball)
        assert subs, "policy should inspect at least one sub-ball"
        center, r = subs[0]
        sub_es = ctx.eigensystem(center, r)
        energy = float(sub_es.eigenvalues[len(sub_es.eigenvalues) // 2])
        flag, witness = is_E_CNR(ctx, ball, energy)
        assert not flag
        assert witness is not None

    def test_cnr_implies_nr(self, line):
        ctx = make_context(line, seed=6, radius=8)
        ball = ctx.ball((1, 0), 8)
        es = ctx.eigensystem((1, 0), 8)
        grid = energy_grid([es.eigenvalues])[:40]
        for energy in grid:
            cnr, _ = is_E_CNR(ctx, ball, float(energy))
            if cnr:
                assert is_E_NR(es, float(energy), ctx.params)

    def test_cnr_radii_policy(self):
        params = ScalingParams.finite_range(2, initial_scale=6)
        assert cnr_radii(params, 16) == [11]
        # falls back to the minimum radius when no ladder value fits
        params_high = ScalingParams.finite_range(2, initial_scale=50)
        assert cnr_radii(params_high, 16) == [8]

    def test_loc_vacuous_on_small_graph(self, path_graph):
        ball = enumerate_ball((4, 0), 10, path_graph)
        rng = np.random.default_rng(3)
        es = diagonalize(
            OperatorMatrix(ball, np.diag(rng.uniform(0, 1, len(ball))))
        )
        params = ScalingParams.finite_range(2)
        rep = is_m_loc(es, params)
        assert rep.localized and rep.qualifying_pairs == 0
        assert rep == brute_force_m_loc(es, params)

    def test_loc_delta_functions(self, line):
        ball = enumerate_ball((9, 0), 6, line)
        rng = np.random.default_rng(4)
        es = diagonalize(
            OperatorMatrix(ball, np.diag(rng.uniform(0, 40, len(ball))))
        )
        params = ScalingParams.finite_range(2, mass=3.0)
        assert is_m_loc(es, params).localized

    def test_weak_disorder_violates_loc(self, line):
        ctx = make_context(line, seed=11, coupling=2.0, radius=10, mass=1.0)
        es = ctx.eigensystem((1, 0), 10)
        rep = is_m_loc(es, ctx.params)
        assert not rep.localized
        assert rep.witness is not None
        x, y, j, rho = rep.witness
        # recompute the witness product directly from the eigenvector
        ball = es.ball
        psi = es.eigenvectors[:, j]
        prod = abs(psi[ball.index[x]] * psi[ball.index[y]])
        rate = ctx.params.decay_rate(10)
        assert rho >= ctx.params.loc_min_distance(10)
        assert prod > math.exp(-rate * rho)

    def test_loc_monotone_in_mass(self, line):
        ctx = make_context(line, seed=12, coupling=30.0, radius=10)
        es = ctx.eigensystem((1, 0), 10)
        worst_small = is_m_loc(es, replace(ctx.params, mass=0.3)).worst_ratio
        worst_large = is_m_loc(es, replace(ctx.params, mass=1.5)).worst_ratio
        assert worst_small <= worst_large

    def test_ns_threshold_monotone_in_mass(self):
        params = ScalingParams.finite_range(2, mass=1.0)
        assert replace(params, mass=0.5).ns_threshold(8) > params.ns_threshold(8)


def brute_force_m_loc(es, params) -> LocReport:
    """Reference for ``is_m_loc``: every eigenfunction, every member pair.

    Pairs of one eigenfunction are visited in descending-amplitude order
    (equal amplitudes in member order), the lower-amplitude member first;
    exact ties keep the first pair and then the lowest eigenfunction.
    """
    ball = es.ball
    L = ball.radius
    rmin = params.loc_min_distance(L)
    rate = params.decay_rate(L, n=ball.n_particles)
    dist = ball.pairwise_distances.tolist()
    qualifying = sum(dist[x][y] >= rmin for x in range(len(ball)) for y in range(x))
    if qualifying == 0:
        return LocReport(True, 0.0, None, rmin, 0)
    floors = np.maximum(params.numerical_floor, eigenvector_noise_floors(es))
    log_vecs = np.log(np.maximum(np.abs(es.eigenvectors), 1e-320))
    worst, witness = 0.0, None
    for j in range(es.n):
        if floors[j] >= 1.0:
            continue
        log_floor = math.log(floors[j])
        lv = log_vecs[:, j].tolist()
        rank = np.argsort(-log_vecs[:, j], kind="stable").tolist()
        best = None
        for pos, a in enumerate(rank):
            for b in rank[:pos]:
                rho = dist[a][b]
                # the product must clear the floor to count at all
                if rho < rmin or not lv[b] > log_floor - lv[a]:
                    continue
                excess = lv[a] + lv[b] - max(-rate * rho, log_floor)
                if best is None or excess > best[0]:
                    best = (excess, a, b, rho)
        if best is None:
            continue
        ratio = math.exp(min(best[0], 700.0))
        if ratio > worst:
            worst = ratio
            witness = (ball.members[best[1]], ball.members[best[2]], j, best[3])
    return LocReport(worst <= 1.0, worst, witness, rmin, qualifying)


class TestLocOracle:
    """The pruned ``is_m_loc`` returns the brute-force report bit for bit."""

    @staticmethod
    def _same(es, params, mass=None) -> LocReport:
        if mass is not None:
            params = replace(params, mass=mass)
        rep = is_m_loc(es, params)
        assert rep == brute_force_m_loc(es, params)
        return rep

    @pytest.mark.parametrize("seed", [1, 2])
    def test_strong_disorder_several_masses(self, line, seed):
        ctx = make_context(line, seed=seed, coupling=30.0, radius=6)
        es = ctx.eigensystem((1, 0), 6)
        assert len(es.ball) <= 100
        reps = [self._same(es, ctx.params, m) for m in (0.05, 0.3, 1.0, 3.0)]
        assert reps[0].localized and not reps[-1].localized
        assert all(r.witness is not None for r in reps)

    def test_weak_disorder(self, line):
        ctx = make_context(line, seed=11, coupling=2.0, radius=6)
        es = ctx.eigensystem((1, 0), 6)
        for m in (0.3, 1.0):
            assert not self._same(es, ctx.params, m).localized

    def test_no_product_clears_the_floor(self, line):
        # two entries of a unit vector multiply to at most 1/2
        ctx = make_context(line, seed=4, coupling=2.0, radius=6)
        params = replace(ctx.params, numerical_floor=0.5)
        rep = self._same(ctx.eigensystem((1, 0), 6), params)
        assert rep.qualifying_pairs > 0
        assert rep.worst_ratio == 0.0 and rep.witness is None

    def test_matching_minimized_metric(self):
        # 12-site path graph: ball distances minimize over particle matchings
        adj = tuple(tuple(v for v in (i - 1, i + 1) if 0 <= v < 12) for i in range(12))
        graph = LatticeGeometry(kind="graph", d=1, growth_constant=3.0, adjacency=adj)
        ctx = make_context(graph, seed=6, coupling=3.0, center=(6, 4), radius=4)
        es = ctx.eigensystem((6, 4), 4)
        assert es.ball.metric == "sym"
        for m in (0.3, 1.0):
            assert self._same(es, ctx.params, m).qualifying_pairs > 0


class TestLocMemo:
    def test_one_kernel_call_per_ball_and_mass(self, line, monkeypatch):
        kernel = msa.is_m_loc
        calls = []

        def counting(es, params):
            calls.append((es.ball.center, es.ball.radius, params.mass))
            return kernel(es, params)

        monkeypatch.setattr(msa, "is_m_loc", counting)
        ctx = make_context(line, seed=5, coupling=30.0, radius=8)
        for energy in (0.0, 5.0, 15.0):
            predicate_report(ctx, (1, 0), 8, energy, sub_scale=4)
        verify_implications(ctx, (1, 0), 8, 4)
        assert calls == [((1, 0), 8, 1.0)]
        # a context at another mass gets its own entry, never the first's
        other = make_context(line, seed=5, coupling=30.0, radius=8, mass=2.0)
        rep = other.m_loc((1, 0), 8)
        other.m_loc((1, 0), 8)
        assert calls[1:] == [((1, 0), 8, 2.0)]
        assert rep == kernel(ctx.eigensystem((1, 0), 8), other.params)
        assert rep != ctx.m_loc((1, 0), 8)
        assert len(calls) == 2


class TestContextSplit:
    def test_factor_path_beyond_the_interaction(self, line):
        # separation 20 leaves a gap of 14 over which the step vanishes
        ctx = make_context(line, seed=3, coupling=12.0, center=(20, 0), radius=3,
                           interaction=InteractionModel(kind="step", amplitude=1.0, range_=1))
        es = ctx.eigensystem((20, 0), 3)
        factors = eigensystem_from_factors(ctx.eigensystem((20,), 3), ctx.eigensystem((0,), 3))
        assert np.array_equal(es.eigenvalues, factors.eigenvalues)
        dense = diagonalize(assemble_hamiltonian(ctx.spec, es.ball, ctx.sample))
        assert np.max(np.abs(es.eigenvalues - dense.eigenvalues)) < 1e-12

    def test_dense_path_at_gap_one(self, line):
        # separation 7 at radius 3: the step still couples across a gap of 1
        ctx = make_context(line, seed=3, coupling=12.0, center=(7, 0), radius=3,
                           interaction=InteractionModel(kind="step", amplitude=1.0, range_=1))
        es = ctx.eigensystem((7, 0), 3)
        dense = diagonalize(assemble_hamiltonian(ctx.spec, es.ball, ctx.sample))
        assert np.array_equal(es.eigenvalues, dense.eigenvalues)


class TestValuesOnlySpectra:
    """``AuditContext.spectrum`` against eigh and against the factor sums."""

    def test_random_balls_match_eigh(self, line):
        rng = np.random.default_rng(31)
        for case in range(8):
            n = 2 if case < 5 else 3
            center = tuple(sorted(rng.choice(6, size=n, replace=False).tolist(), reverse=True))
            radius = int(rng.integers(1, 5 if n == 2 else 3))
            ctx = make_context(line, seed=case, coupling=float(rng.uniform(1, 30)), center=center,
                               radius=radius, n=n)
            vals = ctx.spectrum(center, radius)
            dense = diagonalize(assemble_hamiltonian(ctx.spec, ctx.ball(center, radius), ctx.sample))
            assert np.max(np.abs(vals - dense.eigenvalues)) < 1e-12
            assert ctx.spectrum(center, radius) is vals
            assert not ctx._systems

    def test_split_balls_are_sorted_factor_sums(self, line):
        step = InteractionModel(kind="step", amplitude=1.0, range_=1)
        for seed, (center, radius) in enumerate([((20, 0), 3), ((31, 2), 4), ((12, 0), 2)]):
            ctx = make_context(line, seed=seed, coupling=12.0, center=center, radius=radius,
                               interaction=step)
            vals = ctx.spectrum(center, radius)
            sums = np.sort(np.add.outer(ctx.spectrum(center[:1], radius),
                                        ctx.spectrum(center[1:], radius)).ravel(), kind="stable")
            assert np.array_equal(vals, sums)
            dense = diagonalize(assemble_hamiltonian(ctx.spec, ctx.ball(center, radius), ctx.sample))
            assert np.max(np.abs(vals - dense.eigenvalues)) < 1e-12
            assert not ctx._systems

    def test_eigensystem_values_win_and_resolves_are_counted(self, line):
        ctx = make_context(line, seed=2, coupling=10.0, radius=4)
        es = ctx.eigensystem((1, 0), 4)
        assert ctx.spectrum((1, 0), 4) is es.eigenvalues
        ctx.spectrum((2, 0), 3)
        assert ctx.resolved_for_vectors == 0
        es_sub = ctx.eigensystem((2, 0), 3)
        assert ctx.resolved_for_vectors == 1
        assert ctx.spectrum((2, 0), 3) is es_sub.eigenvalues

    def test_bench_trial_runs_one_eigh(self, line, monkeypatch):
        # the predicates-r16 benchmark trial: n = 561, sub-scale 6, three energies
        eigh = np.linalg.eigh
        sizes = []

        def counting(a, *args, **kwargs):
            sizes.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        ctx = make_context(line, seed=550001, coupling=30.0, radius=16)
        for energy in (0.0, 5.0, 15.0):
            predicate_report(ctx, (1, 0), 16, energy, sub_scale=6)
        res = verify_implications(ctx, (1, 0), 16, 6)
        assert sizes == [561]
        assert res.counters["pair_geometry_possible"] == 0
        assert ctx.resolved_for_vectors == 0
        assert len(ctx._spectra) == 12


class TestNsRefinement:
    def test_energy_next_to_the_spectrum(self, line):
        # a predicates-r16 benchmark trial where E = 15 sits 1.03e-5 from the
        # spectrum: the plain eigenbasis column read 9.8e-11, 35 times the solve
        ctx = make_context(line, seed=derive_seed(1529365925, "trial", 0), coupling=30.0, radius=16)
        es = ctx.eigensystem((1, 0), 16)
        assert abs(es.spectral_distance(15.0) - 1.03e-5) < 1e-7
        delta = np.zeros(es.n)
        delta[es.ball.center_index()] = 1.0
        solve = np.linalg.solve(es.operator.matrix - 15.0 * np.eye(es.n), delta)
        worst = np.max(np.abs(solve[[es.ball.index[c] for c in interior_boundary(es.ball)]]))
        rep = is_EmNS(es, 15.0, ctx.params)
        assert abs(rep.worst_boundary_value - worst) <= 1e-9 * worst
        assert rep.non_singular == (worst <= rep.threshold)


def stacked(samples) -> tuple:
    """(region, fields) of samples that share one region, for the block path."""
    region = tuple(samples[0].values)
    return region, np.array([[s[site] for site in region] for s in samples])


class TestNsBySolve:
    """The singular event's block path (stacked values-only spectra plus
    one stacked solve) against the eigen path (``is_EmNS`` on the
    eigensystem)."""

    def _both(self, ctx, center, radius, energy):
        (solved,) = block_non_singularity(ctx.spec, *stacked([ctx.sample]), center, radius,
                                          energy, ctx.params).reports
        return solved, is_EmNS(ctx.eigensystem(center, radius), energy, ctx.params)

    def test_flags_and_values_match_the_eigen_path(self, line):
        rng = np.random.default_rng(7)
        checked = 0
        for case in range(10):
            n = 2 if case < 7 else 3
            center = tuple(sorted(rng.choice(8, size=n, replace=False).tolist(), reverse=True))
            radius = int(rng.integers(2, 7 if n == 2 else 4))
            ctx = make_context(line, seed=case, coupling=float(rng.uniform(2, 40)), center=center,
                               radius=radius, n=n)
            spectrum = ctx.spectrum(center, radius)
            energies = [0.0, 3.0, float(spectrum[len(spectrum) // 2]) + 1e-5]
            for energy in energies:
                solved, eigen = self._both(ctx, center, radius, energy)
                floor = ctx.params.ns_noise_floor(radius)
                assert solved.non_singular == eigen.non_singular
                assert solved.threshold == eigen.threshold
                assert abs(solved.worst_boundary_value - eigen.worst_boundary_value) <= (
                    1e-6 * eigen.worst_boundary_value + floor
                )
                checked += 1
        assert checked == 30

    def test_split_centre(self, line):
        step = InteractionModel(kind="step", amplitude=1.0, range_=1)
        ctx = make_context(line, seed=5, coupling=12.0, center=(20, 0), radius=3, interaction=step)
        for energy in (0.0, 6.0, 12.5):
            solved, eigen = self._both(ctx, (20, 0), 3, energy)
            assert solved.non_singular == eigen.non_singular
            assert abs(solved.worst_boundary_value - eigen.worst_boundary_value) <= (
                1e-6 * eigen.worst_boundary_value + ctx.params.ns_noise_floor(3)
            )

    def test_energy_at_an_eigenvalue(self, line):
        ctx = make_context(line, seed=3, coupling=20.0, radius=5)
        es = ctx.eigensystem((1, 0), 5)
        for energy in es.eigenvalues[[0, 17, -1]]:
            solved, eigen = self._both(ctx, (1, 0), 5, float(energy))
            for rep in (solved, eigen):
                assert not rep.non_singular and rep.resonant
                assert rep.worst_boundary_value == math.inf

    def test_the_block_path_never_diagonalizes(self, line, monkeypatch):
        step = InteractionModel(kind="step", amplitude=1.0, range_=1)
        contexts = [make_context(line, seed=s, coupling=30.0, radius=6) for s in range(4)]
        split = make_context(line, seed=9, coupling=30.0, center=(20, 0), radius=3,
                             interaction=step)
        for module in (msa, spectral):
            monkeypatch.setattr(module, "diagonalize", None)  # any eigensolve would fail
        monkeypatch.setattr(np.linalg, "eigh", None)
        spec, params = contexts[0].spec, contexts[0].params
        reports = block_non_singularity(spec, *stacked([c.sample for c in contexts]), (1, 0), 6,
                                        0.0, params).reports
        (split_report,) = block_non_singularity(split.spec, *stacked([split.sample]), (20, 0), 3,
                                                0.0, split.params).reports
        monkeypatch.undo()
        for ctx, rep in zip(contexts, reports):
            assert rep.non_singular == is_EmNS(ctx.eigensystem((1, 0), 6), 0.0, params).non_singular
        assert split_report.non_singular == is_EmNS(
            split.eigensystem((20, 0), 3), 0.0, split.params
        ).non_singular

    def test_sweep_trials_match_the_eigen_path(self, line):
        # the sweep-r6 benchmark trial: Gaussian field, step range 1, E = 0
        setup = TrialSetup(
            geometry=line, params=ScalingParams.finite_range(2, initial_scale=6),
            field_model=FieldModel(marginal="gaussian"),
            interaction=InteractionModel(kind="step", amplitude=1.0, range_=1),
            center=(1, 0), radius=6, coupling=3.0,
        )
        for t in range(40):
            ctx = setup.context(derive_seed(770001, "trial", t))
            solved, eigen = self._both(ctx, (1, 0), 6, 0.0)
            assert solved.non_singular == eigen.non_singular


class TestTunneling:
    def test_all_localized_means_no_tunneling(self, line):
        params = ScalingParams.finite_range(1, initial_scale=6, mass=0.5)
        ball = enumerate_ball((0,), 16, line)
        spec = HamiltonianSpec(geometry=line, n_particles=1, coupling=2000.0, convention="fixed")
        sample = sample_field(FieldModel(), ball.projection, 21)
        ctx = AuditContext(spec, sample, params)
        rep = is_m_tunneling(ctx, ball, 1)
        assert rep.distant_pairs > 0
        assert not rep.tunneling

    @staticmethod
    def _pinned_background(sites, pockets):
        # strictly spaced site energies: neighbouring gaps at least 1.6,
        # so everything outside the flat pockets is firmly localized
        values = {}
        for s in sites:
            if any(abs(s - p) <= 1 for p in pockets):
                values[s] = 0.0
            else:
                values[s] = 5.0 + 0.4 * ((s * 7) % 31)
        return values

    def test_planted_resonant_pair_tunnels(self, line):
        # flat potential pockets at distance >= 11 make both radius-1
        # sub-balls non-localized while the rest stays strongly pinned
        params = ScalingParams.finite_range(1, initial_scale=6, mass=1.0)
        ball = enumerate_ball((0,), 16, line)
        values = self._pinned_background(ball.projection, (13, -13))
        sample = FieldSample(FieldModel(), 0, values)
        spec = HamiltonianSpec(geometry=line, n_particles=1, coupling=40.0, convention="fixed")
        ctx = AuditContext(spec, sample, params)
        rep = is_m_tunneling(ctx, ball, 1)
        assert rep.tunneling
        assert rep.witness is not None
        c1, c2 = rep.witness
        assert abs(c1[0] - c2[0]) >= params.c_n

    def test_single_bad_subball_is_not_tunneling(self, line):
        params = ScalingParams.finite_range(1, initial_scale=6, mass=1.0)
        ball = enumerate_ball((0,), 16, line)
        values = self._pinned_background(ball.projection, (13,))
        sample = FieldSample(FieldModel(), 0, values)
        spec = HamiltonianSpec(geometry=line, n_particles=1, coupling=40.0, convention="fixed")
        ctx = AuditContext(spec, sample, params)
        assert not is_m_tunneling(ctx, ball, 1).tunneling

    def test_params_override_does_not_read_context_entries(self, line):
        params = ScalingParams.finite_range(1, initial_scale=6, mass=1.0)
        ball = enumerate_ball((0,), 16, line)
        sample = FieldSample(FieldModel(), 0, self._pinned_background(ball.projection, (13, -13)))
        spec = HamiltonianSpec(geometry=line, n_particles=1, coupling=40.0, convention="fixed")
        ctx = AuditContext(spec, sample, params)
        assert is_m_tunneling(ctx, ball, 1).tunneling
        # at a tiny mass every sub-ball is localized: no tunneling, whatever
        # the first context has computed
        lenient = AuditContext(spec, sample, replace(params, mass=0.01))
        rep = is_m_tunneling(lenient, ball, 1)
        assert not rep.tunneling
        assert rep != is_m_tunneling(ctx, ball, 1)


class TestGridsAndReports:
    def test_energy_grid_midpoints(self):
        grid = energy_grid([np.array([0.0, 1.0]), np.array([2.0])])
        assert np.array_equal(grid, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))

    def test_stride_centers_lattice(self, line):
        ball = enumerate_ball((1, 0), 8, line)
        centers = stride_centers(ball, 4, 6)
        assert (1, 0) in centers
        for c in centers:
            assert (c[0] - 1) % 4 == 0 and c[1] % 4 == 0

    def test_predicate_report_jsonable(self, line):
        ctx = make_context(line, seed=2, radius=8)
        rep = predicate_report(ctx, (1, 0), 8, 0.5, sub_scale=4)
        payload = rep.to_jsonable()
        assert payload["radius"] == 8
        assert isinstance(payload["e_cnr"], bool)


class TestImplications:
    def test_strong_disorder_audit_clean(self, line):
        # comfortable margins: strong coupling, unit mass
        violations = []
        for t in range(6):
            ctx = make_context(line, seed=3000 + t, coupling=300.0, radius=16)
            res = verify_implications(ctx, (1, 0), 16, 6)
            violations.extend(res.violations)
            assert res.counters["energies"] > 100
        assert violations == []

    def test_diagonal_limit_trivial(self, line):
        # hopping dominated by an enormous potential: localized and clean
        ctx = make_context(line, seed=77, coupling=5000.0, radius=11, initial_scale=6)
        res = verify_implications(ctx, (1, 0), 11, 6)
        assert res.violations == []
        es = ctx.eigensystem((1, 0), 11)
        assert is_m_loc(es, ctx.params).localized

    def test_marginal_mass_produces_witnessed_violations(self, line):
        # the audited conclusions genuinely fail when the demanded decay
        # rate exceeds what the disorder provides; witnesses must certify
        found = 0
        for t in range(4):
            ctx = make_context(line, seed=4000 + t, coupling=30.0, mass=1.0, radius=16)
            res = verify_implications(ctx, (1, 0), 16, 6)
            for v in res.violations:
                found += 1
                assert v.lemma in (
                    "loc_nr_implies_ns",
                    "cnr_no_pair_implies_ns",
                    "no_distant_pair_implies_loc",
                )
                assert v.magnitude > 1.0 or v.energy is None
        assert found > 0

    def test_side_condition_diagnostics(self, line):
        ctx = make_context(line, seed=1, coupling=300.0, radius=16)
        res = verify_implications(ctx, (1, 0), 16, 6)
        assert res.counters["volume_condition_ok"] == 0  # log|B| > L^beta here
        assert res.counters["pair_geometry_possible"] == 0
        assert res.counters["ns_exponent_margin"] < 0

    def test_longrange_split_audit(self, line):
        params = ScalingParams.infinite_range(2, delta=Fraction(1, 20), initial_scale=6, mass=1.0)
        interaction = InteractionModel(kind="subexp", prefactor=1.0, rate=1.0, tail_exponent=0.0)
        center = (150, -150)
        ball = enumerate_ball(center, 16, line)
        spec = HamiltonianSpec(
            geometry=line, n_particles=2, coupling=300.0,
            interaction=interaction, convention="fixed",
        )
        sample = sample_field(FieldModel(), ball.projection, 55)
        ctx = AuditContext(spec, sample, params)
        res = verify_longrange_split(ctx, center, 16, 6)
        assert res.violations == []
        assert res.counters.get("hypothesis_instances", 0) > 0

    def test_longrange_skips_fully_interactive(self, line):
        params = ScalingParams.infinite_range(2, delta=Fraction(1, 20), initial_scale=6)
        interaction = InteractionModel(kind="subexp", prefactor=1.0, rate=1.0, tail_exponent=0.0)
        spec = HamiltonianSpec(
            geometry=line, n_particles=2, coupling=300.0,
            interaction=interaction, convention="fixed",
        )
        ball = enumerate_ball((1, 0), 8, line)
        sample = sample_field(FieldModel(), ball.projection, 5)
        ctx = AuditContext(spec, sample, params)
        res = verify_longrange_split(ctx, (1, 0), 8, 4)
        assert res.counters.get("skipped") == 1
