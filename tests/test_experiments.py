import math

import numpy as np
import pytest

from mpdsa.configspace import enumerate_ball
from mpdsa.disorder import FieldModel, derive_seed, sample_field
from mpdsa.experiments import (
    ProbabilityEstimate,
    TrialSetup,
    audit_trial,
    correlator_completeness,
    decay_fit,
    default_time_grid,
    ef_correlator,
    estimate_event_probability,
    evc_bound,
    evc_experiment,
    finite_volume_dl_bound,
    propagator_sup,
    propagator_sups,
    run_scaling_audit,
    wilson_interval,
)
from mpdsa.msa import BoundSchedule, ScalingParams
from mpdsa.operators import HamiltonianSpec, InteractionModel, assemble_hamiltonian
from mpdsa.spectral import diagonalize


def basic_setup(line, coupling=30.0, radius=6, mass=1.0, second=None, sub=None):
    return TrialSetup(
        geometry=line,
        params=ScalingParams.finite_range(2, initial_scale=6, mass=mass),
        field_model=FieldModel(kind="iid", marginal="uniform"),
        interaction=InteractionModel(kind="step", amplitude=1.0, range_=1),
        center=(1, 0),
        radius=radius,
        coupling=coupling,
        convention="fixed",
        sub_scale=sub,
        second_center=second,
    )


class TestWilson:
    def test_interval_contains_point_estimate(self):
        for s, n in [(0, 50), (3, 50), (25, 50), (50, 50)]:
            p, lo, hi = wilson_interval(s, n)
            assert lo <= p <= hi
            assert 0.0 <= lo and hi <= 1.0

    def test_width_shrinks_like_root_trials(self):
        _, lo1, hi1 = wilson_interval(30, 100)
        _, lo2, hi2 = wilson_interval(120, 400)
        ratio = (hi1 - lo1) / (hi2 - lo2)
        assert 1.8 < ratio < 2.2

    def test_coverage_for_known_probe(self):
        # Bernoulli(0.3) probe: the 95% interval should cover the truth
        # in at least 93% of 200 replications
        rng = np.random.default_rng(123)
        covered = 0
        for _ in range(200):
            successes = int(rng.binomial(80, 0.3))
            _, lo, hi = wilson_interval(successes, 80)
            covered += lo <= 0.3 <= hi
        assert covered >= 0.93 * 200

    def test_estimate_from_counts(self):
        est = ProbabilityEstimate.from_counts(7, 70)
        assert est.p_hat == pytest.approx(0.1)
        assert est.ci_lo < 0.1 < est.ci_hi


class TestEventProbability:
    def test_instrumentation_probes(self, line):
        setup = basic_setup(line)
        est_true = estimate_event_probability(setup, "always_true", 10, 1)
        assert est_true.p_hat == 1.0 and est_true.successes == 10
        est_false = estimate_event_probability(setup, "always_false", 10, 1)
        assert est_false.p_hat == 0.0

    def test_singular_event_runs(self, line):
        setup = basic_setup(line, coupling=30.0)
        est = estimate_event_probability(setup, "singular", 30, 3, energy=0.0)
        assert est.trials == 30
        assert 0 <= est.successes <= 30 and est.p_hat == est.successes / 30

    def test_disorder_monotonicity_small(self, line):
        weak = basic_setup(line, coupling=3.0)
        strong = basic_setup(line, coupling=60.0)
        est_weak = estimate_event_probability(weak, "singular", 120, 7, energy=0.0)
        est_strong = estimate_event_probability(strong, "singular", 120, 7, energy=0.0)
        assert est_strong.p_hat <= est_weak.p_hat

    def test_pair_event_needs_second_center(self, line):
        setup = basic_setup(line)
        with pytest.raises(ValueError):
            estimate_event_probability(setup, "distant_pair_singular", 30, 1)

    def test_reproducibility(self, line):
        setup = basic_setup(line)
        a = estimate_event_probability(setup, "singular", 40, 11, energy=0.0)
        b = estimate_event_probability(setup, "singular", 40, 11, energy=0.0)
        assert a == b


class TestScalingAudit:
    def test_k_zero_reduces_to_event_estimate(self, line):
        setup = basic_setup(line, coupling=25.0)
        sched = BoundSchedule(p=33.0, b=0.01, n_particles=2)
        result = run_scaling_audit(setup, sched, 0, 40, 99)
        row = result.rows[0]
        probe = TrialSetup(
            geometry=setup.geometry,
            params=setup.params,
            field_model=setup.field_model,
            interaction=setup.interaction,
            center=setup.center,
            radius=setup.params.initial_scale,
            coupling=setup.coupling,
            convention=setup.convention,
        )
        est = estimate_event_probability(
            probe, "non_localized", 40, derive_seed(99, "scale", 0)
        )
        assert row.non_localized == est.successes
        assert row.p_hat == est.p_hat

    def test_schedule_column_recomputed(self, line):
        setup = basic_setup(line, coupling=300.0)
        sched = BoundSchedule(p=33.0, b=0.01, n_particles=2)
        result = run_scaling_audit(setup, sched, 1, 5, 5)
        for row in result.rows:
            expected = float(row.scale) ** (-sched.exponent(2, row.k))
            assert row.schedule_bound == pytest.approx(expected, rel=1e-12)

    def test_matrix_cap_skips_scale(self, line):
        setup = basic_setup(line, coupling=300.0)
        sched = BoundSchedule(p=33.0, b=0.01, n_particles=2)
        result = run_scaling_audit(setup, sched, 1, 3, 5, matrix_cap=50)
        assert result.rows[1].skipped
        assert "exceeds cap" in result.rows[1].note


class TestEvcExperiment:
    def test_bound_formula(self):
        constants = {"C1": 1.0, "A1": 0.0, "b1": 1.0, "C2": 1.0, "A2": 0.0, "b2": 1.0}
        assert evc_bound(0.1, 1, (1, 1), constants) == pytest.approx(0.4)
        assert evc_bound(0.0, 5, (3, 4), constants) == 0.0
        doubled = evc_bound(0.1, 1, (2, 1), constants)
        assert doubled == pytest.approx(0.2 + 2 * 0.2)

    def test_single_site_closed_form(self, line):
        bx = enumerate_ball((0,), 0, line)
        by = enumerate_ball((40,), 0, line)
        g = 4.0
        s_grid = [0.01 * g, 0.05 * g, 0.1 * g, 0.2 * g]
        report = evc_experiment(
            bx, by, FieldModel(), g, 800, s_grid, seed=13, convention="fixed"
        )
        assert report.weakly_separable
        assert report.monotone()
        assert report.closed_form is not None
        for emp, exact, err in zip(
            report.empirical_cdf, report.closed_form, report.stderr
        ):
            assert abs(emp - exact) <= 3 * err + 1e-9

    def test_zero_width_has_zero_mass(self, line):
        bx = enumerate_ball((0,), 0, line)
        by = enumerate_ball((40,), 0, line)
        report = evc_experiment(bx, by, FieldModel(), 2.0, 200, [0.0], seed=1)
        assert report.empirical_cdf[0] == 0.0

    def test_separated_two_particle_pair(self, line):
        bx = enumerate_ball((1, 0), 2, line)
        by = enumerate_ball((61, 60), 2, line)
        report = evc_experiment(
            bx, by, FieldModel(), 10.0, 60, [0.02, 0.1, 0.4], seed=3
        )
        assert report.weakly_separable
        assert report.monotone()
        assert np.all(report.bound_curve >= 0)


class TestCorrelators:
    def _eigensystem(self, line, seed=3, radius=5, coupling=20.0):
        ball = enumerate_ball((1, 0), radius, line)
        spec = HamiltonianSpec(
            geometry=line, n_particles=2, coupling=coupling, convention="fixed"
        )
        sample = sample_field(FieldModel(), ball.projection, seed)
        return diagonalize(assemble_hamiltonian(spec, ball, sample))

    def test_self_correlator_is_one(self, line):
        es = self._eigensystem(line)
        q = ef_correlator(es, es.ball.center, es.ball.center)
        assert q == pytest.approx(1.0, abs=1e-10)

    def test_signed_completeness(self, line):
        es = self._eigensystem(line)
        x = es.ball.center
        y = es.ball.members[-1]
        assert abs(correlator_completeness(es, x, y)) < 1e-10
        assert abs(correlator_completeness(es, x, x)) < 1e-10

    def test_bessel_bound(self, line):
        es = self._eigensystem(line, seed=8)
        for y in es.ball.members[::7]:
            assert ef_correlator(es, es.ball.center, y) <= 1.0 + 1e-10

    def test_window_restriction(self, line):
        es = self._eigensystem(line)
        full = ef_correlator(es, es.ball.center, es.ball.members[3])
        lo, hi = float(es.eigenvalues[2]), float(es.eigenvalues[10])
        partial = ef_correlator(es, es.ball.center, es.ball.members[3], (lo, hi))
        assert partial <= full + 1e-15

    def test_propagator_at_time_zero(self, line):
        es = self._eigensystem(line)
        x = es.ball.center
        y = es.ball.members[-1]
        assert propagator_sup(es, x, y, [0.0]) == pytest.approx(0.0, abs=1e-10)
        assert propagator_sup(es, x, x, [0.0]) == pytest.approx(1.0, abs=1e-10)

    def test_propagator_below_correlator(self, line):
        es = self._eigensystem(line, seed=9)
        grid = default_time_grid(500)
        for y in es.ball.members[::9]:
            q = ef_correlator(es, es.ball.center, y)
            assert propagator_sup(es, es.ball.center, y, grid) <= q + 1e-10

    def test_trial_audit_invariants(self, line):
        setup = basic_setup(line, coupling=40.0, radius=6, sub=3)
        audit = audit_trial(setup, trial_seed=17, energy=0.0, propagator_points=300)
        assert audit.correlator_defect <= 1e-10
        assert audit.completeness_defect <= 1e-10
        assert audit.propagator_excess <= 1e-10


class TestPropagatorOracle:
    """``propagator_sups`` against an explicit loop over times and
    eigenfunctions, and against the matrix exponential of H."""

    def _case(self, line):
        ball = enumerate_ball((1, 0), 5, line)
        spec = HamiltonianSpec(geometry=line, n_particles=2, coupling=20.0, convention="fixed")
        op = assemble_hamiltonian(spec, ball, sample_field(FieldModel(), ball.projection, 5))
        es = diagonalize(op)
        far = ball.members[int(np.argmax(ball.distances_from_center))]
        pairs = [
            (ball.center, ball.center),
            (ball.center, far),
            (far, ball.center),
            (far, far),
            (ball.members[3], ball.members[40]),
        ]
        return op, es, pairs

    def test_matches_brute_force(self, line):
        op, es, pairs = self._case(line)
        assert es.n <= 100
        grid = default_time_grid(300)
        got = propagator_sups(es, pairs, grid)
        for (x, y), value in zip(pairs, got):
            ix, iy = es.ball.index[x], es.ball.index[y]
            best = 0.0
            for t in grid:
                amp = 0j
                for j in range(es.n):
                    amp += (
                        np.exp(-1j * t * es.eigenvalues[j])
                        * es.eigenvectors[ix, j]
                        * es.eigenvectors[iy, j]
                    )
                best = max(best, abs(amp))
            assert abs(value - best) <= 1e-12

    def test_bounds_matrix_exponential(self, line):
        linalg = pytest.importorskip("scipy.linalg")
        op, es, pairs = self._case(line)
        grid = default_time_grid(300)
        got = propagator_sups(es, pairs, grid)
        for t in grid[[0, 1, 150, 300]]:
            u = linalg.expm(-1j * t * op.matrix)
            for (x, y), value in zip(pairs, got):
                assert abs(u[es.ball.index[x], es.ball.index[y]]) <= value + 1e-12

    def test_single_pair_wrapper_is_bitwise(self, line):
        _, es, pairs = self._case(line)
        grid = default_time_grid(300)
        for x, y in pairs:
            assert propagator_sup(es, x, y, grid) == propagator_sups(es, [(x, y)], grid)[0]


class TestDlBound:
    def test_vanishes_at_huge_mass(self):
        assert finite_volume_dl_bound(6, 1, 1e3, 0.0) == pytest.approx(0.0, abs=1e-200)

    def test_additive_in_failure_probability(self):
        base = finite_volume_dl_bound(6, 1, 1.0, 0.0)
        assert finite_volume_dl_bound(6, 1, 1.0, 0.25) == pytest.approx(base + 0.25)

    def test_explicit_boundary_count(self, line):
        from mpdsa.configspace import edge_boundary

        ball = enumerate_ball((0,), 6, line)
        pairs = 2 * len(edge_boundary(ball))
        expected = 0.1 + 2.0 * pairs * math.exp(-6.0)
        assert finite_volume_dl_bound(6, 1, 1.0, 0.1) == pytest.approx(expected)


class TestDecayFit:
    def test_exact_exponential(self):
        pairs = [(r, math.exp(-2.0 * r)) for r in range(1, 12)]
        fit = decay_fit(pairs)
        assert fit.m_eff == pytest.approx(2.0, abs=1e-9)
        assert abs(fit.intercept) < 1e-9

    def test_constant_data(self):
        pairs = [(r, 0.25) for r in range(1, 8)]
        fit = decay_fit(pairs)
        assert fit.m_eff == pytest.approx(0.0, abs=1e-12)

    def test_log_power_family(self):
        pairs = [(r, math.exp(-math.log(r) ** 2)) for r in range(2, 40)]
        fit = decay_fit(pairs)
        assert fit.c == pytest.approx(1.0, abs=1e-9)
        assert fit.a == pytest.approx(1.0, abs=1e-6)

    def test_excludes_nonpositive(self):
        pairs = [(1, 0.5), (2, 0.0), (3, 0.25), (4, 0.1), (5, -0.2)]
        fit = decay_fit(pairs)
        assert fit.excluded_points == 2
        assert fit.used_points == 3

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            decay_fit([(1, 0.5), (2, 0.2)])
