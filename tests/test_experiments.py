import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from mpdsa.configspace import enumerate_ball, interior_boundary
from mpdsa.disorder import FieldModel, derive_seed, field_array, sample_field
from mpdsa.experiments import (
    ProbabilityEstimate,
    TrialSetup,
    centre_pairs,
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
    singular_trials,
    visible_eigenvalues,
    wilson_interval,
)
from mpdsa import msa
from mpdsa.msa import BoundSchedule, ScalingParams, block_non_singularity
from mpdsa.operators import (
    HamiltonianSpec,
    InteractionModel,
    OperatorMatrix,
    assemble_hamiltonian,
    hamiltonian_diagonals,
    hopping_template,
)
from mpdsa.spectral import EigenSystem, stacked_eigenvalues
from mpdsa.spectral import diagonalize, eigenvalues_of


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


def reference_ns(setup, seed, energy, parts=None):
    """(flag, worst boundary value, tolerance) of the singular event's
    decision for one trial, computed alone: assemble H, take its
    eigenvalues (sorted factor sums when ``parts`` splits the centre),
    then one dense ``np.linalg.solve``.

    Two backward-stable solves of (H - E) g = delta agree to about
    kappa(H - E) eps ||g||; the tolerance, 4 n eps kappa ||g||_inf with
    kappa from the reference spectrum, bounds how far the block's band LU
    may put the worst value from the dense LU's."""
    spec, params, radius = setup.ham_spec(), setup.params, setup.radius
    sample = sample_field(setup.field_model, setup.region(), seed)
    ball = enumerate_ball(setup.center, radius, setup.geometry)
    op = assemble_hamiltonian(spec, ball, sample)
    if parts is None:
        spectrum = eigenvalues_of(op)
    else:
        fa, fb = (
            eigenvalues_of(assemble_hamiltonian(
                replace(spec, n_particles=len(p)), enumerate_ball(p, radius, setup.geometry), sample
            ))
            for p in parts
        )
        spectrum = np.sort((fa[:, None] + fb[None, :]).ravel())
    threshold = max(params.ns_threshold(radius, n=ball.n_particles), params.ns_noise_floor(radius))
    boundary = interior_boundary(ball)
    if not boundary:
        return True, 0.0, 0.0
    gaps = np.abs(spectrum - energy)
    if np.min(gaps) <= 1e-12 * max(np.max(np.abs(spectrum)), 1e-300):
        return False, math.inf, 0.0
    shifted = op.matrix.copy()
    shifted[np.diag_indices(op.n)] -= energy
    rhs = np.zeros(op.n)
    rhs[ball.center_index()] = 1.0
    g = np.linalg.solve(shifted, rhs)
    worst = float(np.max(np.abs(g[[ball.index[c] for c in boundary]])))
    kappa = np.max(gaps) / np.min(gaps)
    return worst <= threshold, worst, 4 * op.n * np.finfo(float).eps * kappa * np.max(np.abs(g))


def assert_agrees(rep, reference):
    """The report's flag is the reference's, and its worst value lies
    within the reference's tolerance (an infinite one is equal)."""
    flag, worst, tolerance = reference
    assert rep.non_singular == flag
    value = rep.worst_boundary_value
    assert value == worst or abs(value - worst) <= tolerance


class TestSingularBlockOracle:
    """Every trial of the blocked singular event against ``reference_ns``
    run one trial at a time: the flag exactly, the worst value within the
    forward error of two backward-stable solves."""

    @staticmethod
    def _sweep_setup(line, coupling):
        # the sweep-r6 benchmark trial: Gaussian field, step range 1, E = 0
        return TrialSetup(
            geometry=line, params=ScalingParams.finite_range(2, initial_scale=6),
            field_model=FieldModel(marginal="gaussian"),
            interaction=InteractionModel(kind="step", amplitude=1.0, range_=1),
            center=(1, 0), radius=6, coupling=coupling, convention="fixed",
        )

    @staticmethod
    def _check(setup, seeds, energy, parts=None):
        reports = singular_trials(setup, energy, seeds).reports
        assert len(reports) == len(seeds)
        for seed, rep in zip(seeds, reports):
            assert_agrees(rep, reference_ns(setup, seed, energy, parts))
        return reports

    def test_sweep_trials(self, line):
        flags = []
        for coupling in (3.0, 30.0):
            setup = self._sweep_setup(line, coupling)
            sweep_seed = derive_seed(770001, "sweep", repr(coupling))
            seeds = [derive_seed(sweep_seed, "trial", t) for t in range(1000)]
            flags += [r.non_singular for r in self._check(setup, seeds, 0.0)]
        assert 0 < sum(flags) < len(flags)

    def test_block_size_does_not_divide_the_count(self, line):
        # 91 members give blocks of 15: 37 trials end on a block of 7
        setup = self._sweep_setup(line, 3.0)
        seeds = [derive_seed(41, "trial", t) for t in range(37)]
        reports = self._check(setup, seeds, 0.0)
        est = estimate_event_probability(setup, "singular", 37, 41, energy=0.0)
        assert est.successes == sum(not r.non_singular for r in reports)

    @pytest.mark.parametrize("count", [1, 15, 16, 37])
    def test_one_call_over_every_block(self, line, count):
        # 91 members give blocks of 15: one partial block, one full, a full
        # and a single, two full and a partial
        setup = self._sweep_setup(line, 3.0)
        seeds = [derive_seed(43, "trial", t) for t in range(count)]
        region = setup.region()
        run = block_non_singularity(setup.ham_spec(), region,
                                    field_array(setup.field_model, region, seeds),
                                    setup.center, setup.radius, 0.0, setup.params)
        assert run.blocks == -(-count // 15)
        assert run.cholesky_fallback_blocks == 0 and all(r.cleared for r in run.reports)
        assert len(run.reports) == count
        for seed, rep in zip(seeds, run.reports):
            assert_agrees(rep, reference_ns(setup, seed, 0.0))

    def test_split_centre(self, line):
        setup = replace(self._sweep_setup(line, 12.0), center=(20, 0), radius=3)
        seeds = [derive_seed(5, "trial", t) for t in range(60)]
        for energy in (0.0, 6.0):
            self._check(setup, seeds, energy, parts=((20,), (0,)))

    def test_one_particle_ball(self, line):
        setup = replace(self._sweep_setup(line, 4.0), params=ScalingParams.finite_range(1),
                        center=(0,), radius=8)
        self._check(setup, [derive_seed(6, "trial", t) for t in range(40)], 0.5)

    def test_ball_without_interior_boundary(self, path_graph):
        setup = replace(self._sweep_setup(path_graph, 4.0), center=(2, 0), radius=4)
        assert not interior_boundary(enumerate_ball((2, 0), 4, path_graph))
        reports = self._check(setup, [derive_seed(7, "trial", t) for t in range(20)], 0.0)
        assert all(r.non_singular for r in reports)

    def test_energy_at_one_trials_eigenvalue(self, line):
        setup = self._sweep_setup(line, 3.0)
        seeds = [derive_seed(8, "trial", t) for t in range(6)]
        region = setup.region()
        ball = enumerate_ball(setup.center, setup.radius, line)
        sample = sample_field(setup.field_model, region, seeds[2])
        energy = float(eigenvalues_of(assemble_hamiltonian(setup.ham_spec(), ball, sample))[40])
        reports = block_non_singularity(setup.ham_spec(), region,
                                        field_array(setup.field_model, region, seeds),
                                        setup.center, setup.radius, energy,
                                        setup.params).reports
        assert (reports[2].non_singular, reports[2].worst_boundary_value) == (False, math.inf)
        assert reports[2].resonant
        for t, (seed, rep) in enumerate(zip(seeds, reports)):
            if t != 2:
                assert not rep.resonant
                assert_agrees(rep, reference_ns(setup, seed, energy))


class TestGapCertificateInTheBlock:
    """Which trials of a block the gap certificate clears, and which take
    the ``eigvalsh`` screen."""

    @pytest.fixture
    def eigvalsh_stacks(self, monkeypatch):
        seen, original = [], msa.stacked_eigenvalues

        def spy(template, stack):
            seen.append(len(stack))
            return original(template, stack)

        monkeypatch.setattr(msa, "stacked_eigenvalues", spy)
        return seen

    def test_only_the_trial_at_its_eigenvalue_is_screened(self, line, eigvalsh_stacks):
        setup = TestSingularBlockOracle._sweep_setup(line, 3.0)
        seeds = [derive_seed(8, "trial", t) for t in range(6)]
        region = setup.region()
        ball = enumerate_ball(setup.center, setup.radius, line)
        sample = sample_field(setup.field_model, region, seeds[2])
        energy = float(eigenvalues_of(assemble_hamiltonian(setup.ham_spec(), ball, sample))[40])
        run = block_non_singularity(setup.ham_spec(), region,
                                    field_array(setup.field_model, region, seeds),
                                    setup.center, setup.radius, energy, setup.params)
        reports = run.reports
        assert eigvalsh_stacks == [1]
        assert (run.blocks, run.cholesky_fallback_blocks) == (1, 1)
        assert [r.cleared for r in reports] == [True, True, False, True, True, True]
        assert reports[2].resonant and reports[2].worst_boundary_value == math.inf
        for t, (seed, rep) in enumerate(zip(seeds, reports)):
            if t != 2:
                assert_agrees(rep, reference_ns(setup, seed, energy))

    def test_a_split_ball_keeps_the_factor_screen(self, line, eigvalsh_stacks):
        setup = replace(TestSingularBlockOracle._sweep_setup(line, 12.0), center=(20, 0), radius=3)
        seeds = [derive_seed(5, "trial", t) for t in range(10)]
        run = singular_trials(setup, 0.0, seeds)
        assert not any(r.cleared for r in run.reports)
        assert (run.blocks, run.cholesky_fallback_blocks) == (1, 0)
        assert eigvalsh_stacks == [10, 10]  # one stack per factor ball

    def test_the_counts_cover_every_trial(self, line):
        setup = TestSingularBlockOracle._sweep_setup(line, 3.0)
        est = estimate_event_probability(setup, "singular", 40, 12, energy=0.0)
        seeds = [derive_seed(12, "trial", t) for t in range(40)]
        reports = singular_trials(setup, 0.0, seeds).reports
        assert est.cleared == sum(r.cleared for r in reports) == 40
        assert estimate_event_probability(setup, "always_true", 40, 12).cleared is None

    def test_an_asymmetric_template_still_raises(self, line, monkeypatch):
        setup = TestSingularBlockOracle._sweep_setup(line, 3.0)

        def skewed(spec, ball):
            template = hopping_template(spec, ball)
            bad = template.matrix.copy()
            bad[0, 1] += 0.5
            return OperatorMatrix(ball, bad, template.convention)

        monkeypatch.setattr(msa, "hopping_template", skewed)
        region = setup.region()
        fields = field_array(setup.field_model, region, (1, 2, 3))
        with pytest.raises(ValueError, match="asymmetry"):
            block_non_singularity(setup.ham_spec(), region, fields, setup.center, setup.radius,
                                  0.0, setup.params)


class TestBlockPool:
    """The blocks decided on a pool of threads give what one thread gives,
    and the rare eigensolve stays on the calling thread."""

    @staticmethod
    def _inside_the_spectrum(line):
        # near-zero disorder at an eigenvalue of the field-free operator:
        # the certificate clears 18 of these 60 trials, and every block
        # holds a trial it did not clear
        setup = TestSingularBlockOracle._sweep_setup(line, 3e-4)
        ball = enumerate_ball(setup.center, setup.radius, line)
        spec, region = setup.ham_spec(), setup.region()
        free = hamiltonian_diagonals(replace(spec, coupling=0.0), ball, region,
                                     np.zeros((1, len(region))))
        return setup, float(stacked_eigenvalues(hopping_template(spec, ball), free)[0, 45])

    @staticmethod
    def _run(monkeypatch, workers, setup, energy, seeds):
        monkeypatch.setattr(msa, "usable_cpus", lambda: workers)
        return singular_trials(setup, energy, seeds)

    @staticmethod
    def _fingerprint(run):
        worst = np.array([r.worst_boundary_value for r in run.reports])
        return (
            [(r.non_singular, r.resonant, r.cleared) for r in run.reports],
            worst.tobytes(),
            run.blocks,
            run.cholesky_fallback_blocks,
        )

    @pytest.mark.parametrize("case", ["sweep", "inside", "split"])
    def test_one_worker_and_three_agree(self, line, monkeypatch, case):
        seeds = [derive_seed(44, "trial", t) for t in range(60)]
        energy = 0.0
        if case == "sweep":
            setup = TestSingularBlockOracle._sweep_setup(line, 3.0)
        elif case == "inside":
            setup, energy = self._inside_the_spectrum(line)
        else:
            setup = replace(TestSingularBlockOracle._sweep_setup(line, 12.0),
                            center=(20, 0), radius=3)
        serial = self._run(monkeypatch, 1, setup, energy, seeds)
        pooled = self._run(monkeypatch, 3, setup, energy, seeds)
        assert self._fingerprint(pooled) == self._fingerprint(serial)
        cleared = sum(r.cleared for r in serial.reports)
        assert {"sweep": cleared == 60, "inside": cleared == 18, "split": cleared == 0}[case]
        if case == "inside":
            assert serial.cholesky_fallback_blocks == serial.blocks == 4

    def test_the_screen_runs_on_the_main_thread(self, line, monkeypatch):
        setup, energy = self._inside_the_spectrum(line)
        threads, original = [], msa.stacked_eigenvalues

        def spy(template, stack):
            threads.append(threading.current_thread())
            return original(template, stack)

        monkeypatch.setattr(msa, "stacked_eigenvalues", spy)
        self._run(monkeypatch, 3, setup, energy, [derive_seed(44, "trial", t) for t in range(60)])
        assert threads and all(t is threading.main_thread() for t in threads)

    def test_an_asymmetric_template_raises_from_a_worker(self, line, monkeypatch):
        setup = TestSingularBlockOracle._sweep_setup(line, 3.0)
        threads, certificate = [], msa.GapCertificate

        def skewed(spec, ball):
            template = hopping_template(spec, ball)
            bad = template.matrix.copy()
            bad[0, 1] += 0.5
            return OperatorMatrix(ball, bad, template.convention)

        def spy(template, rows):
            threads.append(threading.current_thread())
            return certificate(template, rows)

        monkeypatch.setattr(msa, "hopping_template", skewed)
        monkeypatch.setattr(msa, "GapCertificate", spy)
        alive = threading.active_count()
        with pytest.raises(ValueError, match="asymmetry"):
            self._run(monkeypatch, 3, setup, 0.0, [derive_seed(45, "trial", t) for t in range(60)])
        assert threads and threading.main_thread() not in threads
        assert threading.active_count() == alive


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


def evc_setup(line, center, second, radius, coupling):
    """The two balls of an evc run under IID uniform disorder."""
    return TrialSetup(
        geometry=line,
        params=ScalingParams.finite_range(len(center)),
        field_model=FieldModel(),
        interaction=InteractionModel(),
        center=center,
        radius=radius,
        coupling=coupling,
        second_center=second,
    )


class TestEvcExperiment:
    def test_bound_formula(self):
        constants = {"C1": 1.0, "A1": 0.0, "b1": 1.0, "C2": 1.0, "A2": 0.0, "b2": 1.0}
        assert evc_bound(0.1, 1, (1, 1), constants) == pytest.approx(0.4)
        assert evc_bound(0.0, 5, (3, 4), constants) == 0.0
        doubled = evc_bound(0.1, 1, (2, 1), constants)
        assert doubled == pytest.approx(0.2 + 2 * 0.2)

    def test_single_site_closed_form(self, line):
        g = 4.0
        s_grid = [0.01 * g, 0.05 * g, 0.1 * g, 0.2 * g]
        report = evc_experiment(evc_setup(line, (0,), (40,), 0, g), 800, s_grid, seed=13)
        assert report.weakly_separable
        assert report.monotone()
        assert report.closed_form is not None
        for emp, exact, err in zip(
            report.empirical_cdf, report.closed_form, report.stderr
        ):
            assert abs(emp - exact) <= 3 * err + 1e-9

    def test_zero_width_has_zero_mass(self, line):
        report = evc_experiment(evc_setup(line, (0,), (40,), 0, 2.0), 200, [0.0], seed=1)
        assert report.empirical_cdf[0] == 0.0

    def test_separated_two_particle_pair(self, line):
        setup = evc_setup(line, (1, 0), (61, 60), 2, 10.0)
        report = evc_experiment(setup, 60, [0.02, 0.1, 0.4], seed=3)
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


def one_table(grid, values, weights):
    """Grid maxima of the propagators from one phase table over the whole grid."""
    angles = np.outer(grid, values)
    return np.max(np.hypot(np.cos(angles) @ weights, np.sin(angles) @ weights), axis=0)


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

    def test_row_blocks_match_one_table(self, line):
        _, es, pairs = self._case(line)
        rows = 2**17 // es.n
        grid = default_time_grid(3 * rows + 10)
        assert len(grid) % rows != 0
        # the whole grid's phase table at once
        ix = [es.ball.index[x] for x, _ in pairs]
        iy = [es.ball.index[y] for _, y in pairs]
        weights = (es.eigenvectors[ix] * es.eigenvectors[iy]).T
        assert visible_eigenvalues(weights).all()
        assert np.array_equal(propagator_sups(es, pairs, grid),
                              one_table(grid, es.eigenvalues, weights))

    def test_single_pair_wrapper_is_bitwise(self, line):
        _, es, pairs = self._case(line)
        grid = default_time_grid(300)
        for x, y in pairs:
            assert propagator_sup(es, x, y, grid) == propagator_sups(es, [(x, y)], grid)[0]


class TestPropagatorPruning:
    """The eigenvalues ``propagator_sups`` leaves out, on the eigensystem of
    trial 0 of the ``dynamics-r16`` benchmark config (seed 550001, g = 30,
    radius 16, n = 561) with the default pairs of ``dynamics`` and its
    2,001-point grid."""

    def _case(self, line):
        setup = replace(basic_setup(line, radius=16),
                        interaction=InteractionModel(kind="step", amplitude=1.0, range_=2))
        es = setup.context(derive_seed(550001, "trial", 0)).eigensystem(setup.center, 16)
        pairs = centre_pairs(es.ball)
        ix = [es.ball.index[x] for x, _ in pairs]
        iy = [es.ball.index[y] for _, y in pairs]
        return es, pairs, (es.eigenvectors[ix] * es.eigenvectors[iy]).T

    def test_each_pair_loses_at_most_its_share(self, line):
        es, pairs, weights = self._case(line)
        assert (es.n, len(pairs)) == (561, 17)
        visible = visible_eigenvalues(weights)
        assert visible.sum() < es.n
        for p in range(len(pairs)):
            column = np.abs(weights[:, p])
            q = math.fsum(column)
            # the running sums it was judged by round within n ulps of the total
            assert math.fsum(column[~visible]) <= 2.0**-53 * q * (1 + es.n * 2.0**-52)

    def test_within_the_dropped_weight_of_the_full_table(self, line):
        es, pairs, weights = self._case(line)
        grid = default_time_grid(2000)
        visible = visible_eigenvalues(weights)
        got = propagator_sups(es, pairs, grid)
        # bit for bit the one-table maxima over the visible eigenvalues ...
        assert np.array_equal(got, one_table(grid, es.eigenvalues[visible], weights[visible]))
        # ... and within 2^-53 q of those over all of them, plus rounding:
        # each of the four length-n dot products (cos and sin, both tables)
        # rounds by at most n 2^-53 q, and hypot by one ulp
        q = np.abs(weights).sum(axis=0)
        full = one_table(grid, es.eigenvalues, weights)
        assert np.all(np.abs(got - full) <= (1 + 4 * es.n + 2) * 2.0**-53 * q)

    def test_a_nan_weight_keeps_its_pair_nan(self, line):
        es, pairs, weights = self._case(line)
        # a row every pair spares, made NaN in the last pair's far member
        dropped = int(np.flatnonzero(~visible_eigenvalues(weights))[0])
        vectors = es.eigenvectors.copy()
        vectors[es.ball.index[pairs[-1][1]], dropped] = np.nan
        grid = default_time_grid(50)
        got = propagator_sups(EigenSystem(es.operator, es.eigenvalues, vectors), pairs, grid)
        assert np.isnan(got[-1])
        # that pair spares nothing, so nothing is dropped for the others
        assert np.array_equal(got[:-1], one_table(grid, es.eigenvalues, weights[:, :-1]))


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

    @pytest.mark.parametrize("power, edge", [(1.1, True), (2.0, False), (3.0, True)])
    def test_c_at_grid_edge(self, power, edge):
        """c = 1 lies inside the grid 0.1..2.0; data of c = 0.1 sit on its
        lower end, and data of c = 2 (log^3) pin c to its upper end."""
        pairs = [(r, math.exp(-math.log(r) ** power)) for r in range(2, 40)]
        fit = decay_fit(pairs)
        assert fit.c_at_grid_edge is edge
        assert fit.c == pytest.approx({1.1: 0.1, 2.0: 1.0, 3.0: 2.0}[power], abs=1e-9)
