import math

import pytest

from mpdsa.disorder import (
    FieldModel,
    FieldSample,
    MissingDataError,
    derive_seed,
    empirical_marginal_regularity,
    empirical_mixing,
    empirical_nu,
    mean_fluct_decompose,
    potential_energy,
    sample_field,
)


def gauss_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestSampling:
    def test_uniform_range(self):
        model = FieldModel(kind="iid", marginal="uniform")
        sample = sample_field(model, range(-20, 20), seed=3)
        assert all(0.0 <= v <= 1.0 for v in sample.values.values())

    def test_determinism(self):
        model = FieldModel(kind="iid", marginal="gaussian")
        a = sample_field(model, range(10), seed=99)
        b = sample_field(model, range(10), seed=99)
        assert a.values == b.values

    def test_region_shape_independence(self):
        model = FieldModel(kind="iid", marginal="uniform")
        small = sample_field(model, [0, 1, 2], seed=5)
        large = sample_field(model, range(-50, 50), seed=5)
        for site in (0, 1, 2):
            assert small[site] == large[site]

    def test_moving_average_recomposition(self):
        kernel = (1.0, 0.25, 0.25)
        model = FieldModel(kind="moving_average", marginal="gaussian", kernel=kernel)
        seed = 17
        sample = sample_field(model, [7], seed)
        expected = sum(
            a * model.base_value(7 - j, seed) for j, a in enumerate(kernel)
        )
        assert sample[7] == pytest.approx(expected, abs=0.0)

    def test_kernel_domination_enforced(self):
        with pytest.raises(ValueError):
            FieldModel(kind="moving_average", kernel=(1.0, 0.6, 0.5))

    def test_empty_region(self):
        model = FieldModel()
        sample = sample_field(model, [], seed=0)
        assert sample.values == {}

    def test_distinct_seeds_differ(self):
        model = FieldModel()
        a = sample_field(model, range(32), seed=1)
        b = sample_field(model, range(32), seed=2)
        assert a.values != b.values


class TestPotentialEnergy:
    def test_two_particles(self):
        sample = FieldSample(FieldModel(), 0, {0: 0.2, 1: 0.5})
        assert potential_energy((1, 0), sample) == pytest.approx(0.7)

    def test_zero_field(self):
        sample = FieldSample(FieldModel(), 0, {0: 0.0, 3: 0.0})
        assert potential_energy((3, 0), sample) == 0.0

    def test_double_occupation_counts_twice(self):
        # ordered triple of distinguishable particles, one site used twice
        sample = FieldSample(FieldModel(), 0, {4: 0.3, 9: 0.1})
        assert potential_energy((4, 4, 9), sample) == pytest.approx(0.7)

    def test_missing_site(self):
        sample = FieldSample(FieldModel(), 0, {0: 0.2})
        with pytest.raises(MissingDataError):
            potential_energy((1, 0), sample)


class TestMixing:
    def test_iid_sites_uncorrelated(self):
        model = FieldModel(kind="iid", marginal="uniform")
        est = empirical_mixing(model, 0, 5, trials=40_000, seed=2)
        assert abs(est.covariance) < 3 * est.stderr

    def test_uniform_variance(self):
        model = FieldModel(kind="iid", marginal="uniform")
        est = empirical_mixing(model, 3, 3, trials=40_000, seed=4)
        assert abs(est.covariance - 1.0 / 12.0) < 3 * est.stderr

    def test_moving_average_beyond_range(self):
        model = FieldModel(
            kind="moving_average", marginal="gaussian", kernel=(1.0, 0.25, 0.2)
        )
        assert model.mixing_profile().dependence_range == 2
        est = empirical_mixing(model, 0, 3, trials=40_000, seed=6)
        assert abs(est.covariance) < 3 * est.stderr

    def test_moving_average_within_range_correlates(self):
        model = FieldModel(
            kind="moving_average", marginal="gaussian", kernel=(1.0, 0.4)
        )
        est = empirical_mixing(model, 0, 1, trials=40_000, seed=7)
        # true covariance a0*a1 = 0.4
        assert est.covariance > 0.3

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            empirical_mixing(FieldModel(), 0, 1, trials=10)


class TestMarginalRegularity:
    def test_uniform_increments(self):
        model = FieldModel(kind="iid", marginal="uniform")
        profile = model.marginal_profile()
        assert profile.holder_exponent == 1.0 and profile.holder_constant == 1.0
        rows = empirical_marginal_regularity(model, [0.05, 0.1, 0.3], 30_000, seed=1)
        for s, frac, stderr, scan in rows:
            assert frac <= profile.holder_constant * s + 3 * stderr
            assert scan >= frac - 3 * stderr

    def test_gaussian_increments(self):
        model = FieldModel(kind="iid", marginal="gaussian")
        profile = model.marginal_profile()
        assert profile.holder_constant == pytest.approx(1 / math.sqrt(2 * math.pi))
        rows = empirical_marginal_regularity(model, [0.1, 0.2], 30_000, seed=2)
        for s, frac, stderr, scan in rows:
            assert frac <= profile.holder_constant * s + 3 * stderr


class TestMeanFluctuation:
    def test_constant_field(self):
        sample = FieldSample(FieldModel(), 0, {i: 0.7 for i in range(5)})
        dec = mean_fluct_decompose(sample, range(5))
        assert dec.xi == pytest.approx(0.7)
        assert all(abs(v) < 1e-15 for v in dec.eta.values())

    def test_two_site_example(self):
        sample = FieldSample(FieldModel(), 0, {0: 0.2, 1: 0.6})
        dec = mean_fluct_decompose(sample, [0, 1])
        assert dec.xi == pytest.approx(0.4)
        assert dec.eta[0] == pytest.approx(-0.2)
        assert dec.eta[1] == pytest.approx(0.2)

    def test_single_site(self):
        sample = FieldSample(FieldModel(), 0, {4: 0.9})
        dec = mean_fluct_decompose(sample, [4])
        assert dec.xi == 0.9 and dec.eta[4] == 0.0

    def test_exact_bijection(self):
        model = FieldModel(kind="iid", marginal="gaussian")
        sample = sample_field(model, range(9), seed=13)
        dec = mean_fluct_decompose(sample, range(9))
        assert abs(sum(dec.eta.values())) < 1e-12
        for site in range(9):
            assert abs(dec.reassemble(site) - sample[site]) < 1e-12

    def test_outside_region(self):
        sample = FieldSample(FieldModel(), 0, {0: 0.5})
        with pytest.raises(MissingDataError):
            mean_fluct_decompose(sample, [0, 1])


class TestConcentration:
    def test_single_site_uniform_matches_width(self):
        model = FieldModel(kind="iid", marginal="uniform")
        est = empirical_nu(model, [0], s=0.1, trials=6000, seed=3)
        assert abs(est.estimate - 0.1) <= 3 * est.stderr

    def test_full_width(self):
        model = FieldModel(kind="iid", marginal="uniform")
        est = empirical_nu(model, [0], s=1.0, trials=1500, seed=4)
        # the anchored window can clip a handful of held-out samples
        assert est.estimate >= 1.0 - 5.0 / est.trials
        assert est.scan_estimate == pytest.approx(1.0)

    def test_gaussian_box_closed_form(self):
        # box mean of 9 standard gaussians: N(0, 1/9), independent of the
        # fluctuations, so the concentration is the centered CDF increment
        model = FieldModel(kind="iid", marginal="gaussian")
        s = 0.3
        est = empirical_nu(model, range(9), s=s, trials=6000, seed=5)
        exact = gauss_cdf(s / 2 / (1.0 / 3.0)) - gauss_cdf(-s / 2 / (1.0 / 3.0))
        assert abs(est.estimate - exact) <= 3 * est.stderr

    def test_reports_exceedance_against_supplied_constants(self):
        model = FieldModel(kind="iid", marginal="uniform")
        constants = {"C1": 1.0, "A1": 0.0, "b1": 1.0, "C2": 1.0, "A2": 0.0, "b2": 1.0}
        est = empirical_nu(model, [0], s=0.2, trials=2000, seed=6, constants=constants)
        assert 0.0 <= est.exceedance_frequency <= 1.0
        assert est.threshold_value == pytest.approx(0.2)
        assert est.bound_value == pytest.approx(0.2)
        assert est.n_bins >= 1

    def test_seed_derivation_stable(self):
        assert derive_seed(5, "trial", 3) == derive_seed(5, "trial", 3)
        assert derive_seed(5, "trial", 3) != derive_seed(5, "trial", 4)
        assert derive_seed(5, "a") != derive_seed(6, "a")
