import functools
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from mpdsa.disorder import (
    FieldModel,
    FieldSample,
    MissingDataError,
    derive_seed,
    empirical_marginal_regularity,
    empirical_mixing,
    empirical_nu,
    field_array,
    field_samples,
    mean_fluct_decompose,
    potential_energy,
    sample_field,
    _digest,
    _first_raw,
    _ziggurat,
)
import mpdsa.disorder as disorder


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


def reference_words(site, seed) -> tuple:
    return struct.unpack("<2Q", _digest(seed, "eps", site))


@functools.cache
def reference_eps(marginal, site, seed) -> float:
    """eps drawn from a generator built for the one site: the reference the
    reused, reset generator must match bit for bit."""
    gen = np.random.Generator(np.random.Philox(key=reference_words(site, seed)))
    return gen.random() if marginal == "uniform" else gen.standard_normal()


def reference_value(model, site, seed) -> float:
    if model.kind == "iid":
        return reference_eps(model.marginal, site, seed)
    total = 0.0
    for j, a in enumerate(model.kernel):
        shifted = site - j if isinstance(site, int) else (site[0] - j,) + site[1:]
        total += a * reference_eps(model.marginal, shifted, seed)
    return total


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


MODELS = [
    FieldModel(kind=kind, marginal=marginal, kernel=kernel)
    for kind, kernel in (("iid", (1.0,)), ("moving_average", (1.0, 0.3, -0.25)))
    for marginal in ("uniform", "gaussian")
]


class TestSamplerOracle:
    """``sample_field`` and the model's one-site draws against one
    generator per site."""

    def test_sample_field_bit_for_bit(self):
        regions = [list(range(-9, 9)), [(a, b) for a in range(-2, 2) for b in range(-2, 3)]]
        pairs = 0
        one_high_word = 0
        for model in MODELS:
            for seed in range(36):
                for region in regions:
                    sample = sample_field(model, region, seed)
                    assert list(sample.values) == region
                    expected = [reference_value(model, site, seed) for site in region]
                    assert bits(list(sample.values.values())) == bits(expected)
                    pairs += len(region)
                    one_high_word += sum(
                        (w0 >= 2**63) != (w1 >= 2**63)
                        for w0, w1 in (reference_words(site, seed) for site in region)
                    )
        assert pairs >= 5000
        # numpy rounds such keys through float64; the sampler must too
        assert one_high_word >= 1000

    def test_rounded_key_case(self):
        # a site whose digest has exactly one word >= 2**63
        site = next(
            s for s in range(100) if sum(w >= 2**63 for w in reference_words(s, 3)) == 1
        )
        for marginal in ("uniform", "gaussian"):
            model = FieldModel(marginal=marginal)
            drawn = sample_field(model, [site], 3)[site]
            assert bits([drawn]) == bits([reference_eps(marginal, site, 3)])

    def test_base_value_and_value_at(self):
        for model in MODELS:
            for seed in range(5):
                for site in (0, 4, (1, -2)):
                    expected = reference_value(model, site, seed)
                    assert bits([model.value_at(site, seed)]) == bits([expected])
                    expected = reference_eps(model.marginal, site, seed)
                    assert bits([model.base_value(site, seed)]) == bits([expected])

    def test_generator_region_and_repeated_sites(self):
        model = MODELS[3]
        sample = sample_field(model, (s for s in (2, 5, 2)), 8)
        assert list(sample.values) == [2, 5]
        assert bits([sample[2], sample[5]]) == bits([reference_value(model, s, 8) for s in (2, 5)])

    def test_mixing_diagnostic_unchanged(self):
        model = MODELS[3]
        est = empirical_mixing(model, 0, 1, trials=100, seed=6)
        vx = np.array([reference_value(model, 0, derive_seed(6, "mixing", t)) for t in range(100)])
        vy = np.array([reference_value(model, 1, derive_seed(6, "mixing", t)) for t in range(100)])
        prod = (vx - vx.mean()) * (vy - vy.mean())
        assert est.covariance == float(prod.mean())


class TestBulkSampler:
    """``field_array``: the vectorized Philox, the ziggurat fast path and
    its fallback, against one generator per (seed, site)."""

    def test_philox_kernel_against_random_raw(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**64, size=(3000, 2), dtype=np.uint64)
        keys[:8] = [[0, 0], [2**64 - 1, 2**64 - 1], [1, 0], [0, 1], [2**63, 0], [0, 2**63],
                    [2**64 - 1, 0], [0, 2**64 - 1]]
        expected = [np.random.Philox(key=k).random_raw() for k in keys]
        assert _first_raw(keys).tolist() == expected

    def test_field_array_bit_for_bit(self, monkeypatch):
        fallback_lanes = []
        fallback = disorder._standard_normals

        def counting(keys):
            fallback_lanes.append(len(keys))
            return fallback(keys)

        monkeypatch.setattr(disorder, "_standard_normals", counting)
        regions = [list(range(-9, 9)), [(a, b) for a in range(-2, 2) for b in range(-2, 3)]]
        # trial seeds of 63 bits, as sweeps derive them, and small ones
        seeds = [derive_seed(17, "oracle", t) for t in range(100)] + list(range(32))
        pairs = one_high_word = 0
        for model in MODELS:
            for region in regions:
                drawn = field_array(model, region, seeds)
                assert drawn.shape == (len(seeds), len(region))
                for seed, row in zip(seeds, drawn):
                    assert bits(row) == bits([reference_value(model, s, seed) for s in region])
                    one_high_word += sum(
                        (w0 >= 2**63) != (w1 >= 2**63)
                        for w0, w1 in (reference_words(s, seed) for s in region)
                    )
                pairs += drawn.size
        assert pairs >= 20_000
        # numpy rounds such keys through float64; the sampler must too
        assert one_high_word >= 3000
        # lanes the ziggurat fast path cannot take: a few percent
        assert 0 < sum(fallback_lanes) < 0.05 * pairs

    def test_samples_are_rows(self):
        model = MODELS[3]
        region = [(1, 0), (0, 0), (-3, 2), (0, 0)]
        rows = field_array(model, region[:3], [8, 9])
        for seed, row, sample in zip((8, 9), rows, field_samples(model, region, [8, 9])):
            assert (sample.seed, list(sample.values)) == (seed, region[:3])
            assert all(type(v) is float for v in sample.values.values())
            assert bits(list(sample.values.values())) == bits(row)
            assert sample_field(model, region, seed) == sample
            assert sample_field(model, region, seed).values == sample.values

    def test_empty_region_and_no_seeds(self):
        assert field_array(MODELS[1], [], [1, 2]).shape == (2, 0)
        assert field_array(MODELS[3], [0, 1], []).shape == (0, 2)

    @staticmethod
    def _numpy_accepts(probe, layer: int, rabs: int) -> bool:
        """Whether numpy's standard_normal returns on its first word
        r = layer | rabs << 9 (sign bit 0) and draws nothing more."""
        bitgen, gen, state = probe
        state["buffer"] = np.array([layer | rabs << 9, 0, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 0
        bitgen.state = state
        gen.standard_normal()
        after = bitgen.state
        return after["buffer_pos"] == 1 and not after["state"]["counter"].any()

    def test_fast_path_bound_never_exceeds_numpys_threshold(self):
        bitgen = np.random.Philox(key=0)
        probe = bitgen, np.random.Generator(bitgen), bitgen.state
        _, bound = _ziggurat()
        for layer in range(256):
            # smallest rabs numpy rejects, 2**52 when it takes every one
            lo, hi = 0, 2**52
            while lo < hi:
                mid = (lo + hi) // 2
                if self._numpy_accepts(probe, layer, mid):
                    lo = mid + 1
                else:
                    hi = mid
            assert bound[layer] <= lo
            if layer >= 3:
                assert lo - bound[layer] <= 3
            else:
                assert bound[layer] == 0.0

    def test_tables_are_read_at_the_first_gaussian_draw(self):
        script = (
            "from mpdsa.disorder import FieldModel, sample_field, _ziggurat\n"
            "assert _ziggurat.cache_info().currsize == 0\n"
            "sample_field(FieldModel(), [0], 1)\n"
            "assert _ziggurat.cache_info().currsize == 0\n"
            "sample_field(FieldModel(marginal='gaussian'), [0], 1)\n"
            "assert _ziggurat.cache_info().currsize == 1\n"
        )
        src = os.path.dirname(os.path.dirname(disorder.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
