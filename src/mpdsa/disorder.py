"""Seeded random fields on one-particle sites, and their statistics.

Every random value is a pure function of (master seed, site): sites are
keyed into independent counter-based substreams, so the value drawn at a
site never depends on which region was sampled or in which order.  Trials
derive their own 64-bit seeds by hashing (seed, trial index).  The value
at a site is the first draw of numpy's ``Generator(Philox(key=...))``
keyed on the site's digest; ``field_array`` computes the draws of many
seeds and sites at once, bit for bit, with a vectorized Philox4x64-10.

Two field kinds are provided: IID fields, and moving averages of an IID
base field with a finite kernel.  The moving average is strongly mixing
with exact independence beyond the kernel range, while its one-site
conditional distributions remain regular because the leading coefficient
dominates the rest of the kernel.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np


class MissingDataError(KeyError):
    """A required site is not covered by the field sample."""


# -- substreams ------------------------------------------------------------


def _encode(part) -> bytes:
    if isinstance(part, bool):
        raise TypeError("booleans are not valid key parts")
    if isinstance(part, (int, np.integer)):
        return b"i" + struct.pack(">q", int(part))
    if isinstance(part, str):
        raw = part.encode("utf8")
        return b"s" + struct.pack(">I", len(raw)) + raw
    if isinstance(part, (tuple, list)):
        return b"t" + struct.pack(">I", len(part)) + b"".join(
            _encode(p) for p in part
        )
    raise TypeError(f"cannot key substream on {type(part)!r}")


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(_encode(p))
    return h.digest()


def derive_seed(seed: int, *key) -> int:
    """Stable 63-bit sub-seed for (seed, key), e.g. per-trial seeds."""
    raw = _digest(seed, *key)
    return struct.unpack("<Q", raw[:8])[0] >> 1


def _site_keys(seeds, sites) -> np.ndarray:
    """Philox key of every (seed, site), seed-major, shape (seeds * sites, 2).

    The words are the two little-endian 64-bit words of the blake2b digest
    of (seed, "eps", site); the key is what numpy's ``int_to_array`` makes
    of them, ``np.asarray(words).astype(np.uint64)``.  A pair with exactly
    one word >= 2**63 becomes float64 there, which rounds both words; the
    same casts reproduce that rounding here.
    """
    encoded = [_encode(site) for site in sites]
    digests = bytearray(16 * len(seeds) * len(encoded))
    view, end = memoryview(digests), 0
    for seed in seeds:
        prefix = hashlib.blake2b(digest_size=16)
        prefix.update(_encode(seed))
        prefix.update(_encode("eps"))
        for raw in encoded:
            h = prefix.copy()
            h.update(raw)
            view[end : end + 16] = h.digest()
            end += 16
    keys = np.frombuffer(digests, dtype="<u8").astype(np.uint64, copy=False).reshape(-1, 2)
    mixed = (keys[:, 0] >> np.uint64(63)) != (keys[:, 1] >> np.uint64(63))
    keys[mixed] = keys[mixed].astype(np.float64).astype(np.uint64)
    return keys


# Philox4x64-10 (Salmon et al., SC'11) as numpy runs it, on columns: the
# multipliers and Weyl increments of words (0, 2) and of the key (0, 1)
_MULTIPLIERS = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_LANES = 4096  # keys per pass: a few hundred kB of temporaries
_MULTIPLIER_HALVES = (_MULTIPLIERS & _LOW32, _MULTIPLIERS >> _32)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products a * b, ``a`` given as its 32-bit
    halves (lo, hi)."""
    a_lo, a_hi = a
    b_lo, b_hi = b & _LOW32, b >> _32
    cross1, cross2 = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> _32) + (cross1 & _LOW32) + (cross2 & _LOW32)
    return a_hi * b_hi + (cross1 >> _32) + (cross2 >> _32) + (mid >> _32)


def _first_raw(keys: np.ndarray) -> np.ndarray:
    """First ``random_raw()`` of ``Philox(key=k)`` for each key row.

    A fresh generator increments its counter from 0 before the first block,
    so the output is word 0 of the ten rounds on the counter (1, 0, 0, 0).
    A round maps words (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)); on that counter the first round
    leaves (k0, 0, k1, M0).  ``x`` holds words (0, 2), ``y`` words (1, 3).
    """
    key = keys.T.copy()
    x, y = key.copy(), np.zeros_like(key)
    y[1] = _MULTIPLIERS[0]
    for _ in range(9):
        key += _WEYL
        x, y = _mulhi(_MULTIPLIER_HALVES, x)[::-1] ^ y ^ key, (_MULTIPLIERS * x)[::-1]
    return x[0]


def _reset_generator():
    """One Philox ``Generator`` and its state at counter 0, buffer empty."""
    bitgen = np.random.Philox(key=0)
    return bitgen, np.random.Generator(bitgen), bitgen.state


@cache
def _ziggurat() -> tuple:
    """(wi, bound): layer widths of numpy's ``standard_normal`` ziggurat and
    the fast-path bound per layer.

    The ziggurat reads one 64-bit word r: layer i = r & 0xff, sign = bit 8,
    rabs = the 52 bits above; it returns x = +-rabs * wi[i] when
    rabs < ki[i] and rejects otherwise.  numpy does not export wi or ki.
    With r = i | 1 << 9 in a Philox buffer, ``standard_normal`` returns
    wi[i] itself, so the widths are read exactly.  For layers 3 to 255,
    ki[i] is 2**52 wi[i-1] / wi[i] to within 0.5, so that value minus 2
    never exceeds it; layers 0 to 2 get bound 0 and always fall back.
    """
    bitgen, gen, state = _reset_generator()
    wi = np.zeros(256)
    for i in range(2, 256):
        state["buffer"] = np.array([i | 1 << 9, 0, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 0
        bitgen.state = state
        wi[i] = gen.standard_normal()
        if bitgen.state["buffer_pos"] != 1:
            raise RuntimeError(f"numpy's ziggurat rejected its own layer width {i}")
    bound = np.zeros(256)
    bound[3:] = 2.0**52 * wi[2:-1] / wi[3:] - 2.0
    return wi, bound


def _standard_normals(keys: np.ndarray) -> np.ndarray:
    """``standard_normal()`` of ``Generator(Philox(key=k))`` per key row,
    from one generator reset before each draw."""
    bitgen, gen, state = _reset_generator()
    out = np.empty(len(keys))
    for i, key in enumerate(keys):
        state["state"]["key"] = key
        bitgen.state = state
        out[i] = gen.standard_normal()
    return out


def _uniforms(keys: np.ndarray) -> np.ndarray:
    """``random()`` of ``Generator(Philox(key=k))`` per key row:
    ``(raw >> 11) * 2**-53``."""
    return (_first_raw(keys) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _normals(keys: np.ndarray) -> np.ndarray:
    """``standard_normal()`` of ``Generator(Philox(key=k))`` per key row:
    the ziggurat's first-word fast path wherever the bound accepts it, and
    a generator reset to its key for every other lane."""
    wi, bound = _ziggurat()
    raw = _first_raw(keys)
    layer = (raw & np.uint64(0xFF)).astype(np.intp)
    rabs = ((raw >> np.uint64(9)) & np.uint64(2**52 - 1)).astype(np.float64)
    values = rabs * wi[layer]
    np.negative(values, out=values, where=(raw & np.uint64(1 << 8)) != 0)
    slow = ~(rabs < bound[layer])
    values[slow] = _standard_normals(keys[slow])
    return values


def _eps(marginal: str, seeds, sites) -> np.ndarray:
    """Base variables eps, shape (seeds, sites): each the first draw of
    ``Generator(Philox(key=k))`` with its (seed, site) key, bit for bit,
    computed a few thousand lanes at a time."""
    seeds, sites = list(seeds), list(sites)
    keys = _site_keys(seeds, sites)
    draw = _uniforms if marginal == "uniform" else _normals
    values = np.empty(len(keys))
    for start in range(0, len(keys), _LANES):
        values[start : start + _LANES] = draw(keys[start : start + _LANES])
    return values.reshape(len(seeds), len(sites))


# -- models ----------------------------------------------------------------


@dataclass(frozen=True)
class MarginalProfile:
    """Regularity of a one-site distribution: increments <= C * s**kappa."""

    holder_exponent: float
    holder_constant: float


@dataclass(frozen=True)
class MixingProfile:
    """Dependence structure: exact independence beyond ``dependence_range``.

    ``rate_constant`` is the constant in the exp(-C log^2 L) correlation
    decay bound; infinity encodes exact independence at distance
    > dependence_range.
    """

    dependence_range: int
    rate_constant: float


@dataclass(frozen=True)
class FieldModel:
    """IID field, or moving average of an IID base field.

    ``marginal`` names the distribution of the base variables ("uniform"
    on [0,1] or standard "gaussian").  For the moving-average kind the
    value at x is sum_j kernel[j] * eps(x - j e1) with shifts along the
    first lattice axis; the leading coefficient must dominate the sum of
    the absolute remaining ones so that conditioning on the other sites
    leaves a regular one-site distribution.
    """

    kind: str = "iid"  # "iid" | "moving_average"
    marginal: str = "uniform"  # "uniform" | "gaussian"
    kernel: tuple = (1.0,)

    def __post_init__(self):
        if self.kind not in ("iid", "moving_average"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.marginal not in ("uniform", "gaussian"):
            raise ValueError(f"unknown marginal {self.marginal!r}")
        kernel = tuple(float(a) for a in self.kernel)
        object.__setattr__(self, "kernel", kernel)
        if not kernel:
            raise ValueError("kernel must be nonempty")
        if self.kind == "moving_average":
            if abs(kernel[0]) <= sum(abs(a) for a in kernel[1:]):
                raise ValueError(
                    "leading kernel coefficient must dominate the tail"
                )

    def marginal_profile(self) -> MarginalProfile:
        if self.marginal == "uniform":
            return MarginalProfile(1.0, 1.0)
        return MarginalProfile(1.0, 1.0 / math.sqrt(2.0 * math.pi))

    def mixing_profile(self) -> MixingProfile:
        if self.kind == "iid":
            return MixingProfile(0, math.inf)
        return MixingProfile(len(self.kernel) - 1, math.inf)

    def base_value(self, site, seed: int) -> float:
        """Base IID variable eps at a site (the field itself when IID)."""
        return float(_eps(self.marginal, [seed], [site])[0, 0])

    def value_at(self, site, seed: int) -> float:
        return float(field_array(self, [site], [seed])[0, 0])


def _shift(site, offset: int):
    if isinstance(site, (int, np.integer)):
        return int(site) + offset
    return (site[0] + offset,) + tuple(site[1:])


def field_array(model: FieldModel, region, seeds) -> np.ndarray:
    """Field values on the region, one row per seed: ``out[t, k]`` is the
    value at ``region[k]`` under ``seeds[t]``.

    Every value is bit for bit what per-site ``Generator(Philox(key=...))``
    draws give (``_eps``).  A moving average draws each base site once per
    seed and sums its taps in kernel order.
    """
    region, seeds = list(region), list(seeds)
    taps = 1 if model.kind == "iid" else len(model.kernel)
    shifted = [[_shift(site, -j) for site in region] for j in range(taps)]
    base = list(dict.fromkeys(s for row in shifted for s in row))
    eps = _eps(model.marginal, seeds, base)
    index = {s: k for k, s in enumerate(base)}
    columns = [[index[s] for s in row] for row in shifted]
    if model.kind == "iid":
        return eps[:, columns[0]]
    values = np.zeros((len(seeds), len(region)))
    for a, cols in zip(model.kernel, columns):
        values += a * eps[:, cols]
    return values


# -- samples ---------------------------------------------------------------


@dataclass(frozen=True)
class FieldSample:
    """Realized values on a finite region; reproducible from (model, seed)."""

    model: FieldModel
    seed: int
    values: dict = field(compare=False)

    @cached_property
    def region(self) -> frozenset:
        return frozenset(self.values)

    def __getitem__(self, site) -> float:
        try:
            return self.values[site]
        except KeyError:
            raise MissingDataError(f"site {site!r} not in sampled region")


def sample_field(model: FieldModel, region, seed: int) -> FieldSample:
    """Sample the field on a finite region of one-particle sites: one row
    of ``field_array``."""
    return next(field_samples(model, region, [seed]))


def field_samples(model: FieldModel, region, seeds):
    """``sample_field`` of each seed in turn, all drawn in one
    ``field_array`` call."""
    sites, seeds = list(dict.fromkeys(region)), list(seeds)
    for seed, row in zip(seeds, field_array(model, sites, seeds)):
        yield FieldSample(model, seed, dict(zip(sites, row.tolist())))


def potential_energy(x, sample: FieldSample) -> float:
    """Total one-particle potential of a configuration, with multiplicity."""
    total = 0.0
    for site in x:
        total += sample[site]
    return total


# -- sample-mean / fluctuation decomposition --------------------------------


@dataclass(frozen=True)
class MeanFluctuation:
    """Exact split V(x) = xi + eta_x over a box, with sum(eta) = 0."""

    box: tuple
    xi: float
    eta: dict

    def reassemble(self, site) -> float:
        return self.xi + self.eta[site]


def mean_fluct_decompose(sample: FieldSample, box) -> MeanFluctuation:
    box = tuple(box)
    if not box:
        raise ValueError("box must be nonempty")
    vals = [sample[s] for s in box]
    xi = float(np.mean(vals))
    eta = {s: v - xi for s, v in zip(box, vals)}
    return MeanFluctuation(box, xi, eta)


# -- empirical diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class CovarianceEstimate:
    covariance: float
    stderr: float
    trials: int


def empirical_mixing(
    model: FieldModel, x, y, trials: int, seed: int = 0
) -> CovarianceEstimate:
    """Sample covariance of V(x), V(y) over independent field draws."""
    if trials < 100:
        raise ValueError("need at least 100 trials")
    seeds = [derive_seed(seed, "mixing", t) for t in range(trials)]
    vx, vy = field_array(model, (x, y), seeds).T
    cx = vx - vx.mean()
    cy = vy - vy.mean()
    prod = cx * cy
    cov = float(prod.mean())
    stderr = float(prod.std(ddof=1) / math.sqrt(trials))
    return CovarianceEstimate(cov, stderr, trials)


def _max_window_fraction(sorted_vals: np.ndarray, width: float) -> float:
    """Largest fraction of points in any half-open interval of given width."""
    n = len(sorted_vals)
    if n == 0:
        return 0.0
    counts = np.searchsorted(sorted_vals, sorted_vals + width, side="right")
    return float(np.max(counts - np.arange(n)) / n)


def _best_window_anchor(sorted_vals: np.ndarray, width: float) -> float:
    """Left end of the fullest interval of the given width."""
    counts = np.searchsorted(sorted_vals, sorted_vals + width, side="right")
    return float(sorted_vals[int(np.argmax(counts - np.arange(len(sorted_vals))))])


def _split_window_estimate(values: np.ndarray, width: float) -> tuple:
    """Debiased concentration estimate via sample splitting.

    The fullest window is located on the first half of the trials and its
    probability is estimated on the second half; this removes the upward
    scan bias of the plain sliding maximum, at the price of a factor-two
    loss of trials in the variance.  Returns (estimate, stderr, scan).
    """
    n = len(values)
    half = n // 2
    first = np.sort(values[:half])
    second = values[half:]
    anchor = _best_window_anchor(first, width)
    hits = np.count_nonzero((second >= anchor) & (second <= anchor + width))
    est = hits / len(second)
    stderr = math.sqrt(max(est * (1 - est), 1e-12) / len(second))
    scan = _max_window_fraction(np.sort(values), width)
    return est, stderr, scan


def empirical_marginal_regularity(
    model: FieldModel, s_values, trials: int, seed: int = 0
) -> list:
    """Concentration of the one-site marginal per window width s.

    Rows are (s, debiased estimate, stderr, scan maximum); the debiased
    column is the one to compare against C * s**kappa.
    """
    seeds = [derive_seed(seed, "marginal", t) for t in range(trials)]
    draws = field_array(model, (0,), seeds)[:, 0]
    out = []
    for s in s_values:
        est, stderr, scan = _split_window_estimate(draws, float(s))
        out.append((float(s), est, stderr, scan))
    return out


@dataclass(frozen=True)
class NuEstimate:
    """Monte Carlo view of the conditional concentration of the box mean.

    ``estimate`` is the pooled concentration of the box mean over all
    trials, debiased by sample splitting (exact for models whose box mean
    is independent of the fluctuations); ``scan_estimate`` is the plain
    sliding maximum.  ``per_bin`` holds the conditional scan estimates
    from nearest-neighbour fluctuation bins and ``exceedance_frequency``
    the trial-weighted frequency of bins whose conditional concentration
    reaches ``threshold_value``.
    """

    s: float
    box_diam: int
    trials: int
    n_bins: int
    estimate: float
    stderr: float
    scan_estimate: float
    per_bin: tuple
    threshold_value: float
    exceedance_frequency: float
    bound_value: float


def empirical_nu(
    model: FieldModel,
    box,
    s: float,
    trials: int,
    seed: int = 0,
    constants: dict | None = None,
) -> NuEstimate:
    """Estimate the concentration of the box sample mean given fluctuations.

    Trials are grouped by nearest-neighbour binning of their fluctuation
    vectors (ceil(trials**(1/3)) bins, strided deterministic centers); the
    conditional concentration is estimated inside each bin and compared
    against C' * R**A' * s**b'.  The pooled estimate over all trials is
    exact for models whose box mean is independent of the fluctuations
    (IID uniform on a single site, Gaussian boxes).
    """
    if not 0.0 < s:
        raise ValueError("s must be positive")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    box = tuple(box)
    cst = {"C1": 1.0, "A1": 0.0, "b1": 1.0, "C2": 1.0, "A2": 0.0, "b2": 1.0}
    if constants:
        cst.update(constants)

    vals = field_array(model, box, [derive_seed(seed, "nu", t) for t in range(trials)])
    xi = vals.mean(axis=1)
    eta = vals - xi[:, None]

    n_bins = max(1, math.ceil(trials ** (1.0 / 3.0)))
    centers = eta[:: max(1, trials // n_bins)][:n_bins]
    d2 = ((eta[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assignment = np.argmin(d2, axis=1)

    diam = _box_diameter(box)
    threshold = cst["C1"] * max(diam, 1) ** cst["A1"] * s ** cst["b1"]
    bound = cst["C2"] * max(diam, 1) ** cst["A2"] * s ** cst["b2"]

    per_bin = []
    exceed_weight = 0
    for b in range(n_bins):
        vals = np.sort(xi[assignment == b])
        if len(vals) == 0:
            continue
        nu_b = _max_window_fraction(vals, s)
        per_bin.append((int(len(vals)), nu_b))
        if nu_b >= threshold:
            exceed_weight += len(vals)

    pooled, stderr, scan = _split_window_estimate(xi, s)
    return NuEstimate(
        s=float(s),
        box_diam=diam,
        trials=trials,
        n_bins=len(per_bin),
        estimate=pooled,
        stderr=stderr,
        scan_estimate=scan,
        per_bin=tuple(per_bin),
        threshold_value=threshold,
        exceedance_frequency=exceed_weight / trials,
        bound_value=bound,
    )


def _box_diameter(box) -> int:
    pts = [(p,) if isinstance(p, (int, np.integer)) else tuple(p) for p in box]
    d = len(pts[0])
    return max(
        (max(p[a] for p in pts) - min(p[a] for p in pts)) for a in range(d)
    )
