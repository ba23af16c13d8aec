"""Seeded random fields on one-particle sites, and their statistics.

Every random value is a pure function of (master seed, site): sites are
keyed into independent counter-based substreams, so the value drawn at a
site never depends on which region was sampled or in which order.  Trials
derive their own 64-bit seeds by hashing (seed, trial index).

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
from functools import cached_property

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
        return _SiteStream().eps_values(self.marginal, [site], seed)[site]

    def value_at(self, site, seed: int) -> float:
        return _SiteStream().field_values(self, [site], seed)[site]


def _shift(site, offset: int):
    if isinstance(site, (int, np.integer)):
        return int(site) + offset
    return (site[0] + offset,) + tuple(site[1:])


class _SiteStream:
    """One Philox generator, reset before each draw to a site's substream.

    The base variable eps at a site is the first draw of
    ``Generator(Philox(key=words))``, ``words`` being the two little-endian
    64-bit words of the blake2b digest of (seed, "eps", site).  Rather
    than build a Philox per site, the stream sets its state to what that
    constructor makes: counter 0, an empty buffer, and the key numpy's
    ``int_to_array`` makes of ``words``, ``np.asarray(words)`` cast to
    uint64.  A pair with exactly one word >= 2**63 becomes float64 there,
    which rounds both words; the cast reproduces that rounding, so every
    value is bit for bit what the per-site constructor gives.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        # counter 0 and an empty buffer; only the key changes per site
        self._state = self._bitgen.state

    def eps_values(self, marginal: str, sites, seed: int) -> dict:
        """eps at each distinct site for the seed, in first-seen order."""
        prefix = hashlib.blake2b(digest_size=16)
        prefix.update(_encode(seed))
        prefix.update(_encode("eps"))
        draw = self._gen.random if marginal == "uniform" else self._gen.standard_normal
        state = self._state
        out = {}
        for site in sites:
            if site in out:
                continue
            h = prefix.copy()
            h.update(_encode(site))
            words = struct.unpack("<2Q", h.digest())
            state["state"]["key"] = np.asarray(words).astype(np.uint64)
            self._bitgen.state = state
            out[site] = float(draw())
        return out

    def field_values(self, model: "FieldModel", region, seed: int) -> dict:
        """Field values on the region; a moving average draws each base
        site once, however many taps share it."""
        if model.kind == "iid":
            return self.eps_values(model.marginal, region, seed)
        region = list(region)
        taps = [[_shift(site, -j) for j in range(len(model.kernel))] for site in region]
        eps = self.eps_values(model.marginal, (s for row in taps for s in row), seed)
        values = {}
        for site, row in zip(region, taps):
            total = 0.0
            for a, s in zip(model.kernel, row):
                total += a * eps[s]
            values[site] = total
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

    def covers(self, sites) -> bool:
        return all(s in self.values for s in sites)


def sample_field(model: FieldModel, region, seed: int) -> FieldSample:
    """Sample the field on a finite region of one-particle sites."""
    return FieldSample(model, seed, _SiteStream().field_values(model, region, seed))


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
    vx = np.empty(trials)
    vy = np.empty(trials)
    stream = _SiteStream()
    for t in range(trials):
        values = stream.field_values(model, (x, y), derive_seed(seed, "mixing", t))
        vx[t] = values[x]
        vy[t] = values[y]
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
    draws = np.empty(trials)
    stream = _SiteStream()
    for t in range(trials):
        draws[t] = stream.field_values(model, (0,), derive_seed(seed, "marginal", t))[0]
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

    xi = np.empty(trials)
    eta = np.empty((trials, len(box)))
    stream = _SiteStream()
    for t in range(trials):
        values = stream.field_values(model, box, derive_seed(seed, "nu", t))
        vals = np.array([values[site] for site in box])
        xi[t] = vals.mean()
        eta[t] = vals - xi[t]

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
