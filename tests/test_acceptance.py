"""Acceptance battery: one test per release criterion, one printed line each.

Run with plain pytest; the PASS/FAIL lines bypass output capture so the
battery always leaves a visible scorecard.  Time budgets are asserted
where the criterion fixes one.
"""

import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mpdsa.cli import main as cli_main
from mpdsa.configspace import (
    Ball,
    LatticeGeometry,
    config_distance,
    edge_boundary,
    enumerate_ball,
    merge_configs,
)
from mpdsa.disorder import FieldModel, derive_seed, sample_field
from mpdsa.experiments import (
    TrialSetup,
    default_time_grid,
    dynamics_trials,
    estimate_event_probability,
    evc_experiment,
    trial_seeds,
)
from mpdsa.msa import (
    AuditContext,
    ScalingParams,
    is_EmNS,
    verify_implications,
    verify_longrange_split,
)
from mpdsa.operators import (
    HamiltonianSpec,
    InteractionModel,
    assemble_hamiltonian,
    epsilon_bound,
    interaction_defect,
)
from mpdsa.spectral import (
    diagonalize,
    eigenvector_noise_floors,
    radial_descent_bound,
    subharmonic_check,
    verify_gri,
    verify_gri_eigenfunction,
)

LINE = LatticeGeometry(kind="lattice", d=1)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip(), file=sys.__stdout__)
    sys.__stdout__.flush()


class TestSectorEquivalence:
    def test_antisymmetric_projection_spectrum(self):
        start = time.monotonic()
        sites = list(range(8))
        pairs = [(a, b) for a in sites for b in sites]
        index = {p: i for i, p in enumerate(pairs)}
        # truncation of the full-space operator: constant diagonal 2Nd,
        # hopping -1 between box neighbours
        h_full = np.zeros((64, 64))
        for (a, b), i in index.items():
            h_full[i, i] = 4.0
            for a2, b2 in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                j = index.get((a2, b2))
                if j is not None:
                    h_full[i, j] = -1.0
        members = tuple(sorted((a, b) for a in sites for b in sites if a > b))
        basis = np.zeros((64, len(members)))
        for k, (a, b) in enumerate(members):
            basis[index[(a, b)], k] = 1.0 / math.sqrt(2.0)
            basis[index[(b, a)], k] = -1.0 / math.sqrt(2.0)
        projected = basis.T @ h_full @ basis
        spectrum_full = np.linalg.eigvalsh(projected)

        from mpdsa.operators import laplacian_matrix

        ball = Ball(LINE, (4, 3), 7, members, "max")
        sector = laplacian_matrix(ball, "fixed")
        spectrum_sector = np.linalg.eigvalsh(sector.matrix)
        discrepancy = float(np.max(np.abs(spectrum_full - spectrum_sector)))
        elapsed = time.monotonic() - start
        ok = discrepancy < 1e-9 and elapsed < 1.0
        report(
            "01 fermionic-sector-equivalence",
            ok,
            f"(max eigenvalue gap {discrepancy:.2e}, {elapsed:.2f}s)",
        )
        assert discrepancy < 1e-9
        assert elapsed < 1.0


class TestKroneckerSumLaw:
    def test_split_ball_spectra(self):
        start = time.monotonic()
        rng = np.random.default_rng(20240811)
        worst = 0.0
        for case in range(50):
            n = 2 if case % 2 == 0 else 3
            n1 = 1 if n == 2 else int(rng.integers(1, 3))
            n2 = n - n1
            radius = int(rng.integers(1, 4))
            r0 = int(rng.integers(1, 3))
            interaction = InteractionModel(kind="step", amplitude=1.5, range_=r0)

            def group(size, origin):
                sites = sorted(rng.choice(5, size=size, replace=False))
                return tuple(int(s) + origin for s in sites)

            part2 = group(n2, 0)
            sep = max(2 * radius + r0, 4 * n * radius) + 1 + int(rng.integers(0, 6))
            part1 = group(n1, max(part2) + sep + 4)
            joint_center = merge_configs(part1, part2, LINE)
            ball = enumerate_ball(joint_center, radius, LINE)
            region = ball.projection
            sample = sample_field(FieldModel(), region, derive_seed(7, "kron", case))

            def spec_for(count):
                return HamiltonianSpec(
                    geometry=LINE,
                    n_particles=count,
                    coupling=8.0,
                    interaction=interaction,
                    convention="fixed",
                )

            dense = diagonalize(assemble_hamiltonian(spec_for(n), ball, sample))
            e1 = np.linalg.eigvalsh(
                assemble_hamiltonian(
                    spec_for(n1), enumerate_ball(part1, radius, LINE), sample
                ).matrix
            )
            e2 = np.linalg.eigvalsh(
                assemble_hamiltonian(
                    spec_for(n2), enumerate_ball(part2, radius, LINE), sample
                ).matrix
            )
            sums = np.sort((e1[:, None] + e2[None, :]).ravel())
            assert len(sums) == dense.n
            worst = max(worst, float(np.max(np.abs(sums - dense.eigenvalues))))
        elapsed = time.monotonic() - start
        ok = worst < 1e-10 and elapsed < 30.0
        report(
            "02 tensor-sum-spectra",
            ok,
            f"(50 split balls, worst discrepancy {worst:.2e}, {elapsed:.1f}s)",
        )
        assert worst < 1e-10
        assert elapsed < 30.0


class TestResolventPatchAudit:
    def test_two_hundred_instances(self):
        start = time.monotonic()
        rng = np.random.default_rng(31)
        big_radius, small_radius = 8, 2
        checked_green = checked_ef = violations = 0
        seed_base = 909
        instance = 0
        while checked_green < 200:
            coupling = 3.0 if instance % 2 == 0 else 30.0
            ball = enumerate_ball((1, 0), big_radius, LINE)
            spec = HamiltonianSpec(
                geometry=LINE,
                n_particles=2,
                coupling=coupling,
                interaction=InteractionModel(kind="step", amplitude=1.0, range_=1),
                convention="fixed",
            )
            sample = sample_field(
                FieldModel(), ball.projection, derive_seed(seed_base, "gri", instance)
            )
            instance += 1
            es_big = diagonalize(assemble_hamiltonian(spec, ball, sample))
            centers = [
                c
                for c in ball.members
                if config_distance(ball.center, c, LINE) <= big_radius - small_radius
            ]
            x = centers[int(rng.integers(0, len(centers)))]
            small = enumerate_ball(x, small_radius, LINE)
            es_small = diagonalize(assemble_hamiltonian(spec, small, sample))
            outside = [c for c in ball.members if not small.contains(c)]
            y = outside[int(rng.integers(0, len(outside)))]
            energy = None
            lo = float(es_big.eigenvalues[0]) - 1.0
            hi = float(es_big.eigenvalues[-1]) + 1.0
            for _ in range(20):
                candidate = float(rng.uniform(lo, hi))
                if (
                    es_big.spectral_distance(candidate) > 1e-8
                    and es_small.spectral_distance(candidate) > 1e-8
                ):
                    energy = candidate
                    break
            if energy is None:
                continue
            rep = verify_gri(es_small, es_big, energy, x, y)
            checked_green += 1
            if not rep.satisfied:
                violations += 1
            for j in range(0, es_big.n, max(1, es_big.n // 2)):
                if es_small.spectral_distance(float(es_big.eigenvalues[j])) <= 1e-10:
                    continue
                ef = verify_gri_eigenfunction(es_small, es_big, j)
                checked_ef += 1
                if not ef.satisfied:
                    violations += 1
        elapsed = time.monotonic() - start
        ok = violations == 0 and elapsed < 120.0
        report(
            "03 resolvent-patch-audit",
            ok,
            f"({checked_green} kernel + {checked_ef} eigenfunction checks, "
            f"{violations} violations, {elapsed:.1f}s)",
        )
        assert violations == 0
        assert elapsed < 120.0


class TestDescentAudit:
    def test_synthetic_and_operator_kernels(self):
        start = time.monotonic()
        rng = np.random.default_rng(14)
        domain_radius = 7
        domain = enumerate_ball((0,), domain_radius, LINE)
        synthetic_failures = 0
        for _ in range(100):
            q = float(rng.uniform(0.2, 0.8))
            ell = int(rng.integers(1, 3))
            scale = float(rng.uniform(0.5, 4.0))
            peaks = rng.choice([-1, 1], size=int(rng.integers(1, 4)))
            offsets = rng.integers(
                domain_radius + ell + 1, domain_radius + 24, size=len(peaks)
            )
            sites = [int(p * o) for p, o in zip(peaks, offsets)]
            f = {
                c: scale * max(q ** abs(s - c[0]) for s in sites)
                for c in domain.members
            }
            rep = subharmonic_check(f, domain, ell, q**ell * (1 + 1e-12))
            bound = radial_descent_bound(
                domain_radius, ell, min(max(rep.worst_ratio, 1e-12), 1 - 1e-12),
                max(f.values()),
            )
            if not rep.holds or f[domain.center] > bound * (1 + 1e-12):
                synthetic_failures += 1

        # operator-generated kernels: certified non-singular sub-balls give
        # the contraction (exact worst boundary count) x (the non-singular
        # boundary threshold, resonance-width allowance included)
        params = ScalingParams.finite_range(2, initial_scale=6, mass=4.0)
        big = enumerate_ball((1, 0), 12, LINE)
        spec = HamiltonianSpec(
            geometry=LINE, n_particles=2, coupling=3000.0, convention="fixed"
        )
        ell = 1
        x_ref = (9, -8)
        kernel_domain = enumerate_ball(x_ref, 4, LINE)
        constant = max(
            len(edge_boundary(enumerate_ball(v, ell, LINE), big))
            for v in kernel_domain.members
            if all(
                kernel_domain.contains(c)
                for c in enumerate_ball(v, ell + 1, LINE).members
            )
        )
        q_op = constant * params.ns_threshold(ell, n=2)
        assert q_op < 1.0
        region = range(min(big.projection) - 2, max(big.projection) + 3)
        kernels = 0
        operator_failures = 0
        seed = 0
        while kernels < 100 and seed < 60:
            sample = sample_field(FieldModel(), region, derive_seed(99, "k", seed))
            seed += 1
            es = diagonalize(assemble_hamiltonian(spec, big, sample))
            sub_systems = [
                diagonalize(
                    assemble_hamiltonian(
                        spec, enumerate_ball(v, ell, LINE), sample
                    )
                )
                for v in kernel_domain.members
            ]
            noise = eigenvector_noise_floors(es)
            for j in range(0, es.n, 8):
                if kernels >= 100:
                    break
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
                    for c in kernel_domain.members
                }
                rep = subharmonic_check(f, kernel_domain, ell + 1, q_op, floor=floor)
                bound = radial_descent_bound(
                    4, ell + 1, q_op, max(max(f.values()), 1e-300)
                )
                if not rep.holds or f[x_ref] > bound + floor:
                    operator_failures += 1
        elapsed = time.monotonic() - start
        ok = (
            synthetic_failures == 0
            and operator_failures == 0
            and kernels == 100
            and elapsed < 60.0
        )
        report(
            "04 subharmonic-descent-audit",
            ok,
            f"(100 synthetic + {kernels} operator kernels, "
            f"{synthetic_failures + operator_failures} violations, {elapsed:.1f}s)",
        )
        assert synthetic_failures == 0
        assert operator_failures == 0
        assert kernels == 100
        assert elapsed < 60.0


ACC5_SEED = 550_001
ACC5_TRIALS = 500


def acceptance5_setup():
    params = ScalingParams.finite_range(2, initial_scale=6, mass=1.0)
    return TrialSetup(
        geometry=LINE,
        params=params,
        field_model=FieldModel(kind="iid", marginal="uniform"),
        interaction=InteractionModel(kind="step", amplitude=1.0, range_=2),
        center=(1, 0),
        radius=16,
        coupling=30.0,
        convention="fixed",
        sub_scale=6,
    )


class TestImplicationAudit:
    def test_five_hundred_trials_no_violations(self):
        # NOTE: this criterion is expected to fail at its pinned
        # parameters; the demanded decay rate (mass 1 at scale 16) sits
        # above what coupling 30 realizes, so witnessed counterexamples
        # to the audited implications appear within the first few trials.
        # See the build notes for the full analysis.  The audit itself is
        # validated at stronger coupling in the unit suite.
        start = time.monotonic()
        setup = acceptance5_setup()
        lr_params = ScalingParams.infinite_range(
            2, delta=Fraction(1, 20), initial_scale=6, mass=1.0, theta=0.02
        )
        lr_spec = HamiltonianSpec(
            geometry=LINE,
            n_particles=2,
            coupling=30.0,
            interaction=InteractionModel(
                kind="subexp", prefactor=1.0, rate=1.0, tail_exponent=0.0
            ),
            convention="fixed",
        )
        lr_center = (150, -150)
        lr_ball = enumerate_ball(lr_center, 16, LINE)
        violations = []
        by_lemma = {}
        trials_run = 0
        for t in range(ACC5_TRIALS):
            trials_run += 1
            ctx = setup.context(derive_seed(ACC5_SEED, "trial", t))
            res = verify_implications(ctx, setup.center, setup.radius, setup.sub_scale)
            lr_sample = sample_field(
                FieldModel(),
                lr_ball.projection,
                derive_seed(ACC5_SEED, "trial", t),
            )
            lr_ctx = AuditContext(lr_spec, lr_sample, lr_params)
            res_lr = verify_longrange_split(lr_ctx, lr_center, 16, 6)
            for v in res.violations + res_lr.violations:
                violations.append((t, v))
                by_lemma[v.lemma] = by_lemma.get(v.lemma, 0) + 1
            if violations:
                break  # the zero-violation claim is already decided
            if time.monotonic() - start > 540.0:
                break
        elapsed = time.monotonic() - start
        ok = not violations and trials_run == ACC5_TRIALS
        report(
            "05 implication-audit",
            ok,
            f"({trials_run}/{ACC5_TRIALS} trials, {len(violations)} violations "
            f"{by_lemma}, {elapsed:.1f}s)",
        )
        assert not violations, (
            f"counterexamples to the audited implications at the pinned "
            f"parameters: {by_lemma}; first witness: {violations[0][1]}. "
            f"The demanded decay rate (mass 1) exceeds the realized one at "
            f"coupling 30; the README (section \"Install and test\") explains "
            f"why this criterion fails by design."
        )
        assert trials_run == ACC5_TRIALS
        assert elapsed < 600.0


class TestSpacingClosedForm:
    def test_single_site_pair(self):
        start = time.monotonic()
        coupling = 5.0
        setup = TrialSetup(
            geometry=LINE,
            params=ScalingParams.finite_range(1),
            field_model=FieldModel(),
            interaction=InteractionModel(),
            center=(0,),
            radius=0,
            coupling=coupling,
            second_center=(50,),
        )
        ratios = [0.01, 0.02, 0.05, 0.1, 0.15, 0.2]
        s_grid = [r * coupling for r in ratios]
        rep = evc_experiment(setup, 5000, s_grid, seed=606)
        assert rep.closed_form is not None
        worst_sigma = 0.0
        for emp, exact, err in zip(rep.empirical_cdf, rep.closed_form, rep.stderr):
            worst_sigma = max(worst_sigma, abs(emp - exact) / max(err, 1e-12))
        monotone = rep.monotone()
        elapsed = time.monotonic() - start
        ok = worst_sigma <= 3.0 and monotone and elapsed < 60.0
        report(
            "06 spacing-closed-form",
            ok,
            f"(5000 trials, worst deviation {worst_sigma:.2f} sigma, "
            f"monotone={monotone}, {elapsed:.1f}s)",
        )
        assert worst_sigma <= 3.0
        assert monotone
        assert elapsed < 60.0


ACC7_SEED = 770_001
ACC7_TRIALS = 1000


def acceptance7_setup(coupling):
    return TrialSetup(
        geometry=LINE,
        params=ScalingParams.finite_range(2, initial_scale=6, mass=1.0),
        field_model=FieldModel(kind="iid", marginal="gaussian"),
        interaction=InteractionModel(kind="step", amplitude=1.0, range_=1),
        center=(1, 0),
        radius=6,
        coupling=coupling,
        convention="fixed",
    )


class TestDisorderTrend:
    def test_singularity_probability_drops_with_coupling(self):
        start = time.monotonic()
        est_weak = estimate_event_probability(
            acceptance7_setup(3.0), "singular", ACC7_TRIALS, ACC7_SEED, energy=0.0
        )
        est_strong = estimate_event_probability(
            acceptance7_setup(30.0), "singular", ACC7_TRIALS, ACC7_SEED, energy=0.0
        )
        separated = est_strong.ci_hi < est_weak.ci_lo
        elapsed = time.monotonic() - start
        ok = separated and elapsed < 300.0
        report(
            "07 disorder-strength-trend",
            ok,
            f"(weak {est_weak.p_hat:.3f} [{est_weak.ci_lo:.3f},{est_weak.ci_hi:.3f}] "
            f"vs strong {est_strong.p_hat:.3f} "
            f"[{est_strong.ci_lo:.3f},{est_strong.ci_hi:.3f}], {elapsed:.1f}s)",
        )
        assert est_strong.p_hat < est_weak.p_hat
        assert separated
        assert elapsed < 300.0


class TestCorrelatorInvariants:
    """Each instance is a trial of ``experiments.dynamics_trials``, the loop
    ``mpdsa dynamics`` runs (pipelined rows solves, NaN check), at two
    pairs: the centre against the farthest member, then against itself."""

    def test_bessel_completeness_propagator(self):
        start = time.monotonic()
        t_grid = default_time_grid(2000)
        worst = [0.0, 0.0, 0.0]
        count = 0
        runs = [(acceptance5_setup(), trial_seeds(ACC5_SEED, ACC5_TRIALS))]
        runs += [(acceptance7_setup(g), trial_seeds(ACC7_SEED, ACC7_TRIALS)) for g in (3.0, 30.0)]
        for setup, seeds in runs:
            ball = setup.balls()[0]
            far = ball.members[int(np.argmax(ball.distances_from_center))]
            pairs = [(ball.center, far), (ball.center, ball.center)]
            for trial in dynamics_trials(setup, seeds, pairs, t_grid):
                for q, comp, sup in trial:
                    worst = [max(worst[0], q - 1.0), max(worst[1], abs(comp)),
                             max(worst[2], sup - q)]
                count += 1
        elapsed = time.monotonic() - start
        ok = worst[0] <= 1e-10 and worst[1] < 1e-10 and worst[2] <= 1e-10
        report(
            "08 correlator-invariants",
            ok,
            f"({count} instances, worst excesses {worst[0]:.1e}/{worst[1]:.1e}/"
            f"{worst[2]:.1e}, {elapsed:.1f}s)",
        )
        assert worst[0] <= 1e-10
        assert worst[1] < 1e-10
        assert worst[2] <= 1e-10


class TestTruncationDefectBound:
    def test_measured_defects_below_analytic_bound(self):
        start = time.monotonic()
        model = InteractionModel(kind="subexp", prefactor=1.0, rate=1.0, tail_exponent=0.0)
        rng = np.random.default_rng(9001)
        violations = 0
        checked = 0
        for radius in (2, 4, 8):
            bound = epsilon_bound(model, 2, radius)
            for _ in range(200):
                base = int(rng.integers(-40, 40))
                gap = radius + 1 + int(rng.integers(0, 30))
                x2 = (base,)
                x1 = (base + gap,)
                assert config_distance(x1, x2, LINE) > radius
                defect = interaction_defect(x1, x2, model, LINE)
                checked += 1
                if defect > bound:
                    violations += 1
        elapsed = time.monotonic() - start
        ok = violations == 0 and elapsed < 60.0
        report(
            "09 truncation-defect-bound",
            ok,
            f"({checked} split checks over three truncation radii, "
            f"{violations} violations, {elapsed:.1f}s)",
        )
        assert violations == 0
        assert elapsed < 60.0


class TestRerunDeterminism:
    def test_byte_identical_csv_outputs(self, tmp_path):
        import hashlib

        def run(cfg, name, out):
            path = tmp_path / name
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            code = cli_main(
                [cfg["experiments"][0]["kind"], "--config", str(path), "--out", str(out)]
            )
            assert code == 0

        def digest(path):
            return hashlib.sha256(Path(path).read_bytes()).hexdigest()

        spectrum_cfg = {
            "schema_version": 1,
            "geometry": {"kind": "lattice", "d": 1},
            "particles": 2,
            "coupling": 12.0,
            "disorder": {"kind": "iid", "marginal": "uniform"},
            "interaction": {"kind": "step", "amplitude": 1.0, "range": 1},
            "convention": "fixed",
            "scaling": {"initial_scale": 6},
            "seed": 4242,
            "experiments": [
                {"kind": "spectrum", "center": [1, 0], "radius": 4, "trials": 3}
            ],
        }
        evc_cfg = {
            "schema_version": 1,
            "geometry": {"kind": "lattice", "d": 1},
            "particles": 1,
            "coupling": 5.0,
            "disorder": {"kind": "iid", "marginal": "uniform"},
            "interaction": {"kind": "none"},
            "convention": "fixed",
            "seed": 777,
            "experiments": [
                {
                    "kind": "evc",
                    "center": [0],
                    "second_center": [40],
                    "radius": 0,
                    "trials": 300,
                    "s_grid": [0.05, 0.25, 0.5],
                }
            ],
        }
        matches = []
        for cfg, name, csv_name in (
            (spectrum_cfg, "spectrum", "spectrum.csv"),
            (evc_cfg, "evc", "evc.csv"),
        ):
            run(cfg, f"{name}.json", tmp_path / f"{name}_a")
            run(cfg, f"{name}.json", tmp_path / f"{name}_b")
            matches.append(
                digest(tmp_path / f"{name}_a" / csv_name)
                == digest(tmp_path / f"{name}_b" / csv_name)
            )
        ok = all(matches)
        report(
            "10 rerun-determinism",
            ok,
            f"(spectrum + spacing reruns, checksum matches: {matches})",
        )
        assert all(matches)
