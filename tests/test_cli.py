import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpdsa
from mpdsa import spectral
from mpdsa.cli import main
from mpdsa.configspace import enumerate_ball
from mpdsa.operators import HamiltonianSpec
from mpdsa.runconfig import SCHEMA, ConfigError, _conforms, _Unsure, validate_config


def write_config(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def base_config(out_dir, experiments, **overrides):
    cfg = {
        "schema_version": 1,
        "geometry": {"kind": "lattice", "d": 1},
        "particles": 1,
        "coupling": 0.0,
        "disorder": {"kind": "iid", "marginal": "uniform"},
        "interaction": {"kind": "none"},
        "convention": "induced",
        "scaling": {"initial_scale": 6},
        "seed": 11,
        "output_dir": str(out_dir),
        "experiments": experiments,
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def read_json(path):
    return json.loads(Path(path).read_text())


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestSpectrumCommand:
    def test_path_three_zero_field(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1, "trials": 1}])
        code = main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 0
        rows = read_csv(out / "spectrum.csv")
        assert rows[0] == ["experiment", "trial", "index", "eigenvalue"]
        values = sorted(float(r[3]) for r in rows[1:])
        assert values == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = tmp_path / "never"
        code = main(["spectrum", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "o", [{"kind": "spectrum", "center": [0], "radius": 1}])
        cfg["mystery"] = True
        code = main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 2

    def test_missing_experiment_kind(self, tmp_path):
        cfg = base_config(tmp_path / "o", [{"kind": "dynamics", "center": [0], "radius": 1}])
        code = main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 2

    def test_rerun_checksums_match(self, tmp_path):
        cfg = base_config(
            tmp_path / "o1",
            [{"kind": "spectrum", "center": [0], "radius": 2, "trials": 2}],
            coupling=8.0,
        )
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["spectrum", "--config", path]) == 0
        assert main(["spectrum", "--config", path, "--out", str(tmp_path / "o2")]) == 0
        assert sha(tmp_path / "o1" / "spectrum.csv") == sha(tmp_path / "o2" / "spectrum.csv")
        m1 = read_json(tmp_path / "o1" / "manifest.json")
        m2 = read_json(tmp_path / "o2" / "manifest.json")
        by_name1 = {o["path"]: o["sha256"] for o in m1["outputs"]}
        by_name2 = {o["path"]: o["sha256"] for o in m2["outputs"]}
        assert by_name1["spectrum.csv"] == by_name2["spectrum.csv"]
        assert m1["config_sha256"] == m2["config_sha256"]

    def test_manifest_checksums_verify(self, tmp_path):
        out = tmp_path / "o"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1}])
        main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)])
        manifest = read_json(out / "manifest.json")
        for entry in manifest["outputs"]:
            assert sha(out / entry["path"]) == entry["sha256"]

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "o"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1}])
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        env = read_json(out / "manifest.json")["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["cpus"] >= 1
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS"}

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("MPDSA_OUT", str(target))
        cfg = base_config(tmp_path / "ignored", [{"kind": "spectrum", "center": [0], "radius": 1}])
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        assert (target / "spectrum.csv").exists()


class TestAuditCommand:
    def test_smallest_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [{"kind": "audit", "center": [1, 0], "k_max": 0, "trials": 10}],
            particles=2,
            coupling=50.0,
            convention="fixed",
            schedule={"p": 33.0, "b": 0.01},
        )
        code = main(["audit", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code in (0, 1)
        rows = read_csv(out / "audit_scales.csv")
        assert len(rows) == 2  # header + one scale row
        summary = read_json(out / "summary.json")
        assert "experiment_0" in summary

    def test_skipped_scales_write_empty_estimates(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [{"kind": "audit", "center": [1, 0], "k_max": 1, "trials": 2, "matrix_cap": 40}],
            particles=2,
            coupling=50.0,
            convention="fixed",
            schedule={"p": 33.0, "b": 0.01},
        )
        assert main(["audit", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        header, *rows = read_csv(out / "audit_scales.csv")
        assert len(rows) == 2
        assert not any(cell.lower() == "nan" for row in rows for cell in row)
        for row in rows:
            fields = dict(zip(header, row))
            assert fields["skipped"] == "1"
            assert fields["p_hat"] == fields["ci_lo"] == fields["ci_hi"] == ""

    def test_needs_schedule(self, tmp_path):
        cfg = base_config(
            tmp_path / "o",
            [{"kind": "audit", "center": [1, 0], "k_max": 0, "trials": 5}],
            particles=2,
        )
        code = main(["audit", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 2


class TestEvcCommand:
    def test_single_site_closed_form_flag(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [
                {
                    "kind": "evc",
                    "center": [0],
                    "second_center": [50],
                    "radius": 0,
                    "trials": 400,
                    "s_grid": [0.05, 0.2, 0.5],
                }
            ],
            coupling=5.0,
            convention="fixed",
        )
        code = main(["evc", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 0
        summary = read_json(out / "summary.json")
        info = summary["experiment_0"]
        assert info["weakly_separable"] is True
        assert info["monotone"] is True
        assert info["closed_form_within_3_stderr"] is True
        rows = read_csv(out / "evc.csv")
        assert len(rows) == 4

    def test_zero_coupling_closed_form_is_the_step(self, tmp_path):
        # at g = 0 both site energies are the same number: the distance is 0
        out = tmp_path / "out"
        experiment = {"kind": "evc", "center": [0], "second_center": [5], "radius": 0,
                      "trials": 40, "s_grid": [0.0, 0.1]}
        cfg = base_config(out, [experiment], coupling=0.0)
        assert main(["evc", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        rows = read_csv(out / "evc.csv")[1:]
        assert not any("nan" in cell for row in rows for cell in row)
        assert [(row[2], row[5]) for row in rows] == [("1.0", "1.0")] * 2
        info = read_json(out / "summary.json")["experiment_0"]
        assert info["closed_form_within_3_stderr"] is True


class TestDynamicsCommand:
    def test_single_config_ball(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [{"kind": "dynamics", "center": [0], "radius": 0, "trials": 2, "time_points": 50}],
            coupling=3.0,
        )
        code = main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 0
        rows = read_csv(out / "dynamics.csv")
        assert len(rows) == 3  # header + one pair per trial
        assert float(rows[1][5]) == pytest.approx(1.0)  # self correlator
        summary = read_json(out / "summary.json")
        assert summary["experiment_0"]["max_correlator_excess"] <= 1e-10

    def test_decay_fit_reported(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [{"kind": "dynamics", "center": [0], "radius": 8, "trials": 2, "time_points": 40}],
            coupling=25.0,
        )
        code = main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 0
        summary = read_json(out / "summary.json")
        fit = summary["experiment_0"]["decay_fit"]
        assert fit is not None
        assert fit["m_eff"] > 0

    def test_decay_fit_says_what_it_rested_on(self, tmp_path):
        """The fit writes how many per-distance means it used and left out,
        and whether c sits at an end of its grid."""
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [{"kind": "dynamics", "center": [0], "radius": 8, "trials": 2, "time_points": 40}],
            coupling=25.0,
        )
        assert main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        fit = read_json(out / "summary.json")["experiment_0"]["decay_fit"]
        rows = read_csv(out / "dynamics.csv")[1:]
        means = {}
        for row in rows:
            if int(row[4]) >= 1:
                means.setdefault(int(row[4]), []).append(float(row[5]))
        positive = sum(np.mean(v) > 0 for v in means.values())
        # decay_fit is given the positive means only, so it excludes none
        assert (fit["used_points"], fit["excluded_points"]) == (positive, 0)
        assert fit["c_at_grid_edge"] == (fit["c"] in (0.1, 2.0))

    # u = 2^-53; the radius-8 ball has n = 17 members, so the allowance is
    # 17u for q - 1 and 17u q for sup - q
    @pytest.mark.parametrize("q, sup, counts", [
        (1.0 + 16 * 2.0**-53, 1.0 + 16 * 2.0**-53, (0, 0)),
        (1.0 + 18 * 2.0**-53, 1.0 + 18 * 2.0**-53, (2, 0)),
        (1.0, 1.0 + 18 * 2.0**-53, (0, 2)),
    ], ids=["within", "correlator", "propagator"])
    def test_excess_rows_count_beyond_the_allowance(self, tmp_path, monkeypatch, q, sup,
                                                    counts):
        """Each trial's diagonal pair is given the correlator q and the
        propagator sup; a row counts only beyond n 2^-53 (times q)."""
        from mpdsa import experiments

        correlator, sups = experiments.ef_correlator, experiments.propagator_sups

        def diagonal_q(es, x, y, window):
            return q if x == y else correlator(es, x, y, window)

        def diagonal_sup(es, pairs, t_grid, beside=None):
            values = sups(es, pairs, t_grid, beside=beside)
            values[0] = sup  # the centre against itself comes first
            return values

        monkeypatch.setattr(experiments, "ef_correlator", diagonal_q)
        monkeypatch.setattr(experiments, "propagator_sups", diagonal_sup)
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [{"kind": "dynamics", "center": [0], "radius": 8, "trials": 2, "time_points": 40}],
            coupling=25.0,
        )
        assert main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        summary = read_json(out / "summary.json")["experiment_0"]
        assert (summary["correlator_excess_rows"], summary["propagator_excess_rows"]) == counts
        assert summary["max_correlator_excess"] == max(q - 1.0, 0.0)

    @pytest.mark.parametrize("seed", [550001, 101, 9901])
    def test_no_excess_rows_at_the_benchmark_config(self, tmp_path, seed):
        """The benchmark's radius-16 run (n = 561) reads no rounding as an
        excess."""
        out = tmp_path / "out"
        cfg = workload_configs()[1]
        cfg.update(seed=seed, output_dir=str(out))
        assert main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        summary = read_json(out / "summary.json")["experiment_0"]
        assert summary["correlator_excess_rows"] == 0
        assert summary["propagator_excess_rows"] == 0

    def test_a_dynamics_run_never_imports_scipy(self, tmp_path):
        """The rows solve calls LAPACK through numpy's OpenBLAS, not scipy,
        whose import would double the start-up time."""
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [{"kind": "dynamics", "center": [1, 0], "radius": 8, "trials": 2,
              "time_points": 200}],
            particles=2, coupling=30.0, convention="fixed",
            interaction={"kind": "step", "amplitude": 1.0, "range": 2},
        )
        script = (
            "import sys\n"
            "from mpdsa.cli import main\n"
            "code = main(['dynamics', '--config', sys.argv[1]])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        src = str(Path(mpdsa.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script,
                               write_config(tmp_path / "c.json", cfg)],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        assert proc.stdout.split() == ["0", "False"]
        assert read_json(out / "manifest.json")["environment"]["lapack_rows"] is (
            spectral.lapack_rows())


class TestSweepCommand:
    def _cfg(self, out):
        return base_config(
            out,
            [
                {
                    "kind": "event",
                    "event": "singular",
                    "center": [1, 0],
                    "radius": 6,
                    "energy": 0.0,
                    "trials": 30,
                }
            ],
            particles=2,
            coupling=10.0,
            convention="fixed",
        )

    def test_three_point_trend(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", self._cfg(out))
        code = main(["sweep", "--config", path, "--axis", "g", "--values", "3,10,30"])
        assert code == 0
        rows = read_csv(out / "trend.csv")
        assert len(rows) == 4
        assert [r[1] for r in rows[1:]] == ["3.0", "10.0", "30.0"]

    def test_summary_counts_each_points_screens(self, tmp_path, line, block_trials):
        # n = 91 gives blocks of b = 130 trials: 2 b + 7 trials fill three
        ball = enumerate_ball((1, 0), 6, line)
        trials = 2 * block_trials(HamiltonianSpec(line, 2, convention="fixed"), ball) + 7
        out = tmp_path / "out"
        cfg = self._cfg(out)
        cfg["experiments"][0]["trials"] = trials
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", "--config", path, "--axis", "g", "--values", "3,10,30"]) == 0
        points = read_json(out / "summary.json")["diagnostics"]
        assert [p["value"] for p in points] == [3.0, 10.0, 30.0]
        for p in points:
            assert p["certificate_cleared"] + p["eigvalsh_screened"] == trials
            # a screened trial's block holds a matrix the certificate did
            # not clear
            assert p["blocks"] == 3
            assert (p["eigvalsh_screened"] > 0) <= p["cholesky_fallback_blocks"] <= 3

    def test_a_trial_at_an_eigenvalue_counts_as_screened(self, tmp_path):
        # at g = 0 every trial is the path Laplacian, and E = 1 is its eigenvalue
        out = tmp_path / "out"
        experiment = {"kind": "event", "event": "singular", "center": [0], "radius": 1,
                      "energy": 1.0, "trials": 30}
        path = write_config(tmp_path / "c.json", base_config(out, [experiment]))
        assert main(["sweep", "--config", path, "--axis", "g", "--values", "0,20"]) == 0
        at_zero, at_twenty = read_json(out / "summary.json")["diagnostics"]
        assert (at_zero["certificate_cleared"], at_zero["eigvalsh_screened"]) == (0, 30)
        assert at_twenty["certificate_cleared"] > 0
        assert read_csv(out / "trend.csv")[1][2] == "30"

    def test_the_same_counts_without_the_band_routines(self, tmp_path, monkeypatch):
        """Where ``dpbtrf`` and ``dgbsv`` are missing the bands are expanded
        to dense for ``np.linalg``: the same flags and counts.  The second
        sweep puts E = 0 inside the spectrum (at g = 0 it is an eigenvalue
        of the induced Laplacian), so the stacked certificate restarts after
        most of the matrices it tries."""
        inside = {**self._cfg(tmp_path)["experiments"][0], "trials": 60}
        sweeps = [
            (self._cfg, "3,10,30"),
            (lambda out: base_config(out, [inside], particles=2,
                                     disorder={"kind": "iid", "marginal": "gaussian"}),
             "0,3e-4,3e-3"),
        ]
        for k, (config, values) in enumerate(sweeps):
            runs = []
            for routines in ("present", "missing"):
                with monkeypatch.context() as patch:
                    if routines == "missing":
                        patch.setattr(spectral, "lapack_routine", lambda name: None)
                    out = tmp_path / f"{routines}{k}"
                    path = write_config(tmp_path / f"{routines}{k}.json", config(out))
                    assert main(["sweep", "--config", path, "--axis", "g", "--values",
                                 values]) == 0
                    env = read_json(out / "manifest.json")["environment"]
                    assert env["lapack_band"] is (spectral.lapack_band()
                                                  and routines == "present")
                runs.append(((out / "trend.csv").read_bytes(),
                             (out / "summary.json").read_bytes()))
            assert runs[0] == runs[1]
        # inside the spectrum nothing clears at g = 0, and not all at g = 3e-4
        points = read_json(out / "summary.json")["diagnostics"]
        cleared = [p["certificate_cleared"] for p in points]
        assert cleared[0] == 0 and 0 < cleared[1] < 60

    def test_a_sweep_run_imports_neither_scipy_nor_the_executor(self, tmp_path):
        """The band routines come from numpy's OpenBLAS, not scipy, and the
        workers are plain threads: after a ``sweep`` and a ``dynamics`` run
        neither scipy nor ``concurrent.futures`` (with the ``logging`` it
        pulls in, about 6 ms a command) is loaded."""
        sweep = write_config(tmp_path / "sweep.json", self._cfg(tmp_path / "sweep"))
        dynamics = write_config(tmp_path / "dynamics.json", base_config(
            tmp_path / "dynamics",
            [{"kind": "dynamics", "center": [1, 0], "radius": 4, "trials": 2,
              "time_points": 100}],
            particles=2, coupling=30.0, convention="fixed",
            interaction={"kind": "step", "amplitude": 1.0, "range": 1},
        ))
        script = (
            "import sys\n"
            "from mpdsa.cli import main\n"
            "print(main(['sweep', '--config', sys.argv[1], '--axis', 'g', '--values', '3,30']))\n"
            "print(main(['dynamics', '--config', sys.argv[2]]))\n"
            "print(*(m in sys.modules for m in ('scipy', 'concurrent.futures', 'logging')))\n"
        )
        src = str(Path(mpdsa.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, sweep, dynamics],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        assert proc.stdout.split() == ["0", "0", "False", "False", "False"]

    def test_other_events_have_no_diagnostics(self, tmp_path):
        out = tmp_path / "out"
        experiment = {"kind": "event", "event": "always_true", "center": [0], "radius": 1,
                      "trials": 30}
        path = write_config(tmp_path / "c.json", base_config(out, [experiment]))
        assert main(["sweep", "--config", path, "--axis", "g", "--values", "1"]) == 0
        assert "diagnostics" not in read_json(out / "summary.json")

    def test_empty_values_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", self._cfg(tmp_path / "o"))
        code = main(["sweep", "--config", path, "--axis", "g", "--values", ""])
        assert code == 2

    def test_missing_axis_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", self._cfg(tmp_path / "o"))
        code = main(["sweep", "--config", path])
        assert code == 2


class TestPredicatesCommand:
    def test_reports_and_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [
                {
                    "kind": "predicates",
                    "center": [1, 0],
                    "radius": 8,
                    "sub_scale": 4,
                    "trials": 2,
                    "energies": [0.0, 5.0],
                }
            ],
            particles=2,
            coupling=300.0,
            convention="fixed",
        )
        code = main(["predicates", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code in (0, 1)
        rows = read_csv(out / "predicates.csv")
        assert len(rows) == 1 + 2 * 2
        summary = read_json(out / "summary.json")
        assert len(summary["predicates"]) == 4
        violations = read_csv(out / "violations.csv")
        assert (code == 1) == (len(violations) > 1)

    def test_grid_stride_reaches_the_audit(self, tmp_path):
        from mpdsa.cli import _setup_for
        from mpdsa.disorder import derive_seed
        from mpdsa.msa import verify_implications

        out = tmp_path / "out"
        experiment = {"kind": "predicates", "center": [1, 0], "radius": 8, "sub_scale": 4,
                      "trials": 1, "energies": [0.0], "grid_stride": 5}
        cfg = base_config(out, [experiment], particles=2, coupling=10.0, convention="fixed",
                          interaction={"kind": "step", "amplitude": 1.0, "range": 1}, seed=7)
        assert main(["predicates", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        ctx = _setup_for(cfg, experiment).context(derive_seed(7, "trial", 0))
        strided = verify_implications(ctx, (1, 0), 8, 4, grid_stride=5)
        default = verify_implications(ctx, (1, 0), 8, 4)
        count = read_json(out / "summary.json")["violation_count"]
        assert count == len(strided.violations) != len(default.violations)
        assert len(read_csv(out / "violations.csv")) == 1 + count

    def test_diagnostics_are_the_audit_counters(self, tmp_path):
        """summary.json keeps the counters of each (experiment, trial)'s
        ``verify_implications``, as a direct call gives them."""
        from mpdsa.cli import _setup_for
        from mpdsa.disorder import derive_seed
        from mpdsa.msa import verify_implications

        out = tmp_path / "out"
        experiments = [
            {"kind": "predicates", "center": [1, 0], "radius": 8, "sub_scale": 4, "trials": 2,
             "energies": [0.0]},
            {"kind": "predicates", "center": [2, 0], "radius": 6, "trials": 2,
             "energies": [0.0, 5.0], "grid_stride": 2},
        ]
        cfg = base_config(out, experiments, particles=2, coupling=100.0, convention="fixed",
                          interaction={"kind": "step", "amplitude": 1.0, "range": 1}, seed=7)
        assert main(["predicates", "--config", write_config(tmp_path / "c.json", cfg)]) in (0, 1)
        expected = []
        for idx, exp in enumerate(experiments):
            setup = _setup_for(cfg, exp)
            sub_scale = exp.get("sub_scale", setup.radius // 2)
            for t in range(2):
                res = verify_implications(setup.context(derive_seed(7, "trial", t)),
                                          setup.center, setup.radius, sub_scale,
                                          grid_stride=exp.get("grid_stride"))
                expected.append({"experiment": idx, "trial": t, **res.counters})
        diagnostics = read_json(out / "summary.json")["diagnostics"]
        assert diagnostics == expected
        assert all(d["energies"] > 0 for d in diagnostics)

    def test_plane_witnesses_are_nested_lists(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [{"kind": "predicates", "center": [[1, 0], [0, 0]], "radius": 3, "sub_scale": 2,
              "trials": 1, "energies": [0.0, 3.0]}],
            geometry={"kind": "lattice", "d": 2},
            particles=2,
            coupling=10.0,
            convention="fixed",
            disorder={"kind": "moving_average", "marginal": "uniform"},
        )
        code = main(["predicates", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        records = read_json(out / "summary.json")["predicates"]
        witnesses = [r["loc_witness"] for r in records if r["loc_witness"] is not None]
        assert witnesses
        for pair in witnesses:
            for cfg_sites in pair:
                assert len(cfg_sites) == 2
                assert all(len(site) == 2 and all(type(v) is int for v in site)
                           for site in cfg_sites)


class TestThreadsFlagRemoved:
    def test_threads_is_a_usage_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1}])
        path = write_config(tmp_path / "c.json", cfg)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--config", path, "--threads", "2"])
        assert exc.value.code == 2
        assert not out.exists()


class TestOneTrialPath:
    """Every command reads a trial's spectrum through the trial's context,
    so a split centre uses the factor assembly in spectrum and dynamics
    exactly as in predicates."""

    def _cfg(self, out, experiment):
        return base_config(
            out,
            [{"center": [20, 0], "radius": 3, "trials": 3, **experiment}],
            particles=2,
            coupling=12.0,
            interaction={"kind": "step", "amplitude": 1.0, "range": 1},
            convention="fixed",
            seed=4242,
        )

    def test_spectrum_matches_context(self, tmp_path):
        from mpdsa.cli import _setup_for
        from mpdsa.disorder import derive_seed

        out = tmp_path / "out"
        cfg = self._cfg(out, {"kind": "spectrum"})
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        rows = read_csv(out / "spectrum.csv")[1:]
        setup = _setup_for(cfg, cfg["experiments"][0])
        expected = []
        for t in range(3):
            ctx = setup.context(derive_seed(cfg["seed"], "trial", t))
            es = ctx.eigensystem(setup.center, setup.radius)
            expected += [["0", str(t), str(i), repr(float(v))] for i, v in enumerate(es.eigenvalues)]
        assert rows == expected

    def test_dynamics_invariants(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._cfg(out, {"kind": "dynamics", "time_points": 200})
        assert main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        rows = read_csv(out / "dynamics.csv")[1:]
        assert len(rows) == 3 * 4  # the centre and one member per distance 1..3
        for row in rows:
            q, prop, comp = float(row[5]), float(row[6]), float(row[7])
            assert q <= 1.0 + 1e-12
            assert abs(comp) < 1e-10
            assert prop <= q + 1e-12


SINGULAR = {"kind": "event", "event": "singular", "energy": 0.0, "center": [0], "radius": 1,
            "trials": 30}


class TestNothingWrittenOnExit2:
    """A command that rejects its configuration exits 2 before the output
    directory exists."""

    @pytest.mark.parametrize(
        "command, experiment, extra",
        [
            (
                "sweep",
                {"kind": "spectrum", "center": [0], "radius": 1},
                ["--axis", "g", "--values", "1"],
            ),
            ("evc", {"kind": "evc", "center": [0], "radius": 0}, []),
            ("audit", {"kind": "audit", "center": [0], "k_max": 0, "trials": 5}, []),
            ("sweep", SINGULAR, ["--axis", "L0", "--values", "inf"]),
            ("sweep", SINGULAR, ["--axis", "L0", "--values", "6,nan"]),
            ("sweep", SINGULAR, ["--axis", "L0", "--values", "6.5"]),
            ("sweep", SINGULAR, ["--axis", "g", "--values", "nan"]),
            ("sweep", SINGULAR, ["--axis", "g", "--values", "1,-inf"]),
            ("sweep", SINGULAR, ["--axis", "m", "--values", "1e400"]),
            ("predicates", {"kind": "predicates", "center": [0], "radius": 3}, ["--trials", "-1"]),
            ("predicates", {"kind": "predicates", "center": [0], "radius": 3}, ["--trials", "0"]),
            ("sweep", {**SINGULAR, "event": "always_true"},
             ["--axis", "g", "--values", "1", "--trials", "0"]),
        ],
    )
    def test_rejected_config_leaves_no_directory(self, tmp_path, command, experiment, extra):
        out = tmp_path / "out"
        cfg = base_config(out, [experiment])
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg), *extra]) == 2
        assert not out.exists()

    def test_negative_spacing_threshold(self, tmp_path):
        # a fractional bound exponent of a negative s gave nan in bound_curve
        out = tmp_path / "out"
        experiment = {"kind": "evc", "center": [0], "second_center": [5], "radius": 0,
                      "s_grid": [-0.1, 0.1], "constants": {"b1": 0.5, "b2": 0.5}}
        cfg = base_config(out, [experiment], coupling=2.0)
        assert main(["evc", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, experiment, extra, overrides",
        [
            ("sweep", SINGULAR, ["--axis", "g", "--values", "1e160"], {}),
            ("sweep", SINGULAR, ["--axis", "g", "--values", "3,-1e51"], {}),
            ("sweep", SINGULAR, ["--axis", "m", "--values", "1e51"], {}),
            ("sweep", {**SINGULAR, "energy": 1e200}, ["--axis", "g", "--values", "1"], {}),
            ("spectrum", {"kind": "spectrum", "center": [0], "radius": 1}, [],
             {"coupling": -1e60}),
            ("predicates", {"kind": "predicates", "center": [0], "radius": 3,
                            "energies": [0.0, 2e50]}, [], {}),
            ("spectrum", {"kind": "spectrum", "center": [0], "radius": 1}, [],
             {"interaction": {"kind": "step", "amplitude": 1e51, "range": 1}}),
            ("spectrum", {"kind": "spectrum", "center": [0], "radius": 1}, [],
             {"interaction": {"kind": "subexp", "prefactor": 1e300}}),
            ("spectrum", {"kind": "spectrum", "center": [0], "radius": 1}, [],
             {"interaction": {"kind": "table", "table": [[1, 1e99]]}}),
            ("spectrum", {"kind": "spectrum", "center": [0], "radius": 1}, [],
             {"disorder": {"kind": "moving_average", "kernel": [1e60, 1.0]}}),
        ],
    )
    def test_magnitude_beyond_the_bound(self, tmp_path, capsys, command, experiment, extra,
                                        overrides):
        out = tmp_path / "out"
        cfg = base_config(out, [experiment], **overrides)
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg), *extra]) == 2
        assert "1e+50" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    def test_unwritable_out_exits_2(self, tmp_path, below):
        """An --out that names a file, or a path below one, is a usage error:
        exit 2 without a traceback, the file as it was, no directory made."""
        blocker = tmp_path / "F"
        blocker.write_text("keep\n")
        out = blocker / "sub" if below else blocker
        cfg = base_config(tmp_path / "unused", [{"kind": "spectrum", "center": [0], "radius": 1}])
        path = write_config(tmp_path / "c.json", cfg)
        code, err = _main_quietly(["spectrum", "--config", path, "--out", str(out)])
        assert code == 2
        assert err.startswith(f"error: cannot write output {out}") and "Traceback" not in err
        assert blocker.read_text() == "keep\n"
        assert sorted(os.listdir(tmp_path)) == ["F", "c.json"]

    def test_magnitude_at_the_bound(self, tmp_path):
        # coupling x kernel tap at 1e100 and E = 1e50: the certificate's
        # squares stay finite, and no RuntimeWarning is raised
        out = tmp_path / "out"
        cfg = base_config(out, [{**SINGULAR, "energy": -1e50}], particles=2,
                          disorder={"kind": "moving_average", "kernel": [1e50, -1e49]})
        cfg["experiments"][0]["center"] = [1, 0]
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["sweep", "--config", path, "--axis", "g", "--values", "1e50,-1e50"]) == 0
        assert [row[2:4] for row in read_csv(out / "trend.csv")[1:]] == [["0", "30"]] * 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_in_the_config(self, tmp_path, capsys, literal):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1}], coupling=7.5)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg).replace("7.5", literal))
        assert main(["spectrum", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"non-finite number {literal}" in err and "Traceback" not in err
        assert not out.exists()

    def test_dynamics_pair_outside_ball(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [
                {
                    "kind": "dynamics",
                    "center": [1, 0],
                    "radius": 4,
                    "trials": 1,
                    "time_points": 20,
                    "pairs": [[[1, 0], [40, 0]]],
                }
            ],
            particles=2,
            coupling=10.0,
            convention="fixed",
        )
        assert main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert "[[1, 0], [40, 0]]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", [5, 29])
    def test_sweep_below_the_trial_floor(self, tmp_path, capsys, trials):
        out = tmp_path / "out"
        experiment = {"kind": "event", "event": "singular", "energy": 0.0, "center": [0],
                      "radius": 1, "trials": trials}
        cfg = base_config(out, [experiment])
        argv = ["sweep", "--config", write_config(tmp_path / "c.json", cfg),
                "--axis", "g", "--values", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "at least 30 trials" in err and "Traceback" not in err
        assert not out.exists()

    def test_sweep_with_two_event_experiments(self, tmp_path, capsys):
        # trend.csv has no experiment column to tell two events apart
        out = tmp_path / "out"
        cfg = base_config(out, [{**SINGULAR, "event": "always_true"}, SINGULAR])
        argv = ["sweep", "--config", write_config(tmp_path / "c.json", cfg),
                "--axis", "g", "--values", "1"]
        assert main(argv) == 2
        assert "one event experiment, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_without_an_event(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "event", "center": [0], "radius": 1, "trials": 30}])
        argv = ["sweep", "--config", write_config(tmp_path / "c.json", cfg),
                "--axis", "g", "--values", "1"]
        assert main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "event, message",
        [
            ("singular", "needs an energy"),
            ("tunneling", "needs a sub-scale"),
            ("distant_pair_singular", "needs a second center"),
        ],
    )
    def test_sweep_event_without_its_input(self, tmp_path, capsys, event, message):
        out = tmp_path / "out"
        experiment = {"kind": "event", "event": event, "center": [0], "radius": 1, "trials": 30}
        cfg = base_config(out, [experiment])
        argv = ["sweep", "--config", write_config(tmp_path / "c.json", cfg),
                "--axis", "g", "--values", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, experiment, message",
        [
            ("sweep", {"kind": "event", "event": "singular", "energy": 0.0, "radius": 0},
             "singular event needs a radius of at least 1"),
            ("predicates", {"kind": "predicates", "radius": 0}, "sub-scale 1 must be below radius 0"),
            ("predicates", {"kind": "predicates", "radius": 3, "sub_scale": 3},
             "sub-scale 3 must be below radius 3"),
            ("predicates", {"kind": "predicates", "radius": 1}, "sub-scale 1 must be below radius 1"),
            ("sweep", {"kind": "event", "event": "tunneling", "radius": 2, "sub_scale": 4},
             "sub-scale 4 must be below radius 2"),
        ],
    )
    def test_scales_checked_before_the_first_trial(self, tmp_path, capsys, command, experiment,
                                                   message):
        out = tmp_path / "out"
        cfg = base_config(out, [{"center": [0], "trials": 30, **experiment}])
        extra = ["--axis", "g", "--values", "1"] if command == "sweep" else []
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg), *extra]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_dynamics_pair_items_are_typed(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "dynamics", "center": [0], "radius": 2, "trials": 1,
                                 "time_points": 5, "pairs": [5]}])
        assert main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(cfg, SCHEMA)
        err = capsys.readouterr().err
        assert f"config rejected: {ref.value.message} (at {list(ref.value.absolute_path)})" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "disorder, message",
        [
            ({"kind": "moving_average", "kernel": [0.5, 0.3, 0.2]},
             "leading kernel coefficient must dominate the tail"),
            ({"kind": "moving_average", "kernel": []}, "kernel must be nonempty"),
            ({"kind": "iid", "kernel": []}, "kernel must be nonempty"),
        ],
    )
    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_bad_kernel(self, tmp_path, capsys, command, disorder, message):
        out = tmp_path / "out"
        experiment = {"kind": command, "center": [0], "radius": 1}
        extra = []
        if command == "sweep":
            experiment.update(kind="event", event="singular", energy=0.0, trials=30)
            extra = ["--axis", "g", "--values", "1"]
        cfg = base_config(out, [experiment], disorder=disorder)
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg), *extra]) == 2
        err = capsys.readouterr().err
        assert f"error: disorder {json.dumps(disorder)}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("pairs", [[[0, 1]], [[[0], [1]], [[1], [-1]]]])
    def test_both_pair_forms_accepted(self, tmp_path, pairs):
        cfg = base_config(tmp_path / "out", [{"kind": "dynamics", "center": [0], "radius": 2,
                                              "trials": 1, "time_points": 5, "pairs": pairs}])
        assert main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)]) == 0

    @pytest.mark.parametrize(
        "command, experiment",
        [
            ("spectrum", {"kind": "spectrum", "center": [1, 1], "radius": 1}),
            ("evc", {"kind": "evc", "center": [1, 0], "second_center": [9, 9], "radius": 0}),
        ],
    )
    def test_center_with_a_repeated_site(self, tmp_path, capsys, command, experiment):
        out = tmp_path / "out"
        cfg = base_config(out, [experiment], particles=2)
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert "repeats a site" in capsys.readouterr().err
        assert not out.exists()


class TestCenterChecks:
    """A centre must hold ``particles`` integer sites (lists of d integers
    when d > 1); anything else exits 2 with nothing written."""

    @pytest.mark.parametrize(
        "center, key",
        [
            (["a", 0], "center"),
            ([1.5, 0], "center"),
            ([3], "center"),
            ([True, 0], "center"),
            ([[1, 0], 0], "center"),
            ([9, "b"], "second_center"),
            ([9], "second_center"),
        ],
    )
    def test_bad_center_exits_2(self, tmp_path, capsys, center, key):
        out = tmp_path / "out"
        experiment = {"kind": "evc", "center": [1, 0], "second_center": [9, 5], "radius": 0}
        experiment[key] = center
        cfg = base_config(out, [experiment], particles=2)
        assert main(["evc", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{key} {json.dumps(center)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("center", [[[1, 0], [0]], [[1, 0, 0], [0, 0, 0]], [1, 0]])
    def test_plane_needs_nested_pairs(self, tmp_path, capsys, center):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": center, "radius": 1}],
                          particles=2, geometry={"kind": "lattice", "d": 2})
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_graph_vertex_out_of_range(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": [7], "radius": 1}],
                          geometry={"kind": "graph", "adjacency": [[1], [0, 2], [1]]})
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        assert "a vertex from 0 to 2" in capsys.readouterr().err
        assert not out.exists()

    def test_plane_center_accepted(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": [[1, 0], [0, 0]], "radius": 1}],
                          particles=2, geometry={"kind": "lattice", "d": 2})
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 0


class TestSchemaBounds:
    @pytest.mark.parametrize("scaling", [{"mass": -1.0}, {"mass": 0}, {"numerical_floor": 0.0}])
    def test_nonpositive_scaling_values_exit_2(self, tmp_path, capsys, scaling):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1}],
                          scaling={"initial_scale": 6, **scaling})
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        (name,) = scaling
        assert f"config rejected: {scaling[name]} is less than or equal to the minimum of 0 " \
            f"(at ['scaling', '{name}'])" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("axis, value", [("m", "-1"), ("L0", "2")])
    def test_sweep_points_pass_the_schema(self, tmp_path, capsys, axis, value):
        out = tmp_path / "out"
        experiment = {"kind": "event", "event": "singular", "energy": 0.0, "center": [0],
                      "radius": 2, "trials": 30}
        cfg = base_config(out, [experiment], coupling=5.0)
        argv = ["sweep", "--config", write_config(tmp_path / "c.json", cfg),
                "--axis", axis, "--values", f"6,{value}"]
        assert main(argv) == 2
        assert "config rejected" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, overrides, path",
        [
            ({"radius": 2.0}, {}, "['experiments', 0, 'radius']"),
            ({"trials": 2.0}, {}, "['experiments', 0, 'trials']"),
            ({}, {"seed": 3.0}, "['seed']"),
        ],
        ids=["radius", "trials", "seed"],
    )
    def test_an_integral_float_where_an_integer_goes_exits_2(self, tmp_path, capsys,
                                                              experiment, overrides, path):
        # the schema counts 2.0 as an integer; range() and derive_seed do not
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1, **experiment}],
                          **overrides)
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config rejected: a float where an integer is required (at {path})" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1}], seed=2**63)
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert "config rejected: 9223372036854775808 is greater than the maximum of " \
            "9223372036854775807 (at ['seed'])" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-5, 2**63])
    def test_a_seed_flag_outside_the_schema_range_exits_2(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1}])
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["spectrum", "--config", path, "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert f"--seed must be from 0 to 2**63 - 1, got {seed}" in err
        assert not out.exists()

    def test_the_largest_seed_runs(self, tmp_path):
        cfg = base_config(tmp_path / "a", [{"kind": "spectrum", "center": [0], "radius": 1}],
                          seed=2**63 - 1)
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["spectrum", "--config", path]) == 0
        assert main(["spectrum", "--config", path, "--seed", str(2**63 - 1),
                     "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "spectrum.csv").read_bytes() == \
            (tmp_path / "b" / "spectrum.csv").read_bytes()


class TestNumericalFailure:
    def test_a_nan_eigenvector_entry_exits_3(self, tmp_path, monkeypatch):
        """A NaN boundary Green value is a numerical failure, never a flag."""
        eigh = spectral.eigh

        def with_nan(matrix):
            values, vectors = eigh(matrix)
            vectors[0, 0] = np.nan
            return values, vectors

        monkeypatch.setattr(spectral, "eigh", with_nan)
        out = tmp_path / "out"
        cfg = base_config(
            out,
            [{"kind": "predicates", "center": [1, 0], "radius": 4, "sub_scale": 2,
              "trials": 1, "energies": [0.0]}],
            particles=2, coupling=10.0, convention="fixed",
            interaction={"kind": "step", "amplitude": 1.0, "range": 1},
        )
        code, err = _main_quietly(["predicates", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 3
        assert "numerical failure" in err and "NaN" in err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "command, solver, part, entry, message",
        [
            # the audit's first scale decides m-localization alone
            ("audit", "eigh", 1, (3, 2), "eigenvector entry or eigenvalue is NaN"),
            # the ball's own spectrum
            ("predicates", "eigh", 0, 4, "spectrum value is NaN"),
            # the sub-balls' values-only spectra, which only CNR reads first
            ("predicates", "eigvalsh", None, 0, "spectrum value is NaN"),
        ],
        ids=["m_loc", "nr", "cnr"],
    )
    def test_a_nan_spectrum_or_vector_exits_3(
        self, tmp_path, monkeypatch, command, solver, part, entry, message
    ):
        """m-loc, NR and CNR decide nothing from a NaN: exit 3, nothing written."""
        solve = getattr(spectral, solver)

        def with_nan(matrix):
            out = solve(matrix)
            (out if part is None else out[part])[entry] = np.nan
            return out

        monkeypatch.setattr(spectral, solver, with_nan)
        out = tmp_path / "out"
        experiment = (
            {"kind": "audit", "center": [1, 0], "k_max": 0, "trials": 1}
            if command == "audit"
            else {"kind": "predicates", "center": [1, 0], "radius": 4, "sub_scale": 2,
                  "trials": 1, "energies": [0.0]}
        )
        cfg = base_config(
            out, [experiment], particles=2, coupling=10.0, convention="fixed",
            interaction={"kind": "step", "amplitude": 1.0, "range": 1},
            schedule={"p": 33.0, "b": 0.01},
        )
        code, err = _main_quietly([command, "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 3
        assert "numerical failure" in err and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_nan_in_a_cnr_only_spectrum_stops_the_audit(self, tmp_path, monkeypatch):
        """The audit's grid NR and CNR decide nothing from a NaN: at scale 5
        (ladder 3, 5) the grid sub-balls have radius 3 and the one CNR
        sub-ball radius 4, whose spectrum nothing else reads."""
        from mpdsa import msa

        solve = msa.eigenvalues_of

        def with_nan(op):
            values = solve(op)
            if op.ball.radius == 4:
                values[0] = np.nan
            return values

        monkeypatch.setattr(msa, "eigenvalues_of", with_nan)
        out = tmp_path / "out"
        cfg = base_config(
            out, [{"kind": "audit", "center": [1, 0], "k_max": 1, "trials": 1}],
            particles=2, coupling=10.0, convention="fixed",
            interaction={"kind": "step", "amplitude": 1.0, "range": 1},
            scaling={"initial_scale": 3}, schedule={"p": 33.0, "b": 0.01},
        )
        code, err = _main_quietly(["audit", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 3
        assert err == "numerical failure: spectrum value is NaN\n"
        assert not out.exists()

    @pytest.mark.parametrize("center, message", [([0], "spectrum value is NaN"),
                                                 ([50], "energy is NaN")],
                             ids=["first", "second"])
    def test_a_nan_spectrum_stops_evc(self, tmp_path, monkeypatch, center, message):
        """evc's spacing of two spectra decides nothing from a NaN in
        either: the second ball's values are the energies at which the
        first's distance is taken."""
        from mpdsa import msa

        solve = msa.eigenvalues_of

        def with_nan(op):
            values = solve(op)
            if op.ball.center == tuple(center):
                values[0] = np.nan
            return values

        monkeypatch.setattr(msa, "eigenvalues_of", with_nan)
        out = tmp_path / "out"
        experiment = {"kind": "evc", "center": [0], "second_center": [50], "radius": 1,
                      "trials": 4, "s_grid": [0.05, 0.5]}
        cfg = base_config(out, [experiment], coupling=5.0, convention="fixed")
        code, err = _main_quietly(["evc", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 3
        assert err == f"numerical failure: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("ball", ["split", "whole"])
    def test_a_nan_screened_spectrum_exits_3(self, tmp_path, monkeypatch, line, block_trials,
                                             ball):
        """The singular event's block path screens no trial as safe from a
        NaN spectrum, and a screen that raises on a worker leaves no
        thread behind."""
        from mpdsa import msa

        stacked = msa.stacked_eigenvalues

        def with_nan(template, diagonals):
            spectra = stacked(template, diagonals)
            spectra[:, 0] = np.nan
            return spectra

        monkeypatch.setattr(msa, "stacked_eigenvalues", with_nan)
        monkeypatch.setattr(msa, "usable_cpus", lambda: 3)
        out = tmp_path / "out"
        if ball == "split":
            # every trial takes the screen of its factor spectra
            experiment = {"kind": "event", "event": "singular", "center": [6, 0], "radius": 1,
                          "energy": 0.0, "trials": 30}
            coupling = "3"
        else:
            # no field at E = 0, the bottom of the ball's Laplacian: the
            # certificate clears no trial, and the three blocks of 2 b + 7
            # trials (b = 77 at n = 91) screen theirs on the workers
            b = block_trials(HamiltonianSpec(line, 2), enumerate_ball((1, 0), 6, line))
            experiment = {"kind": "event", "event": "singular", "center": [1, 0], "radius": 6,
                          "energy": 0.0, "trials": 2 * b + 7}
            coupling = "0"
        path = write_config(tmp_path / "c.json", base_config(out, [experiment], particles=2))
        alive = threading.active_count()
        code, err = _main_quietly(["sweep", "--config", path, "--axis", "g", "--values", coupling])
        assert code == 3
        assert "numerical failure: spectrum value is NaN" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert threading.active_count() == alive

    @pytest.mark.parametrize("part, entry", [(0, 3), (1, (0, 2))], ids=["value", "vector"])
    def test_a_nan_eigensystem_stops_dynamics(self, tmp_path, monkeypatch, part, entry):
        """dynamics forms no correlator or propagator from a NaN eigenvalue
        or a NaN entry in an eigenvector row it reads."""
        from mpdsa import msa

        solve = msa.diagonalize_rows

        def with_nan(op, indices):
            out = solve(op, indices)
            (out.eigenvalues, out.vectors)[part][entry] = np.nan
            return out

        monkeypatch.setattr(msa, "diagonalize_rows", with_nan)
        out = tmp_path / "out"
        # row 0 holds the member (-3,), the first at distance 3: a default pair reads it
        cfg = base_config(out, [{"kind": "dynamics", "center": [0], "radius": 3, "trials": 2,
                                 "time_points": 20}], coupling=2.0)
        code, err = _main_quietly(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 3
        assert "numerical failure: eigenvalue or eigenvector entry is NaN" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_nan_cell_exits_3_before_its_file_opens(self, tmp_path, monkeypatch):
        """No CSV holds a NaN: the writer refuses the table, the run exits 3
        without a traceback or a manifest.  An infinite cell is written."""
        from mpdsa import cli

        def command(raw, writer, args):
            writer.write_csv("first.csv", ["a", "b"], [[1, math.inf]])
            writer.write_csv("second.csv", ["a", "b"], [[1, 2.0], [2, math.nan]])
            return cli.EXIT_OK

        monkeypatch.setitem(cli.COMMANDS, "spectrum", command)
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", base_config(out, [{"kind": "spectrum"}]))
        code, err = _main_quietly(["spectrum", "--config", path])
        assert code == 3
        assert err == "numerical failure: second.csv: column 'b' holds NaN\n"
        assert read_csv(out / "first.csv") == [["a", "b"], ["1", "inf"]]
        assert sorted(os.listdir(out)) == ["first.csv"]

    def test_a_nan_in_the_summary_exits_3_before_it_opens(self, tmp_path, monkeypatch):
        """No summary.json holds a NaN: a NaN decay exponent stops the run
        with the key path, exit 3 and no manifest.  An infinite value is
        written."""
        from mpdsa import cli

        writer = cli.RunWriter(str(tmp_path / "direct"), {})
        writer.write_json("first.json", {"a": [1.0, math.inf]})
        with pytest.raises(FloatingPointError, match=r"second.json: \['a'\]\[1\]\['b'\] holds NaN"):
            writer.write_json("second.json", {"a": [{"b": 0.0}, {"b": math.nan}]})
        assert os.listdir(tmp_path / "direct") == ["first.json"]

        fit = cli.decay_fit
        monkeypatch.setattr(cli, "decay_fit",
                            lambda pairs: dataclasses.replace(fit(pairs), m_eff=math.nan))
        out = tmp_path / "out"
        cfg = base_config(out, [{"kind": "dynamics", "center": [0], "radius": 8, "trials": 2,
                                 "time_points": 40}], coupling=25.0)
        code, err = _main_quietly(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)])
        assert code == 3
        assert err == ("numerical failure: summary.json: ['experiment_0']['decay_fit']['m_eff']"
                       " holds NaN\n")
        assert sorted(os.listdir(out)) == ["dynamics.csv"]


class TestPinnedOutputs:
    """sha256 of small runs, fixed before the field sampler, the assembly,
    the singular event's solve path and the trial draws changed; any change
    in a drawn value, an assembled entry or a decided flag moves them."""

    def _cfg(self, out, experiment, **overrides):
        cfg = base_config(out, [experiment], particles=2, coupling=10.0, seed=20261018,
                          disorder={"kind": "iid", "marginal": "gaussian"},
                          interaction={"kind": "step", "amplitude": 1.0, "range": 1},
                          convention="fixed")
        cfg.update(overrides)
        return cfg

    def test_sweep_trend(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._cfg(out, {"kind": "event", "event": "singular", "center": [1, 0],
                              "radius": 5, "energy": 0.0, "trials": 200})
        argv = ["sweep", "--config", write_config(tmp_path / "c.json", cfg),
                "--axis", "g", "--values", "2,6,20"]
        assert main(argv) == 0
        assert sha(out / "trend.csv") == (
            "f0e63f1fb1c9cbbeff1cd5b88e3bd86abc310504ef72d9095dc2a488f332b21d"
        )

    def test_predicates_table(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._cfg(out, {"kind": "predicates", "center": [1, 0], "radius": 8,
                              "sub_scale": 4, "trials": 2, "energies": [0.0, 5.0]},
                        coupling=40.0, disorder={"kind": "iid", "marginal": "uniform"})
        assert main(["predicates", "--config", write_config(tmp_path / "c.json", cfg)]) == 1
        assert sha(out / "predicates.csv") == (
            "c0e43148fcd0fd10d48be8d411c7acfd93adf756b4a7ab891ec11dad258d8753"
        )

    def test_spectrum_table(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._cfg(out, {"kind": "spectrum", "center": [1, 0], "radius": 5, "trials": 3})
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        assert sha(out / "spectrum.csv") == (
            "635f3e1ddba071160753e5d6f6791ccabefd942368955ce447527c3816bbc661"
        )

    def test_dynamics_table(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._cfg(out, {"kind": "dynamics", "center": [1, 0], "radius": 4, "trials": 2,
                              "time_points": 100},
                        disorder={"kind": "moving_average", "marginal": "uniform",
                                  "kernel": [1.0, 0.3]})
        assert main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        assert sha(out / "dynamics.csv") == (
            "2a44b5d6766ce1b249aac76915eafe212bd912d0ba8684e424025d001d78f13f"
            if spectral.lapack_rows()
            else "c30dd0511734177911fde85c8fa8c082b42df7d3f25de5cfbf156f0d23c6fa77"
        )

    def test_dynamics_table_from_eigh_rows(self, tmp_path, monkeypatch):
        """Without the LAPACK routines the rows come from ``eigh``, and the
        table is the one ``dynamics`` wrote before the rows solve."""
        monkeypatch.setattr(spectral, "lapack_routine", lambda name: None)
        out = tmp_path / "out"
        cfg = self._cfg(out, {"kind": "dynamics", "center": [1, 0], "radius": 4, "trials": 2,
                              "time_points": 100},
                        disorder={"kind": "moving_average", "marginal": "uniform",
                                  "kernel": [1.0, 0.3]})
        assert main(["dynamics", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        assert sha(out / "dynamics.csv") == (
            "c30dd0511734177911fde85c8fa8c082b42df7d3f25de5cfbf156f0d23c6fa77"
        )
        assert not read_json(out / "manifest.json")["environment"]["lapack_rows"]

    def test_split_ball_dynamics(self, tmp_path, monkeypatch):
        """A ball that factors takes its rows from the factor eigensystems,
        with or without the LAPACK routines, as before the rows solve."""
        runs = []
        for resolver in ("present", "missing"):
            if resolver == "missing":
                monkeypatch.setattr(spectral, "lapack_routine", lambda name: None)
            out = tmp_path / resolver
            cfg = base_config(out, [{"kind": "dynamics", "center": [20, 0], "radius": 3,
                                     "trials": 3, "time_points": 200}],
                              particles=2, coupling=12.0, convention="fixed", seed=4242,
                              interaction={"kind": "step", "amplitude": 1.0, "range": 1})
            path = write_config(tmp_path / f"{resolver}.json", cfg)
            assert main(["dynamics", "--config", path]) == 0
            assert sha(out / "dynamics.csv") == (
                "33b166f4dde2f8b720b06dd2f57606ab38b6bb0acb724d3bbf5764fbe4a3ace5"
            )
            runs.append((out / "summary.json").read_bytes())
        assert runs[0] == runs[1]


def workload_configs():
    """The benchmark's three workload configs, and one that sets every
    other key the schema knows, with both forms of each ``oneOf``."""
    common = dict(particles=2, convention="fixed", seed=550001,
                  scaling={"initial_scale": 6, "mass": 1.0})
    step = {"kind": "step", "amplitude": 1.0, "range": 2}
    return [
        base_config("out", [{"kind": "predicates", "center": [1, 0], "radius": 16,
                             "sub_scale": 6, "trials": 4, "energies": [0.0, 5.0, 15.0]}],
                    coupling=30.0, interaction=step, **common),
        base_config("out", [{"kind": "dynamics", "center": [1, 0], "radius": 16, "trials": 3,
                             "time_points": 2000}],
                    coupling=30.0, interaction=step, **common),
        base_config("out", [{"kind": "event", "event": "singular", "energy": 0.0,
                             "center": [1, 0], "radius": 6, "trials": 1000}],
                    coupling=3.0, disorder={"kind": "iid", "marginal": "gaussian"},
                    interaction={**step, "range": 1}, **common),
        base_config(
            "out",
            [
                {"kind": "dynamics", "center": [1, 0], "second_center": [4, 3],
                 "pairs": [[0, 1], [[1, 0], [2, 0]]], "window": [-1.0, 1], "time_points": 10},
                {"kind": "evc", "center": [0], "radius": 0, "s_grid": [0, 0.1],
                 "constants": {"C1": 1, "A1": 1.0, "b1": 0.5, "C2": 2, "A2": 1, "b2": 0.5}},
                {"kind": "audit", "center": [0], "k_max": 1, "trials": 5, "matrix_cap": 40,
                 "grid_stride": 2},
                {"kind": "event", "event": "tunneling", "energy": 1e50, "sub_scale": 2,
                 "radius": 2, "center": [0]},
            ],
            geometry={"kind": "graph", "d": 1, "growth_constant": 2.0, "adjacency": [[1], [0]]},
            coupling=-1e50,
            disorder={"kind": "moving_average", "marginal": "uniform", "kernel": [1.0, -0.5]},
            interaction={"kind": "table", "amplitude": 0.0, "range": 0, "prefactor": 1.0,
                         "rate": 1.0, "tail_exponent": 0.5, "table": [[1, 0.5]],
                         "truncation_radius": 3, "pair_counting": "unordered"},
            scaling={"regime": "infinite", "alpha": 1.5, "varrho": [1, 2], "tau": [2, 3],
                     "beta": 0.5, "beta_prime": [1, 3], "delta": 0.1, "theta": 0.02,
                     "mass": 1.0, "initial_scale": 8, "cn_variant": "2A+3",
                     "numerical_floor": 1e-12},
            schedule={"p": 33.0, "b": 0.01},
        ),
    ]


def _property_names(schema):
    if isinstance(schema, dict):
        yield from schema.get("properties", ())
        for sub in schema.values():
            yield from _property_names(sub)
    elif isinstance(schema, list):
        for sub in schema:
            yield from _property_names(sub)


# every key the schema knows, and one it does not
_NAMES = sorted(set(_property_names(SCHEMA))) + ["zz"]
_BEYOND = math.nextafter(1e50, math.inf)
# numbers at each edge the schema draws: bools, integral floats, zeros of
# both signs, the magnitude bound and just beyond it, and integers that
# are no float
_NUMBERS = [
    True, False, 0, 1, 2, 3, -1, 2.0, 3.0, 0.5, -0.0, 1e50, -1e50, _BEYOND, -_BEYOND,
    10**50, 10**50 + 1, -(10**50) - 1,
]
_EDGES = _NUMBERS + [
    None, "", "x", "lattice", "graph", "iid", "gaussian", "step", "table", "spectrum",
    "dynamics", "event", "singular", "infinite", "11N", "induced",
    [], [1, 2], [2.0, 3], [1, 2, 3], [True, 1], [0.5, 2], [[0, 1], [2, 3]], [[0], [1]],
    [[1, 0.5]], {}, {"kind": "lattice"}, {"p": 1, "b": 2},
]
_VALUES = st.recursive(
    st.one_of(st.sampled_from(_EDGES).map(copy.deepcopy), st.integers(-3, 20),
              st.floats(-10.0, 10.0)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(_NAMES), inner, max_size=2)
    ),
    max_leaves=6,
)


def _replacement(data, old):
    """A value for an entry that holds ``old``: a numeric edge for a
    number one time in two, else any value."""
    if type(old) in (int, float) and data.draw(st.booleans()):
        return data.draw(st.sampled_from(_NUMBERS))
    return data.draw(_VALUES)


def mutate(data, cfg):
    """Set, delete or add one entry of a container anywhere in ``cfg``."""
    node = cfg
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        inner = [k for k in keys if isinstance(node[k], (dict, list))]
        if not inner or data.draw(st.booleans()):
            break
        node = node[data.draw(st.sampled_from(inner))]
    if isinstance(node, dict):
        # an existing key three times in four
        known = node and data.draw(st.integers(0, 3)) > 0
        key = data.draw(st.sampled_from(sorted(node) if known else _NAMES))
        if key in node and data.draw(st.integers(0, 3)) == 0:
            del node[key]
        else:
            node[key] = _replacement(data, node.get(key))
    elif node and data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(node) - 1))
        if data.draw(st.integers(0, 3)) == 0:
            del node[index]
        else:
            node[index] = _replacement(data, node[index])
    else:
        node.append(data.draw(_VALUES))


_JSONSCHEMA = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


class TestSchema:
    def test_schema_is_a_valid_schema(self):
        jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)

    def test_messages_match_jsonschema_validate(self):
        one = [{"kind": "spectrum"}]
        bad = [
            {"schema_version": 1},
            base_config("o", [{"kind": "spectrum", "radius": -1}]),
            base_config("o", [{"kind": "nope"}], particles=0),
            {**base_config("o", [{"kind": "spectrum"}]), "extra": 1},
            # one per keyword the schema walk judges
            base_config("o", one, particles=True),  # type: a bool is no integer
            base_config("o", one, particles=2.5),  # type
            base_config("o", one, schema_version=True),  # const
            base_config("o", one, convention="free"),  # enum
            base_config("o", one, scaling={"alpha": [1, 2, 3]}),  # oneOf
            base_config("o", one, seed=-1),  # minimum
            base_config("o", one, coupling=_BEYOND),  # maximum
            base_config("o", one, scaling={"mass": -0.0}),  # exclusiveMinimum
            base_config("o", one, schedule={"p": 1.0}),  # required
            base_config("o", one, geometry={"kind": "lattice", "d": 0}),  # properties
            base_config("o", [{"kind": "spectrum", "k": 1}]),  # additionalProperties
            base_config("o", [{"kind": "spectrum", "energies": [0.0, "1"]}]),  # items
            base_config("o", []),  # minItems
            base_config("o", [{"kind": "dynamics", "window": [0, 1, 2]}]),  # maxItems
        ]
        for raw in bad:
            with pytest.raises(jsonschema.ValidationError) as ref:
                jsonschema.validate(raw, SCHEMA)
            with pytest.raises(ConfigError) as got:
                validate_config(raw)
            assert str(got.value) == (
                f"config rejected: {ref.value.message} (at {list(ref.value.absolute_path)})"
            )

    def test_an_error_inside_one_of_names_its_whole_path(self):
        raw = base_config("o", [{"kind": "dynamics", "center": [0], "pairs": [[0, 1, 2]]}])
        with pytest.raises(ConfigError) as got:
            validate_config(raw)
        assert str(got.value).endswith("(at ['experiments', 0, 'pairs', 0, 0])")

    def test_the_workload_configs_conform(self):
        for raw in workload_configs():
            assert _JSONSCHEMA.is_valid(raw) and _conforms(raw, SCHEMA)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_the_walk_agrees_with_jsonschema(self, data):
        raw = copy.deepcopy(data.draw(st.sampled_from(workload_configs())))
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data, raw)
        assert _conforms(raw, SCHEMA) == _JSONSCHEMA.is_valid(raw)

    @pytest.mark.parametrize(
        "value, schema",
        [
            (2, {"oneOf": [{"type": "integer"}, {"type": "number"}]}),  # both match
            (2.5, {"oneOf": [{"type": "integer"}, {"type": "number"}]}),
            (True, {"oneOf": [{"type": "integer"}, {"type": "number"}]}),
            (2.0, {"type": "integer"}),
            (-0.0, {"type": "integer", "exclusiveMinimum": 0}),
            (True, {"const": 1}),
            (1.0, {"const": 1}),
            (False, {"enum": [0, "a"]}),
            # each keyword applies to its own type only
            ("5", {"minimum": 6, "maxItems": 0, "required": ["a"]}),
            ([1], {"minimum": 6, "exclusiveMinimum": 6}),
            (5, {"maxItems": 0, "minItems": 6, "items": {"type": "string"}}),
            ([1], {"type": ["object", "array"], "items": {"type": "string"}}),
            ({"a": 1}, {"additionalProperties": False, "properties": {"b": {}}}),
        ],
    )
    def test_the_walk_is_exact_on_each_keyword(self, value, schema):
        assert _conforms(value, schema) == jsonschema.validators.validator_for(schema)(
            schema
        ).is_valid(value)

    @pytest.mark.parametrize(
        "value, schema",
        [
            # an unknown keyword defers the whole config, not only its branch
            (4, {"oneOf": [{"type": "number", "multipleOf": 2}, {"type": "number"}]}),
            ({"a": 1}, {"additionalProperties": {"type": "integer"}}),
            ([1], {"items": True}),
            ([True], {"const": [1]}),
            ((1, 0), {"type": "array"}),
            (np.float64(1.0), {"type": "number"}),
        ],
    )
    def test_the_walk_defers_what_it_does_not_judge(self, value, schema):
        with pytest.raises(_Unsure):
            _conforms(value, schema)

    def test_jsonschema_decides_what_the_walk_defers(self):
        raw = base_config("o", [{"kind": "spectrum"}], coupling=np.float64(2.0))
        assert validate_config(raw) is raw
        raw = base_config("o", [{"kind": "spectrum", "center": (0,)}])
        with pytest.raises(ConfigError, match=r"\(0,\) is not of type 'array'"):
            validate_config(raw)

    def test_a_valid_config_never_imports_jsonschema(self, tmp_path):
        configs = workload_configs()
        paths = [write_config(tmp_path / f"{i}.json", raw) for i, raw in enumerate(configs)]
        bad = {**configs[0], "seed": -1}
        paths.append(write_config(tmp_path / "bad.json", bad))
        script = (
            "import sys\n"
            "import mpdsa.cli\n"
            "from mpdsa.runconfig import ConfigError, load_config\n"
            "for path in sys.argv[1:-1]:\n"
            "    load_config(path)\n"
            "heavy = ('jsonschema', 'referencing', 'attrs', 'rpds')\n"
            "print([name for name in heavy if name in sys.modules])\n"
            "try:\n"
            "    load_config(sys.argv[-1])\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(mpdsa.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, *paths], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        loaded, message = proc.stdout.splitlines()
        assert loaded == "[]"
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(bad, SCHEMA)
        assert message == f"config rejected: {ref.value.message} (at ['seed'])"


def _main_quietly(argv):
    """(exit code, stderr) of one in-process run; a usage error exits via
    argparse's SystemExit, any other exception escapes as a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


_SITE = st.one_of(st.integers(-2, 4), st.sampled_from(["a", 1.5, True, [0, 1]]))
_INTS = st.lists(st.integers(-2, 4), min_size=1, max_size=3)
_PAIR = st.one_of(_SITE, _INTS, st.lists(st.one_of(_INTS, _SITE), min_size=1, max_size=3))
# at the magnitude bound, and a negative zero
_MAGNITUDE = st.sampled_from([1e50, -1e50, -0.0])
_ENERGY = st.one_of(st.floats(-8.0, 8.0), st.sampled_from([0.0, 1.0]), _MAGNITUDE)


_KERNEL = st.one_of(st.none(), st.just([]), st.just([0.5, 0.3, 0.2]),
                    st.lists(st.one_of(st.floats(-2.0, 2.0), _MAGNITUDE), min_size=1, max_size=3))


class TestContractFuzz:
    """Small configs across six commands.  About four runs in five are
    in-range edits of a valid config: radius, a sub-scale below it,
    energies, a moderate coupling, the kernel, dynamics pairs and evc
    spacing thresholds.  The rest are wild: centre items, dynamics pairs,
    the disorder block (kind, marginal and kernel, empty and non-dominant
    kernels among them) and numbers that reach H drawn at the magnitude
    bound, and in half of them one number just beyond it.  Every run exits
    0, 1, 2 or 3, never with a traceback, and writes nothing when it exits
    2; a number beyond the bound exits 2 with the schema's message, and a
    run that exits 0 or 1 writes no NaN cell.  The command comes from the
    example index, cycling through the six, not from a draw: hypothesis
    mutates the examples it has seen, so a drawn command clusters.  At
    least half of the ``predicates`` runs, and at least half of the
    ``audit`` runs, reach their results (exit 0 or 1), and so do at least
    half of both taken together."""

    def test_exit_code_contract(self):
        reached = {"predicates": [], "audit": []}

        def run(command, data):
            wild = data.draw(st.sampled_from([False] * 4 + [True]))
            particles = data.draw(st.sampled_from([1, 2]))
            center = [1, 0][:particles]
            # a valid sub-scale lies below a radius of at least 2
            low = 0 if wild or command not in ("predicates", "sweep") else 2
            experiment = {"kind": "event" if command == "sweep" else command, "trials": 1,
                          "center": center, "radius": data.draw(st.integers(low, 4))}
            if wild and data.draw(st.integers(0, 3)) == 0:
                experiment["center"] = data.draw(st.lists(_SITE, min_size=1, max_size=3))
            coupling = data.draw(
                st.one_of(st.just(6.0), _MAGNITUDE if wild else st.floats(-20.0, 20.0)))
            extra = []
            if command in ("predicates", "sweep"):
                sub_scale = (data.draw(st.one_of(st.none(), st.integers(1, 5))) if wild
                             else data.draw(st.integers(1, experiment["radius"] - 1)))
                if sub_scale is not None:
                    experiment["sub_scale"] = sub_scale
            if command == "predicates":
                experiment["energies"] = data.draw(st.lists(_ENERGY, max_size=2))
            if command == "sweep":
                experiment.update(
                    event=data.draw(st.sampled_from(
                        ["singular", "tunneling", "non_localized", "distant_pair_singular"]
                    )),
                    energy=data.draw(_ENERGY), trials=30, second_center=[9, 0][:particles],
                )
                extra = ["--axis", "g", "--values", "4"]
            if command == "dynamics":
                experiment["time_points"] = 20
                pairs = data.draw(st.one_of(st.none(), st.lists(_PAIR, min_size=1, max_size=2))
                                  if wild else st.sampled_from([None, [[center, center]]]))
                if pairs is not None:
                    experiment["pairs"] = pairs
            if command == "audit":
                experiment["k_max"] = 0
            if command == "evc":
                experiment.update(
                    second_center=[9, 0][:particles], trials=5,
                    s_grid=data.draw(st.lists(st.sampled_from([-0.0, 0.05, 1.0, 1e50]),
                                              min_size=1, max_size=3)),
                )
            disorder = {"kind": data.draw(st.sampled_from(["iid", "moving_average"])),
                        "marginal": data.draw(st.sampled_from(["uniform", "gaussian"]))}
            kernel = data.draw(_KERNEL if wild else st.sampled_from([None, [0.6, 0.3, 0.05]]))
            if kernel is not None:
                disorder["kernel"] = kernel
            beyond = None
            if wild:
                beyond = data.draw(st.sampled_from([None] * 3 + ["coupling", "energy", "kernel"]))
            outside = data.draw(st.sampled_from([_BEYOND, -_BEYOND]))
            if beyond == "coupling":
                coupling = outside
            elif beyond == "energy":
                experiment["energy"] = outside
            elif beyond == "kernel":
                disorder["kernel"] = [1.0, outside]
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, "out")
                cfg = base_config(out, [experiment], particles=particles, coupling=coupling,
                                  convention="fixed", disorder=disorder,
                                  schedule={"p": 33.0, "b": 0.01})
                path = write_config(os.path.join(tmp, "c.json"), cfg)
                code, err = _main_quietly([command, "--config", path, *extra])
                assert code in (0, 1, 2, 3)
                assert "Traceback" not in err
                if code == 2:
                    assert not os.path.exists(out)
                if beyond is not None:
                    assert code == 2 and "config rejected" in err
                if command in reached:
                    reached[command].append(code in (0, 1))
                if code in (0, 1):
                    tables = [name for name in os.listdir(out) if name.endswith(".csv")]
                    assert tables
                    for name in tables:
                        assert not any("nan" in row for row in read_csv(os.path.join(out, name)))

        commands = ["spectrum", "predicates", "dynamics", "sweep", "audit", "evc"]
        for i, command in enumerate(commands):
            # example e of the 100 runs commands[e % 6]; each command's
            # examples are one search, since hypothesis refuses draws that
            # state outside them steers
            search = given(data=st.data())(run)
            settings(max_examples=len(range(i, 100, len(commands))), derandomize=True,
                     deadline=None)(search)(command)
        hits = reached["predicates"] + reached["audit"]
        assert reached["predicates"] and reached["audit"]
        assert 2 * sum(hits) >= len(hits), reached
        for command, runs in reached.items():
            assert 2 * sum(runs) >= len(runs), (command, runs)
