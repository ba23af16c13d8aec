import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdsa.cli import main
from mpdsa.runconfig import SCHEMA


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


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


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
        m1 = json.load(open(tmp_path / "o1" / "manifest.json"))
        m2 = json.load(open(tmp_path / "o2" / "manifest.json"))
        by_name1 = {o["path"]: o["sha256"] for o in m1["outputs"]}
        by_name2 = {o["path"]: o["sha256"] for o in m2["outputs"]}
        assert by_name1["spectrum.csv"] == by_name2["spectrum.csv"]
        assert m1["config_sha256"] == m2["config_sha256"]

    def test_manifest_checksums_verify(self, tmp_path):
        out = tmp_path / "o"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1}])
        main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)])
        manifest = json.load(open(out / "manifest.json"))
        for entry in manifest["outputs"]:
            assert sha(out / entry["path"]) == entry["sha256"]

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "o"
        cfg = base_config(out, [{"kind": "spectrum", "center": [0], "radius": 1}])
        assert main(["spectrum", "--config", write_config(tmp_path / "c.json", cfg)]) == 0
        env = json.load(open(out / "manifest.json"))["environment"]
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
        summary = json.load(open(out / "summary.json"))
        assert "experiment_0" in summary

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
        summary = json.load(open(out / "summary.json"))
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
        info = json.load(open(out / "summary.json"))["experiment_0"]
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
        summary = json.load(open(out / "summary.json"))
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
        summary = json.load(open(out / "summary.json"))
        fit = summary["experiment_0"]["decay_fit"]
        assert fit is not None
        assert fit["m_eff"] > 0


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

    def test_summary_counts_each_points_screens(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path / "c.json", self._cfg(out))
        assert main(["sweep", "--config", path, "--axis", "g", "--values", "3,10,30"]) == 0
        points = json.load(open(out / "summary.json"))["diagnostics"]
        assert [p["value"] for p in points] == [3.0, 10.0, 30.0]
        for p in points:
            assert p["certificate_cleared"] + p["eigvalsh_screened"] == 30
            # n = 91 gives blocks of 15 trials; a screened trial's block
            # failed its stacked Cholesky
            assert p["blocks"] == 2
            assert (p["eigvalsh_screened"] > 0) <= p["cholesky_fallback_blocks"] <= 2

    def test_a_trial_at_an_eigenvalue_counts_as_screened(self, tmp_path):
        # at g = 0 every trial is the path Laplacian, and E = 1 is its eigenvalue
        out = tmp_path / "out"
        experiment = {"kind": "event", "event": "singular", "center": [0], "radius": 1,
                      "energy": 1.0, "trials": 30}
        path = write_config(tmp_path / "c.json", base_config(out, [experiment]))
        assert main(["sweep", "--config", path, "--axis", "g", "--values", "0,20"]) == 0
        at_zero, at_twenty = json.load(open(out / "summary.json"))["diagnostics"]
        assert (at_zero["certificate_cleared"], at_zero["eigvalsh_screened"]) == (0, 30)
        assert at_twenty["certificate_cleared"] > 0
        assert read_csv(out / "trend.csv")[1][2] == "30"

    def test_other_events_have_no_diagnostics(self, tmp_path):
        out = tmp_path / "out"
        experiment = {"kind": "event", "event": "always_true", "center": [0], "radius": 1,
                      "trials": 30}
        path = write_config(tmp_path / "c.json", base_config(out, [experiment]))
        assert main(["sweep", "--config", path, "--axis", "g", "--values", "1"]) == 0
        assert "diagnostics" not in json.load(open(out / "summary.json"))

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
        summary = json.load(open(out / "summary.json"))
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
        count = json.load(open(out / "summary.json"))["violation_count"]
        assert count == len(strided.violations) != len(default.violations)
        assert len(read_csv(out / "violations.csv")) == 1 + count

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
        records = json.load(open(out / "summary.json"))["predicates"]
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
            "c30dd0511734177911fde85c8fa8c082b42df7d3f25de5cfbf156f0d23c6fa77"
        )


class TestSchema:
    def test_schema_is_a_valid_schema(self):
        import jsonschema

        from mpdsa.runconfig import SCHEMA

        jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)

    def test_messages_match_jsonschema_validate(self):
        import jsonschema

        from mpdsa.runconfig import SCHEMA, ConfigError, validate_config

        bad = [
            {"schema_version": 1},
            base_config("o", [{"kind": "spectrum", "radius": -1}]),
            base_config("o", [{"kind": "nope"}], particles=0),
            {**base_config("o", [{"kind": "spectrum"}]), "extra": 1},
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
        from mpdsa.runconfig import ConfigError, validate_config

        raw = base_config("o", [{"kind": "dynamics", "center": [0], "pairs": [[0, 1, 2]]}])
        with pytest.raises(ConfigError) as got:
            validate_config(raw)
        assert str(got.value).endswith("(at ['experiments', 0, 'pairs', 0, 0])")


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
_ENERGY = st.one_of(st.floats(-8.0, 8.0), st.sampled_from([0.0, 1.0]))


_KERNEL = st.one_of(st.none(), st.just([]), st.just([0.5, 0.3, 0.2]),
                    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))


class TestContractFuzz:
    """Small configs, mutated across four commands: radius, sub-scale,
    energy, centre items (one run in four), dynamics pairs and the
    disorder block (kind, marginal and kernel, empty and non-dominant
    kernels among them).  Every run exits 0, 1, 2 or 3, never with a
    traceback, and writes nothing when it exits 2."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_exit_code_contract(self, data):
        command = data.draw(st.sampled_from(["spectrum", "predicates", "dynamics", "sweep"]))
        particles = data.draw(st.sampled_from([1, 2]))
        experiment = {"kind": "event" if command == "sweep" else command, "trials": 1,
                      "center": [1, 0][:particles], "radius": data.draw(st.integers(0, 4))}
        if data.draw(st.integers(0, 3)) == 0:
            experiment["center"] = data.draw(st.lists(_SITE, min_size=1, max_size=3))
        extra = []
        if command in ("predicates", "sweep"):
            sub_scale = data.draw(st.one_of(st.none(), st.integers(1, 5)))
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
            pairs = data.draw(st.one_of(st.none(), st.lists(_PAIR, min_size=1, max_size=2)))
            if pairs is not None:
                experiment["pairs"] = pairs
        disorder = {"kind": data.draw(st.sampled_from(["iid", "moving_average"])),
                    "marginal": data.draw(st.sampled_from(["uniform", "gaussian"]))}
        kernel = data.draw(_KERNEL)
        if kernel is not None:
            disorder["kernel"] = kernel
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            cfg = base_config(out, [experiment], particles=particles, coupling=6.0,
                              convention="fixed", disorder=disorder)
            path = write_config(os.path.join(tmp, "c.json"), cfg)
            code, err = _main_quietly([command, "--config", path, *extra])
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err
            if code == 2:
                assert not os.path.exists(out)
