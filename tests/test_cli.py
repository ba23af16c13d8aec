import csv
import hashlib
import json
import os

import pytest

from mpdsa.cli import main


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
        ],
    )
    def test_rejected_config_leaves_no_directory(self, tmp_path, command, experiment, extra):
        out = tmp_path / "out"
        cfg = base_config(out, [experiment])
        assert main([command, "--config", write_config(tmp_path / "c.json", cfg), *extra]) == 2
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
