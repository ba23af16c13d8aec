"""The benchmark's output checks pass on real output and catch corrupted output.

    python3 -m pytest perfbench/test_reference.py -q
"""

import csv
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
from layertrace import Tracer  # noqa: E402
from mpdsa.cli import main as cli_main  # noqa: E402


def cli_output(tmp_path, workload: str, trials: int):
    """Run one workload's CLI command with fewer trials; (config, out, exit code)."""
    spec = run.WORKLOADS[workload]
    raw = json.loads(json.dumps(spec.config))
    raw["seed"] = spec.default_seed
    raw["experiments"][0]["trials"] = trials
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = cli_main([spec.command[0], "--config", str(config), "--out", str(out), *spec.command[1:]])
    return raw, out, code


def edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_flipped_e_ns_flag_is_caught(tmp_path):
    raw, out, code = cli_output(tmp_path, "predicates-r16", trials=1)
    assert reference.check_predicates(raw, out, code, brute_force=True) == []
    assert reference.check_manifest(out) == []

    def flip(rows):
        rows[0]["e_ns"] = str(1 - int(rows[0]["e_ns"]))

    edit_csv(out / "predicates.csv", flip)
    failures = reference.check_predicates(raw, out, code, brute_force=False)
    assert any("e_ns" in f for f in failures)
    assert any("sha256" in f for f in reference.check_manifest(out))


def test_propagator_above_correlator_is_caught(tmp_path):
    raw, out, code = cli_output(tmp_path, "dynamics-r16", trials=1)
    assert reference.check_dynamics(raw, out, code, brute_force=True) == []

    def inflate(rows):
        off_diagonal = [r for r in rows if r["x"] != r["y"]]
        row = max(off_diagonal, key=lambda r: float(r["correlator_q"]))
        row["propagator_sup"] = repr(float(row["correlator_q"]) * 1.5)

    edit_csv(out / "dynamics.csv", inflate)
    failures = reference.check_dynamics(raw, out, code, brute_force=False)
    assert any("above correlator" in f for f in failures)


def test_rerun_comparison_sees_a_changed_byte(tmp_path):
    first = tmp_path / "a"
    first.mkdir()
    (first / "trend.csv").write_text("axis,value\ng,3.0\n")
    second = tmp_path / "b"
    second.mkdir()
    (second / "trend.csv").write_text("axis,value\ng,3.0\n")
    assert reference.compare_outputs(first, second) == []
    (second / "trend.csv").write_text("axis,value\ng,3.5\n")
    assert reference.compare_outputs(first, second) != []


def test_metric_names_match_benchmark_json(tmp_path):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = {"run_s": 1.0, "setup_s": 0.5, "import_s": 0.3, "maxrss_kb": 1024}
    traced = run.Op(0, tmp_path, dict(result, trace=Tracer().report()))
    plain = run.Op(0, tmp_path, dict(result))
    for metrics, section in (
        (run.end_to_end_metrics([plain], [plain], 4), "end_to_end"),
        (run.layer_metrics([(plain, traced)]), "per_layer"),
    ):
        units = {m["name"]: m["unit"] for m in declared[section]}
        assert {k: v["unit"] for k, v in metrics.items()} == units


def test_times_scale_to_the_reference_speed(tmp_path):
    result = {"run_s": 2.0, "setup_s": 0.5, "import_s": 0.3, "maxrss_kb": 1024}
    ops = [run.Op(0, tmp_path, dict(result), scale=0.5), run.Op(1, tmp_path, dict(result))]
    metrics = run.end_to_end_metrics(ops, [], 4)
    assert metrics["trials_per_s"]["value"] == 8 / 3.0
    assert metrics["setup_s"]["value"] == 0.375
    unscaled = run.end_to_end_metrics(ops, [], 4, scaled=False)
    assert unscaled["trials_per_s"]["value"] == 2.0
    assert unscaled["setup_s"]["value"] == 0.5
