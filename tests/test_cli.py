"""Tests for the experiment CLI."""

import json

import pytest

from repro.experiments import cli
from repro.experiments.runner import clear_results
from repro.experiments.store import set_store


def setup_function(_):
    clear_results()
    set_store(None)


def teardown_function(_):
    set_store(None)
    clear_results()


def test_cli_runs_one_artifact(capsys, monkeypatch):
    # Shrink the benchmark set so the CLI test stays fast.
    from repro.experiments import tables

    original = tables.table1

    def small_table1(settings):
        return original(settings, benchmarks=("132.ijpeg",))

    monkeypatch.setitem(cli.ARTIFACTS, "table1", small_table1)
    rc = cli.main(["table1", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Table 1" in out
    assert "regenerated in" in out


def test_cli_rejects_unknown_artifact():
    with pytest.raises(SystemExit):
        cli.main(["not-an-artifact"])


@pytest.mark.parametrize("argv", [
    ["all", "--backend", "eventsim"],
    ["check", "fuzz", "--backend", "eventsim"],
])
def test_cli_rejects_eventsim_backend(argv, capsys):
    # Split configs pick their machine themselves; "eventsim" is not a
    # backend a run can request.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert "invalid choice: 'eventsim'" in capsys.readouterr().err


def test_cli_settings_flags(monkeypatch):
    captured = {}

    def fake_table1(settings):
        captured["settings"] = settings
        from repro.experiments.report import ExperimentReport
        return ExperimentReport("Table 1", "t", ("a",), [("x",)])

    monkeypatch.setitem(cli.ARTIFACTS, "table1", fake_table1)
    cli.main(["table1", "--timing", "1234", "--warmup", "567",
              "--seed", "9"])
    assert captured["settings"].timing_instructions == 1234
    assert captured["settings"].warmup_instructions == 567
    assert captured["settings"].seed == 9


def test_cli_export_flags(monkeypatch, tmp_path):
    def fake_table1(settings):
        from repro.experiments.report import ExperimentReport
        return ExperimentReport(
            "Table 1", "t", ("a", "b"), [("x", 1)], data={"x": 1}
        )

    monkeypatch.setitem(cli.ARTIFACTS, "table1", fake_table1)
    json_dir = tmp_path / "json"
    csv_dir = tmp_path / "csv"
    cli.main([
        "table1", "--quick",
        "--json", str(json_dir), "--csv", str(csv_dir),
    ])
    import json as jsonlib
    payload = jsonlib.loads((json_dir / "table1.json").read_text())
    assert payload["experiment"] == "Table 1"
    assert (csv_dir / "table1.csv").read_text().startswith("a,b")


def test_cli_quick_flag(monkeypatch):
    captured = {}

    def fake_table1(settings):
        captured["settings"] = settings
        from repro.experiments.report import ExperimentReport
        return ExperimentReport("Table 1", "t", ("a",), [("x",)])

    monkeypatch.setitem(cli.ARTIFACTS, "table1", fake_table1)
    cli.main(["table1", "--quick"])
    assert captured["settings"].timing_instructions == 6000


def test_cli_store_and_telemetry_flags(monkeypatch, tmp_path):
    from repro.experiments.store import active_store

    def fake_table1(settings):
        from repro.experiments.report import ExperimentReport
        return ExperimentReport("Table 1", "t", ("a",), [("x",)])

    monkeypatch.setitem(cli.ARTIFACTS, "table1", fake_table1)
    store_dir = tmp_path / "store"
    tele = tmp_path / "run.jsonl"
    rc = cli.main([
        "table1", "--quick",
        "--store", str(store_dir), "--telemetry", str(tele),
    ])
    assert rc == 0
    assert active_store() is not None
    assert active_store().root == str(store_dir)
    from repro.experiments.telemetry import read_telemetry

    names = [e["event"] for e in read_telemetry(tele)]
    assert names == ["artifact_start", "artifact_finish"]


def test_cache_subcommand_reports_and_clears(capsys, tmp_path):
    from repro.config import continuous_window_128
    from repro.core.result import SimResult
    from repro.experiments.runner import (
        ExperimentSettings, _config_key,
    )
    from repro.experiments.store import ResultStore

    store = ResultStore(tmp_path)
    store.save(
        "132.ijpeg",
        ExperimentSettings(100, 100),
        _config_key(continuous_window_128()),
        SimResult(cycles=10, committed=20),
    )

    rc = cli.main(["cache", "--path", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "entries         1" in out

    rc = cli.main(["cache", "--path", str(tmp_path), "--clear"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cleared 1" in out
    assert len(store) == 0


def test_status_subcommand(capsys, tmp_path):
    from repro.experiments.telemetry import TelemetryWriter

    tele = tmp_path / "run.jsonl"
    with TelemetryWriter(tele) as writer:
        writer.emit("shard_start", benchmark="x", attempt=1)
        writer.emit(
            "shard_finish", benchmark="x", attempt=1, wall=1.0,
            worker=1, memory_hits=0, store_hits=2, simulations=2,
        )
        writer.emit(
            "matrix_finish", wall=1.2, memory_hits=0, store_hits=2,
            simulations=2, shards_ok=1, shards_failed=0, failed=[],
        )

    rc = cli.main(["status", str(tele)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 simulated" in out
    assert "50.0% hit rate" in out

    rc = cli.main(["status", str(tele), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["simulations"] == 2
    assert payload["matrix_runs"] == 1


def test_status_subcommand_missing_file(capsys, tmp_path):
    rc = cli.main(["status", str(tmp_path / "absent.jsonl")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err
