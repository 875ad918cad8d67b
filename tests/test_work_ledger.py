"""The kernel-step ledger in tools/work_ledger.py."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "work_ledger.py"
_spec = importlib.util.spec_from_file_location("work_ledger", _PATH)
work_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_ledger)


def _side(root, scan_steps, simulate_steps):
    scan = root / "scan"
    scan.mkdir(parents=True)
    (scan / "records.jsonl").write_text(
        "".join(json.dumps({"index": i, "steps": s}) + "\n" for i, s in enumerate(scan_steps)))
    (scan / "orientation.tsv").write_text("# time_au\torientation\n0.0\t0.5\n")
    sim = root / "simulate"
    sim.mkdir()
    # a record nested in a JSON tree counts as well
    (sim / "populations.json").write_text(json.dumps({"run": {"steps": simulate_steps}}))
    (root / "design").mkdir()
    (root / "design" / "report.json").write_text(json.dumps({"phase": 0.3}))


def _table(capsys):
    return {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}


def test_the_ledger_counts_records_and_steps_per_config(tmp_path, capsys):
    _side(tmp_path / "base", [[10, 20], [30, 60, 90]], [5, 10])
    _side(tmp_path / "head", [[10, 20], [30, 60, 90]], [5, 11])
    assert work_ledger.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    table = _table(capsys)
    assert table["scan"] == ["2", "210", "2", "210", "same"]
    assert table["simulate"] == ["1", "15", "1", "16", "DIFFER"]
    assert table["design"] == ["0", "0", "0", "0", "same"]


def test_a_config_on_one_side_only_reads_as_missing(tmp_path, capsys):
    _side(tmp_path / "base", [[4]], [1])
    (tmp_path / "head").mkdir()
    assert work_ledger.main([str(tmp_path / "base"), str(tmp_path / "head")]) == 0
    assert _table(capsys)["scan"] == ["1", "4", "-", "-", "DIFFER"]
