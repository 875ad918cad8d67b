"""The output-directory comparer in tools/compare_outputs.py."""

import importlib.util
import io
import json
import shutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


@pytest.fixture
def outdir(tmp_path):
    d = tmp_path / "a"
    d.mkdir()
    (d / "orientation.tsv").write_text("# time_au\torientation\n0.0\t0.5\n1.0\t-0.25\n")
    (d / "records.jsonl").write_text(json.dumps({"t_max": 3.0, "ok": True}) + "\n")
    (d / "report.json").write_text(json.dumps({"phase": 0.349, "carriers": [[1.8, 0.0]]}))
    (d / "manifest.json").write_text(json.dumps({"config": {"output": {"directory": "a"}}}))
    return d


def _copy(src, name):
    dst = src.parent / name
    shutil.copytree(src, dst)
    return dst


def _run(a, b, *extra):
    return compare_outputs.main([str(a), str(b), *extra])


def test_identical_directories_pass(outdir):
    other = _copy(outdir, "b")
    # the manifest names its own directory, so it is never compared
    (other / "manifest.json").write_text(json.dumps({"config": {"output": {"directory": "b"}}}))
    assert _run(outdir, other) == 0


def test_byte_equal_files_read_identical_and_rewritten_ones_equal(outdir):
    other = _copy(outdir, "b")
    # the same values in other text: 0.5 as 5e-1, and the JSON indented
    (other / "orientation.tsv").write_text("# time_au\torientation\n0.0\t5e-1\n1.0\t-0.25\n")
    (other / "report.json").write_text(json.dumps({"phase": 0.349, "carriers": [[1.8, 0.0]]},
                                                  indent=2))
    out = io.StringIO()
    assert compare_outputs.compare(str(outdir), str(other), out=out)
    assert out.getvalue() == ("ok   orientation.tsv: equal\n"
                              "ok   records.jsonl: identical\n"
                              "ok   report.json: equal\n")


def test_a_value_past_its_tolerance_fails(outdir):
    other = _copy(outdir, "b")
    (other / "orientation.tsv").write_text("# time_au\torientation\n0.0\t0.5\n1.0\t-0.2500001\n")
    # the value moved by 1e-7, which is 2e-7 of the column's peak 0.5
    assert _run(outdir, other, "--rtol", "1e-6") == 0
    assert _run(outdir, other, "--rtol", "1e-7") == 1
    assert _run(outdir, other, "--rtol", "1e-6", "--tol", "orientation=0") == 1


def test_a_json_value_past_its_tolerance_fails(outdir):
    other = _copy(outdir, "b")
    (other / "records.jsonl").write_text(json.dumps({"t_max": 3.0 + 1e-12, "ok": True}) + "\n")
    assert _run(outdir, other, "--atol", "1e-10") == 0
    assert _run(outdir, other, "--atol", "1e-10", "--tol", "t_max=0") == 1
    (other / "records.jsonl").write_text(json.dumps({"t_max": 3.0, "ok": False}) + "\n")
    assert _run(outdir, other, "--atol", "1") == 1


def test_a_missing_file_fails(outdir):
    other = _copy(outdir, "b")
    (other / "report.json").unlink()
    out = io.StringIO()
    assert not compare_outputs.compare(str(outdir), str(other), out=out)
    assert "FAIL report.json: only in" in out.getvalue()


def test_a_changed_shape_fails(outdir):
    other = _copy(outdir, "b")
    (other / "orientation.tsv").write_text("# time_au\torientation\n0.0\t0.5\n")
    (other / "report.json").write_text(json.dumps({"phase": 0.349, "carriers": [[1.8]]}))
    out = io.StringIO()
    assert not compare_outputs.compare(str(outdir), str(other), atol=1.0, out=out)
    assert out.getvalue().count("shape differs") == 2
    # no column moved, so the headline names the problem
    assert "FAIL orientation.tsv: shape differs\n" in out.getvalue()
    assert "FAIL report.json: shape differs\n" in out.getvalue()


def test_a_null_against_a_number_fails_and_heads_its_file(outdir):
    other = _copy(outdir, "b")
    (other / "records.jsonl").write_text(json.dumps({"t_max": None, "ok": True}) + "\n")
    out = io.StringIO()
    assert not compare_outputs.compare(str(outdir), str(other), atol=1.0, out=out)
    assert "FAIL records.jsonl: line0.t_max: 3.0 != None\n" in out.getvalue()


def test_outputs_hold_still_when_roundoff_moves_the_field(tmp_path, monkeypatch, capsys):
    # A field scaled by 1 + 1e-13 moves every kick by roundoff and the physics
    # by no more: a stand-in for any reordering of the arithmetic.  Every
    # output column must then stay inside the tolerances CI holds a pull
    # request to against its base commit.  (Scaling the trial step instead
    # moves nothing: the kernel's step is span / ceil(span / dt).)
    from rotpolariton import cli, dynamics

    detuning = tmp_path / "detuning.yaml"
    detuning.write_text("scan:\n  detunings_g: [0.0, -1.3, 0.7]\n  bandwidths_g: [1.0]\n"
                        "  cavity: [true, false]\n")
    runs = {"bare": ["simulate", "--preset", "bare"],
            "fig4": ["simulate", "--preset", "fig4"],
            "fig3": ["scan", "--preset", "fig3"],
            "detuning": ["scan", "--config", str(detuning)]}
    field_value = dynamics.field_value
    for side, scale in (("a", 1.0), ("b", 1.0 + 1e-13)):
        monkeypatch.setattr(dynamics, "field_value",
                            lambda fld, t, s=scale: s * field_value(fld, t))
        for name, argv in runs.items():
            assert cli.main(argv + ["--out", str(tmp_path / side / name)]) == 0
    capsys.readouterr()
    out = io.StringIO()
    ok = compare_outputs.compare(str(tmp_path / "a"), str(tmp_path / "b"), atol=1e-10,
                                 rtol=1e-10, tols={"phase": 1e-6}, out=out)
    assert ok, out.getvalue()
