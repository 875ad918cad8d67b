"""The single-fault config sweep in tools/config_outcomes.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "config_outcomes.py"
_spec = importlib.util.spec_from_file_location("config_outcomes", _PATH)
config_outcomes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(config_outcomes)


def _lines(capsys, *keys):
    assert config_outcomes.main(list(keys)) == 0
    return capsys.readouterr().out.splitlines()


def test_each_key_value_and_preset_prints_one_outcome(capsys):
    lines = _lines(capsys, "system.j_max", "scan.cavity")
    n_presets = 1 + len(config_outcomes.cli.PRESETS)
    assert len(lines) == n_presets * 2 * len(config_outcomes.VALUES)
    assert "- system.j_max 64 2 system.j_max: must be <= 63" in lines
    assert "fig2 scan.cavity [true, true] 2 scan.cavity: true and false may each appear once" \
        in lines
    ok = [line for line in lines if line.startswith("- system.j_max 8 ok ")]
    assert len(ok) == 1 and len(ok[0].split()[-1]) == 12
    # a config that raises anything but ConfigError is a line, not a crash
    assert not [line for line in lines if line.split()[3] == "1"]


def test_the_same_config_hashes_the_same_and_a_changed_one_differently(capsys):
    lines = _lines(capsys, "field.phase")
    by_value = {line.split()[2]: line.split()[3:] for line in lines if line.startswith("- ")}
    # 0 resolves as the default 0.0 does; 1 does not
    assert by_value["0"] == config_outcomes.outcome({}, None).split()
    assert by_value["1"][0] == "ok" and by_value["1"] != by_value["0"]
    assert _lines(capsys, "field.phase") == lines


def test_an_unknown_key_exits_2(capsys):
    assert config_outcomes.main(["field.colour"]) == 2
    assert "field.colour" in capsys.readouterr().err
