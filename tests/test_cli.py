"""Command-line layer: config resolution, exit codes, output files.

All runs here go through main(argv) in process; the heavy physics is kept
small (reduced bases, broadband pulses, short traces) because the command
outputs, not the dynamics, are under test.
"""

import inspect
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rotpolariton import (
    HARTREE_PER_CM1, cli, composite_for_area, dynamics, kick_response, scan_composite_bandwidth,
    scan_detuning_bandwidth,
)
from rotpolariton.cli import (
    DEFAULTS, PRESETS, SCHEMA, _boolean, _carriers, _choice, _flags, _grid, _integer, _number,
    _plain, build_params, main, resolve_config,
)
from rotpolariton.control import DESIGN_AREA
from rotpolariton.errors import ConfigError

# small, fast run shared by several smoke tests
FAST = {
    "system": {"j_max": 4, "n_max": 2},
    "field": {"bandwidth_g": 1.0},
    "experiment": {"n_trace": 2048, "trace_window_tau": 20.0, "n_trajectory": 5},
}


def write_cfg(path, cfg):
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def merged(*parts):
    out = {}
    for part in parts:
        for section, body in part.items():
            out.setdefault(section, {}).update(body)
    return out


# -------------------------------------------------------- config resolution


def test_defaults_resolve():
    cfg = resolve_config({})
    assert cfg["field"]["kind"] == "gaussian"
    # null: each pulse the command builds takes its own default area
    assert cfg["field"]["area"] is None
    assert cfg["scan"]["detunings_g"] == [0.0]
    assert cfg["system"]["rot_const_au"] == 0.20286 * HARTREE_PER_CM1


def test_presets_resolve():
    for name in PRESETS:
        cfg = resolve_config({}, preset=name)
        assert cfg["output"]["directory"] == "out"
    bare = resolve_config({}, preset="bare")
    assert bare["system"]["cavity"] is False
    fig2 = resolve_config({}, preset="fig2")
    assert len(fig2["scan"]["detunings_g"]) == 81
    assert fig2["scan"]["cavity"] == [True, False]
    assert resolve_config({}, preset="fig3")["scan"]["write_spectra"] is True
    assert resolve_config({}, preset="fig4")["field"]["kind"] == "designed"
    fig5 = resolve_config({}, preset="fig5")
    bws = fig5["scan"]["bandwidths_g"]
    assert fig5["scan"]["kind"] == "composite"
    assert len(bws) == 25 and bws == sorted(bws) and bws[0] > 0
    # log spacing: constant ratio between neighbours
    ratios = np.diff(np.log(bws))
    assert np.allclose(ratios, ratios[0])


def test_control_reads_a_kick_in_the_configs_terms():
    # the config's read-out keys, units and defaults are control's keywords,
    # so cli passes them through unconverted
    exp = DEFAULTS["experiment"]
    kick = ("trace_window_tau", "n_trace", "snapshot_tau")
    for fn, keys in ((kick_response, kick), (scan_detuning_bandwidth, kick),
                     (scan_composite_bandwidth, kick[:2])):
        params = inspect.signature(fn).parameters
        assert {k: params[k].default for k in keys} == {k: exp[k] for k in keys}, fn.__name__
        assert params["tol"].default == DEFAULTS["integrator"]["tol"], fn.__name__


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        resolve_config({}, preset="fig9")


def test_unknown_sections_and_keys_rejected():
    with pytest.raises(ConfigError, match="section"):
        resolve_config({"cavitysystem": {}})
    with pytest.raises(ConfigError, match="jmax"):
        resolve_config({"system": {"jmax": 3}})
    with pytest.raises(ConfigError, match="mapping"):
        resolve_config({"system": "j_max: 3"})
    # only an empty document (None) overrides nothing; a falsy root is no mapping
    for root in ([1, 2], [], False, 0, ""):
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            resolve_config(root)


def test_quantity_forms():
    cfg = resolve_config({"system": {"rot_const": {"value": 1.0, "unit": "au"},
                                     "dipole": {"value": 0.5, "unit": "au-dipole"}}})
    assert cfg["system"]["rot_const_au"] == 1.0
    assert cfg["system"]["dipole_au"] == 0.5
    # bare scalar keeps the spectroscopic default unit
    cfg = resolve_config({"system": {"rot_const": 2.0}})
    assert cfg["system"]["rot_const_au"] == 2.0 * HARTREE_PER_CM1
    with pytest.raises(ConfigError, match="unit"):
        resolve_config({"system": {"rot_const": {"value": 1.0, "unit": "eV"}}})
    with pytest.raises(ConfigError, match="positive"):
        resolve_config({"system": {"dipole": -0.7}})
    # keys of mixed types are still listed, not compared
    for extra in ({"units": "au"}, {1: 2, "a": 3}):
        with pytest.raises(ConfigError, match="unknown keys"):
            resolve_config({"system": {"rot_const": {"value": 1.0, **extra}}})
    with pytest.raises(ConfigError, match=r"unknown keys \[1, 'a'\]"):
        resolve_config({"scan": {"detunings_g": {1: 2, "a": 3}}})


def test_grid_forms():
    cfg = resolve_config({"scan": {"detunings_g": [-1.0, 0.0, 1.0]}})
    assert cfg["scan"]["detunings_g"] == [-1.0, 0.0, 1.0]
    cfg = resolve_config({"scan": {"detunings_g": {"start": -2, "stop": 2, "num": 5}}})
    assert cfg["scan"]["detunings_g"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    cfg = resolve_config({"scan": {"bandwidths_g": {"start": 0.1, "stop": 1.0,
                                                    "num": 3, "log": True}}})
    assert cfg["scan"]["bandwidths_g"] == pytest.approx([0.1, np.sqrt(0.1), 1.0])
    with pytest.raises(ConfigError, match="empty"):
        resolve_config({"scan": {"detunings_g": []}})
    with pytest.raises(ConfigError, match="start, stop, num"):
        resolve_config({"scan": {"detunings_g": {"start": 0, "stop": 1}}})
    with pytest.raises(ConfigError, match="positive"):
        resolve_config({"scan": {"bandwidths_g": [0.1, 0.0]}})
    with pytest.raises(ConfigError, match="log grid"):
        resolve_config({"scan": {"bandwidths_g": {"start": -1, "stop": 1,
                                                  "num": 3, "log": True}}})


def test_field_validation():
    with pytest.raises(ConfigError, match="field.kind"):
        resolve_config({"field": {"kind": "square"}})
    with pytest.raises(ConfigError, match="carriers"):
        resolve_config({"field": {"kind": "composite"}})
    with pytest.raises(ConfigError, match="carriers"):
        resolve_config({"field": {"kind": "composite",
                                  "carriers": [{"freq": 1.0}]}})
    cfg = resolve_config({"field": {"kind": "composite",
                                    "carriers": [{"detuning_g": 1.0},
                                                 {"detuning_g": -1.0, "phase": 0.3}]}})
    assert cfg["field"]["area"] is None
    assert cfg["field"]["carriers"][1] == {"detuning_g": -1.0, "phase": 0.3}
    with pytest.raises(ConfigError, match="cavity"):
        resolve_config({"system": {"cavity": False, "n_max": 0},
                        "field": {"kind": "designed"}})
    assert resolve_config({})["field"]["branch"] == "+"
    with pytest.raises(ConfigError, match=r"field.branch: expected one of \['\+', '-'\]"):
        resolve_config({"field": {"branch": "auto"}})


@pytest.mark.parametrize("path", [f"{section}.{key}" for section, rules in SCHEMA.items()
                                  for key in rules])
def test_every_config_key_has_a_rule(path):
    # a nested list is no value any key accepts
    section, key = path.split(".")
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        resolve_config({section: {key: [[1]]}})


@pytest.mark.parametrize("kind", ["gaussian", "composite", "designed"])
def test_carriers_are_checked_for_every_field_kind(kind):
    with pytest.raises(ConfigError, match=r"field\.carriers"):
        resolve_config({"field": {"kind": kind, "carriers": "junk"}})


def test_readme_config_block_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config schema (defaults shown)")[1]
    block = block.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.safe_load(block) == DEFAULTS


def test_dressed_is_no_config_key(tmp_path, capsys):
    # system.cavity picks the frame: the dressed basis or the rotor alone
    for cavity, n_max in ((True, 4), (False, 0)):
        path = write_cfg(tmp_path / "dressed.yaml",
                         {"system": {"cavity": cavity, "n_max": n_max},
                          "experiment": {"dressed": cavity}})
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "run")]) == 2
        assert "experiment.'dressed'" in capsys.readouterr().err


def test_coupled_cavity_needs_photon_states():
    with pytest.raises(ConfigError, match="n_max"):
        resolve_config({"system": {"n_max": 0}})


def test_integrator_validation():
    # step control takes only tol: the pilot step and the run cap are fixed
    for key, value in (("dt", 0.5), ("max_halvings", 6)):
        with pytest.raises(ConfigError, match=f"unknown config key integrator.'{key}'"):
            resolve_config({"integrator": {key: value}})
    assert set(resolve_config({})["integrator"]) == {"tol"}
    with pytest.raises(ConfigError, match="tol"):
        resolve_config({"integrator": {"tol": -1.0}})
    with pytest.raises(ConfigError, match="n_trace"):
        resolve_config({"experiment": {"n_trace": 32}})


# -------------------------------------------------------------- exit codes


def test_bad_configs_exit_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 2
    bad_key = write_cfg(tmp_path / "bad_key.yaml", {"system": {"jmax": 3}})
    assert main(["simulate", "--config", bad_key]) == 2
    # Kahan and Li's sixth-order composition is the one propagation kernel,
    # so there is no method to set
    method = write_cfg(tmp_path / "method.yaml", {"integrator": {"method": "yoshida4"}})
    assert main(["simulate", "--config", method]) == 2
    not_yaml = tmp_path / "broken.yaml"
    not_yaml.write_text("system: [unclosed\n")
    assert main(["simulate", "--config", str(not_yaml)]) == 2
    assert "config error" in capsys.readouterr().err
    # non-finite numbers stop at the config boundary, before any physics
    inf, nan = float("inf"), float("nan")
    for command, cfg, path in (
            ("simulate", {"system": {"j_max": inf}}, "system.j_max"),
            ("simulate", {"system": {"coupling_ratio": nan}}, "system.coupling_ratio"),
            ("simulate", {"system": {"rot_const": -inf}}, "system.rot_const.value"),
            ("simulate", {"field": {"bandwidth_g": inf}}, "field.bandwidth_g"),
            ("design", {"field": {"kind": "designed", "area": nan}}, "field.area"),
            ("simulate", {"field": {"kind": "composite", "carriers": [{"phase": inf}]}},
             "field.carriers[0].phase"),
            ("scan", {"scan": {"detunings_g": {"start": 0, "stop": 1, "num": inf}}},
             "scan.detunings_g.num"),
            ("scan", {"scan": {"bandwidths_g": [0.1, nan]}}, "scan.bandwidths_g[1]"),
            # a grid this long would take petabytes before anything ran
            ("scan", {"scan": {"detunings_g": {"start": 0, "stop": 1, "num": 1e15}}},
             "scan.detunings_g.num"),
            # positive numbers whose atomic-unit scale underflows the normal floats
            ("simulate", {"field": {"bandwidth_g": 1e-320}}, "field.bandwidth_g"),
            ("simulate", {"system": {"coupling_ratio": 1e-320}}, "system.coupling_ratio"),
            ("simulate", {"system": {"rot_const": 1e-320}}, "system.rot_const"),
            ("simulate", {"system": {"dipole": 1e-320}}, "system.dipole"),
            ("scan", {"scan": {"bandwidths_g": [1e-320]}}, "scan.bandwidths_g[0]"),
            ("scan", {"scan": {"kind": "composite", "reference_bandwidth_g": 1e-320}},
             "scan.reference_bandwidth_g"),
            # ... or overflows: omega01 = 2 B is inf
            ("simulate", {"system": {"rot_const": {"value": 1e308, "unit": "au"}}},
             "system.rot_const")):
        name = path.replace("[", "_").replace("]", "")
        out = tmp_path / name
        assert main([command, "--config", write_cfg(tmp_path / f"{name}.yaml", cfg),
                     "--out", str(out)]) == 2, path
        assert f"config error: {path}" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_preset_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--preset", "fig9"])
    capsys.readouterr()


def test_failed_convergence_exits_3(tmp_path, capsys):
    cfg = merged(FAST, {"system": {"j_max": 3, "n_max": 1},
                        "integrator": {"tol": 1e-15}})
    path = write_cfg(tmp_path / "strict.yaml", cfg)
    out = tmp_path / "run"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 3
    assert "convergence failure" in capsys.readouterr().err
    # the run fails before any output is written
    assert not out.exists()


def test_a_tol_below_the_norm_drift_exits_3(tmp_path, capsys):
    # the designed pulse's certified run drifts in norm by some 3e-12, a
    # lower bound on its error: a tol of 1e-13 stops there, not after the
    # last run step control may take
    path = write_cfg(tmp_path / "tight.yaml", {"integrator": {"tol": 1e-13}})
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "fig4", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "convergence failure: norm drift" in err and "exceeds tol 1e-13 after" in err
    assert not out.exists()


def test_step_control_that_spends_its_runs_exits_3(tmp_path, capsys, monkeypatch):
    # one run past the pilot: the pilot pair misses tol 1e-8 by far, while
    # the norm drift meets it, so step control stalls rather than stops
    monkeypatch.setattr(dynamics, "_MAX_HALVINGS", 1)
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_cfg(tmp_path / "fast.yaml", FAST),
                 "--out", str(out)]) == 3
    assert "convergence failure: step control stalled" in capsys.readouterr().err
    assert not out.exists()


def test_a_set_field_area_applies_to_the_design(tmp_path, capsys):
    # field.kind stays gaussian; the area is the design's all the same
    out = tmp_path / "run"
    path = write_cfg(tmp_path / "area.yaml", {"field": {"area": 0.3}})
    assert main(["design", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "report.json").read_text())["area_target"] == 0.3


def test_unwritable_out_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for out in (taken, taken / "sub"):
        assert main(["oracle", "--out", str(out)]) == 2
        assert "output error: " in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


def test_an_empty_out_exits_2(tmp_path, capsys, monkeypatch):
    # the rule of output.directory, not a silent fall back to it
    monkeypatch.chdir(tmp_path)
    assert main(["oracle", "--out", ""]) == 2
    assert "config error: --out: expected a nonempty string" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_a_config_root_that_is_not_a_mapping_exits_2(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    for text in ("[]\n", "false\n", "0\n", '""\n'):
        path.write_text(text)
        assert main(["oracle", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error: config root must be a mapping" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
    # an empty file, a comment alone and null are empty documents: no overrides
    for text in ("", "# nothing\n", "null\n"):
        path.write_text(text)
        assert main(["oracle", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "manifest.json").exists()


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_bytes(b"\xff\xfe")
    assert main(["oracle", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: config {str(path)!r} is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, key, line", [
    ("field: {bandwidth_g: 1.0, bandwidth_g: 2.0}\n", "bandwidth_g", 1),
    ("system:\n  j_max: 3\nsystem:\n  n_max: 1\n", "system", 3),
    ("scan:\n  detunings_g: {start: 0, stop: 1, num: 2, num: 3}\n", "num", 2),
])
def test_duplicate_yaml_keys_exit_2(tmp_path, capsys, text, key, line):
    # at any depth: last-wins would run a config other than the one written
    path = tmp_path / "dup.yaml"
    path.write_text(text)
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"found duplicate key {key!r}\n  in \"{path}\", line {line}," in err
    assert not (tmp_path / "o").exists()


def test_infeasible_design_exits_4(tmp_path, capsys):
    cfg = {"field": {"kind": "designed", "bandwidth_g": 0.5}}
    path = write_cfg(tmp_path / "wide.yaml", cfg)
    out = tmp_path / "run"
    assert main(["design", "--config", path, "--out", str(out)]) == 4
    assert "design infeasible" in capsys.readouterr().err
    assert not out.exists()


def test_failed_scan_design_writes_nothing(tmp_path, capsys):
    cfg = {"scan": {"kind": "composite", "bandwidths_g": [0.3], "reference_bandwidth_g": 5.0}}
    out = tmp_path / "run"
    assert main(["scan", "--config", write_cfg(tmp_path / "wide.yaml", cfg),
                 "--out", str(out)]) == 4
    assert "design infeasible" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("area", [0.0, 1.0e-320])
@pytest.mark.parametrize("argv", [["design"], ["scan", "--preset", "fig5"]])
def test_a_vanishing_design_area_exits_4_and_names_it(tmp_path, capsys, argv, area):
    # the carriers' ground areas vanish, so they have no phase to solve for
    out = tmp_path / "run"
    path = write_cfg(tmp_path / "area.yaml", {"field": {"area": area}})
    assert main(argv + ["--config", path, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"design infeasible: at area {area:g} a carrier's ground area vanishes" in err
    assert not out.exists()


def test_composite_scan_needs_the_first_doublet_rung(tmp_path, capsys):
    # the first-order state it compares against holds |+-;1>, which n_max 1 lacks
    cfg = {"system": {"n_max": 1}, "scan": {"kind": "composite", "bandwidths_g": [1.0]}}
    out = tmp_path / "run"
    assert main(["scan", "--config", write_cfg(tmp_path / "n1.yaml", cfg),
                 "--out", str(out)]) == 2
    assert "config error: system.n_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scan, key", [
    ({"kind": "composite", "detunings_g": [1.0, 2.0]}, "detunings_g"),
    ({"kind": "composite", "cavity": [False]}, "cavity"),
    ({"kind": "composite", "write_spectra": True}, "write_spectra"),
    ({"kind": "detuning", "reference_bandwidth_g": 0.2}, "reference_bandwidth_g"),
])
def test_scan_keys_the_scan_kind_does_not_read_exit_2(tmp_path, capsys, scan, key):
    # read by the other kind only, they would otherwise drop silently: a
    # composite scan runs the dressed model alone and writes no spectra
    out = tmp_path / "run"
    assert main(["scan", "--config", write_cfg(tmp_path / "unread.yaml", {"scan": scan}),
                 "--out", str(out)]) == 2
    assert f"config error: scan.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_bare_composite_carriers_sit_around_the_0_1_line():
    # with the cavity off, one composite carrier at detuning 0 is the
    # Gaussian kick on the 0-1 line, and reaches its orientation maximum
    maxima = []
    for field in ({"kind": "composite", "carriers": [{"detuning_g": 0.0}]},
                  {"kind": "gaussian"}):
        cfg = resolve_config({"system": {"cavity": False, "n_max": 0},
                              "field": {"bandwidth_g": 1.0, **field}})
        params, g_ref = build_params(cfg)
        fld, _ = cli.build_field(cfg, params, g_ref)
        maxima.append(kick_response(params, fld)["orientation_max"])
    assert maxima[0] == pytest.approx(maxima[1], abs=1e-9)
    assert maxima[1] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-6)


@pytest.mark.parametrize("name, cfg", [
    ("detuning", {"field": {"detuning_g": 1.0e300}}),
    ("carrier", {"field": {"kind": "composite", "carriers": [{"detuning_g": 1.0e300}]}}),
    # a window a million times the default's: 5e7 steps at the pilot step
    ("narrowband", {"field": {"bandwidth_g": 1.0e-6}}),
    ("area", {"field": {"area": 1.0e300}}),
])
def test_runs_above_the_step_cap_exit_2(tmp_path, capsys, name, cfg):
    out = tmp_path / name
    assert main(["simulate", "--config", write_cfg(tmp_path / f"{name}.yaml", cfg),
                 "--out", str(out)]) == 2
    assert "config error: propagation" in capsys.readouterr().err
    assert not out.exists()


def test_short_trace_windows_after_a_late_pulse_run(tmp_path, capsys):
    # the bare trace starts 11 revival periods in; rounding of its sample
    # times there jitters a 1e-3 tau step by more than 1e-9 of itself
    cfg = {"system": {"j_max": 4, "n_max": 2}, "field": {"bandwidth_g": 1.0},
           "experiment": {"n_trace": 2048, "trace_window_tau": 0.001},
           "scan": {"bandwidths_g": [1.0], "cavity": [False]}}
    path = write_cfg(tmp_path / "short.yaml", cfg)
    for command in ("simulate", "scan"):
        argv = [command, "--config", path, "--out", str(tmp_path / command)]
        assert main(argv + (["--preset", "bare"] if command == "simulate" else [])) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command, cfg, key", [
    ("simulate", {"experiment": {"trace_window_tau": 1.0e-12}}, "trace_window_tau"),
    ("simulate", {"experiment": {"snapshot_tau": 1.0e+300}}, "snapshot_tau"),
    ("scan", {"experiment": {"trace_window_tau": 1.0e-12},
              "scan": {"cavity": [False]}}, "trace_window_tau"),
    ("scan", {"experiment": {"snapshot_tau": 1.0e+300}}, "snapshot_tau"),
    # a composite record's first-order trace takes 8192 samples whatever n_trace is
    ("scan", {"experiment": {"trace_window_tau": 1.0e-11, "n_trace": 64},
              "scan": {"kind": "composite", "bandwidths_g": [1.0]}}, "trace_window_tau"),
])
def test_unresolvable_sample_times_exit_2(tmp_path, capsys, command, cfg, key):
    out = tmp_path / "run"
    argv = [command, "--config", write_cfg(tmp_path / "tiny.yaml", cfg), "--out", str(out)]
    assert main(argv + (["--preset", "bare"] if command == "simulate" else [])) == 2
    assert f"config error: experiment.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["n_trace", "n_trajectory"])
def test_sample_counts_are_capped(tmp_path, capsys, key):
    cfg = {"experiment": {key: 100_001}}
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "bare", "--config",
                 write_cfg(tmp_path / "big.yaml", cfg), "--out", str(out)]) == 2
    assert f"config error: experiment.{key}" in capsys.readouterr().err
    assert not out.exists()
    assert resolve_config({"experiment": {key: 100_000}})["experiment"][key] == 100_000


@pytest.mark.parametrize("preset, key, cap", [("bare", "j_max", 63), (None, "n_max", 31)])
def test_basis_sizes_are_capped(tmp_path, capsys, preset, key, cap):
    # at most 64 basis states: j_max + 1 bare, 2 (n_max + 1) dressed
    out = tmp_path / "run"
    path = write_cfg(tmp_path / "big.yaml", {"system": {key: cap + 1}})
    argv = ["simulate", "--config", path, "--out", str(out)]
    assert main(argv + (["--preset", preset] if preset else [])) == 2
    assert f"config error: system.{key}" in capsys.readouterr().err
    assert not out.exists()
    assert resolve_config({"system": {key: cap}}, preset)["system"][key] == cap


def test_narrowband_design_is_cheap_and_its_run_is_capped(tmp_path, capsys):
    # the design areas cost nothing at any bandwidth; the propagation of the
    # designed pulse still stops at the step cap
    path = write_cfg(tmp_path / "narrow.yaml", {"field": {"bandwidth_g": 1.0e-5}})
    assert main(["design", "--config", path, "--out", str(tmp_path / "design")]) == 0
    out = tmp_path / "fig4"
    assert main(["simulate", "--preset", "fig4", "--config", path, "--out", str(out)]) == 2
    assert "config error: propagation" in capsys.readouterr().err
    assert not out.exists()


def test_scan_wants_the_cavity_switchable_not_absent(tmp_path, capsys):
    cfg = merged(FAST, {"system": {"cavity": False, "n_max": 0}})
    path = write_cfg(tmp_path / "bare_scan.yaml", cfg)
    assert main(["scan", "--config", path, "--out", str(tmp_path / "run")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- simulate


def test_simulate_zero_field_stays_in_the_ground_state(tmp_path, capsys):
    cfg = merged(FAST, {"field": {"area": 0.0}})
    path = write_cfg(tmp_path / "zero.yaml", cfg)
    out = tmp_path / "run"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()

    data = np.loadtxt(out / "orientation.tsv")
    assert data.shape[1] == 3
    assert np.max(np.abs(data[:, 2])) < 1e-12

    summary = json.loads((out / "populations.json").read_text())
    assert summary["populations"]["0;0"] == pytest.approx(1.0, abs=1e-9)
    assert summary["revival_period"] is None
    assert summary["norm_final"] == pytest.approx(1.0, abs=1e-9)

    # dressed run: time + re/im per dressed state, 2 (n_max + 1) of them
    traj = np.loadtxt(out / "trajectory.tsv")
    assert traj.shape == (5, 1 + 2 * 6)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["package"] == "rotpolariton"
    assert manifest["command"] == "simulate"
    assert manifest["preset"] is None
    assert len(manifest["config_sha256"]) == 64
    assert manifest["config"]["field"]["area"] == 0.0


@pytest.mark.parametrize("n_trajectory", [2, 5])
def test_simulate_names_the_files_it_wrote(tmp_path, capsys, n_trajectory):
    cfg = merged(FAST, {"field": {"area": 0.0}, "experiment": {"n_trajectory": n_trajectory}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_cfg(tmp_path / "zero.yaml", cfg),
                 "--out", str(out)]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("wrote ")]
    named = line[len(f"wrote {out}/"):].split(", ")
    assert sorted(named) == sorted(f.name for f in out.iterdir() if f.name != "manifest.json")
    # every simulate writes its trajectory, down to the pulse's two ends
    assert np.loadtxt(out / "trajectory.tsv").shape == (n_trajectory, 1 + 2 * 6)


def test_simulate_reruns_are_bit_identical(tmp_path, capsys):
    cfg = merged(FAST, {"field": {"area": 0.0},
                        "experiment": {"n_trajectory": 2}})
    path = write_cfg(tmp_path / "zero.yaml", cfg)
    out_a = tmp_path / "a"
    assert main(["simulate", "--config", path, "--out", str(out_a)]) == 0
    first = {f.name: f.read_bytes() for f in out_a.iterdir()}
    assert main(["simulate", "--config", path, "--out", str(out_a)]) == 0
    second = {f.name: f.read_bytes() for f in out_a.iterdir()}
    assert first == second

    # a different directory changes only the manifest (config embeds the path)
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out_b)]) == 0
    third = {f.name: f.read_bytes() for f in out_b.iterdir()}
    assert set(third) == set(first)
    for name in first:
        if name == "manifest.json":
            assert third[name] != first[name]
        else:
            assert third[name] == first[name]
    capsys.readouterr()


def test_simulate_bare_preset_reaches_the_two_level_bound(tmp_path, capsys):
    cfg = {"system": {"j_max": 6},
           "experiment": {"n_trace": 4096, "trace_window_tau": 20.0}}
    path = write_cfg(tmp_path / "bare.yaml", cfg)
    out = tmp_path / "run"
    code = main(["simulate", "--preset", "bare", "--config", path,
                 "--out", str(out)])
    assert code == 0
    assert "orientation max" in capsys.readouterr().out

    summary = json.loads((out / "populations.json").read_text())
    assert summary["orientation_max"] == pytest.approx(1.0 / np.sqrt(3.0), abs=0.01)
    b_au = 0.20286 * HARTREE_PER_CM1
    assert summary["revival_period"] == pytest.approx(np.pi / b_au, rel=5e-3)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["preset"] == "bare"
    assert manifest["config"]["system"]["cavity"] is False


# ------------------------------------------------------------ design/oracle


def test_design_command_reports_the_solved_phase(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["design", "--out", str(out)]) == 0
    assert "solved upper-carrier phase" in capsys.readouterr().out

    report = json.loads((out / "report.json").read_text())
    assert report["solved_phase_up"] == pytest.approx(np.pi / 9.0, abs=1e-6)
    assert report["area_target"] == DESIGN_AREA
    assert abs(report["phase_residual_g"]) < 1e-6
    assert report["predicted_orientation_max"] == pytest.approx(
        1.0 / np.sqrt(3.0), abs=1e-6)

    field = json.loads((out / "field.json").read_text())
    assert set(field) == {"components", "e0", "kind", "t_end", "t_start", "tau0"}
    assert field["kind"] == "composite"
    assert len(field["components"]) == 2
    assert field["components"][0][1] == pytest.approx(report["solved_phase_up"])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "design"


def test_oracle_command_writes_the_orientation_bound(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["oracle", "--out", str(out)]) == 0
    capsys.readouterr()
    result = json.loads((out / "oracle.json").read_text())
    assert result["max"] == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-3)
    assert sum(result["populations"]) == pytest.approx(1.0, abs=1e-9)

    bare = write_cfg(tmp_path / "bare.yaml", {"system": {"cavity": False, "n_max": 0}})
    assert main(["oracle", "--config", bare, "--out", str(tmp_path / "r2")]) == 2
    capsys.readouterr()


# -------------------------------------------------------------------- scan


def _assert_scan_cells(path, records, units):
    """Every cell of a scan TSV is its record's value over its unit, bit for
    bit: a null reads nan, and the converged flag the text 1.0."""
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == len(records)
    for line, rec in zip(lines, records):
        cells = line.split("\t")
        assert len(cells) == len(units)
        for cell, (key, unit) in zip(cells, units.items()):
            value = rec.get(key)
            if value is None:
                assert cell == "nan", key
            else:
                assert float(cell).hex() == (value / unit).hex(), key
        assert cells[-1] == "1.0"


def test_scan_command_detuning_grid(tmp_path, capsys):
    cfg = merged(FAST, {"scan": {"detunings_g": [-1.0, 0.0, 1.0],
                                 "bandwidths_g": [1.0],
                                 "cavity": [True, False]}})
    path = write_cfg(tmp_path / "scan.yaml", cfg)
    out = tmp_path / "run"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    assert "6 records" in capsys.readouterr().out

    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 6
    records = [json.loads(line) for line in lines]
    assert [r["index"] for r in records] == list(range(6))
    for r in records:
        assert set(r) >= {"cavity", "bandwidth", "detuning",
                          "orientation_max", "converged"}
        assert r["converged"]

    params, g_ref = build_params(resolve_config(cfg))
    tau = params.revival_time
    units = {"detuning": g_ref, "orientation_max": 1.0, "orientation_snapshot": 1.0,
             "t_max": tau, "revival_period": tau, "converged": 1.0}
    for name, cav in (("orientation_cavon_bw1.tsv", True),
                      ("orientation_cavoff_bw1.tsv", False)):
        table = np.loadtxt(out / name)
        assert table.shape == (3, 6)
        assert list(table[:, 0]) == [-1.0, 0.0, 1.0]
        assert list(table[:, 5]) == [1.0, 1.0, 1.0]     # the converged column
        # each table holds its own group's records
        _assert_scan_cells(out / name, [r for r in records if r["cavity"] == cav], units)

    meta = json.loads((out / "scan_meta.json").read_text())
    assert meta["kind"] == "detuning_bandwidth"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "scan"


def test_scan_command_composite_kind(tmp_path, capsys):
    # detunings_g at its default, written out, is no key the scan ignores
    cfg = merged(FAST, {"scan": {"kind": "composite",
                                 "bandwidths_g": [0.5, 1.0],
                                 "detunings_g": [0.0],
                                 "reference_bandwidth_g": 0.1}})
    path = write_cfg(tmp_path / "comp.yaml", cfg)
    out = tmp_path / "run"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()

    table = np.loadtxt(out / "composite_bandwidth.tsv")
    assert table.shape == (2, 6)
    assert list(table[:, 0]) == [0.5, 1.0]
    assert list(table[:, 5]) == [1.0, 1.0]
    records = [json.loads(line) for line in
               (out / "records.jsonl").read_text().splitlines()]
    assert all("orientation_max_exact" in r for r in records)
    params, g_ref = build_params(resolve_config(cfg))
    tau = params.revival_time
    _assert_scan_cells(out / "composite_bandwidth.tsv", records,
                       {"bandwidth": g_ref, "orientation_max_exact": 1.0,
                        "orientation_max_magnus": 1.0, "max_population_diff": 1.0,
                        "revival_period": tau, "converged": 1.0})
    assert all(0.0 <= r["step_error"] <= 1e-8 for r in records)
    # widening the pulse degrades the first-order description
    assert records[1]["max_population_diff"] > records[0]["max_population_diff"]


def test_scans_read_the_field_area_phase_branch_and_trace_window(tmp_path, capsys):
    # a set field.area holds for the pulses of either scan, whatever field.kind
    field = {"area": 0.3, "phase_minus": 1.0, "branch": "-"}
    comp = merged(FAST, {"field": field},
                  {"scan": {"kind": "composite", "bandwidths_g": [1.0],
                            "reference_bandwidth_g": 0.1}})
    out = tmp_path / "comp"
    assert main(["scan", "--config", write_cfg(tmp_path / "comp.yaml", comp),
                 "--out", str(out)]) == 0
    meta = json.loads((out / "scan_meta.json").read_text())
    assert meta["area"] == 0.3
    assert json.loads((out / "manifest.json").read_text())["config"]["field"]["area"] == 0.3
    assert meta["carriers"][1][1] == 1.0
    assert meta["design_report"]["phase_residual_g"] < 1e-6
    (rec,) = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    # the exact record is the kick of that pulse over the configured window
    params, g_ref = build_params(resolve_config(comp))
    fld = composite_for_area(params, 0.3, 1.0 / g_ref, meta["carriers"])
    want = kick_response(params, fld, trace_window_tau=20.0, n_trace=2048)
    assert rec["orientation_max_exact"] == want["orientation_max"]

    kick = merged(FAST, {"field": {"kind": "designed", "area": 0.3}},
                  {"scan": {"detunings_g": [0.0], "bandwidths_g": [1.0], "cavity": [True]}})
    out = tmp_path / "kick"
    assert main(["scan", "--config", write_cfg(tmp_path / "kick.yaml", kick),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "scan_meta.json").read_text())["area"] == 0.3


def test_scan_records_leave_the_spectra_to_their_files(tmp_path, capsys):
    cfg = merged(FAST, {"scan": {"detunings_g": [-1.0, 1.0], "bandwidths_g": [1.0],
                                 "cavity": [True], "write_spectra": True}})
    path = write_cfg(tmp_path / "spectra.yaml", cfg)
    out = tmp_path / "run"
    assert main(["scan", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in
               (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert not any("spectrum" in r for r in records)
    for i in range(2):
        assert np.loadtxt(out / f"spectrum_{i:04d}.tsv").shape[1] == 3


def test_json_hook_writes_numpy_and_refuses_the_rest():
    payload = {"1": (np.float64(0.1), np.int64(2), np.bool_(True)), "a": np.arange(2.0)}
    assert json.dumps(payload, sort_keys=True, default=_plain) == \
        '{"1": [0.1, 2, true], "a": [0.0, 1.0]}'
    for bad in (object(), 1j, np.complex128(1j), np.array([1j])):
        with pytest.raises(TypeError):
            json.dumps({"a": [1.0, bad]}, default=_plain)


def _per_row_tsv(columns, rows):
    """The text _write_tsv wrote with one join of reprs per row, kept as its reference."""
    return "".join(["# " + "\t".join(columns) + "\n"]
                   + ["\t".join(map(repr, row)) + "\n" for row in rows])


_TSV_EDGES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 2.0 ** 53]


# every edge, None (nan) and a bool (1.0 or 0.0) in one table across an array
# chunk's edge
@example(width=3, n_rows=cli._TSV_VALUES // 2 + 1,
         pool=_TSV_EDGES + [None, True, False, 0.1])
@example(width=5, n_rows=cli._TSV_VALUES // 2 + 1,
         pool=_TSV_EDGES + [None, True, 0.1, -2.5e-7])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(width=st.integers(1, 5),
       n_rows=st.sampled_from([0, 1, 2, cli._TSV_VALUES // 2, cli._TSV_VALUES // 2 + 1]),
       pool=st.lists(st.one_of(st.sampled_from(_TSV_EDGES), st.floats(), st.none(),
                               st.booleans()), min_size=1, max_size=12))
def test_tsv_text_is_the_per_row_join_of_reprs(tmp_path, width, n_rows, pool):
    # the pool as cmd_scan builds its tables, None as nan and a bool as 1.0
    # or 0.0, written through the digit path: the bytes of the per-row join,
    # each cell read back bit for bit
    values = np.array(pool, dtype=float)
    array = np.resize(values, n_rows * width).reshape(n_rows, width)
    table = array.tolist()
    columns = [f"c{k}" for k in range(width)]
    path = tmp_path / "t.tsv"
    cli._write_tsv(path, columns, array)
    # line by line: a diff of two whole texts of 4,097 lines takes pytest minutes
    lines, want = path.read_text().splitlines(), _per_row_tsv(columns, table).splitlines()
    assert len(lines) == len(want) == n_rows + 1
    bad = [i for i, (a, b) in enumerate(zip(lines, want)) if a != b]
    assert not bad, f"{len(bad)} lines differ, first {lines[bad[0]]!r} != {want[bad[0]]!r}"
    for line, row in zip(lines[1:], table):
        assert [float(cell).hex() for cell in line.split("\t")] == \
            [float(v).hex() for v in row]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(width=st.integers(1, 5), n_rows=st.sampled_from([0, 1, cli._TSV_VALUES // 2 + 1]),
       change=st.sampled_from([-1, 1]))
def test_a_tsv_row_of_the_wrong_length_raises(tmp_path, width, n_rows, change):
    # an array of another width, or not 2d, raises
    columns = [f"c{k}" for k in range(width)]
    for array in (np.full((n_rows, width + change), 0.5), np.full(width, 0.5),
                  np.full((n_rows, 1, width), 0.5)):
        with pytest.raises(ValueError, match=f"does not have {width} values"):
            cli._write_tsv(tmp_path / "t.tsv", columns, array)


def test_scan_tsvs_keep_records_that_did_not_converge(tmp_path, capsys):
    # a tol below every record's norm drift
    frozen = {"integrator": {"tol": 1e-15}}
    kinds = {"detuning": ("orientation_cavon_bw1.tsv", {"detunings_g": [-1.0, 0.0, 1.0],
                                                        "bandwidths_g": [1.0],
                                                        "cavity": [True]},
                          {"cavity", "bandwidth", "detuning"}),
             "composite": ("composite_bandwidth.tsv", {"kind": "composite",
                                                       "bandwidths_g": [0.5, 1.0],
                                                       "reference_bandwidth_g": 0.1},
                           {"bandwidth"})}
    for kind, (name, scan, axes) in kinds.items():
        cfg = merged(FAST, {"scan": scan}, frozen)
        path = write_cfg(tmp_path / f"{kind}.yaml", cfg)
        out = tmp_path / kind
        assert main(["scan", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text().splitlines()]
        assert records and not any(r["converged"] for r in records)
        # a failed record of either kind is its error and its axes alone
        assert all(set(r) == {"index", "converged", "error"} | axes for r in records)
        table = np.loadtxt(out / name, ndmin=2)
        assert table.shape == (len(records), 6)
        assert np.all(table[:, 5] == 0.0)
        assert np.all(np.isnan(table[:, 1:5]))


# ------------------------------------------------------- config boundary


def test_numeric_strings_are_stored_as_numbers(tmp_path, capsys):
    # YAML 1.1 reads a bare 1e-8 as a string
    raw = yaml.safe_load("integrator:\n  tol: 1e-8\n")
    assert raw["integrator"]["tol"] == "1e-8"
    cfg = resolve_config(raw)
    assert cfg["integrator"]["tol"] == 1e-8 and isinstance(cfg["integrator"]["tol"], float)
    more = resolve_config(yaml.safe_load("field:\n  bandwidth_g: 5e-1\n"
                                         "experiment:\n  trace_window_tau: 2e1\n"))
    assert more["field"]["bandwidth_g"] == 0.5
    assert more["experiment"]["trace_window_tau"] == 20.0
    assert resolve_config({"system": {"j_max": "5"}})["system"]["j_max"] == 5
    path = tmp_path / "tol.yaml"
    path.write_text(yaml.safe_dump(merged(FAST, {"system": {"j_max": 3, "n_max": 1}}))
                    + "integrator:\n  tol: 1e-8\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()


def test_booleans_must_be_booleans(tmp_path, capsys):
    for section, key in (("system", "cavity"), ("scan", "write_spectra")):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            resolve_config({section: {key: "false"}})
    with pytest.raises(ConfigError, match="integrator.tol"):
        resolve_config({"integrator": {"tol": True}})
    path = write_cfg(tmp_path / "quoted.yaml", {"system": {"cavity": "false"}})
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "run")]) == 2
    assert "system.cavity" in capsys.readouterr().err


def test_aliased_values_are_quoted_short(tmp_path, capsys):
    # a few hundred bytes of YAML anchors stand for 10^8 numbers; the message
    # that rejects them quotes a few
    lines = ["scan:", "  detunings_g:", "    - &a0 [" + ", ".join(["1.5"] * 10) + "]"]
    lines += [f"    - &a{k} [" + ", ".join([f"*a{k - 1}"] * 10) + "]" for k in range(1, 8)]
    path = tmp_path / "aliases.yaml"
    path.write_text("\n".join(lines + ["system: {rot_const: *a7}", ""]))
    start = time.perf_counter()
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and "system.rot_const" in err
    assert elapsed < 1.0 and len(err.encode()) < 1024


def test_a_carrier_phase_far_beyond_a_turn_keeps_its_carrier(tmp_path, capsys):
    # cos(w t + 1e300) rounds w t away: the field would lose its carrier
    far = 1.0e300
    runs = []
    for phase in (far, math.atan2(math.sin(far), math.cos(far))):
        out = tmp_path / f"run{len(runs)}"
        path = write_cfg(tmp_path / f"phase{len(runs)}.yaml",
                         {"field": {"bandwidth_g": 1.0, "phase": phase}})
        assert main(["simulate", "--preset", "bare", "--config", path, "--out", str(out)]) == 0
        runs.append(out)
    capsys.readouterr()
    for name in ("populations.json", "orientation.tsv", "spectrum.tsv", "trajectory.tsv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    pops = json.loads((runs[0] / "populations.json").read_text())["populations"]
    assert pops["J1,n0"] == pytest.approx(0.4997, abs=1e-3)


def test_grids_and_carriers_are_not_coerced():
    grid = {"start": 0.1, "stop": 1.0, "num": 3}
    for bad, path in (({**grid, "num": 2.5}, "scan.detunings_g.num"),
                      ({**grid, "log": "false"}, "scan.detunings_g.log"),
                      ([True, 0.5], r"scan.detunings_g\[0\]")):
        with pytest.raises(ConfigError, match=path):
            resolve_config({"scan": {"detunings_g": bad}})
    for key in ("detuning_g", "phase"):
        with pytest.raises(ConfigError, match=rf"field.carriers\[0\].{key}"):
            resolve_config({"field": {"kind": "composite", "carriers": [{key: True}]}})
    with pytest.raises(ConfigError, match="system.rot_const.value"):
        resolve_config({"system": {"rot_const": True}})
    # real booleans and integral numbers still resolve
    cfg = resolve_config({"scan": {"detunings_g": {**grid, "num": 3.0, "log": False}}})
    assert cfg["scan"]["detunings_g"] == [0.1, 0.55, 1.0]


def test_scan_tsv_names_must_differ(tmp_path, capsys):
    # 1 and 1.0000001 both print as bw1 under {:g}
    for scan, path in (({"bandwidths_g": [1.0, 1.0000001]}, "scan.bandwidths_g"),
                       ({"bandwidths_g": [0.5, 0.5]}, "scan.bandwidths_g"),
                       ({"cavity": [True, True]}, "scan.cavity")):
        with pytest.raises(ConfigError, match=path):
            resolve_config({"scan": scan})
    cfg = merged(FAST, {"scan": {"detunings_g": [0.0], "bandwidths_g": [1.0, 1.0000001]}})
    out = tmp_path / "run"
    assert main(["scan", "--config", write_cfg(tmp_path / "same.yaml", cfg),
                 "--out", str(out)]) == 2
    assert "orientation_cav*_bw1.tsv" in capsys.readouterr().err
    assert not out.exists()
    # a composite scan writes one table, so its bandwidths may repeat
    composite = resolve_config({"scan": {"kind": "composite", "bandwidths_g": [1.0, 1.0]}})
    assert composite["scan"]["bandwidths_g"] == [1.0, 1.0]


def test_the_first_repeated_tsv_name_in_grid_order_is_named():
    # bw0.2 and bw0.1 both repeat; bw0.2 comes first in the grid
    with pytest.raises(ConfigError, match=r"^scan.bandwidths_g: two bandwidths would both "
                                          r"write orientation_cav\*_bw0\.2\.tsv$"):
        resolve_config({"scan": {"bandwidths_g": [0.2, 0.1, 0.1000001, 0.2000001]}})


def test_a_scan_above_the_record_cap_exits_2(tmp_path, capsys):
    # 100,000 detunings x 1000 bandwidths x 2 cavity settings: 2e8 records
    scan = {"detunings_g": {"start": -2, "stop": 2, "num": 100_000},
            "bandwidths_g": {"start": 0.1, "stop": 1.0, "num": 1000, "log": True},
            "cavity": [True, False]}
    with pytest.raises(ConfigError, match="^scan: 200000000 records .* above 100000$"):
        resolve_config({"scan": scan})
    out = tmp_path / "run"
    assert main(["scan", "--config", write_cfg(tmp_path / "big.yaml", {"scan": scan}),
                 "--out", str(out)]) == 2
    assert "config error: scan: 200000000 records" in capsys.readouterr().err
    assert not out.exists()
    # exactly at the cap it resolves (and is never run here)
    at_cap = {"detunings_g": {"start": -2, "stop": 2, "num": 50_000},
              "bandwidths_g": [0.1, 1.0], "cavity": [True]}
    assert len(resolve_config({"scan": at_cap})["scan"]["detunings_g"]) == 50_000
    # a composite scan counts one record per bandwidth
    at_cap = {"kind": "composite", "bandwidths_g": {"start": 0.1, "stop": 1.0, "num": 100_000}}
    assert len(resolve_config({"scan": at_cap})["scan"]["bandwidths_g"]) == 100_000


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=6),
    st.sampled_from(["gaussian", "composite", "designed", "detuning", "yoshida4",
                     "+", "-", "au", "debye", "1e-8", "false", "inf", "nan"]))
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["value", "unit", "start", "stop", "num", "log",
                         "detuning_g", "phase", "other"]), inner, max_size=4),
    max_leaves=8)
_configs = st.fixed_dictionaries({}, optional={
    section: st.dictionaries(st.sampled_from(sorted(keys)), _values, max_size=4)
    for section, keys in DEFAULTS.items()})


@settings(max_examples=400, deadline=None)
@given(raw=_configs, preset=st.sampled_from([None, *sorted(PRESETS)]))
def test_any_config_resolves_or_raises_config_error(raw, preset):
    try:
        resolve_config(raw, preset=preset)
    except ConfigError:
        pass


def test_threads_below_one_exit_2(tmp_path, capsys):
    for threads in ("0", "-1"):
        out = tmp_path / f"run{threads}"
        assert main(["oracle", "--threads", threads, "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


def test_threads_above_the_cap_exit_2(tmp_path, capsys):
    # rejected before any scan starts, so no process is made
    out = tmp_path / "run"
    argv = ["scan", "--preset", "fig3", "--threads", str(cli._MAX_THREADS + 1), "--out", str(out)]
    assert main(argv) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that runs jobs in this process."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


def test_a_scan_starts_no_more_workers_than_jobs(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    cfg = merged(FAST, {"scan": {"detunings_g": [0.0], "bandwidths_g": [1.0, 2.0],
                                 "cavity": [True, False]}})
    path = write_cfg(tmp_path / "scan.yaml", cfg)
    for threads, made in (("256", [4]), ("3", [3]), ("1", [])):
        out = tmp_path / f"run{threads}"
        assert main(["scan", "--config", path, "--threads", threads, "--out", str(out)]) == 0
        assert _RecordingPool.made == made
        _RecordingPool.made.clear()
    capsys.readouterr()
    # the pool ran every job: its records are the in-process ones
    assert (tmp_path / "run256" / "records.jsonl").read_text() == \
        (tmp_path / "run1" / "records.jsonl").read_text()


# ----------------------------------------------------- main() never tracebacks

# numbers over many decades, the edges of the float range, and the values a
# number must not be
_numbers = st.one_of(
    st.integers(-2, 70),
    st.builds(lambda m, e: float(f"{m}e{e}"), st.sampled_from([1.0, 2.5, 7.0, -1.0]),
              st.integers(-330, 310)),
    st.sampled_from([0.0, 0.5, float("inf"), float("-inf"), float("nan"), True, "1e-8",
                     "x"]))
_grids = st.one_of(
    st.lists(_numbers, max_size=3),
    st.fixed_dictionaries({"start": _numbers, "stop": _numbers, "num": _numbers},
                          optional={"log": st.booleans()}))


def _key_values(rule):
    """Values for one SCHEMA key: mostly of its own type, sometimes of none."""
    check = getattr(rule, "func", rule)  # a partial's check
    if isinstance(rule, dict):
        own = _numbers | st.fixed_dictionaries(
            {"value": _numbers}, optional={"unit": st.sampled_from([*rule, "eV"])})
    elif check is _boolean:
        own = st.booleans()
    elif check is _choice:
        own = st.sampled_from([*rule.keywords["allowed"], "other"])
    elif check in (_number, _integer):
        own = _numbers
    elif check is _carriers:
        own = st.lists(st.fixed_dictionaries({}, optional={"detuning_g": _numbers,
                                                           "phase": _numbers}), max_size=2)
    elif check is _flags:
        own = st.lists(st.booleans(), max_size=3)
    elif check is _grid:
        own = _grids
    else:
        raise ValueError(f"no draws for the rule {rule!r}")
    return st.one_of(own, own, own, _scalars)


_paths = [(section, key, rule) for section, rules in SCHEMA.items()
          for key, (_, rule) in rules.items() if key != "directory"]


def test_every_drawn_key_has_draws_of_its_own_rule():
    # a rule _key_values does not know raises, rather than drawing grids
    for _, _, rule in _paths:
        _key_values(rule)
    with pytest.raises(ValueError, match="no draws"):
        _key_values(lambda val, path: val)


@st.composite
def _runs(draw):
    """A config that sets a few keys, so that most of them can be valid at once."""
    raw = {}
    paths = draw(st.lists(st.sampled_from(_paths), max_size=3, unique_by=lambda p: p[:2]))
    for section, key, rule in paths:
        raw.setdefault(section, {})[key] = draw(_key_values(rule))
    return raw


@example(preset="bare", raw={"experiment": {"trace_window_tau": 0.1}})
@example(preset="bare", raw={"experiment": {"trace_window_tau": 1.0e-12}})
@example(preset="bare", raw={"experiment": {"snapshot_tau": 1.0e+300}})
@example(preset=None, raw={"system": {"n_max": 1}, "scan": {"kind": "composite"}})
@settings(max_examples=4, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(preset=st.sampled_from([None, "bare", "fig3", "fig4"]), raw=_runs())
@pytest.mark.parametrize("command", ["simulate", "scan", "design", "oracle"])
def test_main_exits_with_a_documented_code(tmp_path, monkeypatch, command, preset, raw):
    # The fig2 and fig5 presets are the 486- and 25-record benchmark scans and
    # stay out of the preset draw; every key they set is still drawn in raw.
    # Smaller caps keep each drawn run short, and configs above them exit 2;
    # the bare preset's 0.1 g kick still fits under the step cap.
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 40_000)
    monkeypatch.setattr(cli, "_MAX_GRID", 16_384)
    run = tmp_path / "run"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir()
    argv = [command, "--config", write_cfg(run / "run.yaml", raw), "--out", str(run / "out")]
    code = main(argv + (["--preset", preset] if preset else []))
    assert code in (0, 2, 3, 4)
    assert (run / "out").exists() == (code == 0)
