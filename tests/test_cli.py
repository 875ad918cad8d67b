"""Command-line layer: config resolution, exit codes, output files.

All runs here go through main(argv) in process; the heavy physics is kept
small (reduced bases, broadband pulses, short traces) because the command
outputs, not the dynamics, are under test.
"""

import json

import numpy as np
import pytest
import yaml

from rotpolariton import convert_units
from rotpolariton.cli import DEFAULTS, PRESETS, main, resolve_config
from rotpolariton.control import DESIGN_AREA, KICK_AREA
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
    assert cfg["field"]["area"] == pytest.approx(KICK_AREA)
    assert cfg["experiment"]["dressed"] is True
    assert cfg["scan"]["detunings_g"] == [0.0]
    assert cfg["system"]["rot_const_au"] == pytest.approx(
        convert_units(0.20286, "cm-1", "au"))


def test_presets_resolve():
    for name in PRESETS:
        cfg = resolve_config({}, preset=name)
        assert cfg["output"]["directory"] == "out"
    bare = resolve_config({}, preset="bare")
    assert bare["system"]["cavity"] is False
    assert bare["experiment"]["dressed"] is False
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
    with pytest.raises(ConfigError, match="mapping"):
        resolve_config([1, 2])


def test_quantity_forms():
    cfg = resolve_config({"system": {"rot_const": {"value": 1.0, "unit": "au"},
                                     "dipole": {"value": 0.5, "unit": "au-dipole"}}})
    assert cfg["system"]["rot_const_au"] == 1.0
    assert cfg["system"]["dipole_au"] == 0.5
    # bare scalar keeps the spectroscopic default unit
    cfg = resolve_config({"system": {"rot_const": 2.0}})
    assert cfg["system"]["rot_const_au"] == pytest.approx(
        2.0 * convert_units(1.0, "cm-1", "au"))
    with pytest.raises(ConfigError, match="unit"):
        resolve_config({"system": {"rot_const": {"value": 1.0, "unit": "eV"}}})
    with pytest.raises(ConfigError, match="positive"):
        resolve_config({"system": {"dipole": -0.7}})
    with pytest.raises(ConfigError, match="unknown keys"):
        resolve_config({"system": {"rot_const": {"value": 1.0, "units": "au"}}})


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
    assert cfg["field"]["area"] == pytest.approx(DESIGN_AREA)
    assert cfg["field"]["carriers"][1] == {"detuning_g": -1.0, "phase": 0.3}
    with pytest.raises(ConfigError, match="cavity"):
        resolve_config({"system": {"cavity": False, "n_max": 0},
                        "field": {"kind": "designed"}})


def test_dressed_flag_must_match_the_cavity():
    with pytest.raises(ConfigError, match="dressed"):
        resolve_config({"system": {"cavity": False, "n_max": 0},
                        "experiment": {"dressed": True}})
    with pytest.raises(ConfigError, match="dressed"):
        resolve_config({"experiment": {"dressed": False}})
    cfg = resolve_config({"system": {"cavity": False, "n_max": 0}})
    assert cfg["experiment"]["dressed"] is False


def test_coupled_cavity_needs_photon_states():
    with pytest.raises(ConfigError, match="n_max"):
        resolve_config({"system": {"n_max": 0}})


def test_integrator_validation():
    with pytest.raises(ConfigError, match="integrator.method"):
        resolve_config({"integrator": {"method": "rk4"}})
    with pytest.raises(ConfigError, match="max_halvings"):
        resolve_config({"integrator": {"max_halvings": -1}})
    with pytest.raises(ConfigError, match="tol"):
        resolve_config({"integrator": {"tol": -1.0}})
    with pytest.raises(ConfigError, match="n_trace"):
        resolve_config({"experiment": {"n_trace": 32}})


# -------------------------------------------------------------- exit codes


def test_bad_configs_exit_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 2
    bad_key = write_cfg(tmp_path / "bad_key.yaml", {"system": {"jmax": 3}})
    assert main(["simulate", "--config", bad_key]) == 2
    not_yaml = tmp_path / "broken.yaml"
    not_yaml.write_text("system: [unclosed\n")
    assert main(["simulate", "--config", str(not_yaml)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_preset_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--preset", "fig9"])
    capsys.readouterr()


def test_failed_convergence_exits_3(tmp_path, capsys):
    cfg = merged(FAST, {"system": {"j_max": 3, "n_max": 1},
                        "integrator": {"tol": 1e-13, "max_halvings": 0}})
    path = write_cfg(tmp_path / "strict.yaml", cfg)
    out = tmp_path / "run"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 3
    assert "convergence failure" in capsys.readouterr().err
    # the run fails before any output is written
    assert not out.exists()


def test_infeasible_design_exits_4(tmp_path, capsys):
    cfg = {"field": {"kind": "designed", "bandwidth_g": 0.5}}
    path = write_cfg(tmp_path / "wide.yaml", cfg)
    out = tmp_path / "run"
    assert main(["design", "--config", path, "--out", str(out)]) == 4
    assert "design infeasible" in capsys.readouterr().err
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
    b_au = convert_units(0.20286, "cm-1", "au")
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
    assert abs(report["phase_residual_g"]) < 1e-6
    assert report["predicted_orientation_max"] == pytest.approx(
        1.0 / np.sqrt(3.0), abs=1e-6)

    field = json.loads((out / "field.json").read_text())
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

    for name in ("orientation_cavon_bw1.tsv", "orientation_cavoff_bw1.tsv"):
        table = np.loadtxt(out / name)
        assert table.shape == (3, 6)
        assert list(table[:, 0]) == [-1.0, 0.0, 1.0]
        assert list(table[:, 5]) == [1.0, 1.0, 1.0]     # the converged column

    meta = json.loads((out / "scan_meta.json").read_text())
    assert meta["kind"] == "detuning_bandwidth"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "scan"


def test_scan_command_composite_kind(tmp_path, capsys):
    cfg = merged(FAST, {"scan": {"kind": "composite",
                                 "bandwidths_g": [0.5, 1.0],
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
    assert all(0.0 <= r["step_error"] <= 1e-8 for r in records)
    # widening the pulse degrades the first-order description
    assert records[1]["max_population_diff"] > records[0]["max_population_diff"]


def test_scan_tsvs_keep_records_that_did_not_converge(tmp_path, capsys):
    frozen = {"integrator": {"tol": 1e-13, "max_halvings": 0}}
    kinds = {"detuning": ("orientation_cavon_bw1.tsv", {"detunings_g": [-1.0, 0.0, 1.0],
                                                        "bandwidths_g": [1.0],
                                                        "cavity": [True]}),
             "composite": ("composite_bandwidth.tsv", {"kind": "composite",
                                                       "bandwidths_g": [0.5, 1.0],
                                                       "reference_bandwidth_g": 0.1})}
    for kind, (name, scan) in kinds.items():
        cfg = merged(FAST, {"scan": scan}, frozen)
        path = write_cfg(tmp_path / f"{kind}.yaml", cfg)
        out = tmp_path / kind
        assert main(["scan", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text().splitlines()]
        assert records and not any(r["converged"] for r in records)
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
    for section, key in (("system", "cavity"), ("experiment", "dressed"),
                         ("scan", "write_spectra")):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            resolve_config({section: {key: "false"}})
    with pytest.raises(ConfigError, match="integrator.tol"):
        resolve_config({"integrator": {"tol": True}})
    path = write_cfg(tmp_path / "quoted.yaml", {"system": {"cavity": "false"}})
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "run")]) == 2
    assert "system.cavity" in capsys.readouterr().err


def test_threads_below_one_exit_2(tmp_path, capsys):
    for threads in ("0", "-1"):
        out = tmp_path / f"run{threads}"
        assert main(["oracle", "--threads", threads, "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()
