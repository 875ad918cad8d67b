"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest rotbench/tests -q

The smoke runs start the real benchmark on the cheaper workload with a run
length shorter than one iteration, so each makes the minimum number of
iterations.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("rotbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_configs_other_seed_other_configs(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)


def test_every_name_is_well_formed():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(tracing.PER_LAYER) + list(run.END_TO_END) + list(workloads.WORKLOADS)
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(m["name"] for m in spec["end_to_end"] + spec["per_layer"])) == \
        len(spec["end_to_end"]) + len(spec["per_layer"])


def test_declared_metrics_match_what_the_benchmark_emits():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {n: (u, b) for n, (u, b, _) in tracing.PER_LAYER.items()}


def test_ladder_steps_match_the_kernel_steps_taken(monkeypatch):
    """The step counts recomputed from Trajectory.meta equal the steps the kernel ran."""
    import numpy as np

    from rotpolariton import cli, control, dynamics

    kernels = getattr(dynamics, "_INTERVAL_KERNELS", None)
    if kernels is None:
        pytest.skip("kernel table gone; nothing to count against")
    taken = []
    inner = kernels["yoshida4"]

    def counting(frame, c, t0, h, n, field):
        taken.append(n)
        return inner(frame, c, t0, h, n, field)

    monkeypatch.setitem(kernels, "yoshida4", counting)
    cfg = cli.resolve_config({"field": {"bandwidth_g": 1.0}})
    params, g_ref = cli.build_params(cfg)
    fld, _ = cli.build_field(cfg, params, g_ref)
    h0, v, basis = control.build_dressed_hamiltonian(params)
    state0 = dynamics.unit_state(basis.labels, "0;0", basis="dressed", time=fld.t_start)
    times = np.linspace(fld.t_start, fld.t_end, 9)
    traj = dynamics.propagate(h0, v, fld, state0, times)
    ladder = tracing.ladder_steps({"times": times, "window": (fld.t_start, fld.t_end),
                                   "meta": traj.meta})
    assert len(ladder) == traj.meta["halvings"] + 1
    assert sum(ladder) == sum(taken)
    assert ladder[-1] == sum(taken[-(len(times) - 1):])


def test_self_time_subtracts_child_coverage():
    tr = tracing.Tracer()
    spans = []
    for sid, parent, a, b in ((0, None, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 0, 3.0, 6.0),
                              (3, 1, 2.0, 3.0)):
        s = tracing.Span(sid, parent, f"s{sid}", "control", None)
        s.start, s.end = a, b
        spans.append(s)
    tr.spans = spans
    assert tr.self_times() == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_a_vanished_name_is_unmeasured_not_zero(monkeypatch):
    from rotpolariton import control

    monkeypatch.delattr(control, "propagate")
    tr = tracing.Tracer()
    tr.install()
    tr.remove()
    gone = tracing.unmeasured(tr.missing)
    assert "dynamics.calls" in gone and "dynamics.steps_total" in gone
    assert "pulse.area_calls" not in gone


def test_traced_run_restores_every_name():
    from rotpolariton import cli, control, dynamics, pulse

    before = [getattr(m, a) for m, a in ((cli, "main"), (control, "propagate"),
                                         (dynamics, "field_value"), (pulse, "spectral_area"))]
    tr = tracing.Tracer()
    tr.install()
    tr.remove()
    after = [getattr(m, a) for m, a in ((cli, "main"), (control, "propagate"),
                                        (dynamics, "field_value"), (pulse, "spectral_area"))]
    assert before == after


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_declared_metric_with_its_unit(trace):
    spec = _spec()
    res = _result(_run("simulate_io", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_work_counts_repeat_exactly_across_two_runs():
    first = _result(_run("simulate_io", 1, seed=3))["metrics"]
    second = _result(_run("simulate_io", 1, seed=3))["metrics"]
    assert first["dynamics.calls"]["value"] > 0
    for name in tracing.EXACT_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "rotbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("kick_scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
