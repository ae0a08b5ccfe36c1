"""Step clock and span recorder: what they wrap, and that they undo it."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg

from essmpc import dynamics, mpc, qp
from essmpc.scenario import parse_scenario
from perfbench import trace
from perfbench import workloads as wls


@pytest.fixture
def tiny(tmp_path):
    """Three control steps of the two-bus centralized controller."""
    wl = dataclasses.replace(wls.WORKLOADS["two_bus_compare"], command="mpc",
                             window=0.03)
    path = wls.scenario_file(wl, 0, tmp_path)
    return wl, parse_scenario(path), path, tmp_path / "out"


def test_untraced_run_leaves_no_wrapper(tiny):
    wl, scenario, path, out = tiny
    before = trace.bindings()
    result = wls.run_command(wl, scenario, path, out)
    assert trace.bindings() == before
    assert not result.problems
    assert len(result.log.step_s) == 3
    assert 0.0 < result.log.setup_s < result.total_s


def test_setup_probe_stops_at_first_controller_call(tiny):
    wl, _scenario, path, out = tiny
    before = trace.bindings()
    assert wls.probe_setup(wl, path, out) > 0.0
    assert trace.bindings() == before
    assert not out.exists()


def test_rejected_scenario_gives_a_failed_result_not_a_crash(tiny):
    wl, scenario, _path, out = tiny
    bad = out.parent / "bad.scn"
    bad.write_text("schema_version: 1\nname: x\n")
    assert wls.probe_setup(wl, bad, out) is None
    result = wls.run_command(wl, scenario, bad, out)
    assert result.problems == ["exit status 2"]
    m = wls.end_to_end(wl, scenario, [], [result], 100.0)
    assert m["failed_step_frac"]["value"] == 1.0
    assert m["setup_s"]["value"] is None and m["steps_per_s"]["value"] is None
    json.dumps(m, allow_nan=False)


def test_traced_run_wraps_every_binding_then_restores():
    jacobian, solve = dynamics.swing_jacobian, qp.QpWorkspace.solve
    before = trace.bindings()
    with trace.instrumented(trace.Recorder()):
        assert mpc.swing_jacobian is dynamics.swing_jacobian
        assert mpc.swing_jacobian is not jacobian
        assert mpc.swing_jacobian.__wrapped__ is jacobian
        assert qp.QpWorkspace.solve is not solve
        assert qp.lu_factor is scipy.linalg.lu_factor
    assert trace.bindings() == before


def test_traced_spans_nest_across_layers(tiny):
    wl, scenario, path, out = tiny
    rec = trace.Recorder()
    result = wls.run_command(wl, scenario, path, out, rec)
    assert not result.problems
    names = rec.names
    jac = names.index("dynamics.swing_jacobian")
    assert names[rec.parent[jac]] == "mpc.linearize_dynamics"
    assert [names[i] for i in rec.steps] == ["mpc.MpcController"] * 3
    assert names[0] == trace.COMMAND_SPAN and rec.parent.count(-1) == 1


def test_only_the_first_traced_command_keeps_its_programs(tiny):
    wl, scenario, path, out = tiny
    rec = trace.Recorder()
    for _ in range(2):
        wls.run_command(wl, scenario, path, out, rec)
    kept = [i for i, note in rec.notes.items()
            if rec.names[i] == "qp.QpWorkspace.solve" and note[4] is not None]
    first = rec.names.index(trace.COMMAND_SPAN, 1)
    assert kept and max(kept) < first and not rec.central


def test_self_time_subtracts_direct_children():
    rec = trace.Recorder()
    rec.names = ["a", "b", "c", "d"]
    rec.parent = [-1, 0, 1, 0]
    rec.start = [0.0, 1.0, 2.0, 5.0]
    rec.end = [10.0, 4.0, 3.0, 6.0]
    assert rec.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_run_fails_without_program_sources(tmp_path):
    bench = Path(wls.__file__).resolve().parent
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in bench.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "twelve_bus_mpc", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
