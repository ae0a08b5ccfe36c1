"""The four workloads: one CLI command each, output checks, and metrics.

Every workload runs `essmpc.cli.main` in-process, the same code path as the
`essmpc` command, over a fixed window of simulated time from t = 0, where
each scenario applies its disturbance.  The bundled workloads read the
shipped scenario files unchanged; the seed drives the ring generator only.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from essmpc import cli
from essmpc.dmpc import DistributedMpcController
from essmpc.mpc import MpcController
from essmpc.outputs import trajectory_columns
from essmpc.scenario import Scenario, bundled_scenario_path

from . import oracle, ring
from .trace import LAYERS, COMMAND_SPAN, CommandLog, Recorder, SetupDone, instrumented


@dataclass(frozen=True)
class Workload:
    command: str           # essmpc CLI command
    scenario: str          # bundled scenario name, or "ring"
    window: float          # simulated seconds from t = 0
    why: str
    step0_oracle: bool = False   # whether input_gap applies


SETUP_PROBES = 5           # extra set-up-only commands per untraced run
P90_MIN_STEPS = 100

WORKLOADS = {
    "two_bus_compare": Workload(
        "compare", "two_bus", 0.5,
        "many small warm-started solves in four regimes; linearize/assemble "
        "are a real share and qp time sits in rare long splitting runs"),
    "twelve_bus_mpc": Workload(
        "mpc", "twelve_bus", 0.02,
        "centralized n=252 program; qp.solve is nearly all the work, so a "
        "solver change shows here (one control step)", step0_oracle=True),
    "twelve_bus_dmpc": Workload(
        "dmpc", "twelve_bus", 2.0,
        "three-area consensus ADMM: area LTV, assembly, small area QPs and "
        "rounds", step0_oracle=True),
    "ring_simulate": Workload(
        "simulate", "ring", ring.DURATION,
        "open loop on a seeded 400-bus ring: only grid, dynamics and outputs "
        "work, so physics and CSV writing show"),
}

REGIME_TAGS = ("cc", "cv", "vc", "vv")


def scenario_file(wl: Workload, seed: int, work: Path) -> Path:
    if wl.scenario != "ring":
        return bundled_scenario_path(wl.scenario)
    path = work / f"ring_seed{seed}.scn"
    path.write_text(ring.ring_text(seed))
    return path


@dataclass
class CommandResult:
    """One full command: timings from the step clock plus checked outputs."""

    log: CommandLog
    total_s: float
    wall_s: float                    # including the output checks
    problems: list[str]
    cost: float = float("nan")
    bytes: int = 0
    steps: int = 0
    failed_steps: int = 0
    first_input: Optional[np.ndarray] = None
    sqp_iterations: list[int] = field(default_factory=list)
    admm: list = field(default_factory=list)


def _steps(wl: Workload, scenario: Scenario) -> tuple[int, tuple[str, ...]]:
    """Steps per run and the output tag of each run the command makes."""
    n_steps = int(np.floor(wl.window / scenario.sim_step + 1e-9))
    return n_steps, REGIME_TAGS if wl.command == "compare" else (wl.command,)


def _argv(wl: Workload, path: Path, out: Path) -> list[str]:
    return [wl.command, str(path), "--out", str(out), "--ttotal", repr(wl.window)]


def probe_setup(wl: Workload, path: Path, out: Path) -> Optional[float]:
    """Set-up time of one command, stopped at its first controller call."""
    shutil.rmtree(out, ignore_errors=True)
    with instrumented(setup_only=True) as log:
        try:
            cli.main(_argv(wl, path, out))
        except SetupDone:
            pass
    shutil.rmtree(out, ignore_errors=True)
    return log.setup_s


def run_command(wl: Workload, scenario: Scenario, path: Path, out: Path,
                rec: Optional[Recorder] = None) -> CommandResult:
    shutil.rmtree(out, ignore_errors=True)
    t0 = perf_counter()
    with instrumented(rec) as log:
        rc = cli.main(_argv(wl, path, out))
        total = perf_counter() - log.start
    result = CommandResult(log, total, 0.0, [])
    if rc != 0:
        n_steps, tags = _steps(wl, scenario)
        result.problems.append(f"exit status {rc}")
        result.steps = result.failed_steps = n_steps * len(tags)
    else:
        try:
            check_outputs(wl, scenario, out, result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result.problems.append(f"unreadable output: {exc!r}")
    # The controllers have been read; kept, they would make peak RSS grow
    # with the number of commands that fit in a run.
    log.controllers.clear()
    result.wall_s = perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    return result


# -- output checks -------------------------------------------------------------


def _objective_file(path: Path) -> dict[str, float]:
    return {key: float(value) for key, value in
            (line.split() for line in path.read_text().splitlines() if line)}


def _flow_residual(scenario: Scenario, angles: np.ndarray) -> float:
    """Power-flow mismatch of the initial angles at the non-reference buses."""
    grid = scenario.grid
    outflow = np.zeros(grid.n_buses)
    for ln in grid.lines:
        f = ln.susceptance * np.sin(angles[ln.from_bus] - angles[ln.to_bus])
        outflow[ln.from_bus] += f
        outflow[ln.to_bus] -= f
    mismatch = grid.net_injections(scenario.reference_power) - outflow
    mismatch[grid.reference_bus] = 0.0
    return float(np.max(np.abs(mismatch)))


def check_outputs(wl: Workload, scenario: Scenario, out: Path,
                  result: CommandResult) -> None:
    """Check the written files; record problems and the facts read back."""
    grid = scenario.grid
    problems = result.problems
    columns = trajectory_columns(grid)
    n, n_w, n_s = grid.n_buses, len(grid.inertia_buses), len(grid.storage_buses)
    p_cols = slice(1 + n + n_w, 1 + n + n_w + n_s)
    m_cols = slice(1 + n + n_w + n_s, 1 + n + n_w + 2 * n_s)
    p_lo, p_hi = np.array([grid.storage_role(b).power_bounds
                           for b in grid.storage_buses]).T
    m_lo, m_hi = np.array([grid.storage_role(b).inertia_bounds
                           for b in grid.storage_buses]).T
    n_steps, tags = _steps(wl, scenario)
    cost = 0.0
    integrals = {}
    for tag in tags:
        csv = out / f"{tag}_trajectory.csv"
        header = csv.read_text().split("\n", 1)[0].split(",")
        if header != columns:
            problems.append(f"{csv.name}: unexpected columns")
            continue
        table = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (n_steps + 1, len(columns)):
            problems.append(f"{csv.name}: shape {table.shape}, expected "
                            f"{(n_steps + 1, len(columns))}")
            continue
        finite = np.all(np.isfinite(table), axis=1)
        if not finite.all():
            problems.append(f"{csv.name}: non-finite state")
            if wl.command == "simulate":
                result.failed_steps += int(np.sum(~finite[1:]))
            continue
        if np.max(np.abs(table[:, 0] - scenario.sim_step * np.arange(n_steps + 1))) > 1e-9:
            problems.append(f"{csv.name}: time column is not uniform from 0")
        power, inertia = table[:, p_cols], table[:, m_cols]
        if np.any(power < p_lo - 1e-9) or np.any(power > p_hi + 1e-9) \
                or np.any(inertia < m_lo - 1e-9) or np.any(inertia > m_hi + 1e-9):
            problems.append(f"{csv.name}: applied control outside its box")
        residual = _flow_residual(scenario, table[0, 1:1 + n])
        if residual > 1e-8:
            problems.append(f"{csv.name}: initial angles off equilibrium "
                            f"(mismatch {residual:.3e})")
        if result.first_input is None:
            result.first_input = np.concatenate([power[0], inertia[0]])
        obj = _objective_file(out / f"{tag}_objective.txt")
        total = obj["total"]
        if not np.isfinite(total) or abs(total - obj["effort_term"]
                                         - obj["performance_term"]) \
                > 1e-12 * max(1.0, abs(total)):
            problems.append(f"{tag}_objective.txt: total is not effort + performance")
        cost += total
        integrals[tag] = obj["frequency_integral"]
    result.cost = cost
    if wl.command == "compare":
        lines = (out / "ranking.csv").read_text().splitlines()[1:]
        ranked = [line.split(",") for line in lines]
        if sorted(r[1] for r in ranked) != sorted(REGIME_TAGS) or any(
                float(r[3]) != integrals.get(r[1]) for r in ranked) or [
                float(r[3]) for r in ranked] != sorted(float(r[3]) for r in ranked):
            problems.append("ranking.csv does not rank the regimes' frequency integrals")
    if wl.command == "dmpc":
        rows = (out / "dmpc_admm.csv").read_text().splitlines()[1:]
        if len(rows) != n_steps:
            problems.append(f"dmpc_admm.csv: {len(rows)} rows for {n_steps} steps")
    result.bytes = sum(f.stat().st_size for f in out.iterdir())
    result.steps = n_steps * len(tags)
    _step_log(result)


def _step_log(result: CommandResult) -> None:
    """Count failed control steps from the controllers' own logs."""
    for ctrl in result.log.controllers:
        if isinstance(ctrl, MpcController):
            for step in ctrl.log:
                rep = step.qp_report
                kkt = max(rep.stationarity, rep.primal_feasibility, rep.complementarity)
                result.failed_steps += rep.status != "optimal" or kkt > ctrl.cfg.qp_tol
                result.sqp_iterations.append(step.sqp_iterations)
        elif isinstance(ctrl, DistributedMpcController):
            result.failed_steps += sum(not r.converged for r in ctrl.log)
            result.admm.extend(ctrl.log)


# -- metrics --------------------------------------------------------------------


def _metric(value, unit: str, n: int) -> dict:
    return {"value": None if value is None else float(value), "unit": unit, "n": n}


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _pct(values, q: float) -> Optional[float]:
    return float(np.percentile(values, q)) if len(values) else None


def _median(values, unit: str) -> dict:
    """Median metric; its value is None when no command gave a sample."""
    return _metric(_pct(values, 50), unit, len(values))


def end_to_end(wl: Workload, scenario: Scenario, setups: list[float],
               results: list[CommandResult], peak_rss_mb: float) -> dict:
    """End-to-end metrics.  A command that failed before `simulate` ran
    gives no set-up, rate or cost sample; it still counts as failed steps."""
    steps_ms = [1e3 * s for r in results for s in r.log.step_s]
    ran = [r for r in results if r.log.sim_s > 0.0]
    controller = wl.command != "simulate"
    m = {
        "setup_s": _median(setups, "s"),
        "total_s": _median([r.total_s for r in results], "s"),
        "steps_per_s": _median([r.log.steps / r.log.sim_s for r in ran], "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
        "closed_loop_cost": _median([r.cost for r in results
                                     if np.isfinite(r.cost)], "1"),
    }
    if controller:
        m["step_ms_p50"] = _metric(_pct(steps_ms, 50), "ms", len(steps_ms))
        if len(steps_ms) >= P90_MIN_STEPS:
            m["step_ms_p90"] = _metric(_pct(steps_ms, 90), "ms", len(steps_ms))
    applied = [r.first_input for r in results if r.first_input is not None]
    if wl.step0_oracle and applied:
        _best, low, high = oracle.optimal_first_inputs(oracle.step0_program(scenario))
        m["input_gap"] = _metric(max(oracle.input_gap(u, low, high) for u in applied),
                                 "pu_or_s", len(applied))
    attempted = sum(r.steps for r in results)
    m["failed_step_frac"] = _metric(sum(r.failed_steps for r in results)
                                    / max(attempted, 1), "1", attempted)
    return m


def _spans_by_name(rec: Recorder) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for i, name in enumerate(rec.names):
        out.setdefault(name, []).append(i)
    return out


def per_layer(rec: Recorder, traced: list[CommandResult],
              untraced: list[CommandResult]) -> tuple[dict, dict]:
    """(metrics, detail): layer metrics of the traced commands, and self times."""
    n_cmd = len(traced)
    dur = rec.durations()
    own = rec.self_times()
    by = _spans_by_name(rec)

    def mean_ms(name: str, scale: float = 1e3, unit: str = "ms") -> dict:
        idx = by.get(name, [])
        return _metric(scale * _mean([dur[i] for i in idx]), unit, len(idx))

    def per_cmd(name: str) -> dict:
        return _metric(len(by.get(name, [])) / n_cmd, "count", n_cmd)

    solves = [rec.notes[i] for i in by.get("qp.QpWorkspace.solve", [])]
    iters = [s[1] for s in solves]
    solve_ms = [1e3 * dur[i] for i in by.get("qp.QpWorkspace.solve", [])]
    gaps = [abs(oracle.objective_gap(s[4], s[5])) for s in solves if s[4] is not None]

    # dmpc: split each controller step into its consensus rounds and the rest.
    steps = set(rec.steps)
    step_of = {}
    for i in by.get("dmpc.pdc_admm_step", []):
        p = rec.parent[i]
        while p >= 0 and p not in steps:
            p = rec.parent[p]
        step_of.setdefault(p, []).append(i)
    build_ms = [1e3 * (dur[s] - sum(dur[i] for i in rounds))
                for s, rounds in step_of.items()]
    prox = []
    for rounds in step_of.values():
        tau, x_prev, solutions = rec.notes[rounds[-1]]
        prox.append(tau * max(float(np.max(np.abs(x - x_prev[a]), initial=0.0))
                              for a, x in solutions.items()))
    admm = [r for c in traced for r in c.admm]
    sqp = [k for c in traced for k in c.sqp_iterations]

    write_s = [own[i] for i, name in enumerate(rec.names) if name.startswith("outputs.")]
    t_traced = np.median([c.total_s for c in traced])
    t_plain = np.median([c.total_s for c in untraced])

    m = {
        "scenario.parse_ms": mean_ms("scenario.parse_scenario"),
        "grid.equilibrium_ms": mean_ms("grid.solve_equilibrium"),
        "dynamics.rhs_calls": per_cmd("dynamics.swing_rhs"),
        "dynamics.rhs_us": mean_ms("dynamics.swing_rhs", 1e6, "us"),
        "dynamics.jacobian_calls": per_cmd("dynamics.swing_jacobian"),
        "dynamics.jacobian_us": mean_ms("dynamics.swing_jacobian", 1e6, "us"),
        "mpc.linearize_ms": mean_ms("mpc.linearize_dynamics"),
        "mpc.assemble_ms": mean_ms("mpc.assemble_horizon_program"),
        "mpc.sqp_iterations": _metric(_mean(sqp), "count", len(sqp)),
        "qp.solve_calls": per_cmd("qp.QpWorkspace.solve"),
        "qp.solve_ms_p50": _metric(_pct(solve_ms, 50) or 0.0, "ms", len(solve_ms)),
        "qp.solve_ms_p90": _metric(_pct(solve_ms, 90) or 0.0, "ms", len(solve_ms)),
        "qp.iterations_mean": _metric(_mean(iters), "count", len(iters)),
        "qp.iterations_max": _metric(max(iters, default=0), "count", len(iters)),
        "qp.optimal_frac": _metric(_mean([s[0] == "optimal" for s in solves]), "1",
                                   len(solves)),
        "qp.polished_frac": _metric(_mean([s[2] for s in solves]), "1", len(solves)),
        "qp.kkt_max": _metric(max((s[3] for s in solves), default=0.0), "1",
                              len(solves)),
        "qp.objective_gap": _metric(max(gaps, default=0.0), "1", len(gaps)),
        "dmpc.build_ms": _metric(_mean(build_ms), "ms", len(build_ms)),
        "dmpc.round_ms": mean_ms("dmpc.pdc_admm_step"),
        "dmpc.area_solve_ms": mean_ms("dmpc.area_subproblem_solve"),
        "dmpc.rounds_mean": _metric(_mean([r.iterations for r in admm]), "count",
                                    len(admm)),
        "dmpc.rounds_max": _metric(max((r.iterations for r in admm), default=0),
                                   "count", len(admm)),
        "dmpc.converged_frac": _metric(_mean([r.converged for r in admm]), "1",
                                       len(admm)),
        "dmpc.consensus_residual": _metric(max((r.final_residual for r in admm),
                                               default=0.0), "rad", len(admm)),
        "dmpc.prox_residual": _metric(max(prox, default=0.0), "1", len(prox)),
        "outputs.write_ms": _metric(1e3 * sum(write_s) / n_cmd, "ms", n_cmd),
        "outputs.bytes": _metric(_mean([c.bytes for c in traced]), "bytes", n_cmd),
        "trace.overhead_frac": _metric(t_traced / t_plain - 1.0, "1", n_cmd),
    }

    layer_ms = dict.fromkeys(LAYERS + ("cli",), 0.0)
    for i, name in enumerate(rec.names):
        key = "cli" if name == COMMAND_SPAN else name.split(".")[0]
        layer_ms[key] += 1e3 * own[i] / n_cmd
    controller_ms = 1e3 * sum(dur[i] for i in rec.steps) / n_cmd
    detail = {"self_ms_per_command": layer_ms,
              "controller_ms_per_command": controller_ms,
              "total_ms_per_command": 1e3 * _mean([c.total_s for c in traced]),
              "spans": len(rec.names)}
    return m, detail
