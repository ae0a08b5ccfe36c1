"""Command-line surface: simulate, mpc, dmpc, and compare.

Exit codes: 0 success, 2 scenario/validation error, 3 solver failure,
4 I/O error.  Verbosity comes from the ESSMPC_LOG environment variable
(debug, info, warning; default warning).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import outputs
from .dmpc import AdmmSettings, PartitionError, distributed_mpc_run, partition_grid
from .dynamics import SimulationAbort, constant_policy, monitor_constraints, simulate
from .grid import EquilibriumError, GridError
from .mpc import (MpcConfig, MpcConfigError, StorageRegime, horizon_objective,
                  receding_horizon_run)
from .qp import QpError
from .scenario import Scenario, ScenarioError, parse_scenario

logger = logging.getLogger("essmpc")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

REGIMES = {
    "cc": StorageRegime(power_free=False, inertia_free=False),
    "cv": StorageRegime(power_free=True, inertia_free=False),
    "vc": StorageRegime(power_free=False, inertia_free=True),
    "vv": StorageRegime(power_free=True, inertia_free=True),
}
REGIME_NAMES = {
    "cc": "const-M const-P",
    "cv": "const-M var-P",
    "vc": "var-M const-P",
    "vv": "var-M var-P",
}


def _setup_logging() -> None:
    level = os.environ.get("ESSMPC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _with_regime(cfg: MpcConfig, regime: Optional[str]) -> MpcConfig:
    if regime is None:
        return cfg
    chosen = REGIMES[regime]
    return replace(cfg, regimes=tuple(chosen for _ in cfg.regimes))


def _load(args) -> Scenario:
    scenario = parse_scenario(Path(args.scenario))
    ts = getattr(args, "ts", None)
    if ts is not None:
        if not ts > 0:
            raise ScenarioError(f"--ts: step must be > 0, got {ts}")
        scenario.sim_step = ts
        scenario.mpc.step = ts
    ttotal = getattr(args, "ttotal", None)
    if ttotal is not None:
        if not ttotal >= 0:
            raise ScenarioError(f"--ttotal: duration must be >= 0, got {ttotal}")
        scenario.sim_duration = ttotal
    return scenario


def _outdir(args, scenario: Scenario, kind: str) -> Path:
    out = Path(args.out) if args.out else Path(f"{scenario.name}_{kind}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_common(out: Path, scenario: Scenario, traj, effort: float,
                 performance: float, extra: Optional[dict] = None,
                 tag: str = "run") -> None:
    grid = scenario.grid
    outputs.write_text(out / f"{tag}_trajectory.csv",
                       outputs.trajectory_to_csv(grid, traj))
    report = monitor_constraints(grid, traj, scenario.mpc.omega_limits)
    outputs.write_text(out / f"{tag}_constraints.txt",
                       outputs.constraint_report_text(report))
    extra = dict(extra or {})
    extra.setdefault("frequency_integral", traj.frequency_integral())
    outputs.write_text(out / f"{tag}_objective.txt",
                       outputs.objective_summary_text(effort, performance, extra))


def _closed_loop_objective(scenario: Scenario, traj) -> tuple[float, float]:
    """Stage cost accumulated along an executed trajectory."""
    grid = scenario.grid
    controls = np.hstack([traj.power_matrix(), traj.inertia_matrix()])
    n = max(len(traj) - 1, 0)
    return horizon_objective(grid, scenario.mpc, traj.states[: n + 1],
                             controls[:n])


def _non_optimal_solves(log, label: str) -> int:
    """Count horizon or area solves applied without an optimality certificate; warn if any."""
    count = sum(r.non_optimal_solves for r in log)
    if count:
        logger.warning("%s: %d non-optimal horizon solves were applied",
                       label, count)
    return count


def cmd_simulate(args) -> int:
    scenario = _load(args)
    cfg = _with_regime(scenario.mpc, args.regime or "cc")
    out = _outdir(args, scenario, "simulate")
    traj = simulate(scenario.grid, scenario.initial_state(),
                    constant_policy(scenario.reference_controls()),
                    scenario.sim_duration, scenario.sim_step, scenario.events,
                    scenario.clamp_storage_power_at_energy_limit,
                    name=scenario.name)
    effort, performance = _closed_loop_objective(
        replace(scenario, mpc=cfg), traj)
    _emit_common(out, scenario, traj, effort, performance, tag="simulate")
    logger.info("simulate: wrote %s", out)
    return EXIT_OK


def cmd_mpc(args) -> int:
    scenario = _load(args)
    cfg = _with_regime(scenario.mpc, args.regime)
    out = _outdir(args, scenario, "mpc")
    traj, log = receding_horizon_run(
        scenario.grid, scenario.initial_state(), cfg, scenario.sim_duration,
        scenario.events, scenario.clamp_storage_power_at_energy_limit,
        name=scenario.name)
    effort, performance = _closed_loop_objective(replace(scenario, mpc=cfg), traj)
    _emit_common(out, scenario, traj, effort, performance,
                 extra={"mean_sqp_iterations":
                        float(np.mean([r.sqp_iterations for r in log]))
                        if log else 0.0,
                        "non_optimal_solves": _non_optimal_solves(log, "mpc")},
                 tag="mpc")
    logger.info("mpc: wrote %s", out)
    return EXIT_OK


def cmd_dmpc(args) -> int:
    scenario = _load(args)
    if scenario.areas is None:
        raise ScenarioError("distributed.areas: required for the dmpc command")
    cfg = _with_regime(scenario.mpc, args.regime)
    out = _outdir(args, scenario, "dmpc")
    partition = partition_grid(scenario.grid, scenario.areas)
    traj, reports = distributed_mpc_run(
        scenario.grid, partition, cfg, scenario.initial_state(),
        scenario.sim_duration, scenario.admm, scenario.events,
        scenario.clamp_storage_power_at_energy_limit, name=scenario.name)
    effort, performance = _closed_loop_objective(replace(scenario, mpc=cfg), traj)
    _emit_common(out, scenario, traj, effort, performance,
                 extra={"non_optimal_solves": _non_optimal_solves(reports, "dmpc")},
                 tag="dmpc")
    outputs.write_text(out / "dmpc_admm.csv", outputs.admm_log_csv(reports))
    logger.info("dmpc: wrote %s", out)
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = _load(args)
    out = _outdir(args, scenario, "compare")
    results = {}
    for key in ("cc", "cv", "vc", "vv"):
        cfg = _with_regime(scenario.mpc, key)
        traj, log = receding_horizon_run(
            scenario.grid, scenario.initial_state(), cfg,
            scenario.sim_duration, scenario.events,
            scenario.clamp_storage_power_at_energy_limit,
            name=f"{scenario.name}_{key}")
        effort, performance = _closed_loop_objective(
            replace(scenario, mpc=cfg), traj)
        _emit_common(out, scenario, traj, effort, performance,
                     extra={"non_optimal_solves":
                            _non_optimal_solves(log, f"compare {key}")},
                     tag=key)
        results[key] = traj.frequency_integral()
        logger.info("compare: regime %s frequency integral %.6g", key, results[key])
    ranking = sorted(results, key=results.get)
    lines = ["rank,regime,name,frequency_integral"]
    for rank, key in enumerate(ranking, start=1):
        lines.append(f"{rank},{key},{REGIME_NAMES[key]},{repr(results[key])}")
    outputs.write_text(out / "ranking.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    scenario = _load(args)
    csv_path = Path(args.trajectory)
    try:
        text = csv_path.read_text()
    except OSError as exc:
        raise IOError(f"cannot read {csv_path}: {exc}") from exc
    header, *rows = text.strip().split("\n")
    names = header.split(",")
    from .dynamics import ControlInput, SystemState, Trajectory
    grid = scenario.grid
    expected = outputs.trajectory_columns(grid)
    if names != expected:
        raise ScenarioError(
            f"trajectory columns {names[:3]}... do not match scenario grid")
    values = []
    for line_no, row in enumerate(rows, start=2):
        try:
            values.append([float(tok) for tok in row.split(",")])
            if len(values[-1]) != len(names):
                raise ValueError(f"{len(values[-1])} values, expected {len(names)}")
        except ValueError as exc:
            raise ScenarioError(f"{csv_path} line {line_no}: {exc}") from exc
    data = np.array(values)
    n, n_w, n_s = grid.n_buses, len(grid.inertia_buses), len(grid.storage_buses)
    states = []
    inputs = []
    for row in data:
        states.append(SystemState(row[1:1 + n], row[1 + n:1 + n + n_w],
                                  row[1 + n + n_w + 2 * n_s:], row[0]))
        inputs.append(ControlInput(row[1 + n + n_w:1 + n + n_w + n_s],
                                   row[1 + n + n_w + n_s:1 + n + n_w + 2 * n_s]))
    ts = data[1, 0] - data[0, 0] if len(data) > 1 else scenario.sim_step
    traj = Trajectory(states, inputs, ts, scenario.name)
    text = outputs.emit_plot_data(grid, traj, args.columns)
    if args.out:
        outputs.write_text(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essmpc",
        description="Swing-equation simulation and storage power/inertia MPC")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, regime_default=None):
        p.add_argument("scenario", help="scenario file (.scn)")
        p.add_argument("--regime", choices=sorted(REGIMES),
                       default=regime_default,
                       help="storage regime: c=constant, v=variant, "
                            "(inertia, power) order")
        p.add_argument("--out", help="output directory")
        p.add_argument("--ts", type=float, help="override simulation step")
        p.add_argument("--ttotal", type=float, help="override run duration")

    p_sim = sub.add_parser("simulate", help="open-loop run with reference controls")
    common(p_sim, regime_default="cc")
    p_sim.set_defaults(func=cmd_simulate)

    p_mpc = sub.add_parser("mpc", help="centralized receding-horizon run")
    common(p_mpc)
    p_mpc.set_defaults(func=cmd_mpc)

    p_dmpc = sub.add_parser("dmpc", help="distributed (consensus) receding run")
    common(p_dmpc)
    p_dmpc.set_defaults(func=cmd_dmpc)

    p_cmp = sub.add_parser("compare", help="run all four regimes and rank them")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot-data",
                            help="extract gnuplot-style columns from a trajectory CSV")
    p_plot.add_argument("scenario")
    p_plot.add_argument("trajectory", help="trajectory CSV produced by a run")
    p_plot.add_argument("columns", nargs="+", help="column names, e.g. t omega_0")
    p_plot.add_argument("--out", help="output file (default stdout)")
    p_plot.set_defaults(func=cmd_plot_data)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, GridError, MpcConfigError, PartitionError, QpError,
            KeyError) as exc:
        logger.error("validation error: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SimulationAbort, EquilibriumError, RuntimeError) as exc:
        logger.error("solver error: %s", exc)
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
