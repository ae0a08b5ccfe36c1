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
from typing import Callable, Optional

import numpy as np

from . import outputs
from .dmpc import DistributedMpcController, PartitionError, partition_grid
from .dynamics import (SimulationAbort, Trajectory, constant_policy, monitor_constraints,
                       simulate)
from .grid import EquilibriumError, GridError
from .mpc import (MpcConfig, MpcConfigError, MpcController, StorageRegime,
                  horizon_objective)
from .qp import QpError
from .scenario import Scenario, ScenarioError, parse_scenario

logger = logging.getLogger("essmpc")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

# Per --regime key (c = constant, v = variant, in (inertia, power) order):
# the regime's name in compare's ranking, and the storage regime.
REGIMES = {
    "cc": ("const-M const-P", StorageRegime(power_free=False, inertia_free=False)),
    "cv": ("const-M var-P", StorageRegime(power_free=True, inertia_free=False)),
    "vc": ("var-M const-P", StorageRegime(power_free=False, inertia_free=True)),
    "vv": ("var-M var-P", StorageRegime(power_free=True, inertia_free=True)),
}


def _setup_logging() -> None:
    level = os.environ.get("ESSMPC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _with_regime(cfg: MpcConfig, key: Optional[str]) -> MpcConfig:
    return cfg if key is None else replace(cfg, regime=REGIMES[key][1])


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


def _close_loop(out: Path, scenario: Scenario, cfg: MpcConfig, controller, tag: str,
                stats: Callable[[], dict] = dict) -> Trajectory:
    """Run `controller` in closed loop on the scenario and write its three files.

    The trajectory, its constraint report and its objective go to files
    named after `tag`.  The objective is `cfg`'s stage cost accumulated
    along the executed trajectory; `stats`, called after the run, gives
    the objective file's extra lines.  A controller's `StepRecord` log gets
    one warning if its plans relaxed a soft limit by more than `cfg.qp_tol`.
    """
    grid = scenario.grid
    traj = simulate(grid, scenario.initial_state(), controller, scenario.sim_duration,
                    scenario.sim_step, scenario.events,
                    scenario.clamp_storage_power_at_energy_limit)
    controls = np.hstack([traj.power_matrix(), traj.inertia_matrix()])
    n = max(len(traj) - 1, 0)
    effort, performance = horizon_objective(grid, cfg, traj.states[: n + 1],
                                            controls[:n])
    outputs.write_text(out / f"{tag}_trajectory.csv",
                       outputs.trajectory_to_csv(grid, traj))
    report = monitor_constraints(grid, traj, cfg.omega_limits)
    outputs.write_text(out / f"{tag}_constraints.txt",
                       outputs.constraint_report_text(report))
    relaxed = [r.slack for r in getattr(controller, "log", ()) if r.slack > cfg.qp_tol]
    if relaxed:
        logger.warning("%s: %d steps relaxed an energy or frequency limit, by up to %.3g",
                       tag, len(relaxed), max(relaxed))
    extra = {**stats(), "frequency_integral": traj.frequency_integral()}
    outputs.write_text(out / f"{tag}_objective.txt",
                       outputs.objective_summary_text(effort, performance, extra))
    return traj


def _non_optimal_solves(log, label: str) -> int:
    """Count horizon or area solves applied without an optimality certificate; warn if any."""
    count = sum(r.non_optimal_solves for r in log)
    if count:
        logger.warning("%s: %d non-optimal horizon solves were applied",
                       label, count)
    return count


def cmd_simulate(args) -> int:
    scenario = _load(args)
    cfg = _with_regime(scenario.mpc, args.regime)
    out = _outdir(args, scenario, "simulate")
    _close_loop(out, scenario, cfg, constant_policy(scenario.reference_controls()),
                "simulate")
    logger.info("simulate: wrote %s", out)
    return EXIT_OK


def cmd_mpc(args) -> int:
    scenario = _load(args)
    cfg = _with_regime(scenario.mpc, args.regime)
    out = _outdir(args, scenario, "mpc")
    ctrl = MpcController(scenario.grid, cfg, scenario.events)
    _close_loop(out, scenario, cfg, ctrl, "mpc", lambda: {
        "mean_sqp_iterations": float(np.mean([r.sqp_iterations for r in ctrl.log]))
        if ctrl.log else 0.0,
        "non_optimal_solves": _non_optimal_solves(ctrl.log, "mpc")})
    logger.info("mpc: wrote %s", out)
    return EXIT_OK


def cmd_dmpc(args) -> int:
    scenario = _load(args)
    if scenario.areas is None:
        raise ScenarioError("distributed.areas: required for the dmpc command")
    cfg = _with_regime(scenario.mpc, args.regime)
    out = _outdir(args, scenario, "dmpc")
    ctrl = DistributedMpcController(scenario.grid, cfg,
                                    partition_grid(scenario.grid, scenario.areas),
                                    scenario.admm, scenario.events)
    _close_loop(out, scenario, cfg, ctrl, "dmpc", lambda: {
        "non_optimal_solves": _non_optimal_solves(ctrl.log, "dmpc")})
    outputs.write_text(out / "dmpc_admm.csv", outputs.admm_log_csv(ctrl.log))
    logger.info("dmpc: wrote %s", out)
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = _load(args)
    out = _outdir(args, scenario, "compare")
    results = {}
    for key in REGIMES:
        cfg = _with_regime(scenario.mpc, key)
        ctrl = MpcController(scenario.grid, cfg, scenario.events)
        traj = _close_loop(out, scenario, cfg, ctrl, key, lambda: {
            "non_optimal_solves": _non_optimal_solves(ctrl.log, f"compare {key}")})
        results[key] = traj.frequency_integral()
        logger.info("compare: regime %s frequency integral %.6g", key, results[key])
    ranking = sorted(results, key=results.get)
    lines = ["rank,regime,name,frequency_integral"]
    for rank, key in enumerate(ranking, start=1):
        lines.append(f"{rank},{key},{REGIMES[key][0]},{repr(results[key])}")
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
    grid = scenario.grid
    if names != outputs.trajectory_columns(grid):
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
    text = outputs.emit_plot_table(grid, np.array(values), args.columns)
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
