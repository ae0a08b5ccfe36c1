"""Result serialization: trajectory CSV, plot columns, and text reports."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dynamics import ConstraintReport, Trajectory
from .grid import GridModel

__all__ = [
    "trajectory_columns",
    "trajectory_to_csv",
    "emit_plot_table",
    "constraint_report_text",
    "objective_summary_text",
    "admm_log_csv",
]


def _fmt(x: float) -> str:
    """Shortest round-trip decimal text for a double."""
    return repr(float(x))


def trajectory_columns(grid: GridModel) -> list[str]:
    cols = ["t"]
    cols += [f"delta_{i}" for i in range(grid.n_buses)]
    cols += [f"omega_{i}" for i in grid.inertia_buses]
    cols += [f"P_e_{i}" for i in grid.storage_buses]
    cols += [f"M_e_{i}" for i in grid.storage_buses]
    cols += [f"E_{i}" for i in grid.storage_buses]
    return cols


def _trajectory_table(grid: GridModel, traj: Trajectory) -> np.ndarray:
    rows = []
    for state, u in zip(traj.states, traj.inputs):
        rows.append(np.concatenate([[state.t], state.angles, state.omega,
                                    u.power, u.inertia, state.energy]))
    return np.array(rows) if rows else np.zeros((0, len(trajectory_columns(grid))))


def trajectory_to_csv(grid: GridModel, traj: Trajectory) -> str:
    """Header plus one full-precision row per stored step."""
    lines = [",".join(trajectory_columns(grid))]
    for row in _trajectory_table(grid, traj):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_plot_table(grid: GridModel, table: np.ndarray,
                    selection: Sequence[str]) -> str:
    """Whitespace-separated columns with a comment header, gnuplot style.

    `table` holds one row per stored step, in the columns of
    `trajectory_columns`; `selection` names the columns to write.
    """
    available = trajectory_columns(grid)
    index = {name: i for i, name in enumerate(available)}
    missing = [name for name in selection if name not in index]
    if missing:
        raise KeyError(
            f"unknown column(s) {missing}; available: {', '.join(available)}")
    if not selection:
        raise KeyError("selection must name at least one column")
    lines = ["# " + " ".join(selection)]
    for row in table:
        lines.append(" ".join(_fmt(row[index[name]]) for name in selection))
    return "\n".join(lines) + "\n"


def constraint_report_text(report: ConstraintReport) -> str:
    if not report.violations:
        return "no constraint violations\n"
    lines = [f"{len(report.violations)} constraint violation(s)"]
    for v in report.violations:
        lines.append(
            f"step {v.step} t={v.t:.6g} {v.kind} bus {v.bus}: "
            f"value {v.value:.9g} vs limit {v.limit:.9g}")
    return "\n".join(lines) + "\n"


def objective_summary_text(effort: float, performance: float,
                           extra: Optional[dict[str, float]] = None) -> str:
    """Key/value lines; integer extras (counts) are written as integers."""
    lines = [
        f"effort_term {_fmt(effort)}",
        f"performance_term {_fmt(performance)}",
        f"total {_fmt(effort + performance)}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"{key} {value if isinstance(value, int) else _fmt(value)}")
    return "\n".join(lines) + "\n"


def admm_log_csv(reports) -> str:
    """Per-control-step consensus statistics."""
    lines = ["step,iterations,final_residual,converged,area_objectives"]
    for k, rep in enumerate(reports):
        objs = ";".join(_fmt(v) for v in rep.area_objectives)
        lines.append(f"{k},{rep.iterations},{_fmt(rep.final_residual)},"
                     f"{int(rep.converged)},{objs}")
    return "\n".join(lines) + "\n"


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
