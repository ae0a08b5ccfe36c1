"""Instrumentation from outside the program: a step clock and a span recorder.

Both rebind functions in the `essmpc` module namespaces for the length of
one command and restore the originals afterwards; the program's code is
never edited.

* The step clock is always on.  It wraps `dynamics.simulate` wherever a
  module bound it and times every call the simulation loop makes into its
  controller or policy.  The first such call ends set-up.
* The span recorder is on only in the traced run.  It also wraps every
  public function of the layer modules, and `QpWorkspace.solve`, in every
  namespace that bound it (`swing_jacobian` inside `mpc`, for example).
  Functions the layers import from elsewhere, such as scipy's `lu_factor`,
  are left alone.  A span is (name, start, end, parent); spans stay in
  memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

LAYERS = ("scenario", "grid", "dynamics", "mpc", "qp", "dmpc", "outputs")
METHODS = (("qp", "QpWorkspace", "solve"),)
COMMAND_SPAN = "command"


class SetupDone(BaseException):
    """Raised at the first controller call of a set-up probe.

    It derives from BaseException so that neither the simulation loop's
    `except Exception` nor the CLI's error mapping turns it into a result.
    """


class Recorder:
    """In-memory spans in call order; `notes` keeps values some spans returned."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.notes: dict[int, object] = {}
        self.commands = 0
        # id() of the centralized programs assembled so far in the first
        # command.  Later commands assemble the same programs, as commands
        # are deterministic, so only the first command's are kept.
        self.central: set[int] = set()
        self.steps: list[int] = []       # spans of controller calls
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write_jsonl(self, path: Path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "parent": self.parent[i],
                                     "start_s": self.start[i] - t0,
                                     "end_s": self.end[i] - t0}) + "\n")


@dataclass
class CommandLog:
    """What the step clock saw during one command."""

    start: float
    first_call: Optional[float] = None
    step_s: list[float] = field(default_factory=list)
    sim_s: float = 0.0
    steps: int = 0
    controllers: list = field(default_factory=list)

    @property
    def setup_s(self) -> Optional[float]:
        return None if self.first_call is None else self.first_call - self.start


def _essmpc_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "essmpc" or name.startswith("essmpc."))]


def _note_solve(rec: Recorder, args, result):
    prog = args[0].prog
    central = id(prog) in rec.central
    kkt = max(result.stationarity, result.primal_feasibility, result.complementarity)
    return (result.status, result.iterations, result.polished, kkt,
            prog if central else None, result.x if central else None)


def _note_assemble(rec: Recorder, args, result):
    if rec.commands == 1:
        rec.central.add(id(result.prog))
    return result.prog


def _note_round(rec: Recorder, args, result):
    # pdc_admm_step(programs, consensus, x_prev, ...) -> (solutions, residual)
    x_prev = args[2] if len(args) > 2 else None
    return args[1].tau, x_prev, result[0]


NOTES: dict[str, Callable] = {
    "qp.QpWorkspace.solve": _note_solve,
    "mpc.assemble_horizon_program": _note_assemble,
    "dmpc.pdc_admm_step": _note_round,
}


def _span_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    note = NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if note is not None:
            rec.notes[idx] = note(rec, args, result)
        return result
    return traced


def _simulate_wrapper(fn: Callable, log: CommandLog, rec: Optional[Recorder],
                      setup_only: bool) -> Callable:
    def timed_controller(controller: Callable) -> Callable:
        # The step span is named after the controller's layer and type, so
        # its self time (private helpers included) counts toward that layer.
        owner = controller if inspect.isfunction(controller) else type(controller)
        name = f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__qualname__}"

        def call(step, state):
            t0 = perf_counter()
            if log.first_call is None:
                log.first_call = t0
                if setup_only:
                    raise SetupDone
            idx = -1
            if rec is not None:
                idx = rec.open(name)
                rec.steps.append(idx)
            try:
                return controller(step, state)
            finally:
                if rec is not None:
                    rec.close(idx)
                log.step_s.append(perf_counter() - t0)
        return call

    @functools.wraps(fn)
    def simulate(grid, initial, controller, *args, **kwargs):
        log.controllers.append(controller)
        idx = rec.open("dynamics.simulate") if rec is not None else -1
        t0 = perf_counter()
        try:
            traj = fn(grid, initial, timed_controller(controller), *args, **kwargs)
        finally:
            log.sim_s += perf_counter() - t0
            if rec is not None:
                rec.close(idx)
        log.steps += len(traj) - 1
        return traj
    return simulate


def _public_functions(layer: str) -> list[tuple[str, Callable]]:
    mod = sys.modules[f"essmpc.{layer}"]
    return [(f"{layer}.{attr}", value) for attr, value in vars(mod).items()
            if not attr.startswith("_") and inspect.isfunction(value)
            and value.__module__ == mod.__name__]


def _install(replacements: dict[int, Callable], undo: list) -> None:
    """Rebind every namespace attribute whose value is a replaced original."""
    for mod in _essmpc_modules():
        for attr, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None:
                undo.append((mod, attr, value))
                setattr(mod, attr, new)


@contextmanager
def instrumented(rec: Optional[Recorder] = None,
                 setup_only: bool = False) -> Iterator[CommandLog]:
    """Instrument one command; with `rec`, record spans of every layer."""
    from essmpc import dynamics

    log = CommandLog(start=perf_counter())
    replacements: dict[int, Callable] = {
        id(dynamics.simulate): _simulate_wrapper(dynamics.simulate, log, rec,
                                                 setup_only)}
    undo: list = []
    try:
        if rec is not None:
            for layer in LAYERS:
                for name, fn in _public_functions(layer):
                    if fn is not dynamics.simulate:
                        replacements[id(fn)] = _span_wrapper(rec, name, fn)
            for layer, cls_name, meth in METHODS:
                cls = getattr(sys.modules[f"essmpc.{layer}"], cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, _span_wrapper(rec, f"{layer}.{cls_name}.{meth}",
                                                 original))
        _install(replacements, undo)
        root = -1
        if rec is not None:
            rec.commands += 1
            root = rec.open(COMMAND_SPAN)
        log.start = perf_counter()
        try:
            yield log
        finally:
            if rec is not None:
                rec.close(root)
                rec.central.clear()
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def bindings() -> dict[tuple[str, str], int]:
    """id() of every function bound in an essmpc namespace or public class.

    Two calls around a run compare equal exactly when the run left no
    wrapper installed.
    """
    out = {}
    for mod in _essmpc_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if inspect.isfunction(fn):
                        out[(f"{mod.__name__}.{attr}", meth)] = id(fn)
    return out
