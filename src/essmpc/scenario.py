"""Scenario files: parsing, validation, and writing.

A scenario is a structured-text document (YAML syntax, `.scn` extension)
with sections `grid`, `injections`, `disturbances`, `sim`, `mpc`,
`distributed`, and `flags`.  Parsing is strict: unknown keys are rejected
with their path, and every grid/controller invariant is enforced at load
time.  Units follow the tables the values come from: seconds, p.u.,
p.u.*s, and optionally MW with an explicit MVA base for injections.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml

from .dynamics import ControlInput, SystemState
from .dmpc import AdmmSettings
from .grid import (DisturbanceEvent, GeneratorBus, GridModel, Line, LoadBus,
                   StorageBus, line_susceptance, solve_equilibrium)
from .mpc import MpcConfig, SqpSettings, StorageRegime

__all__ = ["ScenarioError", "Scenario", "parse_scenario", "write_scenario",
           "bundled_scenario_path"]

SCHEMA_VERSION = 1

# libyaml's parser where PyYAML was built with it; tags resolve through the
# same Python resolver either way, so a document loads to the same values.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """Parse or validation failure, addressed by field path."""


def _check_keys(mapping: Any, allowed: set[str], path: str) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown key(s) {unknown}")


def _optional(mapping: dict, key: str, kind: type, path: str) -> Any:
    """The optional `kind` (dict or list) at `key`; absent or null is empty."""
    value = mapping.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ScenarioError(f"{path}: expected a {'mapping' if kind is dict else 'list'}")
    return value


def _require(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{path}: missing required key '{key}'")
    return mapping[key]


def _num(value: Any, path: str, finite: bool = True) -> float:
    """A number; NaN never, and +-inf only where `finite` is False."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if math.isnan(value) or (finite and math.isinf(value)):
        raise ScenarioError(f"{path}: expected a {'finite ' if finite else ''}"
                            f"number, got {value}")
    return value


def _int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    return value


def _bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected true or false, got {value!r}")
    return value


def _field_names(cls: type) -> set[str]:
    return {f.name for f in fields(cls)}


def _settings(cls: type, section: dict, path: str) -> Any:
    """A settings dataclass read field by field from `section` at `path`; an
    absent field keeps its default.  The range check names a failing field
    below `path`."""
    settings = cls(**{f.name: (_int if f.type in ("int", int) else _num)(
        section[f.name], f"{path}.{f.name}") for f in fields(cls) if f.name in section})
    try:
        settings.validate()
    except ValueError as exc:
        raise ScenarioError(f"{path}.{exc}") from exc
    return settings


def _pair(value: Any, path: str, finite: bool = True) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{path}: expected [low, high]")
    return _num(value[0], path + "[0]", finite), _num(value[1], path + "[1]", finite)


@dataclass
class Scenario:
    """Validated model plus every controller/simulation configuration."""

    name: str
    description: str
    grid: GridModel
    events: tuple[DisturbanceEvent, ...]
    sim_step: float
    sim_duration: float
    clamp_storage_power_at_energy_limit: bool
    mpc: MpcConfig
    areas: Optional[tuple[int, ...]]
    admm: AdmmSettings
    reference_power: np.ndarray
    reference_inertia: np.ndarray

    def reference_controls(self) -> ControlInput:
        return ControlInput(self.reference_power.copy(),
                            self.reference_inertia.copy())

    def initial_state(self) -> SystemState:
        """Equilibrium angles under the reference storage powers."""
        angles = solve_equilibrium(self.grid, self.reference_power)
        return SystemState(angles, np.zeros(len(self.grid.inertia_buses)),
                           self.grid.initial_energy.copy(), 0.0)


# -- grid section -----------------------------------------------------------

_BUS_COMMON = {"id", "role"}
_BUS_KEYS = {
    "generator": _BUS_COMMON | {"inertia", "damping"},
    "load": _BUS_COMMON | {"damping"},
    "storage": _BUS_COMMON | {"damping", "inertia_bounds", "power_bounds",
                              "energy_bounds", "initial_energy",
                              "reference_power", "reference_inertia"},
}


def _parse_bus(entry: Any, path: str) -> tuple[int, object, dict]:
    if not isinstance(entry, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    role = _require(entry, "role", path)
    if not isinstance(role, str) or role not in _BUS_KEYS:
        raise ScenarioError(f"{path}.role: unknown role {role!r}")
    _check_keys(entry, _BUS_KEYS[role], path)
    bus_id = _int(_require(entry, "id", path), path + ".id")
    extras: dict = {}
    if role == "generator":
        bus = GeneratorBus(_num(_require(entry, "inertia", path), path + ".inertia"),
                           _num(_require(entry, "damping", path), path + ".damping"))
    elif role == "load":
        bus = LoadBus(_num(_require(entry, "damping", path), path + ".damping"))
    else:
        bus = StorageBus(
            damping=_num(_require(entry, "damping", path), path + ".damping"),
            inertia_bounds=_pair(_require(entry, "inertia_bounds", path),
                                 path + ".inertia_bounds"),
            power_bounds=_pair(_require(entry, "power_bounds", path),
                               path + ".power_bounds"),
            # An infinite side is no bound: the energy rows drop it.
            energy_bounds=_pair(_require(entry, "energy_bounds", path),
                                path + ".energy_bounds", finite=False),
            initial_energy=_num(entry.get("initial_energy", 0.0),
                                path + ".initial_energy"),
        )
        extras["reference_power"] = _num(
            _require(entry, "reference_power", path), path + ".reference_power")
        extras["reference_inertia"] = _num(
            _require(entry, "reference_inertia", path), path + ".reference_inertia")
    return bus_id, bus, extras


def _parse_line(entry: Any, path: str) -> Line:
    allowed = {"from", "to", "susceptance", "reactance_per_km", "length_km",
               "transformer_reactance"}
    _check_keys(entry, allowed, path)
    from_bus = _int(_require(entry, "from", path), path + ".from")
    to_bus = _int(_require(entry, "to", path), path + ".to")
    if "susceptance" in entry:
        for k in ("reactance_per_km", "length_km", "transformer_reactance"):
            if k in entry:
                raise ScenarioError(
                    f"{path}: give either susceptance or reactance data, not both")
        return Line(from_bus, to_bus, _num(entry["susceptance"],
                                           path + ".susceptance"))
    if "reactance_per_km" not in entry and "transformer_reactance" not in entry:
        raise ScenarioError(f"{path}: needs susceptance or reactance data")
    return Line(from_bus, to_bus, line_susceptance(
        _num(entry.get("reactance_per_km", 0.0), path + ".reactance_per_km"),
        _num(entry.get("length_km", 0.0), path + ".length_km"),
        _num(entry.get("transformer_reactance", 0.0),
             path + ".transformer_reactance")))


def _parse_injections(section: Any, n_buses: int) -> np.ndarray:
    path = "injections"
    _check_keys(section, {"unit", "values", "base_mva"}, path)
    unit = section.get("unit", "pu")
    values = _require(section, "values", path)
    if not isinstance(values, (list, tuple)) or len(values) != n_buses:
        raise ScenarioError(f"{path}.values: expected {n_buses} entries")
    arr = np.array([_num(v, f"{path}.values[{i}]") for i, v in enumerate(values)])
    if unit == "pu":
        if "base_mva" in section:
            raise ScenarioError(f"{path}.base_mva: only valid with unit MW")
        return arr
    if unit == "MW":
        base = _num(_require(section, "base_mva", path), path + ".base_mva")
        if base <= 0:
            raise ScenarioError(f"{path}.base_mva: must be > 0")
        return arr / base
    raise ScenarioError(f"{path}.unit: expected 'pu' or 'MW', got {unit!r}")


# -- controller sections ------------------------------------------------------

_REGIME_WORDS = {"free": True, "fixed": False}


def _parse_regime(section: dict, path: str) -> StorageRegime:
    _check_keys(section, {"power", "inertia"}, path)

    def flag(key: str) -> bool:
        word = section.get(key, "free")
        if word not in _REGIME_WORDS:
            raise ScenarioError(f"{path}.{key}: expected 'free' or 'fixed'")
        return _REGIME_WORDS[word]

    return StorageRegime(power_free=flag("power"), inertia_free=flag("inertia"))


def parse_scenario(source: str | Path) -> Scenario:
    """Load and validate a scenario file (path or literal text)."""
    if isinstance(source, Path) or (isinstance(source, str)
                                    and "\n" not in source):
        text = Path(source).read_text()
    else:
        text = source
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not parseable as a scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _check_keys(doc, {"schema_version", "name", "description", "grid",
                      "injections", "disturbances", "sim", "mpc",
                      "distributed", "flags"}, "document")
    version = _require(doc, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    name = str(doc.get("name", "scenario"))
    description = str(doc.get("description", ""))

    grid_sec = _require(doc, "grid", "document")
    _check_keys(grid_sec, {"reference_bus", "buses", "lines"}, "grid")
    bus_entries = _require(grid_sec, "buses", "grid")
    if not isinstance(bus_entries, list) or not bus_entries:
        raise ScenarioError("grid.buses: expected a non-empty list")
    parsed = [_parse_bus(b, f"grid.buses[{i}]") for i, b in enumerate(bus_entries)]
    ids = [p[0] for p in parsed]
    if sorted(ids) != list(range(len(ids))):
        raise ScenarioError(
            f"grid.buses: ids must be exactly 0..{len(ids) - 1}, got {sorted(ids)}")
    by_id = {p[0]: p for p in parsed}
    roles = [by_id[i][1] for i in range(len(ids))]
    extras = [by_id[i][2] for i in range(len(ids))]

    lines = [_parse_line(ln, f"grid.lines[{i}]")
             for i, ln in enumerate(_optional(grid_sec, "lines", list, "grid.lines"))]

    injections = _parse_injections(_require(doc, "injections", "document"),
                                   len(roles))
    reference_bus = grid_sec.get("reference_bus")
    if reference_bus is not None:
        reference_bus = _int(reference_bus, "grid.reference_bus")
    try:
        grid = GridModel(roles, lines, injections, reference_bus)
    except Exception as exc:
        raise ScenarioError(f"grid: {exc}") from exc

    events = []
    for i, entry in enumerate(_optional(doc, "disturbances", list, "disturbances")):
        path = f"disturbances[{i}]"
        _check_keys(entry, {"bus", "time", "delta_p"}, path)
        ev = DisturbanceEvent(_int(_require(entry, "bus", path), path + ".bus"),
                              _num(_require(entry, "time", path), path + ".time"),
                              _num(_require(entry, "delta_p", path),
                                   path + ".delta_p"))
        try:
            ev.validate(grid.n_buses)
        except Exception as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        events.append(ev)

    sim_sec = _require(doc, "sim", "document")
    _check_keys(sim_sec, {"step", "duration"}, "sim")
    sim_step = _num(_require(sim_sec, "step", "sim"), "sim.step")
    sim_duration = _num(_require(sim_sec, "duration", "sim"), "sim.duration")
    if sim_step <= 0 or sim_duration < 0:
        raise ScenarioError("sim: step must be > 0 and duration >= 0")

    flags = _optional(doc, "flags", dict, "flags")
    _check_keys(flags, {"clamp_storage_power_at_energy_limit",
                        "absolute_effort"}, "flags")
    clamp = _bool(flags.get("clamp_storage_power_at_energy_limit", True),
                  "flags.clamp_storage_power_at_energy_limit")
    absolute_effort = _bool(flags.get("absolute_effort", False),
                            "flags.absolute_effort")

    n_storage = len(grid.storage_buses)
    ref_power = np.array([extras[b]["reference_power"]
                          for b in grid.storage_buses]) if n_storage else np.zeros(0)
    ref_inertia = np.array([extras[b]["reference_inertia"]
                            for b in grid.storage_buses]) if n_storage else np.zeros(0)

    mpc_sec = _require(doc, "mpc", "document")
    mpc_keys = {"horizon", "power_cost", "inertia_cost", "frequency_cost", "power_base",
                "inertia_base", "omega_limits", "regimes", "sqp", "qp_tolerance"}
    _check_keys(mpc_sec, mpc_keys, "mpc")
    sqp_sec = _optional(mpc_sec, "sqp", dict, "mpc.sqp")
    _check_keys(sqp_sec, _field_names(SqpSettings), "mpc.sqp")
    sqp = _settings(SqpSettings, sqp_sec, "mpc.sqp")
    omega_limits = {}
    for key, value in _optional(mpc_sec, "omega_limits", dict, "mpc.omega_limits").items():
        if not isinstance(key, int) or isinstance(key, bool):
            raise ScenarioError("mpc.omega_limits: keys must be bus ids")
        omega_limits[key] = _num(value, f"mpc.omega_limits[{key}]")

    def cost(key: str) -> np.ndarray:
        value = mpc_sec.get(key, 0.0)
        if isinstance(value, (list, tuple)):
            if len(value) != n_storage:
                raise ScenarioError(
                    f"mpc.{key}: expected {n_storage} entries, got {len(value)}")
            return np.array([_num(v, f"mpc.{key}[{i}]")
                             for i, v in enumerate(value)])
        return np.full(n_storage, _num(value, f"mpc.{key}"))

    try:
        mpc = MpcConfig.create(
            grid,
            horizon=_num(_require(mpc_sec, "horizon", "mpc"), "mpc.horizon"),
            step=sim_step,
            reference_power=ref_power,
            reference_inertia=ref_inertia,
            power_cost=cost("power_cost"),
            inertia_cost=cost("inertia_cost"),
            frequency_cost=_num(mpc_sec.get("frequency_cost", 1.0),
                                "mpc.frequency_cost"),
            power_base=(None if "power_base" not in mpc_sec
                        else _num(mpc_sec["power_base"], "mpc.power_base")),
            inertia_base=(None if "inertia_base" not in mpc_sec
                          else _num(mpc_sec["inertia_base"], "mpc.inertia_base")),
            omega_limits=omega_limits,
            regime=_parse_regime(_optional(mpc_sec, "regimes", dict, "mpc.regimes"),
                                 "mpc.regimes"),
            sqp=sqp,
            absolute_effort=absolute_effort,
            qp_tol=_num(mpc_sec.get("qp_tolerance", 1e-8), "mpc.qp_tolerance"),
        )
    except ScenarioError:
        raise
    except Exception as exc:
        # A range error starts with the config's field, maybe indexed; a field
        # of the section is named by its path (qp_tol is mpc.qp_tolerance).
        field, colon, rest = str(exc).partition(": ")
        name = field.partition("[")[0]
        key = "qp_tolerance" if name == "qp_tol" else name
        if colon and key in mpc_keys:
            raise ScenarioError(f"mpc.{key}{field[len(name):]}: {rest}") from exc
        raise ScenarioError(f"mpc: {exc}") from exc

    dist_sec = _optional(doc, "distributed", dict, "distributed")
    _check_keys(dist_sec, _field_names(AdmmSettings) | {"areas"}, "distributed")
    areas: Optional[tuple[int, ...]] = None
    if "areas" in dist_sec:
        raw = dist_sec["areas"]
        if not isinstance(raw, list) or len(raw) != grid.n_buses:
            raise ScenarioError(
                f"distributed.areas: expected {grid.n_buses} entries")
        labels = [_int(a, f"distributed.areas[{i}]") for i, a in enumerate(raw)]
        order = {label: rank for rank, label in enumerate(sorted(set(labels)))}
        areas = tuple(order[a] for a in labels)
    admm = _settings(AdmmSettings, dist_sec, "distributed")

    return Scenario(name=name, description=description, grid=grid,
                    events=tuple(events), sim_step=sim_step,
                    sim_duration=sim_duration,
                    clamp_storage_power_at_energy_limit=clamp,
                    mpc=mpc, areas=areas, admm=admm,
                    reference_power=ref_power, reference_inertia=ref_inertia)


def write_scenario(scenario: Scenario) -> str:
    """Serialize a validated scenario back to document text.

    `mpc.regimes` holds the controller's one regime, which every storage
    follows.
    """
    grid = scenario.grid
    buses = []
    for i, role in enumerate(grid.roles):
        if isinstance(role, GeneratorBus):
            buses.append({"id": i, "role": "generator",
                          "inertia": role.inertia, "damping": role.damping})
        elif isinstance(role, LoadBus):
            buses.append({"id": i, "role": "load", "damping": role.damping})
        else:
            s = grid.storage_buses.index(i)
            buses.append({
                "id": i, "role": "storage", "damping": role.damping,
                "inertia_bounds": list(role.inertia_bounds),
                "power_bounds": list(role.power_bounds),
                "energy_bounds": list(role.energy_bounds),
                "initial_energy": role.initial_energy,
                "reference_power": float(scenario.reference_power[s]),
                "reference_inertia": float(scenario.reference_inertia[s]),
            })
    regime = scenario.mpc.regime
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": scenario.name,
        "description": scenario.description,
        "grid": {
            "reference_bus": grid.reference_bus,
            "buses": buses,
            "lines": [{"from": ln.from_bus, "to": ln.to_bus,
                       "susceptance": ln.susceptance} for ln in grid.lines],
        },
        "injections": {"unit": "pu", "values": [float(v) for v in grid.injections]},
        "disturbances": [{"bus": ev.bus, "time": ev.time, "delta_p": ev.delta_p}
                         for ev in scenario.events],
        "sim": {"step": scenario.sim_step, "duration": scenario.sim_duration},
        "mpc": {
            "horizon": scenario.mpc.horizon,
            "power_cost": [float(v) for v in scenario.mpc.power_cost],
            "inertia_cost": [float(v) for v in scenario.mpc.inertia_cost],
            "frequency_cost": scenario.mpc.frequency_cost,
            **({"power_base": scenario.mpc.power_base}
               if scenario.mpc.power_base is not None else {}),
            **({"inertia_base": scenario.mpc.inertia_base}
               if scenario.mpc.inertia_base is not None else {}),
            **({"omega_limits": dict(scenario.mpc.omega_limits)}
               if scenario.mpc.omega_limits else {}),
            "regimes": {"power": "free" if regime.power_free else "fixed",
                        "inertia": "free" if regime.inertia_free else "fixed"},
            "sqp": asdict(scenario.mpc.sqp),
            "qp_tolerance": scenario.mpc.qp_tol,
        },
        "distributed": {
            **({"areas": list(scenario.areas)} if scenario.areas else {}),
            **asdict(scenario.admm),
        },
        "flags": {
            "clamp_storage_power_at_energy_limit":
                scenario.clamp_storage_power_at_energy_limit,
            "absolute_effort": scenario.mpc.absolute_effort,
        },
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'two_bus')."""
    with resources.as_file(resources.files("essmpc") / "scenarios"
                           / f"{name}.scn") as p:
        return Path(p)
