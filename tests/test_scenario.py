"""Scenario files: shipped cases, strict validation, round-trip."""

import re
from dataclasses import fields

import numpy as np
import pytest
import yaml

from essmpc import scenario
from essmpc.cli import main
from essmpc.dmpc import AdmmSettings
from essmpc.grid import GeneratorBus, LoadBus, StorageBus
from essmpc.mpc import MpcConfig, SqpSettings, StorageRegime
from essmpc.scenario import (ScenarioError, bundled_scenario_path, parse_scenario,
                             write_scenario)

TWO_BUS = bundled_scenario_path("two_bus").read_text()


class TestShippedTwoBus:
    def test_structure(self, two_bus_scenario):
        sc = two_bus_scenario
        assert sc.grid.n_buses == 2
        assert sc.grid.lines[0].susceptance == 50.0
        gen = sc.grid.roles[0]
        assert isinstance(gen, GeneratorBus) and gen.inertia == 3.0
        storage = sc.grid.roles[1]
        assert isinstance(storage, StorageBus)
        assert storage.inertia_bounds == (1.0, 15.0)
        assert storage.power_bounds[0] <= -3.0 <= storage.power_bounds[1]
        assert storage.energy_bounds == (-45.0, 10.0)
        assert sc.reference_power[0] == -3.0
        assert sc.reference_inertia[0] == 8.0

    def test_disturbance_and_sim_block(self, two_bus_scenario):
        sc = two_bus_scenario
        assert len(sc.events) == 1
        assert sc.events[0].bus == 0 and sc.events[0].delta_p == 0.2
        assert sc.sim_step == 0.01 and sc.sim_duration == 30.0
        assert sc.mpc.k_steps == 10


class TestShippedTwelveBus:
    def test_inertia_damping_table(self, twelve_bus_scenario):
        grid = twelve_bus_scenario.grid
        expected = {0: (15.0, 3.0), 1: (15.0, 3.0), 4: (20.0, 4.0),
                    5: (20.0, 4.0), 8: (10.0, 2.0), 9: (10.0, 2.0),
                    2: (1.0, 0.1), 6: (1.0, 0.1), 10: (1.0, 0.1)}
        for bus, (m, d) in expected.items():
            role = grid.roles[bus]
            assert isinstance(role, GeneratorBus)
            assert (role.inertia, role.damping) == (m, d)

    def test_storage_parameters(self, twelve_bus_scenario):
        grid = twelve_bus_scenario.grid
        assert grid.storage_buses == (3, 7, 11)
        for bus in grid.storage_buses:
            role = grid.storage_role(bus)
            assert role.inertia_bounds == (4.0, 10.0)
            assert role.damping == 0.1

    def test_injections_from_megawatts(self, twelve_bus_scenario):
        grid = twelve_bus_scenario.grid
        assert grid.injections[0] == pytest.approx(1.38)
        assert grid.injections[1] == pytest.approx(10.50)
        assert grid.injections[11] == pytest.approx(-10.0)

    def test_reference_bus_and_areas(self, twelve_bus_scenario):
        sc = twelve_bus_scenario
        assert sc.grid.reference_bus == 8
        assert sc.areas == (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2)


class TestValidationErrors:
    def test_unknown_key_rejected(self):
        text = TWO_BUS.replace("schema_version: 1", "schema_version: 1\nbogus: 3")
        with pytest.raises(ScenarioError, match="bogus"):
            parse_scenario(text)

    def test_unknown_bus_key_rejected(self):
        text = TWO_BUS.replace("inertia: 3.0", "inertia: 3.0\n      spin: 2")
        with pytest.raises(ScenarioError, match="spin"):
            parse_scenario(text)

    def test_negative_inertia_rejected_with_path(self):
        text = TWO_BUS.replace("inertia: 3.0", "inertia: -3.0")
        with pytest.raises(ScenarioError, match="grid"):
            parse_scenario(text)

    def test_wrong_schema_version_rejected(self):
        text = TWO_BUS.replace("schema_version: 1", "schema_version: 99")
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(text)

    def test_injection_count_mismatch_rejected(self):
        text = TWO_BUS.replace("values: [3.0, 0.0]", "values: [3.0, 0.0, 1.0]")
        with pytest.raises(ScenarioError, match="injections"):
            parse_scenario(text)

    def test_area_list_must_cover_buses(self):
        text = TWO_BUS.replace("areas: [1, 2]", "areas: [1]")
        with pytest.raises(ScenarioError, match="areas"):
            parse_scenario(text)

    def test_line_with_both_parameterizations_rejected(self):
        text = TWO_BUS.replace(
            "susceptance: 50.0", "susceptance: 50.0, length_km: 10.0")
        with pytest.raises(ScenarioError, match="either"):
            parse_scenario(text)

    def test_disturbance_unknown_bus_rejected(self):
        text = TWO_BUS.replace("{bus: 0, time: 0.0", "{bus: 7, time: 0.0")
        with pytest.raises(ScenarioError, match="disturbances"):
            parse_scenario(text)

    def test_reference_power_outside_box_rejected(self):
        text = TWO_BUS.replace("reference_power: -3.0", "reference_power: -4.5")
        with pytest.raises(ScenarioError, match="reference power"):
            parse_scenario(text)

    @pytest.mark.parametrize("old, new, field", [
        ("max_iterations: 500", "max_iterations: many", "distributed.max_iterations"),
        ("max_iterations: 500", "max_iterations: 2.9", "distributed.max_iterations"),
        ("max_iterations: 500", "max_iterations: true", "distributed.max_iterations"),
        ("outer_iterations: 2", "outer_iterations: 2.9", "mpc.sqp.outer_iterations"),
        ("outer_iterations: 2", 'outer_iterations: "2"', "mpc.sqp.outer_iterations"),
        ("absolute_effort: false", 'absolute_effort: "false"', "flags.absolute_effort"),
        ("absolute_effort: false", "absolute_effort: 0", "flags.absolute_effort"),
        ("clamp_storage_power_at_energy_limit: true",
         "clamp_storage_power_at_energy_limit: yes please",
         "flags.clamp_storage_power_at_energy_limit"),
        # Bus ids are integers.
        ("{from: 0, to: 1,", "{from: 0.5, to: 1,", "grid.lines[0].from"),
        ("{from: 0, to: 1,", "{from: 0, to: a,", "grid.lines[0].to"),
        ("{bus: 0, time: 0.0", "{bus: 0.7, time: 0.0", "disturbances[0].bus"),
        ("{bus: 0, time: 0.0", "{bus: true, time: 0.0", "disturbances[0].bus"),
        ("reference_bus: 1", "reference_bus: true", "grid.reference_bus"),
        # No number is NaN, and only an energy bound may be infinite.
        ("time: 0.0, delta_p", "time: .nan, delta_p", "disturbances[0].time"),
        ("delta_p: 0.2", "delta_p: .nan", "disturbances[0].delta_p"),
        ("inertia: 3.0", "inertia: .inf", "grid.buses[0].inertia"),
        ("damping: 1.0        #", "damping: .nan        #", "grid.buses[0].damping"),
        ("power_bounds: [-4.0, 4.0]", "power_bounds: [-.inf, 4.0]",
         "grid.buses[1].power_bounds[0]"),
        ("energy_bounds: [-45.0, 10.0]", "energy_bounds: [-45.0, .nan]",
         "grid.buses[1].energy_bounds[1]"),
        ("susceptance: 50.0", "susceptance: .inf", "grid.lines[0].susceptance"),
        ("values: [3.0, 0.0]", "values: [3.0, .nan]", "injections.values[1]"),
        ("step: 0.01", "step: .nan", "sim.step"),
        ("horizon: 0.1 ", "horizon: .nan ", "mpc.horizon"),
        ("frequency_cost: 1.0", "frequency_cost: .nan", "mpc.frequency_cost"),
        ("frequency_cost: 1.0", "frequency_cost: 1.0\n  omega_limits: {0: .nan}",
         "mpc.omega_limits[0]"),
        ("frequency_cost: 1.0", "frequency_cost: 1.0\n  qp_tolerance: .nan",
         "mpc.qp_tolerance"),
        ("frequency_cost: 1.0", "frequency_cost: 1.0\n  qp_tolerance: -1.0",
         "mpc.qp_tolerance"),
        ("frequency_cost: 1.0", "frequency_cost: 1.0\n  qp_tolerance: 0.0",
         "mpc.qp_tolerance"),
        ("power_trust_region: 0.5", "power_trust_region: .nan",
         "mpc.sqp.power_trust_region"),
        ("    tolerance: 1.0e-5", "    tolerance: .nan", "mpc.sqp.tolerance"),
        ("rho: 20.0", "rho: .inf", "distributed.rho"),
        # A setting out of its range names its field too.
        ("rho: 20.0", "rho: 0.0", "distributed.rho"),
        ("tau: 0.01", "tau: -0.01", "distributed.tau"),
        ("  tolerance: 1.0e-5\n  max_iterations", "  tolerance: 0.0\n  max_iterations",
         "distributed.tolerance"),
        ("max_iterations: 500", "max_iterations: 0", "distributed.max_iterations"),
        ("outer_iterations: 2", "outer_iterations: 0", "mpc.sqp.outer_iterations"),
        ("power_trust_region: 0.5", "power_trust_region: 0.0",
         "mpc.sqp.power_trust_region"),
        ("inertia_trust_region: 2.0", "inertia_trust_region: 0.0",
         "mpc.sqp.inertia_trust_region"),
        ("    tolerance: 1.0e-5", "    tolerance: -1.0", "mpc.sqp.tolerance"),
        ("power_cost: 0.0", "power_cost: -2.0", "mpc.power_cost: must be >= 0"),
        ("inertia_cost: 0.0", "inertia_cost: [-1.0]", "mpc.inertia_cost: must be >= 0"),
        ("frequency_cost: 1.0", "frequency_cost: -1.0", "mpc.frequency_cost: must be >= 0"),
        ("frequency_cost: 1.0", "frequency_cost: 1.0\n  power_base: -2.0",
         "mpc.power_base: must be > 0"),
        ("frequency_cost: 1.0", "frequency_cost: 1.0\n  inertia_base: 0.0",
         "mpc.inertia_base: must be > 0"),
        ("frequency_cost: 1.0", "frequency_cost: 1.0\n  omega_limits: {0: -1.0}",
         "mpc.omega_limits[0]: must be > 0"),
        ("horizon: 0.1 ", "horizon: -0.1 ", "mpc.horizon: must be finite and > 0"),
        ("horizon: 0.1 ", "horizon: 0.001 ", "mpc.horizon: 0.001 with step 0.01 yields"),
        # A section or entry of the wrong kind; a repeated key overrides the
        # first, so each section is replaced at the end of the document.
        ("absolute_effort: false", "absolute_effort: false\nsim: 5", "sim"),
        ("absolute_effort: false", "absolute_effort: false\nflags: 5", "flags"),
        ("absolute_effort: false", "absolute_effort: false\ngrid: 5", "grid"),
        ("absolute_effort: false", "absolute_effort: false\ndistributed: 5",
         "distributed"),
        ("absolute_effort: false", "absolute_effort: false\ndisturbances: 5",
         "disturbances"),
        ("frequency_cost: 1.0", "frequency_cost: 1.0\n  omega_limits: [1]",
         "mpc.omega_limits"),
        # A falsy value of the wrong kind is no empty section; only null is.
        ("absolute_effort: false", "absolute_effort: false\ndisturbances: 0",
         "disturbances"),
        ("absolute_effort: false", "absolute_effort: false\ndistributed: false",
         "distributed"),
        ("absolute_effort: false", "absolute_effort: false\nflags: 0", "flags"),
        ("absolute_effort: false", "absolute_effort: false\nflags: []", "flags"),
        ("frequency_cost: 1.0", "frequency_cost: 1.0\n  omega_limits: 0",
         "mpc.omega_limits"),
        ("    tolerance: 1.0e-5", "    tolerance: 1.0e-5\n  sqp: 0", "mpc.sqp"),
        ("role: generator", "role: [x]", "grid.buses[0].role"),
    ])
    def test_mistyped_count_or_flag_rejected_with_path(self, old, new, field,
                                                       tmp_path):
        text = TWO_BUS.replace(old, new)
        assert text != TWO_BUS
        with pytest.raises(ScenarioError, match=re.escape(field)):
            parse_scenario(text)
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        assert main(["simulate", str(bad)]) == 2

    def test_infinite_energy_bound_is_no_bound(self, tmp_path):
        text = TWO_BUS.replace("energy_bounds: [-45.0, 10.0]",
                               "energy_bounds: [-.inf, 10.0]")
        sc = parse_scenario(text)
        assert sc.grid.storage_role(1).energy_bounds == (-np.inf, 10.0)
        path = tmp_path / "open.scn"
        path.write_text(text)
        assert main(["mpc", str(path), f"--out={tmp_path / 'out'}",
                     "--ttotal", "0.05"]) == 0

    def test_counts_and_flags_read_as_written(self):
        text = TWO_BUS.replace(
            "max_iterations: 500", "max_iterations: 7").replace(
            "absolute_effort: false", "absolute_effort: true")
        sc = parse_scenario(text)
        assert sc.admm.max_iterations == 7 and sc.mpc.absolute_effort


def non_default_two_bus() -> str:
    """The two-bus scenario with every optional `mpc` field away from its default."""
    doc = yaml.safe_load(TWO_BUS)
    doc["mpc"].update(frequency_cost=2.5, inertia_cost=0.3, power_base=3.0,
                      inertia_base=4.0, omega_limits={0: 0.05}, qp_tolerance=1.0e-9,
                      regimes={"power": "fixed", "inertia": "free"})
    doc["flags"]["absolute_effort"] = True
    return yaml.safe_dump(doc, sort_keys=False)


def three_bus_with_load() -> str:
    """The two-bus scenario with a load bus inserted on its line: generator,
    load, storage.  Neither bundled scenario has a load bus."""
    doc = yaml.safe_load(TWO_BUS)
    gen, storage = doc["grid"]["buses"]
    storage["id"] = 2
    doc["grid"].update(reference_bus=2, buses=[gen, {"id": 1, "role": "load", "damping": 2.0},
                                               storage],
                       lines=[{"from": 0, "to": 1, "susceptance": 50.0},
                              {"from": 1, "to": 2, "susceptance": 40.0}])
    doc["injections"]["values"] = [3.0, 0.0, 0.0]
    doc["distributed"]["areas"] = [1, 1, 2]
    return yaml.safe_dump(doc, sort_keys=False)


EDITED = {"two_bus_non_default": non_default_two_bus, "three_bus_load": three_bus_with_load}


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["two_bus", "twelve_bus", *EDITED])
    def test_parse_write_parse_identity(self, name):
        text = EDITED[name]() if name in EDITED else bundled_scenario_path(name).read_text()
        first = parse_scenario(text)
        if name == "two_bus_non_default":
            assert (first.mpc.qp_tol, first.mpc.power_base, first.mpc.absolute_effort) \
                == (1.0e-9, 3.0, True)
        if name == "three_bus_load":
            assert first.grid.roles[1] == LoadBus(2.0)
        second = parse_scenario(write_scenario(first))
        assert second.grid.roles == first.grid.roles
        assert second.grid.lines == first.grid.lines
        assert np.array_equal(second.grid.injections, first.grid.injections)
        assert second.grid.reference_bus == first.grid.reference_bus
        assert second.events == first.events
        assert (second.sim_step, second.sim_duration) == \
            (first.sim_step, first.sim_duration)
        assert second.areas == first.areas
        assert second.admm == first.admm
        assert np.array_equal(second.reference_power, first.reference_power)
        assert np.array_equal(second.reference_inertia, first.reference_inertia)
        for f in fields(MpcConfig):
            got, want = getattr(second.mpc, f.name), getattr(first.mpc, f.name)
            same = np.array_equal(got, want) if isinstance(want, np.ndarray) \
                else got == want
            assert same, f.name
        # and the writer is a fixed point after one pass
        assert write_scenario(second) == write_scenario(first)

    def test_absent_settings_sections_take_the_dataclass_defaults(self):
        doc = yaml.safe_load(TWO_BUS)
        del doc["mpc"]["sqp"]
        doc["distributed"] = {}
        sc = parse_scenario(yaml.safe_dump(doc))
        assert sc.mpc.sqp == SqpSettings()
        assert sc.admm == AdmmSettings()

    def test_null_sections_read_as_absent(self):
        doc = yaml.safe_load(TWO_BUS)
        doc.update(disturbances=None, distributed=None, flags=None)
        doc["mpc"].update(sqp=None, omega_limits=None, regimes=None)
        sc = parse_scenario(yaml.safe_dump(doc))
        assert sc.events == () and sc.areas is None and sc.admm == AdmmSettings()
        assert sc.mpc.sqp == SqpSettings() and sc.mpc.omega_limits == {}
        assert sc.mpc.regime == StorageRegime()
        assert sc.clamp_storage_power_at_energy_limit and not sc.mpc.absolute_effort

    def test_initial_state_energies(self, twelve_bus_scenario):
        st = twelve_bus_scenario.initial_state()
        assert np.allclose(st.energy, 9.2)
        assert np.max(np.abs(st.omega)) == 0.0


class TestLoader:
    def test_libyaml_parser_where_available(self):
        assert scenario._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__
                                    else yaml.SafeLoader)

    @pytest.mark.parametrize("name", ["two_bus", "twelve_bus"])
    def test_bundled_scenarios_load_as_under_the_python_parser(self, name):
        text = bundled_scenario_path(name).read_text()
        doc = yaml.load(text, Loader=scenario._LOADER)
        assert doc == yaml.load(text, Loader=yaml.SafeLoader)
        assert repr(doc) == repr(yaml.load(text, Loader=yaml.SafeLoader))

    def test_syntax_error_names_line_and_column(self):
        with pytest.raises(ScenarioError, match=r"line 1, column 2"):
            parse_scenario("{::not yaml::\n")
