"""Command-line surface and output files."""

import io

import numpy as np
import pytest

from essmpc.cli import REGIMES, main
from essmpc.outputs import emit_plot_table, trajectory_columns, trajectory_to_csv
from essmpc.dynamics import constant_policy, simulate
from essmpc.scenario import bundled_scenario_path


@pytest.fixture(scope="module")
def two_bus_path():
    return str(bundled_scenario_path("two_bus"))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestSimulateCommand:
    def test_energy_column_crosses_allowance_at_fifteen_seconds(
            self, two_bus_path, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", two_bus_path, f"--out={out}", "--ttotal=16"])
        assert code == 0
        header, data = read_csv(out / "simulate_trajectory.csv")
        e_col = header.index("E_1")
        t_col = header.index("t")
        crossed = data[:, e_col] <= -45.0 + 1e-9
        assert crossed.any()
        assert data[np.argmax(crossed), t_col] == pytest.approx(15.0, abs=1e-9)
        # saturation shows up in the constraint report
        text = (out / "simulate_constraints.txt").read_text()
        assert "energy" in text

    def test_csv_is_deterministic(self, two_bus_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", two_bus_path, f"--out={out}",
                         "--ttotal=2"]) == 0
            outs.append((out / "simulate_trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_zero_duration_writes_initial_row(self, two_bus_path, tmp_path):
        out = tmp_path / "zero"
        code = main(["mpc", two_bus_path, f"--out={out}", "--ttotal=0"])
        assert code == 0
        header, data = read_csv(out / "mpc_trajectory.csv")
        assert data.shape[0] == 1
        assert data[0, 0] == 0.0


class TestMpcCommand:
    @pytest.mark.parametrize("command, scenario, ttotal",
                             [("mpc", "two_bus", "0.2"),
                              ("dmpc", "twelve_bus", "0.1")],
                             ids=["mpc-two_bus", "dmpc-twelve_bus"])
    def test_objective_file_counts_non_optimal_solves(self, command, scenario,
                                                       ttotal, tmp_path):
        out = tmp_path / "run"
        assert main([command, str(bundled_scenario_path(scenario)),
                     f"--out={out}", f"--ttotal={ttotal}"]) == 0
        lines = (out / f"{command}_objective.txt").read_text().splitlines()
        assert "non_optimal_solves 0" in lines

    @pytest.mark.parametrize("command, limit, warnings", [
        ("mpc", 0.011, 1), ("mpc", 0.016, 0), ("dmpc", 0.011, 1), ("dmpc", 0.016, 0),
        ("compare", 0.011, len(REGIMES))])
    def test_relaxed_limit_is_warned(self, command, limit, warnings, tmp_path, caplog):
        # The run peaks at |w_0| = 0.015: a 0.011 limit is relaxed on some
        # steps, and each run warns of it once, beside the non-optimal count.
        text = bundled_scenario_path("two_bus").read_text().replace(
            "frequency_cost: 1.0", f"frequency_cost: 1.0\n  omega_limits: {{0: {limit}}}")
        path = tmp_path / "limited.scn"
        path.write_text(text)
        out = tmp_path / "run"
        with caplog.at_level("WARNING", logger="essmpc"):
            assert main([command, str(path), f"--out={out}", "--ttotal=0.3"]) == 0
        warned = [r.getMessage() for r in caplog.records
                  if "relaxed an energy or frequency limit" in r.getMessage()]
        assert len(warned) == warnings


class TestRepeatedRuns:
    @pytest.mark.parametrize("command, scenario, ttotal",
                             [("simulate", "two_bus", "0.2"),
                              ("mpc", "twelve_bus", "0.2"),
                              ("dmpc", "twelve_bus", "0.2"),
                              ("compare", "two_bus", "0.2")])
    def test_second_run_in_process_writes_the_same_files(self, command, scenario,
                                                         ttotal, tmp_path):
        # A command keeps no state across runs in one process, as the
        # benchmark's repeated in-process commands assume.
        trees = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main([command, str(bundled_scenario_path(scenario)),
                         f"--out={out}", f"--ttotal={ttotal}"]) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")})
        assert trees[0] == trees[1] and len(trees[0]) >= 3


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.scn")]) == 4

    def test_invalid_scenario_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("schema_version: 1\nname: x\n")
        assert main(["simulate", str(bad)]) == 2

    def test_unparseable_document_is_validation_error(self, tmp_path):
        bad = tmp_path / "mangled.scn"
        bad.write_text("{::not yaml::")
        assert main(["simulate", str(bad)]) == 2

    @pytest.mark.parametrize("command, regime", [("simulate", "cc"), ("compare", "vv")])
    def test_regime_is_only_an_option_of_the_controllers(self, command, regime,
                                                         two_bus_path, tmp_path):
        # simulate runs the reference controls and compare runs all four
        # regimes, so neither takes --regime: argparse rejects it.
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as info:
            main([command, two_bus_path, f"--out={out}", "--regime", regime])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "mpc"])
    @pytest.mark.parametrize("flag", ["--ts=0", "--ts=-0.01", "--ttotal=-1"])
    def test_bad_time_override_is_validation_error(self, command, flag,
                                                   two_bus_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([command, two_bus_path, f"--out={out}", flag]) == 2
        assert flag.split("=")[0] in capsys.readouterr().err
        assert not out.exists()


def plot_text(grid, traj, selection):
    """Plot data of a trajectory, from its CSV as the plot-data command reads it."""
    table = np.loadtxt(io.StringIO(trajectory_to_csv(grid, traj)), delimiter=",",
                       skiprows=1, ndmin=2)
    return emit_plot_table(grid, table, selection)


def read_plot(text):
    """(column names, value matrix) of plot data."""
    header = text.splitlines()[0]
    assert header.startswith("# ")
    return header[2:].split(), np.loadtxt(io.StringIO(text), ndmin=2)


class TestPlotData:
    def test_three_column_selection(self, two_bus_scenario):
        sc = two_bus_scenario
        traj = simulate(sc.grid, sc.initial_state(),
                        constant_policy(sc.reference_controls()), 0.1,
                        sc.sim_step, sc.events)
        text = plot_text(sc.grid, traj, ["t", "omega_0", "omega_1"])
        names, data = read_plot(text)
        assert names == ["t", "omega_0", "omega_1"]
        assert data.shape == (11, 3)

    def test_inertia_columns_on_twelve_bus(self, twelve_bus_scenario):
        sc = twelve_bus_scenario
        traj = simulate(sc.grid, sc.initial_state(),
                        constant_policy(sc.reference_controls()), 0.04,
                        sc.sim_step, sc.events)
        cols = ["t"] + [c for c in trajectory_columns(sc.grid)
                        if c.startswith("M_e_")]
        assert len(cols) == 4
        text = plot_text(sc.grid, traj, cols)
        names, data = read_plot(text)
        assert names == cols and data.shape[1] == 4

    def test_round_trip_exact(self, two_bus_scenario):
        sc = two_bus_scenario
        traj = simulate(sc.grid, sc.initial_state(),
                        constant_policy(sc.reference_controls()), 0.05,
                        sc.sim_step, sc.events)
        cols = trajectory_columns(sc.grid)
        text = plot_text(sc.grid, traj, cols)
        names, data = read_plot(text)
        csv_text = trajectory_to_csv(sc.grid, traj)
        csv_rows = np.array([[float(tok) for tok in ln.split(",")]
                             for ln in csv_text.strip().split("\n")[1:]])
        assert names == cols
        assert np.array_equal(data, csv_rows)

    def test_unknown_column_lists_available(self, two_bus_scenario):
        sc = two_bus_scenario
        traj = simulate(sc.grid, sc.initial_state(),
                        constant_policy(sc.reference_controls()), 0.02,
                        sc.sim_step)
        with pytest.raises(KeyError, match="available"):
            plot_text(sc.grid, traj, ["t", "volt_0"])

    def test_cli_plot_data_command(self, two_bus_path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", two_bus_path, f"--out={out}",
                     "--ttotal=1"]) == 0
        target = tmp_path / "cols.dat"
        code = main(["plot-data", two_bus_path,
                     str(out / "simulate_trajectory.csv"),
                     "t", "omega_0", "omega_1", f"--out={target}"])
        assert code == 0
        names, data = read_plot(target.read_text())
        assert names == ["t", "omega_0", "omega_1"]
        assert data.shape[0] == 101

    @pytest.mark.parametrize("mangle", [
        lambda tokens: tokens[:-1] + ["0.1x"],
        lambda tokens: tokens[:-1],
    ], ids=["non_numeric", "short_row"])
    def test_cli_plot_data_malformed_row_names_the_line(self, mangle, two_bus_path,
                                                        tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", two_bus_path, f"--out={out}",
                     "--ttotal=0.05"]) == 0
        csv = out / "simulate_trajectory.csv"
        lines = csv.read_text().splitlines()
        lines[2] = ",".join(mangle(lines[2].split(",")))
        csv.write_text("\n".join(lines) + "\n")
        assert main(["plot-data", two_bus_path, str(csv), "t", "omega_0"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_cli_plot_data_unknown_column_exit_code(self, two_bus_path, tmp_path):
        out = tmp_path / "run2"
        assert main(["simulate", two_bus_path, f"--out={out}",
                     "--ttotal=1"]) == 0
        code = main(["plot-data", two_bus_path,
                     str(out / "simulate_trajectory.csv"), "nope"])
        assert code == 2
