"""tools/ring_step.py: centralized step timings on a synthetic ring."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def ring_step():
    spec = importlib.util.spec_from_file_location("ring_step", ROOT / "tools" / "ring_step.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cold_step_of_the_three_area_ring(ring_step, capfd):
    assert ring_step.main(["--areas", "3", "--steps", "1"]) == 0
    # The ring size is set for the run only; the tool put `perfbench` on
    # the path.
    assert importlib.import_module("perfbench.ring").AREAS != 3
    # capfd reads the process's stdout, so a message from C code breaks
    # the one line.
    [line] = capfd.readouterr().out.splitlines()
    fields = line.split("  ")
    assert fields[0] == "buses 12"
    assert fields[1].startswith("cold ") and fields[1].endswith(" s")
    assert fields[2] == "warm median - (0 steps)"
    # One factor per SQP iteration, and two more for the first's HiGHS seed,
    # whose own set SuperLU finds singular: the equality rows' factor,
    # bordered to the seed, repairs it, and the repaired set is factored as
    # the base.  The later iterations factor warm seeds.
    splu, sqp = (int(f.split()[-1]) for f in fields[3:5])
    assert fields[3].startswith("cold splu ") and fields[4].startswith("cold sqp ")
    assert splu == sqp + 2 >= 3
    # The HiGHS seed holds 2 dependent rows of 146; the repair pass leaves
    # them out of S.
    assert int(fields[5].removeprefix("largest S ")) >= 140
    assert int(fields[6].removeprefix("skipped ")) >= 1
    assert fields[7] == "non-optimal 0"


def test_report_line_shape(ring_step):
    got = {"buses": 48, "cold_s": 0.78, "warm_s": 0.07, "cold_splu": 2, "cold_sqp": 2,
           "largest_s": 600, "skipped": 13, "non_optimal": 0}
    assert ring_step.line(got, 5) == ("buses 48  cold 0.7800 s  warm median 0.0700 s"
                                      " (4 steps)  cold splu 2  cold sqp 2  largest S 600"
                                      "  skipped 13  non-optimal 0")
