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


def test_one_cold_step_of_the_three_area_ring(ring_step, capsys):
    assert ring_step.main(["--areas", "3", "--steps", "1"]) == 0
    # The ring size is set for the run only; the tool put `perfbench` on
    # the path.
    assert importlib.import_module("perfbench.ring").AREAS != 3
    [line] = capsys.readouterr().out.splitlines()
    fields = line.split("  ")
    assert fields[0] == "buses 12"
    assert fields[1].startswith("cold ") and fields[1].endswith(" s")
    assert fields[2] == "warm median - (0 steps)"
    assert int(fields[3].removeprefix("cold splu ")) >= 1
    assert 0 <= int(fields[4].removeprefix("max border ")) <= 64
    assert fields[5] == "non-optimal 0"


def test_report_line_shape(ring_step):
    got = {"buses": 48, "cold_s": 7.8, "warm_s": 0.07, "cold_splu": 40,
           "max_border": 64, "non_optimal": 0}
    assert ring_step.line(got, 5) == ("buses 48  cold 7.8000 s  warm median 0.0700 s"
                                      " (4 steps)  cold splu 40  max border 64"
                                      "  non-optimal 0")
