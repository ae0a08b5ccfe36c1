"""Time the first centralized MPC steps on seeded synthetic rings.

    python tools/ring_step.py --areas 3 12 [--seed 1] [--steps 5]

It imports `essmpc` from `src/` and the ring generator from `perfbench/` of
the checkout it lies in.  For each `--areas` value, `perfbench.ring.AREAS`
is set to it in this process only (four buses per area), the ring scenario
of `--seed` is parsed from its text, and its centralized controller runs
the first `--steps` control steps of the closed loop.  One line per ring:
its buses, the seconds of the cold step 0 and the median of the warm steps
after it, the SuperLU factors and SQP iterations of the cold step, the
largest Schur complement bordering a load's factor (rows, over all steps;
in practice the repair pass, which borders the equality rows' factor to a
whole seed that SuperLU finds singular), the rows its pivot test kept out
of a working set as dependent (over all steps; in practice the cold seeds'
dependent rows) and the solves applied without a certificate.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent


def ring_steps(areas: int, seed: int, steps: int) -> dict:
    """Step timings and solver counts of one ring's centralized closed loop."""
    import numpy as np

    from essmpc import qp
    from essmpc.dynamics import simulate
    from essmpc.mpc import MpcController
    from essmpc.scenario import parse_scenario
    from perfbench import ring

    factors, sizes, skipped, seconds = [], [0], [0], []
    splu, border = qp.splu, qp._Schur.border

    def counted(*args, **kwargs):
        factors[-1] += 1
        return splu(*args, **kwargs)

    def spied(schur, work):
        got = border(schur, work)
        sizes.append(schur.rows.size)
        skipped[0] += int(np.count_nonzero(work & ~got))
        return got

    with mock.patch.object(ring, "AREAS", areas):
        scenario = parse_scenario(ring.ring_text(seed))
    controller = MpcController(scenario.grid, scenario.mpc, scenario.events)

    def timed(k, state):
        factors.append(0)
        t0 = perf_counter()
        u = controller(k, state)
        seconds.append(perf_counter() - t0)
        return u

    with mock.patch.object(qp, "splu", counted), \
            mock.patch.object(qp._Schur, "border", spied):
        simulate(scenario.grid, scenario.initial_state(), timed,
                 steps * scenario.sim_step, scenario.sim_step, scenario.events,
                 scenario.clamp_storage_power_at_energy_limit)
    return {"buses": scenario.grid.n_buses, "cold_s": seconds[0],
            "warm_s": statistics.median(seconds[1:]) if steps > 1 else None,
            "cold_splu": factors[0], "cold_sqp": controller.log[0].sqp_iterations,
            "largest_s": max(sizes), "skipped": skipped[0],
            "non_optimal": sum(r.non_optimal_solves for r in controller.log)}


def line(got: dict, steps: int) -> str:
    warm = "-" if got["warm_s"] is None else f"{got['warm_s']:.4f} s"
    return (f"buses {got['buses']}  cold {got['cold_s']:.4f} s"
            f"  warm median {warm} ({steps - 1} steps)"
            f"  cold splu {got['cold_splu']}  cold sqp {got['cold_sqp']}"
            f"  largest S {got['largest_s']}  skipped {got['skipped']}"
            f"  non-optimal {got['non_optimal']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--areas", type=int, nargs="+", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--steps", type=int, default=5)
    args = parser.parse_args(argv)
    if args.steps < 1 or min(args.areas) < 3:
        parser.error("need --steps >= 1 and --areas >= 3: a ring of two areas has parallel ties")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    for areas in args.areas:
        print(line(ring_steps(areas, args.seed, args.steps), args.steps), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
