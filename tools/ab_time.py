"""Time one CLI command on two source trees, alternating in one process.

    python tools/ab_time.py OLD_TREE NEW_TREE [--pairs N] \
        -- COMMAND SCENARIO [OPTIONS...]

Each tree is the root of a checkout holding `src/essmpc`.  Both packages
are loaded side by side under distinct names (`essmpc_ab0`, `essmpc_ab1`),
so the two run in the same process and share its noise: separate processes
on a loaded host spread by more than a 10% change.  Each pair runs the
command once per tree, in an order that alternates from pair to pair; a
first warm-up pair is not counted.  SCENARIO is a bundled scenario
name, taken from each tree's own package, or a path.  Outputs go to a
temporary directory and stdout is discarded.

Pairs timed in one process can hide a cost that separate processes show:
on `compare two_bus --ttotal 0.5`, a change of SuperLU options read median
ratios of 1.01-1.02 here and +10-13% `total_s` from `perfbench/run.py`.
Evidence of no regression therefore comes from alternated
`perfbench/run.py` runs of both trees, not from this tool.

Prints each tree's median and quartiles in seconds and its exact work
counts per command, from spies on that tree's own modules: SuperLU
factorizations (`qp.splu`), how many of them reused a kept column order
(the spy seeing `permc_spec="NATURAL"`), KKT layouts built
(`qp.csc_array`) and dual active-set steps (the `iterations` of each
`qp.QpWorkspace.solve` report).  Then the median of the paired ratios
NEW/OLD, and in how many pairs NEW was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import NamedTuple

# Pairs run first and not counted: a tree's first run pays for lazy set-up
# in the libraries it imports.
WARMUP = 1


def load_tree(root: Path, name: str) -> ModuleType:
    """The `essmpc` package under `root/src`, imported as `name`; returns its cli."""
    init = root / "src" / "essmpc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no essmpc sources under {root / 'src'}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


class Counts(NamedTuple):
    """One command's work."""

    splu: int           # SuperLU factorizations
    kept: int           # those in a kept column order
    layouts: int        # KKT layouts built
    dual_steps: int     # dual active-set steps


def command_runner(root: Path, cli: ModuleType, argv: list[str]):
    """A function running `argv` once through `cli.main`; returns (seconds,
    `Counts`), counted by spies on the tree's `qp` module."""
    command, scenario, *rest = argv
    bundled = root / "src" / "essmpc" / "scenarios" / f"{scenario}.scn"
    path = bundled if bundled.is_file() else Path(scenario)
    qp = importlib.import_module(f"{cli.__package__}.qp")
    splu, csc_array, solve = qp.splu, qp.csc_array, qp.QpWorkspace.solve
    counts = [0, 0, 0, 0]

    def counted_splu(*args, **kwargs):
        counts[0] += 1
        counts[1] += kwargs.get("permc_spec") == "NATURAL"
        return splu(*args, **kwargs)

    def counted_csc_array(*args, **kwargs):
        counts[2] += 1
        return csc_array(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        got = solve(*args, **kwargs)
        counts[3] += got.iterations
        return got
    qp.splu, qp.csc_array, qp.QpWorkspace.solve = counted_splu, counted_csc_array, counted_solve

    def run() -> tuple[float, Counts]:
        counts[:] = [0, 0, 0, 0]
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main([command, str(path), f"--out={out}", *rest])
            elapsed = perf_counter() - t0
        if code != 0:
            raise SystemExit(f"error: {root}: {' '.join(argv)} exited {code}")
        return elapsed, Counts(*counts)
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(runs, pairs: int) -> tuple[tuple[list[float], list[float]],
                                      tuple[list[Counts], list[Counts]]]:
    """((old, new) times, (old, new) work counts) over `pairs` counted
    pairs, order alternating."""
    times: tuple[list[float], list[float]] = ([], [])
    counts: tuple[list[Counts], list[Counts]] = ([], [])
    for p in range(WARMUP + pairs):
        order = (0, 1) if p % 2 == 0 else (1, 0)
        got = {i: runs[i]() for i in order}
        if p >= WARMUP:
            for i in (0, 1):
                times[i].append(got[i][0])
                counts[i].append(got[i][1])
    return times, counts


def report(old: list[float], new: list[float],
           counts: tuple[list[Counts], list[Counts]]) -> str:
    lines = []
    for label, values, work in (("old", old, counts[0]), ("new", new, counts[1])):
        q1, q2, q3 = quartiles(values)
        splu, kept, layouts, steps = (statistics.median(c) for c in zip(*work))
        lines.append(f"{label}: median {q2:.4f} s  quartiles {q1:.4f} / {q3:.4f} s"
                     f"  splu {splu:g} per command, {kept:g} in a kept order,"
                     f" {layouts:g} KKT layouts built, {steps:g} dual steps  (n = {len(values)})")
    ratios = [b / a for a, b in zip(old, new)]
    wins = sum(b < a for a, b in zip(old, new))
    lines.append(f"new/old: median paired ratio {statistics.median(ratios):.4f}"
                 f"  new faster in {wins} of {len(ratios)} pairs")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if len(command) < 2 or args.pairs < 1:
        parser.error("need a command and a scenario, and --pairs >= 1")
    runs = [command_runner(root, load_tree(root.resolve(), f"essmpc_ab{i}"), command)
            for i, root in enumerate((args.old, args.new))]
    times, counts = compare(runs, args.pairs)
    print(report(*times, counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
