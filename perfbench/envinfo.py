"""Environment of a run: BLAS libraries and threads, versions, cores, seed."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

# Symbol suffixes of the OpenBLAS builds numpy and scipy ship in their wheels.
_OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")
_OPENBLAS_SUFFIXES = ("64_", "")


def _openblas(lib: Path) -> dict:
    handle = ctypes.CDLL(str(lib))
    info = {"library": lib.name}
    for prefix in _OPENBLAS_PREFIXES:
        for suffix in _OPENBLAS_SUFFIXES:
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            threads.argtypes = []
            config.restype = ctypes.c_char_p
            config.argtypes = []
            info["threads"] = threads()
            info["config"] = config().decode()
            return info
    info["threads"] = None
    return info


def blas_libraries() -> list[dict]:
    """BLAS builds bundled with numpy and scipy, with their thread counts."""
    found = []
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            entry = _openblas(lib)
            entry["package"] = pkg.__name__
            found.append(entry)
    if not found:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        found.append({"package": "numpy", "library": blas.get("name"),
                      "threads": None})
    return found


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                "OMP_NUM_THREADS") if k in os.environ},
        "machine": platform.machine(),
    }
