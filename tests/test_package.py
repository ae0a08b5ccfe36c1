"""The package's public surface."""

import pkgutil

import pytest

import essmpc

MODULES = ["essmpc"] + [f"essmpc.{m.name}" for m in pkgutil.iter_modules(essmpc.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_succeeds(module):
    # A star import fails on an `__all__` entry that names no attribute.
    exec(f"from {module} import *", {})
