"""The package's public surface."""

import ast
import pkgutil
from pathlib import Path

import pytest

import essmpc

MODULES = ["essmpc"] + [f"essmpc.{m.name}" for m in pkgutil.iter_modules(essmpc.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_succeeds(module):
    # A star import fails on an `__all__` entry that names no attribute.
    exec(f"from {module} import *", {})


@pytest.mark.parametrize("module", [m for m in MODULES if m != "essmpc"])
def test_every_imported_name_is_read(module):
    # `__init__.py` imports to re-export; a line marked `# noqa: F401`
    # keeps an import on purpose.
    path = Path(essmpc.__path__[0]) / f"{module.split('.')[-1]}.py"
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name != "annotations"
                if "# noqa: F401" not in lines[node.end_lineno - 1]}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = {name: line for name, line in imported.items() if name not in read}
    assert not unread, f"{path.name}: imported and never read (name: line) {unread}"
