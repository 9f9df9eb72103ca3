"""Every name a huckel module imports is referenced in that module.

No linter is installed, so this is the check that a deleted function leaves
no import behind.  __init__ is skipped: its imports are the package's
exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "huckel"

# Imports kept unreferenced on purpose, (module, name) -> why.  perfbench's
# tracer wraps these names where each module binds them; once it spans the
# decoders instead, the entries go.
UNREFERENCED_ON_PURPOSE = {
    ("cli", "parse_graph6"): "bound for perfbench's tracer, which wraps it in huckel.cli",
    ("sweep", "parse_graph6"): "bound for perfbench's tracer, which wraps it in huckel.sweep",
    ("sweep", "write_graph6"): "bound for perfbench's tracer, which wraps it in huckel.sweep",
}

MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


def unreferenced_imports(source: str) -> set:
    """The names an import statement binds that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_scan_finds_an_unreferenced_import():
    source = "from dataclasses import dataclass\nimport numpy as np\nimport os.path\n\nx = np.zeros(1)\n"
    assert unreferenced_imports(source) == {"dataclass", "os"}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_referenced(module):
    dead = unreferenced_imports((SRC / f"{module}.py").read_text())
    allowed = {name for mod, name in UNREFERENCED_ON_PURPOSE if mod == module}
    assert dead - allowed == set(), f"{module} imports names it never uses"
    assert allowed - dead == set(), f"{module} now uses names listed as unreferenced on purpose"
