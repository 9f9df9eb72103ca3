"""Every name a huckel module imports is referenced in that module, and
every module-level private function is read somewhere in the package.

No linter is installed, so this is the check that a deleted function leaves
no import behind, and that a private helper only tests call does not stay
behind either.  __init__ is skipped for imports: its imports are the
package's exports.
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


def unread_private_functions(sources: dict) -> set:
    """(module, name) of each module-level private function of the sources,
    module -> text, that no statement but its own definition reads, as a
    name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    private = {(module, node.name, id(node)) for module, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")}
    reads = []  # (the top-level statement's id, name read)
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.append((id(stmt), node.id))
                elif isinstance(node, ast.Attribute):
                    reads.append((id(stmt), node.attr))
    return {(module, name) for module, name, own in private
            if not any(name == read and at != own for at, read in reads)}


def test_the_scan_finds_an_unread_private_function():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _recursive(k):\n    return _recursive(k - 1)\n\n"
             "def _dead():\n    pass\n\ndef public():\n    return _used()\n",
        "b": "from .a import public\nimport a\n\ndef _called_across():\n    pass\n\nx = a._used\n",
        "c": "from .b import _called_across\n\ny = _called_across()\n",
    }
    assert unread_private_functions(sources) == {("a", "_recursive"), ("a", "_dead")}


def test_every_private_function_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_functions(sources) == set()
