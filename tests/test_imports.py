"""Every name a library module, tools/corpus.py or a test file imports is read: an
unused-import check with ``ast``."""

import ast
from pathlib import Path

import pytest

import curvsimplex


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads (``from __future__`` and imports
    on a line marked ``# noqa: F401`` aside)."""
    tree = ast.parse(source)
    marked = {i for i, line in enumerate(source.splitlines(), 1) if "# noqa: F401" in line}
    imported = set()
    for node in ast.walk(tree):
        if getattr(node, "end_lineno", None) in marked:
            continue
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    return sorted(imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_unused_imports_are_found():
    source = "import math\nimport operator\nfrom .symmat import _vertex, _without\n" \
             "import os  # noqa: F401\ndef f(a):\n    return math.pi * _without(a, 1, 1)\n"
    assert unused_imports(source) == ["_vertex", "operator"]


# __init__.py is left out: its imports are the public surface.
MODULES = sorted(p for p in Path(curvsimplex.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
MODULES.append(Path(__file__).resolve().parent.parent / "tools" / "corpus.py")
MODULES += sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
