"""Every name a trideg module imports is used in it.

An import kept on purpose (a name re-exported, or one that bench/tracing.py
wraps) carries `# noqa: F401` on its statement and is skipped.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "trideg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its import statement
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            statement = lines[node.lineno - 1 : node.end_lineno]
            if any("noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return ["line %d: %s" % (line, name) for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_import():
    source = "from os import path, sep  # noqa: F401\nimport json\nfrom math import comb, prod\nprod\n"
    assert unused_imports(source) == ["line 2: json", "line 3: comb"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
