"""Every name a module of the package imports is used in that module.

``__init__.py`` is exempt: it imports names to re-export them through
``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).parent.parent / "src" / "walkorder").glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no ``Name`` node reads;
    ``import a.b`` binds ``a``, and ``from __future__`` binds nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["line 2: math", "line 3: path"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []
