"""Every name a module of the package imports is used in that module, every
private helper of the package is read by some module of it, and so is every
module-level name that the package does not export.

``__init__.py`` is exempt from the import check: it imports names to
re-export them through ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import walkorder

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "walkorder").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def private_helpers(source: str) -> list[str]:
    """Module-level and class-level ``_name`` functions and classes, dunders
    excepted, as ``name`` or ``Class.name``."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    found.append(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, "")
    return found


def names_read(source: str) -> set[str]:
    """Names that a ``Name`` load or an ``Attribute`` of the source reads."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


HELPERS = [
    (p.stem, name) for p in PACKAGE for name in private_helpers(p.read_text(encoding="utf-8"))
]
READ = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in PACKAGE))


@pytest.mark.parametrize("module, helper", HELPERS, ids=[f"{m}.{h}" for m, h in HELPERS])
def test_private_helper_is_read_by_the_package(module, helper):
    # a helper that only tests read is dead code of the package
    assert helper.rsplit(".", 1)[-1] in READ


def test_helper_detector():
    source = (
        "def _used():\n    pass\n"
        "def _dead():\n    pass\n"
        "def __getattr__(name):\n    pass\n"
        "class _Box:\n    def _peek(self):\n        return _used()\n"
        "x = _Box\n"
    )
    assert private_helpers(source) == ["_used", "_dead", "_Box", "_Box._peek"]
    assert {"_used", "_Box"} <= names_read(source) and "_dead" not in names_read(source)


def module_names(source: str) -> list[str]:
    """Module-level functions, classes and constants (names bound by a plain
    or annotated assignment to a single name), dunders excepted."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, ast.Assign):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append(node.target.id)
    return [name for name in found if not (name.startswith("__") and name.endswith("__"))]


def test_module_names_are_exported_or_read():
    # a name that the package neither exports nor reads is dead code of it
    names = [
        (p.stem, name) for p in PACKAGE for name in module_names(p.read_text(encoding="utf-8"))
    ]
    assert len(names) > 100
    assert [f"{m}.{n}" for m, n in names if n not in READ and n not in walkorder.__all__] == []


def test_module_name_detector():
    source = (
        "import os\n__all__ = ['f']\nONE = 1\nZERO: int = 0\n"
        "def f():\n    local = ZERO\n    return local\n"
        "class Box:\n    SIZE = 2\n"
    )
    assert module_names(source) == ["ONE", "ZERO", "f", "Box"]
    assert "ZERO" in names_read(source) and "ONE" not in names_read(source)
