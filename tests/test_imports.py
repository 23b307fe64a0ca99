"""Every package module uses each name it imports, each private name it
defines at top level and each private member its classes define or its
methods set on `self`, and every test module each name it imports, so a
removal leaves no stale import, helper or attribute behind. `__init__.py`
is exempt from the import check: it imports to re-export."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphvqa"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def used_names(tree: ast.AST) -> set[str]:
    """The names `tree` reads anywhere in its code, also inside a quoted
    annotation."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef)):
            hint = node.annotation if isinstance(node, ast.arg) else node.returns
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                used.update(n.id for n in ast.walk(ast.parse(hint.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    """The names `source` imports but never reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - used_names(tree))


def unused_privates(source: str) -> list[str]:
    """The private (`_name`, not dunder) functions, classes and variables
    that `source` defines at top level but never reads."""
    tree = ast.parse(source)
    defined: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - used_names(tree))


def unread_members(source: str) -> list[str]:
    """The private (`_name`, not dunder) methods and class attributes that
    `source`'s classes define, and the private attributes its code sets on
    `self`, that `source` never reads as an attribute."""
    tree = ast.parse(source)
    defined: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.add(member.name)
                elif isinstance(member, (ast.Assign, ast.AnnAssign)):
                    targets = member.targets if isinstance(member, ast.Assign) else [member.target]
                    defined.update(t.id for t in targets if isinstance(t, ast.Name))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            defined.add(node.attr)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_modules_exist():
    assert "graph.py" in MODULES and "cli.py" in MODULES
    assert "conftest.py" in TEST_MODULES and "test_imports.py" in TEST_MODULES


@pytest.mark.parametrize("path", [PACKAGE / m for m in MODULES] + [TESTS / m for m in TEST_MODULES],
                         ids=MODULES + [f"tests/{m}" for m in TEST_MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_a_leftover_import():
    source = (
        "import os.path\n"
        "from typing import Optional\n"
        "from .graph import Embedding, GraphConfig, VideoGraph\n"
        "def build(cfg: 'GraphConfig') -> Optional[VideoGraph]:\n"
        "    return VideoGraph(config=cfg)\n"
    )
    assert unused_imports(source) == ["Embedding", "os"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_uses_every_private_name_it_defines(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_privates(source) == []


def test_check_finds_a_dead_private_helper():
    source = (
        "from typing import Optional\n"
        "_LIMIT = 3\n"
        "_CACHE: dict = {}\n"
        "__all__ = ['clip']\n"
        "def _helper(x):\n"
        "    return x\n"
        "def _old(x: 'Optional[int]'):\n"
        "    _CACHE[x] = x\n"
        "class _Gone:\n"
        "    pass\n"
        "def clip(x: '_Kept') -> int:\n"
        "    return min(_helper(x), _LIMIT)\n"
        "class _Kept:\n"
        "    pass\n"
    )
    assert unused_privates(source) == ["_Gone", "_old"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_reads_every_private_member_it_defines(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unread_members(source) == []


def test_check_finds_an_unread_private_member():
    source = (
        "class Box:\n"
        "    _LIMIT = 3\n"
        "    _unused: int = 0\n"
        "    def __init__(self):\n"
        "        self._items = []\n"
        "        self._stale = {}\n"
        "        self.public = 1\n"
        "        other._elsewhere = 2\n"
        "    def _grow(self):\n"
        "        self._items.append(len(self._items) < Box._LIMIT)\n"
        "    def _old(self):\n"
        "        self._stale = None\n"
        "    def add(self):\n"
        "        self._grow()\n"
    )
    assert unread_members(source) == ["_old", "_stale", "_unused"]
