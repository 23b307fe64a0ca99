"""Every package module uses each name it imports, so a removal leaves no
stale import behind. `__init__.py` is exempt: it imports to re-export."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphvqa"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports but never mentions. A name counts as used
    anywhere in the code, also inside a quoted annotation."""
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef)):
            hint = node.annotation if isinstance(node, ast.arg) else node.returns
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                used.update(n.id for n in ast.walk(ast.parse(hint.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted(imported - used)


def test_modules_exist():
    assert "graph.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_check_finds_a_leftover_import():
    source = (
        "import os.path\n"
        "from typing import Optional\n"
        "from .graph import Embedding, GraphConfig, VideoGraph\n"
        "def build(cfg: 'GraphConfig') -> Optional[VideoGraph]:\n"
        "    return VideoGraph(config=cfg)\n"
    )
    assert unused_imports(source) == ["Embedding", "os"]
