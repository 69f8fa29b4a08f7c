"""Every ``tests/...`` pointer in EXPERIMENTS.md and DESIGN.md resolves.

The docs cite the tests that hold each paper claim as pytest node ids
(``tests/x/test_y.py::TestClass::test_name``).  A pointer whose file is
gone, or whose file no longer defines the named class or test, fails
here instead of rotting silently.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("EXPERIMENTS.md", "DESIGN.md")
POINTER = re.compile(r"tests/[\w/]+\.py(?:::\w+)*")


def _pointers() -> list:
    return sorted({
        match.group(0)
        for doc in DOCS
        for match in POINTER.finditer((ROOT / doc).read_text())
    })


def _defines(path: Path, names: list) -> bool:
    """Whether ``path`` defines the class/function chain ``names``."""
    scope = ast.parse(path.read_text()).body
    for name in names:
        node = next(
            (n for n in scope
             if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        scope = node.body
    return True


def test_docs_cite_node_ids():
    assert sum("::" in p for p in _pointers()) >= 10


@pytest.mark.parametrize("pointer", _pointers())
def test_pointer_resolves(pointer):
    path, *names = pointer.split("::")
    assert (ROOT / path).is_file(), f"{pointer}: no such file"
    assert _defines(ROOT / path, names), f"{pointer}: not defined in {path}"
