"""Every name a wcalc module imports is used in that module.

The package's __init__.py is exempt: its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(tree):
    """Names inside string annotations, which the AST keeps as constants."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes.extend(a.annotation for a in (*args.posonlyargs, *args.args,
                                                 *args.kwonlyargs, args.vararg,
                                                 args.kwarg) if a is not None)
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    names = set()
    for note in notes:
        for sub in ast.walk(note) if note is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\nimport numpy as np\nfrom typing import List, Dict\n"
           "def f(x: 'List[int]') -> Dict:\n    return np.zeros(3)\n")
    assert unused_imports(src) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
