"""Every name a wcalc module or a test module imports is used in that
module, every private module-level name a wcalc module defines is used
somewhere in the package, and every public name the package re-exports,
every public function and class a wcalc module defines, and every public
method of its classes, is read by the package itself or by the acceptance
tests. Every public function and class of tests/oracles.py is read by a
test module or by another oracle.

The package's __init__.py is exempt from the import scan: its imports are
the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "wcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
ORACLES = Path(__file__).with_name("oracles.py")


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


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p.parent == SRC
                         else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_defs(tree):
    """(line, name) of each module-level private function, class and
    constant (dunder names such as __version__ are not private)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        out.extend((node.lineno, name) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def _references(tree):
    """Names a module reads or imports, string annotations included."""
    refs = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    refs |= {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
             for alias in n.names}
    return refs | _annotation_names(tree)


def unreferenced_private_names(sources):
    """(module, line, name) of every private module-level name that no
    module of `sources` ({module: source text}) reads or imports."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = set().union(*(_references(tree) for tree in trees.values()))
    return sorted((mod, line, name) for mod, tree in trees.items()
                  for line, name in _private_defs(tree) if name not in refs)


def test_the_scan_sees_a_dead_private_name():
    sources = {
        "a.py": "def _dead():\n    pass\n\ndef _live():\n    pass\n"
                "class _Shape:\n    pass\n__version__ = '1'\n",
        "b.py": "from a import _live\n_LIMIT, _SPARE = 1, 2\n"
                "def f(x: '_Shape'):\n    return _live() + _LIMIT\n",
    }
    assert unreferenced_private_names(sources) == [("a.py", 1, "_dead"),
                                                   ("b.py", 2, "_SPARE")]


def test_every_private_name_is_used_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def unread_reexports(init_source: str, sources):
    """Names that `init_source` re-exports and that no module of `sources`
    ({module: source text}) reads. Defining or importing a name is not
    reading it."""
    exported = {alias.asname or alias.name
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = {n.id for src in sources.values() for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(exported - read)


def test_the_scan_sees_an_unread_reexport():
    init = "from .a import run, helper, Shape\nfrom .b import spare\n"
    sources = {
        "a.py": "def run():\n    return helper()\n\ndef helper():\n    pass\n"
                "class Shape:\n    pass\n",
        "b.py": "from .a import Shape\ndef spare():\n    pass\n",
        "test_acceptance.py": "from wcalc import run\nrun()\nShape()\n",
    }
    assert unread_reexports(init, sources) == ["spare"]


def _package_and_acceptance_sources():
    sources = {p.name: p.read_text() for p in MODULES}
    sources["test_acceptance.py"] = Path(__file__).with_name(
        "test_acceptance.py").read_text()
    return sources


def test_every_reexport_is_read_by_the_package_or_the_acceptance_tests():
    assert unread_reexports((SRC / "__init__.py").read_text(),
                            _package_and_acceptance_sources()) == []


def unread_public_defs(defining, sources):
    """(module, line, name) of each public module-level function and class
    of `defining` ({module: source text}) that no module of `sources` reads.
    Defining or importing a name is not reading it."""
    read = {n.id for src in sources.values() for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((mod, node.lineno, node.name)
                  for mod, src in defining.items() for node in ast.parse(src).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in read)


def test_the_scan_sees_an_unread_public_def():
    defining = {
        "a.py": "def run():\n    return helper()\n\ndef helper():\n    pass\n"
                "class Shape:\n    pass\nclass Spare:\n    pass\n"
                "def _private():\n    pass\nLIMIT = 3\n",
        "b.py": "from .a import Spare\ndef orphan():\n    pass\n",
    }
    sources = dict(defining, **{"test_acceptance.py":
                                "from wcalc import run, Shape\nrun()\nShape()\n"})
    assert unread_public_defs(defining, sources) == [("a.py", 8, "Spare"),
                                                     ("b.py", 2, "orphan")]


def test_every_public_def_is_read_by_the_package_or_the_acceptance_tests():
    defining = {p.name: p.read_text() for p in MODULES}
    assert unread_public_defs(defining, _package_and_acceptance_sources()) == []


def test_the_scan_sees_an_unread_oracle():
    oracles = ("def direct(x):\n    return x\n\n"
               "def via_oracle(x):\n    return direct(x)\n\n"
               "def stale(x):\n    return x\n")
    sources = {"oracles.py": oracles,
               "test_a.py": "from oracles import via_oracle, stale\n"
                            "def test_it():\n    assert via_oracle(1) == 1\n"}
    assert unread_public_defs({"oracles.py": oracles}, sources) == [
        ("oracles.py", 7, "stale")]


def test_every_oracle_is_read_by_a_test_or_another_oracle():
    sources = {p.name: p.read_text() for p in TESTS}
    assert unread_public_defs({"oracles.py": ORACLES.read_text()},
                              sources) == []


def unread_public_methods(defining, sources):
    """(module, line, Class.method) of each public method of a module-level
    class of `defining` ({module: source text}) that no module of `sources`
    reads as an attribute. Attributes match by name, so reading any
    attribute of that name counts; defining a method is not reading it."""
    read = {n.attr for src in sources.values() for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted((mod, node.lineno, f"{cls.name}.{node.name}")
                  for mod, src in defining.items() for cls in ast.parse(src).body
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and node.name not in read)


def test_the_scan_sees_an_unread_method():
    defining = {
        "a.py": "class Shape:\n    def area(self):\n        return self._side()\n"
                "    def _side(self):\n        pass\n"
                "    def spare(self):\n        pass\n"
                "    @property\n    def size(self):\n        pass\n",
        "b.py": "from .a import Shape\ndef size():\n    pass\n"
                "class _Inner:\n    def stale(self):\n        self.stale = 1\n",
    }
    sources = dict(defining, **{"test_acceptance.py":
                                "from wcalc import Shape\nShape().area()\n"
                                "print(Shape().size)\n"})
    assert unread_public_methods(defining, sources) == [
        ("a.py", 6, "Shape.spare"), ("b.py", 5, "_Inner.stale")]


def test_every_public_method_is_read_by_the_package_or_the_acceptance_tests():
    defining = {p.name: p.read_text() for p in MODULES}
    assert unread_public_methods(defining,
                                 _package_and_acceptance_sources()) == []
