"""Static checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mpdsa"


def unread_parameters(source: str) -> list:
    """(function, parameter) for every parameter, other than ``self`` and
    ``cls``, that its function's body never reads; a read inside a nested
    function counts."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out += [(name, p) for p in names if p not in read and p not in ("self", "cls")]
    return out


def unread_imports(source: str) -> list:
    """Every name an import binds (``__future__`` aside) that the module
    never reads: ``import a.b`` binds ``a``, ``from m import x as y``
    binds ``y``."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(bound) - read)


def _private_definitions(tree):
    """The module-level functions and classes, and the methods of its
    classes, whose names start with ``_`` (dunders aside)."""
    nodes = list(tree.body)
    nodes += [item for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body]
    return [
        node for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    ]


def _reads(node) -> list:
    """Every name read under ``node``: loaded names and attributes."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    ]


def orphaned_private_helpers(sources: dict) -> list:
    """(module, name) for every private helper of ``_private_definitions``
    that no code of the modules ``sources`` (name to text) reads outside
    its own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = [read for tree in trees.values() for read in _reads(tree)]
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in _private_definitions(tree)
        if reads.count(node.name) == _reads(node).count(node.name)
    )


def test_every_parameter_is_read():
    unread = {path.name: unread_parameters(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unread.items() if found} == {}


def test_the_scan_sees_unread_parameters():
    source = (
        "class A:\n"
        "    def f(self, x, pad=0.0, *rest, n=None, **kw):\n"
        "        def g():\n"
        "            return x + kw['a']\n"
        "        return g\n"
        "h = lambda y, z: y\n"
    )
    assert sorted(unread_parameters(source)) == [
        ("<lambda>", "z"), ("f", "n"), ("f", "pad"), ("f", "rest")
    ]


def test_every_import_is_read():
    """``__init__.py`` is left out: its imports are the package's re-exports."""
    unread = {path.name: unread_imports(path.read_text())
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: found for name, found in unread.items() if found} == {}


def test_the_scan_sees_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "import json\n"
        "from .a import b, c as d, e\n"
        "def f(x: e):\n"
        "    import math\n"
        "    return np.zeros(1) + d + os.sep\n"
    )
    assert unread_imports(source) == ["b", "json", "math"]


def test_every_private_helper_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert orphaned_private_helpers(sources) == []


def test_the_scan_sees_orphaned_helpers():
    a = (
        "def _used():\n"
        "    return 1\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "class _Kept:\n"
        "    def __init__(self):\n"
        "        self._method()\n"
        "    def _method(self):\n"
        "        pass\n"
        "    def _dead(self):\n"
        "        pass\n"
        "def public():\n"
        "    def _nested():\n"
        "        pass\n"
    )
    b = "from a import _used, _Kept, _recursive\nx = _used() + _Kept\n"
    assert orphaned_private_helpers({"a.py": a, "b.py": b}) == [
        ("a.py", "_dead"), ("a.py", "_recursive")
    ]


LINALG_SOLVERS = ("eigh", "eigvalsh", "solve", "cholesky")


def linalg_solver_uses(source: str) -> list:
    """(line, name) of every use ``<...>.linalg.<name>``, called or not
    (a function passed on is used too), with a name of
    ``LINALG_SOLVERS``, numpy imported under any name."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in LINALG_SOLVERS
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
    )


def test_spectral_data_come_from_spectral_alone():
    """One path to spectral data: every dense eigensolve, solve and
    Cholesky factorization of the package sits in ``spectral.py``."""
    uses = {path.name: linalg_solver_uses(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert uses.pop("spectral.py")
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_scan_sees_linalg_solver_uses():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "a = np.linalg.eigh(m)\n"
        "b = numpy.linalg.solve(m, v)[0]\n"
        "c = np.linalg.norm(m)\n"
        "d = np.linalg.cholesky\n"
        "e = solver.solve(v)\n"
        "f = [x.linalg.eigvalsh(m) for m in ms]\n"
        "g = np.linalg.cholesky(\n"
        "    m)\n"
    )
    assert linalg_solver_uses(source) == [(3, "eigh"), (4, "solve"), (6, "cholesky"),
                                          (8, "eigvalsh"), (9, "cholesky")]
