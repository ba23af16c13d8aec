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
