"""Static checks on the package source, with the standard library's `ast`.

Two kinds of dead weight fail the suite: an imported name the module never
uses, and a function parameter (other than self/cls) the function never
reads.  `__init__.py` is exempt from the import check: its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polysyz"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree):
    """Every name read anywhere in `tree`, including names inside string
    annotations such as  -> "LatticePolytope"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unused_imports(tree):
    used = _loaded_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append((node.lineno, bound))
    return unused


def unread_parameters(tree):
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set()
        for stmt in body:
            read |= {
                n.id for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
        name = getattr(node, "name", "<lambda>")
        for a in params:
            if a.arg not in ("self", "cls") and a.arg not in read:
                unread.append((node.lineno, f"{name}({a.arg})"))
    return unread


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(_parse(path)) == []


def test_checks_see_dead_weight():
    tree = ast.parse(
        "import os\n"
        "from typing import List, Tuple\n"
        "def f(a, b, *rest, c=1, **kw):\n"
        "    return a + c\n"
        "class K:\n"
        "    def m(self, x) -> 'Tuple':\n"
        "        return lambda y: x\n"
    )
    assert unused_imports(tree) == [(1, "os"), (2, "List")]
    assert unread_parameters(tree) == [
        (3, "f(b)"), (3, "f(rest)"), (3, "f(kw)"), (7, "<lambda>(y)"),
    ]
