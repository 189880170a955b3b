"""Static checks on the package source, with the standard library's `ast`.

Three kinds of dead weight fail the suite: an imported name the module never
uses, a function parameter (other than self/cls) the function never reads,
and a module-level function or class, without a decorator, that neither
the package nor the benchmark names.  A mention in the tests keeps nothing
alive: a definition that only tests call is dead weight.  The one exemption
is the public API, the names `__init__.py` re-exports; for the same reason
`__init__.py` is exempt from the import check.  A method or property of a
package class is held to the same rule, with no public-API exemption; the
dunder methods, which Python calls, and the methods that override a base
class's, which a framework such as click calls, are exempt.  A fourth
check fails on an import inside a function body: every module states what
it depends on at its top.  A fifth holds README's Layout block to the
modules that exist, and a sixth keeps `tests/oracles.py` independent: it
imports nothing from the package it checks.
"""

import ast
import importlib
import re
import types
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polysyz"
MODULES = sorted(SRC.glob("*.py"))
# the files whose mentions count as uses of a package definition
SCANNED = [p for p in MODULES if p.name != "__init__.py"] + sorted(
    (ROOT / "perfbench").glob("*.py")
)


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


def function_imports(tree):
    """Line numbers of the import statements inside a function body."""
    return sorted({
        n.lineno
        for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in f.body for n in ast.walk(stmt)
        if isinstance(n, (ast.Import, ast.ImportFrom))
    })


def package_imports(tree):
    """(line, module) of each import of polysyz or one of its modules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] == "polysyz"]
    return found


def _mentions(node):
    """Every name `node` mentions: names, attributes, imported names, and
    the parts of a string that is a dotted name or a "module:function" hook
    target, as in monkeypatch.setattr(module, "name", ...).  Docstrings and
    other prose do not count."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*(:\w+)?", n.value):
                names.update(re.split(r"[.:]", n.value))
    return names


def unnamed_definitions(tree, elsewhere):
    """Module-level functions and classes without a decorator that neither
    the rest of `tree` nor the names in `elsewhere` mention."""
    unnamed = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.decorator_list:
            continue
        rest = set().union(*(_mentions(s) for s in tree.body if s is not node))
        if node.name not in rest and node.name not in elsewhere:
            unnamed.append((node.lineno, node.name))
    return unnamed


def unnamed_methods(tree, elsewhere, overrides=frozenset()):
    """Methods and properties of the module-level classes that neither the
    rest of `tree` nor the names in `elsewhere` mention.  Python calls the
    dunder methods, and a framework calls the (class, method) pairs in
    `overrides` through the base class they override."""
    unnamed = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or (cls.name, name) in overrides:
                continue
            rest = set().union(
                *(_mentions(s) for s in tree.body if s is not cls),
                *(_mentions(s) for s in cls.body if s is not node),
            )
            if name not in rest and name not in elsewhere:
                unnamed.append((node.lineno, f"{cls.name}.{name}"))
    return unnamed


def overridden(module):
    """The (class, method) pairs of `module` whose method a base class of
    the class also defines, as click.Path.convert for _PolytopePath."""
    return frozenset(
        (name, attr)
        for name, cls in vars(module).items()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        for attr in vars(cls)
        if any(attr in vars(base) for base in cls.__mro__[1:] if base is not object)
    )


def reexported(tree):
    """The names an `__init__.py` imports from the package's modules."""
    return {
        alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


@cache
def _mentions_in(path):
    return frozenset(_mentions(_parse(path)))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports(path):
    assert function_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unnamed_definitions(path):
    elsewhere = reexported(_parse(SRC / "__init__.py")).union(
        *(_mentions_in(p) for p in SCANNED if p != path)
    )
    assert unnamed_definitions(_parse(path), elsewhere) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unnamed_methods(path):
    # methods count as used only where the package or the benchmark names them
    elsewhere = frozenset().union(*(_mentions_in(p) for p in SCANNED if p != path))
    module = importlib.import_module("polysyz" + ("" if path.stem == "__init__" else f".{path.stem}"))
    assert unnamed_methods(_parse(path), elsewhere, overridden(module)) == []


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


def test_unnamed_definitions_are_seen():
    tree = ast.parse(
        '"""Mentions old_loop and Gone in prose, which is no use."""\n'
        "import functools\n"
        "def old_loop(rows):\n"
        "    return old_loop(rows[1:])\n"
        "def kept(rows):\n"
        "    return rows\n"
        "def hooked():\n"
        "    pass\n"
        "def called():\n"
        "    return kept([])\n"
        "@functools.cache\n"
        "def decorated():\n"
        "    pass\n"
        "class Gone:\n"
        "    pass\n"
        "class Used:\n"
        "    pass\n"
        "TYPES = (Used,)\n"
    )
    elsewhere = _mentions(ast.parse('hooks = ["pkg.mod:hooked", "called"]'))
    assert unnamed_definitions(tree, elsewhere) == [(3, "old_loop"), (14, "Gone")]


def test_unnamed_methods_are_seen():
    tree = ast.parse(
        "class K:\n"
        "    def used(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def only_tested(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.recurse()\n"
        "    def recurse(self):\n"
        "        return self.recurse()\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def convert(self, value):\n"
        "        return value\n"
        "def f(k):\n"
        "    return k.used()\n"
    )
    # the benchmark names the property; click would call convert
    elsewhere = _mentions(ast.parse("k.size"))
    assert unnamed_methods(tree, elsewhere, {("K", "convert")}) == [(6, "K.only_tested")]
    assert unnamed_methods(tree, set()) == [(6, "K.only_tested"), (9, "K.size"), (15, "K.convert")]
    module = types.ModuleType("framework_user")
    exec(
        "class Base:\n"
        "    def convert(self):\n"
        "        pass\n"
        "class K(Base):\n"
        "    def convert(self):\n"
        "        pass\n"
        "    def own(self):\n"
        "        pass\n",
        module.__dict__,
    )
    pairs = overridden(module)
    assert ("K", "convert") in pairs and ("K", "own") not in pairs
    assert ("Base", "convert") not in pairs


def test_tests_keep_no_definition_alive():
    init = ast.parse(
        '"""Package."""\n'
        "from .core import (\n    api_call,\n    ApiClass,\n)\n"
        "__version__ = '1'\n"
    )
    assert reexported(init) == {"api_call", "ApiClass"}
    tree = ast.parse(
        "def api_call():\n"
        "    pass\n"
        "def only_tested():\n"
        "    pass\n"
        "class ApiClass:\n"
        "    pass\n"
    )
    assert unnamed_definitions(tree, reexported(init)) == [(3, "only_tested")]
    assert not any(p.is_relative_to(ROOT / "tests") for p in SCANNED)


def test_function_imports_are_seen():
    tree = ast.parse(
        "import os\n"
        "def f():\n"
        "    from math import comb\n"
        "    def g():\n"
        "        import json\n"
        "    return comb\n"
        "class K:\n"
        "    def m(self):\n"
        "        if self:\n"
        "            import re\n"
    )
    assert function_imports(tree) == [3, 5, 10]


def test_oracles_import_nothing_from_the_package():
    assert package_imports(_parse(ROOT / "tests" / "oracles.py")) == []


def test_package_imports_are_seen():
    tree = ast.parse(
        "import itertools\n"
        "import polysyz.koszul as k\n"
        "from polysyz import build_ring\n"
        "from .conftest import DATA\n"
        "from polysyzygy import x\n"
        "def f():\n"
        "    from polysyz.ranks import rank\n"
    )
    assert package_imports(tree) == [(2, "polysyz.koszul"), (3, "polysyz"), (7, "polysyz.ranks")]


def layout_modules(readme):
    """The file names listed in the first code block under "## Layout"."""
    section = readme.split("\n## Layout\n", 1)[1]
    block = section.split("```", 2)[1]
    return re.findall(r"^\s+(\w+\.py)\b", block, flags=re.M)


def test_readme_layout_names_every_module():
    listed = layout_modules((ROOT / "README.md").read_text())
    assert sorted(listed) == [p.name for p in MODULES if p.name != "__init__.py"]


def test_layout_modules_are_read():
    readme = (
        "# x\n\n## Layout\n\n```\nsrc/polysyz/\n"
        "  lattice.py   hulls\n  cli.py       commands, not ranks.py\n```\n"
        "\n```\n  other.py\n```\n"
    )
    assert layout_modules(readme) == ["lattice.py", "cli.py"]
