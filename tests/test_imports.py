"""Every module-level import and function in the library is used, modpoly
uses no floats, only finitefield knows how F_q elements and polynomials are
stored, only classpoly gives up on precision, and one function evaluates
the q-series."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hcpkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never names."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name != "*"
    ]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in named]


def test_detects_an_unused_import():
    source = "from itertools import count, chain\nimport os.path\nchain(os)\n"
    assert unused_imports(source) == ["count"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def unnamed_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions that no other top-level statement of any module
    names, as a call, an attribute or an import; a recursive call does not count."""
    defs, uses = [], []
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, i, stmt.name))
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
            uses.append((module, i, names))
    return [
        f"{module}.{name}"
        for module, i, name in defs
        if not any(name in names for m, j, names in uses if (m, j) != (module, i))
    ]


def test_detects_an_unnamed_function():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    pass\n\ndef loop(n):\n    return loop(n - 1)\n",
        "b": "from a import used\n",
    }
    assert unnamed_functions(sources) == ["a.dead", "a.loop"]


def test_every_module_level_function_is_named():
    assert unnamed_functions({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_modpoly_imports_no_floating_point():
    """Phi_N is exact: modpoly imports neither mpmath nor anything of modfunc."""
    tree = ast.parse((SRC / "modpoly.py").read_text())
    parts = {
        part
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        for part in [*(getattr(node, "module", None) or "").split("."), *alias.name.split(".")]
    }
    assert not parts & {"mpmath", "modfunc"}


def representation_reads(source: str) -> list[str]:
    """Attribute reads of FqElement's and FqPoly's stored tuples."""
    tree = ast.parse(source)
    return [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in {"_t", "_of", "coords"}
    ]


def test_detects_a_representation_read():
    assert representation_reads("f._t\nFqPoly._of(f, t)\ne.coords[0]\ne.coeffs\n") == [
        "_t",
        "_of",
        "coords",
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "finitefield.py"], ids=lambda p: p.name
)
def test_only_finitefield_reads_the_element_representation(path):
    assert representation_reads(path.read_text()) == []


def test_ffexperiments_imports_no_private_name():
    tree = ast.parse((SRC / "ffexperiments.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def raised_names(source: str) -> set[str]:
    """Names of the exceptions a module raises, by class or call."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_detects_a_raised_exception():
    source = "raise A\nraise errors.B('x')\ntry:\n    raise C() from None\nexcept D:\n    raise\n"
    assert raised_names(source) == {"A", "B", "C"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "classpoly.py"], ids=lambda p: p.name
)
def test_only_classpoly_raises_precision_exhausted(path):
    """The retry ladder lives in classpoly; modfunc only evaluates j."""
    assert "PrecisionExhausted" not in raised_names(path.read_text())


def exp_call_sites(sources: dict[str, str]) -> list[str]:
    """module.function for each call of mp.exp, by the top-level function
    that holds it, or by the module alone at top level."""
    sites = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            where = module
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{module}.{stmt.name}"
            sites.extend(
                where
                for node in ast.walk(stmt)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "exp"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "mp"
            )
    return sites


def test_detects_every_exp_call_site():
    sources = {
        "a": "def f(t):\n    return mp.exp(t) * mp.exp(-t)\n\nx = mp.exp(1)\n",
        "b": "def g(t):\n    return math.exp(t) + mp.expm1(t) + mp.ldexp(t, 2)\n",
    }
    assert exp_call_sites(sources) == ["a.f", "a.f", "a"]


def test_one_evaluator_calls_exp():
    """j is gamma2 cubed: q = exp(2 pi i tau) is made in _gamma2_tau alone."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert exp_call_sites(sources) == ["modfunc._gamma2_tau"]
