"""Only arith.prime_divisors may call factorize, so every other module
meets a partial factorization as NotFound rather than as a complete one."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hcpkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "arith.py")


def factorize_calls(source: str) -> list[int]:
    """Line numbers of calls to `factorize` or `<anything>.factorize`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "factorize"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "factorize"
        )
    ]


def test_detects_direct_and_attribute_calls():
    source = "from .arith import factorize\nfactorize(6, 7)\narith.factorize(6, 7)\nf(factorize)\n"
    assert factorize_calls(source) == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_arith_calls_factorize(path):
    assert factorize_calls(path.read_text()) == []


def test_arith_calls_it_from_prime_divisors_alone():
    tree = ast.parse((SRC / "arith.py").read_text())
    callers = [
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and factorize_calls(ast.unparse(fn))
    ]
    assert callers == ["prime_divisors"]
