"""Experiment drivers: gcd growth, support scans, and record emission.

Each driver walks a parameter grid, evaluates exact quantities, and
yields ExperimentRecord rows that serialize identically to CSV or JSON.
Drivers accept an optional sink callable and hand each record over as
soon as it exists, so long scans need not accumulate output in memory;
the returned values stay small (violation lists, summaries).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable

from .arith import (
    discriminants_upto,
    factorize,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    support_subset_int,
)
from .classpoly import hilbert_class_polynomial
from .cyclomult import cyclotomic_value
from .errors import NotFound, PreconditionFailed
from .finitefield import deuring_discriminants, fq_context, supersingular_polynomial
from .intpoly import IntPolynomial
from .quadforms import class_number

Sink = Callable[["ExperimentRecord"], None] | None


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    parameters: dict = field(default_factory=dict)
    D: int | None = None
    h: int | None = None
    value: object = ""
    passed: bool | None = None

    def _slot(self, i: int) -> str:
        items = list(self.parameters.items())
        if i < len(items):
            k, v = items[i]
            return f"{k}={v}"
        return ""

    def as_csv_row(self) -> list[str]:
        return [
            self.experiment,
            "" if self.D is None else str(self.D),
            "" if self.h is None else str(self.h),
            self._slot(0),
            self._slot(1),
            format_value(self.value),
            "" if self.passed is None else ("true" if self.passed else "false"),
        ]

    def as_json_obj(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": {k: _json_value(v) for k, v in self.parameters.items()},
            "D": self.D,
            "h": self.h,
            "value": _json_value(self.value),
            "pass": self.passed,
        }


def format_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_value(v):
    if v is None or isinstance(v, (bool, int, float)):
        return v
    return format_value(v)


CSV_HEADER = ["experiment", "D", "h", "param1", "param2", "value", "pass"]


def csv_row_writer(fh) -> Callable[[ExperimentRecord], None]:
    """Write the CSV header to fh; return a function writing one record per row."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    return lambda rec: writer.writerow(rec.as_csv_row())


def write_csv(records: Iterable[ExperimentRecord], fh) -> None:
    write_row = csv_row_writer(fh)
    for rec in records:
        write_row(rec)


def write_json(records: Iterable[ExperimentRecord], fh) -> None:
    json.dump([rec.as_json_obj() for rec in records], fh, indent=2)
    fh.write("\n")


# ---------------------------------------------------------------------------
# Singular moduli (integer ones all have class number 1).


@lru_cache(maxsize=None)
def _singular_moduli() -> tuple[tuple[int, int], ...]:
    pairs = []
    for D in discriminants_upto(200):
        if class_number(D) == 1:
            poly = hilbert_class_polynomial(D)
            pairs.append((-poly.coeffs[0], D))
    return tuple(pairs)


def singular_moduli() -> dict[int, int]:
    """Integer singular moduli mapped to their discriminants."""
    return dict(_singular_moduli())


# ---------------------------------------------------------------------------
# Rational gcd growth at a supersingular pair.


def gcd_growth_rational(
    a: int,
    b: int,
    p: int,
    D_cap: int,
    h_cap: int = 2000,
    cache_dir: str | Path | None = None,
    sink: Sink = None,
) -> list[ExperimentRecord]:
    """Per-discriminant gcd mass r_D = log gcd(|H_D(a)|, |H_D(b)|) / h(D).

    Scans fundamental D with p inert up to |D| <= D_cap and closes with a
    summary row comparing max r_D against half the asymptotic target
    log p / (p - 1); the halving reflects the finite scan range.
    """
    if not is_prime(p):
        raise PreconditionFailed(f"{p} is not prime")
    fp = fq_context(p, 1)
    ss = supersingular_polynomial(p)
    for name, v in (("a", a), ("b", b)):
        if not ss.evaluate(fp.from_int(v)).is_zero:
            raise PreconditionFailed(f"{name} = {v} mod {p} is not a supersingular j-invariant")
    moduli = singular_moduli()
    for name, v in (("a", a), ("b", b)):
        if v in moduli:
            raise PreconditionFailed(f"{name} = {v} is the singular modulus of D = {moduli[v]}")
    records: list[ExperimentRecord] = []
    best = None
    for D in discriminants_upto(D_cap):
        if not is_fundamental_discriminant(D) or kronecker(D, p) != -1:
            continue
        h = class_number(D)
        if h_cap and h > h_cap:
            continue
        poly = hilbert_class_polynomial(D, cache_dir=cache_dir)
        g = math.gcd(abs(poly.evaluate(a)), abs(poly.evaluate(b)))
        r = math.log(g) / h
        best = r if best is None or r > best else best
        records.append(ExperimentRecord("gcd-growth", {"a": a, "b": b}, D=D, h=h, value=r))
        if sink is not None:
            sink(records[-1])
    target = 0.5 * math.log(p) / (p - 1)
    records.append(
        ExperimentRecord(
            "gcd-growth-summary",
            {"p": p, "target": repr(target)},
            value=best if best is not None else "",
            passed=None if best is None else best >= target,
        )
    )
    if sink is not None:
        sink(records[-1])
    return records


# ---------------------------------------------------------------------------
# Support scans.


def _strip_primes(n: int, S: Iterable[int]) -> int:
    if n == 0:
        return 0
    for q in S:
        while n % q == 0:
            n //= q
    return n


def _violation_witness(x: int, y: int, factor_bound: int = 1 << 17):
    """A prime dividing x but not y, else a composite residue report.

    Callers guarantee the support test failed. A zero x (full support
    against nonzero y) is witnessed by the least prime missing from y.
    """
    if x == 0:
        w = 2
        while y % w == 0:
            w += 1
            while not is_prime(w):
                w += 1
        return w
    z = abs(x)
    yy = abs(y)
    if yy:
        while (g := math.gcd(z, yy)) > 1:
            z //= g
    fac = factorize(z, factor_bound)
    if fac.factors:
        return min(q for q, _ in fac.factors)
    return f"composite residue {fac.cofactor}"


def _support_scan(experiment: str, grid, sink: Sink) -> list[tuple[object, object]]:
    """Support containment of x into y at each (key, fields, x, y) of grid.

    Each grid point becomes one record, built from the record fields plus
    the verdict, with the witness as its value, and goes to the sink; the
    violations come back as (key, witness) pairs.
    """
    violations: list[tuple[object, object]] = []
    for key, fields, x, y in grid:
        ok = support_subset_int(x, y)
        witness = "" if ok else _violation_witness(x, y)
        if not ok:
            violations.append((key, witness))
        if sink is not None:
            sink(ExperimentRecord(experiment, value=witness, passed=ok, **fields))
    return violations


def support_scan_modular(
    j: int,
    j2: int,
    D_cap: int,
    h_cap: int = 2000,
    cache_dir: str | Path | None = None,
    sink: Sink = None,
) -> list[tuple[int, object]]:
    """Violations of support containment H_D(j) into H_D(j2) over the
    discriminant grid; each violation carries one witness prime."""

    def grid():
        for D in discriminants_upto(D_cap):
            h = class_number(D)
            if h_cap and h > h_cap:
                continue
            poly = hilbert_class_polynomial(D, cache_dir=cache_dir)
            fields = {"parameters": {"j": j, "j2": j2}, "D": D, "h": h}
            yield D, fields, poly.evaluate(j), poly.evaluate(j2)

    return _support_scan("support-modular", grid(), sink)


def _exponent_grid(a: int, b: int, n_max: int, S: Iterable[int], f):
    """Grid points n <= n_max comparing f(n, a) with f(n, b), primes in S removed."""
    if a == 0 or b == 0:
        raise PreconditionFailed("a and b must be nonzero")
    S = sorted(set(S))
    for n in range(1, n_max + 1):
        fields = {"parameters": {"n": n, "ab": f"{a},{b}"}}
        yield n, fields, _strip_primes(f(n, a), S), _strip_primes(f(n, b), S)


def support_scan_cyclotomic(
    a: int,
    b: int,
    n_max: int,
    S: Iterable[int] = (),
    sink: Sink = None,
) -> list[tuple[int, object]]:
    """Violations of support containment between cyclotomic values at a
    and b for n <= n_max, ignoring primes in S."""
    grid = _exponent_grid(a, b, n_max, S, cyclotomic_value)
    return _support_scan("support-cyclotomic", grid, sink)


def support_scan_multiplicative(
    a: int,
    b: int,
    n_max: int,
    S: Iterable[int] = (),
    sink: Sink = None,
) -> list[tuple[int, object]]:
    """Same scan with a^n - 1 and b^n - 1 in place of cyclotomic values."""
    grid = _exponent_grid(a, b, n_max, S, lambda n, x: x**n - 1)
    return _support_scan("support-multiplicative", grid, sink)


def support_subset_poly(A: IntPolynomial, B: IntPolynomial) -> bool:
    """Whether every irreducible factor of A divides B, over Q.

    Equivalent to the squarefree part of A dividing a power of B.
    Follows the integer convention: a unit (constant) A passes, a zero B
    absorbs everything, a zero A requires zero B; both zero is rejected.
    """
    if A.is_zero and B.is_zero:
        raise PreconditionFailed("support comparison of zero with zero")
    if A.is_zero:
        return False
    if B.is_zero:
        return True
    z = A.primitive_part()
    b = B.primitive_part()
    while True:
        g = z.gcd(b)
        if g.degree < 1:
            break
        z = z.divexact(g)
    return z.degree == 0


# ---------------------------------------------------------------------------
# Ordinary-prime scan.


def ordinary_scan(
    j: int,
    q_max: int,
    per_prime_D_cap: int = 0,
    cache_dir: str | Path | None = None,
    sink: Sink = None,
) -> list[tuple[int, int]]:
    """Pairs (q, D_q) with q ordinary for j and q dividing H_{D_q}(j).

    Primes whose reduction of j is supersingular are skipped; for the
    rest the Deuring search yields D_q, and the divisibility is verified
    exactly over the integers.
    """
    moduli = singular_moduli()
    if j in moduli:
        raise PreconditionFailed(f"j = {j} is the singular modulus of D = {moduli[j]}")
    out: list[tuple[int, int]] = []
    for q in range(2, q_max + 1):
        if not is_prime(q):
            continue
        fq = fq_context(q, 1)
        jq = fq.from_int(j)
        if supersingular_polynomial(q).evaluate(jq).is_zero:
            continue
        cap = per_prime_D_cap or 4 * q
        cands = [D for D in deuring_discriminants(jq) if abs(D) <= cap]
        if not cands:
            raise NotFound(f"q = {q}: no Deuring discriminant with |D| <= {cap}")
        D_q = cands[0]
        value = hilbert_class_polynomial(D_q, cache_dir=cache_dir).evaluate(j)
        if value % q:
            raise ArithmeticError(f"q = {q} does not divide H_{D_q}({j}); search bug")
        out.append((q, D_q))
        if sink is not None:
            sink(
                ExperimentRecord(
                    "ordinary-scan", {"j": j, "q": q}, D=D_q, h=class_number(D_q), passed=True
                )
            )
    return out
