"""Command-line front end.

Records go to standard output as CSV (default) or JSON; diagnostics go
to standard error. Exit codes: 0 success, 1 usage error, 2 verification
failure, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Iterable

from . import harness
from .arith import discriminants_upto, is_fundamental_discriminant, is_prime, kronecker
from .classpoly import hilbert_class_polynomial, verify_prop23
from .errors import CapExceeded, HcpkitError, NotFound, PreconditionFailed, UnsupportedLevel
from .ffexperiments import find_common_cm_point, gcd_degree_growth
from .finitefield import FqPoly, fq_context, lift_poly, supersingular_polynomial, michel_counts
from .harness import ExperimentRecord, csv_row_writer, write_json
from .modpoly import kronecker_congruence_check, modular_polynomial
from .qfield import verify_thm54
from .quadforms import class_number


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _CsvEmitter:
    # the header waits for the first row, so a run failing before it prints nothing
    def __init__(self, fh):
        self._fh = fh
        self._write_row = None

    def emit(self, rec: ExperimentRecord) -> None:
        if self._write_row is None:
            self._write_row = csv_row_writer(self._fh)
        self._write_row(rec)

    def close(self) -> None:
        # a completed run always yields a well-formed table, even when empty
        if self._write_row is None:
            self._write_row = csv_row_writer(self._fh)


class _JsonEmitter:
    def __init__(self, fh):
        self._fh = fh
        self._records: list[ExperimentRecord] = []

    def emit(self, rec: ExperimentRecord) -> None:
        self._records.append(rec)

    def close(self) -> None:
        write_json(self._records, self._fh)


Emit = Callable[[ExperimentRecord], None]


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _parse_poly(text: str) -> FqPoly:
    """Parse a prime-field polynomial literal like F2:1,1,1 (constant first)."""
    head, sep, body = text.partition(":")
    if not sep or not head.startswith("F"):
        raise ValueError(f"polynomial literal must look like F2:1,1,1, got {text!r}")
    p = int(head[1:])
    field = fq_context(p, 1)
    coeffs = [int(tok) for tok in body.split(",") if tok]
    return FqPoly(field, coeffs)


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns the process exit code.


def cmd_classnum(args, emit: Emit) -> int:
    h = class_number(args.D)
    emit(ExperimentRecord("classnum", {}, D=args.D, h=h, value=h))
    return 0


def cmd_hpoly(args, emit: Emit) -> int:
    poly = hilbert_class_polynomial(args.D, cache_dir=args.cache_dir)
    value = ",".join(str(c) for c in poly.coeffs)
    emit(ExperimentRecord("hpoly", {}, D=args.D, h=poly.degree, value=value))
    return 0


def cmd_modpoly(args, emit: Emit) -> int:
    phi = modular_polynomial(args.N)
    for (i, j), c in sorted(phi.coeffs.items()):
        emit(ExperimentRecord("modpoly", {"i": i, "j": j}, value=c))
    return 0


def cmd_ss(args, emit: Emit) -> int:
    poly = supersingular_polynomial(args.p)
    value = ",".join(str(c.encoding) for c in poly.coeffs)
    emit(ExperimentRecord("ss", {"p": args.p}, value=value))
    return 0


def cmd_prop23(args, emit: Emit) -> int:
    failed = False
    for D in args.D:
        for p in args.p:
            if D % (p * p) == 0:
                continue
            for n in args.n:
                report = verify_prop23(D, p, n, h_cap=args.h_cap, cache_dir=args.cache_dir)
                ok = report.congruence_holds
                failed = failed or not ok
                emit(
                    ExperimentRecord(
                        "prop23",
                        {"p": p, "n": n},
                        D=D,
                        h=class_number(D),
                        value=report.k,
                        passed=ok,
                    )
                )
    return 2 if failed else 0


def cmd_kronecker_congruence(args, emit: Emit) -> int:
    failed = False
    for p in args.p:
        ok = kronecker_congruence_check(p)
        failed = failed or not ok
        emit(ExperimentRecord("kronecker-congruence", {"p": p}, passed=ok))
    return 2 if failed else 0


def cmd_michel(args, emit: Emit) -> int:
    failed = False
    for D in discriminants_upto(args.D_cap):
        if not is_fundamental_discriminant(D):
            continue
        h = class_number(D)
        if args.h_cap and h > args.h_cap:
            continue
        hilbert_class_polynomial(D, cache_dir=args.cache_dir)
        for p in args.p:
            if kronecker(D, p) != -1:
                continue
            counts = michel_counts(D, p)
            ext = fq_context(p, 2)
            ss = lift_poly(supersingular_polynomial(p), ext)
            contained = all(ss.evaluate(r).is_zero for r in counts)
            ok = contained and sum(counts.values()) == h
            failed = failed or not ok
            value = ";".join(
                f"{r.encoding}:{m}" for r, m in sorted(counts.items(), key=lambda kv: kv[0].encoding)
            )
            emit(ExperimentRecord("michel", {"p": p}, D=D, h=h, value=value, passed=ok))
    return 2 if failed else 0


def cmd_gcd_growth(args, emit: Emit) -> int:
    records = harness.gcd_growth_rational(
        args.a,
        args.b,
        args.p,
        args.D_cap,
        h_cap=args.h_cap,
        cache_dir=args.cache_dir,
        sink=emit,
    )
    summary = records[-1]
    return 2 if summary.passed is False else 0


def cmd_support_modular(args, emit: Emit) -> int:
    harness.support_scan_modular(
        args.j, args.j2, args.D_cap, h_cap=args.h_cap, cache_dir=args.cache_dir, sink=emit
    )
    return 0


def cmd_support_cyclotomic(args, emit: Emit) -> int:
    harness.support_scan_cyclotomic(args.a, args.b, args.n_max, args.S, sink=emit)
    return 0


def cmd_support_multiplicative(args, emit: Emit) -> int:
    harness.support_scan_multiplicative(args.a, args.b, args.n_max, args.S, sink=emit)
    return 0


def cmd_thm54(args, emit: Emit) -> int:
    failed = False
    for D in discriminants_upto(args.D_cap):
        if D % 8 != 1:
            continue
        h = class_number(D)
        if args.h_cap and h > args.h_cap:
            continue
        report = verify_thm54(D, h_cap=args.h_cap, cache_dir=args.cache_dir)
        failed = failed or not report.both
        emit(
            ExperimentRecord(
                "thm54",
                {"forward": report.forward, "backward": report.backward},
                D=D,
                h=h,
                passed=report.both,
            )
        )
    return 2 if failed else 0


def _checked_poly_pair(args) -> tuple[FqPoly, FqPoly]:
    A = _parse_poly(args.A)
    B = _parse_poly(args.B)
    if A.field.p != args.p or B.field.p != args.p:
        raise ValueError(f"polynomial field does not match --p {args.p}")
    return A, B


def cmd_ff_find(args, emit: Emit) -> int:
    A, B = _checked_poly_pair(args)
    point = find_common_cm_point(A, B, args.p)
    emit(
        ExperimentRecord(
            "ff-find",
            {"A": args.A, "B": args.B},
            D=point.D,
            h=class_number(point.D),
            value=f"alpha={point.alpha.encoding};m={point.alpha.field.m};k={point.k}",
            passed=True,
        )
    )
    return 0


def cmd_ff_growth(args, emit: Emit) -> int:
    A, B = _checked_poly_pair(args)
    rows = gcd_degree_growth(A, B, args.D0, args.p, args.k_max, h_cap=args.h_cap)
    failed = False
    for row in rows:
        failed = failed or not row.bound_ok
        emit(
            ExperimentRecord(
                "ff-growth",
                {"k": row.k, "deg": row.deg_gcd},
                D=args.D0 * args.p ** (2 * row.k),
                h=row.h,
                value=row.ratio,
                passed=row.bound_ok,
            )
        )
    return 2 if failed else 0


def cmd_ordinary_scan(args, emit: Emit) -> int:
    harness.ordinary_scan(
        args.j,
        args.q_max,
        per_prime_D_cap=args.D_cap,
        cache_dir=args.cache_dir,
        sink=emit,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser() -> _Parser:
    parser = _Parser(prog="hcpkit", description="Class polynomial experiment toolkit.")
    parser.add_argument("--out", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("HCPKIT_CACHE", "./hd_cache"),
        help="Hilbert class polynomial cache directory",
    )
    parser.add_argument(
        "--h-cap", type=int, default=2000, dest="h_cap", help="class number cap; 0 means none"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classnum", help="class number of a discriminant")
    sp.add_argument("D", type=int)
    sp.set_defaults(func=cmd_classnum)

    sp = sub.add_parser("hpoly", help="Hilbert class polynomial coefficients")
    sp.add_argument("D", type=int)
    sp.add_argument("--cache-dir", default=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_hpoly)

    sp = sub.add_parser("modpoly", help="modular polynomial terms")
    sp.add_argument("N", type=int)
    sp.set_defaults(func=cmd_modpoly)

    sp = sub.add_parser("ss", help="supersingular polynomial mod p")
    sp.add_argument("p", type=int)
    sp.set_defaults(func=cmd_ss)

    sp = sub.add_parser("prop23", help="class number scaling and congruence checks")
    sp.add_argument("--D", type=_int_list, required=True)
    sp.add_argument("--p", type=_int_list, required=True)
    sp.add_argument("--n", type=_int_list, required=True)
    sp.set_defaults(func=cmd_prop23)

    sp = sub.add_parser("kronecker-congruence", help="modular polynomial congruence mod p")
    sp.add_argument("--p", type=_int_list, required=True)
    sp.set_defaults(func=cmd_kronecker_congruence)

    sp = sub.add_parser("michel", help="root histograms of H_D mod inert primes")
    sp.add_argument("--D-cap", type=int, required=True, dest="D_cap")
    sp.add_argument("--p", type=_int_list, required=True)
    sp.set_defaults(func=cmd_michel)

    sp = sub.add_parser("gcd-growth", help="gcd mass of class polynomial values")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--D-cap", type=int, required=True, dest="D_cap")
    sp.set_defaults(func=cmd_gcd_growth)

    sp = sub.add_parser("support-modular", help="support containment of H_D values")
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--j2", type=int, required=True)
    sp.add_argument("--D-cap", type=int, required=True, dest="D_cap")
    sp.set_defaults(func=cmd_support_modular)

    sp = sub.add_parser("support-cyclotomic", help="support containment of cyclotomic values")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")
    sp.add_argument("--S", type=_int_list, default=[])
    sp.set_defaults(func=cmd_support_cyclotomic)

    sp = sub.add_parser("support-multiplicative", help="support containment of a^n-1 values")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")
    sp.add_argument("--S", type=_int_list, default=[])
    sp.set_defaults(func=cmd_support_multiplicative)

    sp = sub.add_parser("thm54", help="two-way support check at the golden-ratio pair")
    sp.add_argument("--D-cap", type=int, required=True, dest="D_cap")
    sp.set_defaults(func=cmd_thm54)

    sp = sub.add_parser("ff-find", help="common CM point of two polynomials mod p")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.set_defaults(func=cmd_ff_find)

    sp = sub.add_parser("ff-growth", help="gcd degree growth under p-power scaling")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--D0", type=int, required=True)
    sp.add_argument("--k-max", type=int, required=True, dest="k_max")
    sp.set_defaults(func=cmd_ff_growth)

    sp = sub.add_parser("ordinary-scan", help="ordinary primes dividing some H_D(j)")
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--q-max", type=int, required=True, dest="q_max")
    sp.add_argument("--D-cap", type=int, default=0, dest="D_cap")
    sp.set_defaults(func=cmd_ordinary_scan)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("p", "S"):
        vals = getattr(args, name, None)
        if isinstance(vals, list) and not all(is_prime(v) for v in vals):
            print(f"hcpkit: --{name} entries must be prime", file=sys.stderr)
            return 1
    emitter = _CsvEmitter(sys.stdout) if args.out == "csv" else _JsonEmitter(sys.stdout)
    try:
        rc = args.func(args, emitter.emit)
    except (PreconditionFailed, UnsupportedLevel, ValueError) as exc:
        print(f"hcpkit: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"hcpkit: {exc}", file=sys.stderr)
        return 3
    except NotFound as exc:
        print(f"hcpkit: {exc}", file=sys.stderr)
        return 2
    except HcpkitError as exc:
        print(f"hcpkit: {exc}", file=sys.stderr)
        return 2
    emitter.close()
    return rc


if __name__ == "__main__":
    sys.exit(main())
