"""Class polynomial construction, caching, and the scaling congruence.

Expected coefficients for class number one and two come from the
classical singular-modulus tables, which makes them an oracle
independent of the complex-analytic pipeline under test.
"""

from __future__ import annotations

import sys
import threading
import zlib
from pathlib import Path

import pytest
import sympy
from mpmath import mp

from hcpkit import classpoly
from hcpkit.arith import is_discriminant, is_fundamental_discriminant, kronecker
from hcpkit.classpoly import (
    cache_load,
    cache_store,
    crc64_xz,
    hilbert_class_polynomial,
    round_real_coeffs,
    verify_prop23,
)
from hcpkit.errors import CapExceeded, CorruptCache, PrecisionExhausted, VerificationFailed
from hcpkit.intpoly import IntPolynomial
from hcpkit.modfunc import _gamma2_tau, j_tau, required_precision
from hcpkit.modpoly import modular_polynomial
from hcpkit.quadforms import class_number, reduced_forms, unit_group_order

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.checks import digest, load_refs  # noqa: E402

CLASSICAL_LINEAR = {
    -3: 0,
    -4: -1728,
    -7: 3375,
    -8: -8000,
    -11: 32768,
    -12: -54000,
    -16: -287496,
    -19: 884736,
    -27: 12288000,
    -28: -16581375,
    -43: 884736000,
    -67: 147197952000,
    -163: 262537412640768000,
}

CLASSICAL_HIGHER = {
    -15: (-121287375, 191025, 1),
    -20: (-681472000, -1264000, 1),
    -24: (14670139392, -4834944, 1),
    -23: (12771880859375, -5151296875, 3491750, 1),
}


class TestRoundRealCoeffs:
    def test_rounds_within_the_gate(self):
        with mp.workprec(96):
            coeffs = [mp.mpf("3.2"), mp.mpf("-7.9"), mp.ldexp(1, 63)]
            assert round_real_coeffs(coeffs, [mp.mpc("-7.9", "1e-30")], 64) == [3, -8, 2**63]

    def test_rejects_residual_at_the_gate(self):
        with mp.workprec(96):
            assert round_real_coeffs([mp.mpf("3.25")], [], 64) is None

    def test_rejects_coefficients_of_two_to_prec_or_more(self):
        # at 2^(prec+32) the working precision keeps no fractional bits; the cap is 2^prec
        with mp.workprec(96):
            assert round_real_coeffs([mp.mpf(1), mp.ldexp(1, 64)], [], 64) is None
            assert round_real_coeffs([mp.mpf(1), -mp.ldexp(3, 70)], [], 64) is None

    @pytest.mark.parametrize("re", ["0.5", "-5", "3e12"])
    def test_root_dust_gate_is_inclusive(self, re):
        # a root passes with |Im j| <= 2^-(prec/2) max(1, |Re j|), and fails just above it
        with mp.workprec(96):
            re = mp.mpf(re)
            bound = mp.ldexp(1, -32) * max(1, abs(re))
            above = bound * (1 + mp.ldexp(1, -80))
            for im in (bound, -bound):
                assert round_real_coeffs([mp.mpf(1)], [mp.mpc(re, im)], 64) == [1]
            for im in (above, -above):
                assert round_real_coeffs([mp.mpf(1)], [mp.mpc(re, im)], 64) is None


class TestHilbertClassPolynomial:
    @pytest.mark.parametrize("D,c0", sorted(CLASSICAL_LINEAR.items()))
    def test_class_number_one(self, D, c0):
        assert hilbert_class_polynomial(D).coeffs == (c0, 1)

    @pytest.mark.parametrize("D,coeffs", sorted(CLASSICAL_HIGHER.items()))
    def test_higher_class_number(self, D, coeffs):
        assert hilbert_class_polynomial(D).coeffs == coeffs

    def test_monic_of_degree_h(self):
        for D in (-31, -47, -71, -95):
            poly = hilbert_class_polynomial(D)
            assert poly.is_monic
            assert poly.degree == class_number(D)

    def test_explicit_precision_is_deterministic(self):
        a = hilbert_class_polynomial(-23, prec_bits=256)
        b = hilbert_class_polynomial(-23, prec_bits=512)
        assert a == b == hilbert_class_polynomial(-23)

    def test_rejects_non_discriminant(self):
        with pytest.raises(ValueError):
            hilbert_class_polynomial(-5)

    def test_disk_cache_round_trip(self, tmp_path):
        first = hilbert_class_polynomial(-56, cache_dir=tmp_path)
        assert (tmp_path / "hd_56.txt").exists()
        again = hilbert_class_polynomial(-56, cache_dir=tmp_path)
        assert first == again

    def test_memo_hit_still_populates_fresh_cache_dir(self, tmp_path):
        hilbert_class_polynomial(-56)
        hilbert_class_polynomial(-56, cache_dir=tmp_path)
        assert (tmp_path / "hd_56.txt").exists()

    def test_concurrent_computation_consistent(self):
        results = [None] * 4

        def work(i):
            results[i] = hilbert_class_polynomial(-84)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


def _is_ambiguous(f) -> bool:
    return f.b == 0 or f.b == f.a or f.a == f.c


# Every kind of reduced form occurs: b = 0 (-4, -84, -260, -12500), b = a
# (-3, -15, -23, -84, -231, -9375), a = c (-15, -84, -260, -231) and
# conjugate pairs (-23, -231, -260, -9375, -12500).
PAIRING_DISCRIMINANTS = (-3, -4, -15, -23, -84, -231, -260, -9375, -12500)


class TestConjugatePairing:
    @pytest.mark.parametrize("D", PAIRING_DISCRIMINANTS)
    def test_matches_expansion_over_every_form(self, D):
        """One linear factor per reduced form, expanded term by term."""
        prec = required_precision(D)
        with mp.workprec(prec + 32):
            root = mp.sqrt(-D)
            coeffs = [mp.mpc(1)]
            for f in reduced_forms(D):
                j = j_tau(mp.mpc(mp.mpf(-f.b) / (2 * f.a), root / (2 * f.a)), prec)
                shifted = [mp.mpc(0)] + coeffs
                for i, c in enumerate(coeffs):
                    shifted[i] -= j * c
                coeffs = shifted
            # each coefficient's imaginary part must be dust, as each real root's is
            ints = round_real_coeffs([mp.re(c) for c in coeffs], coeffs, prec)
        assert ints is not None
        assert hilbert_class_polynomial(D).coeffs == tuple(ints)

    def test_every_kind_of_form_is_covered(self):
        forms = [f for D in PAIRING_DISCRIMINANTS for f in reduced_forms(D)]
        assert any(f.b == 0 for f in forms)
        assert any(f.b == f.a for f in forms)
        assert any(f.a == f.c and 0 < f.b < f.a for f in forms)
        assert any(not _is_ambiguous(f) for f in forms)

    @pytest.mark.parametrize("D", [-3, -23, -84, -231, -260, -9375])
    def test_one_j_per_form_with_nonnegative_b(self, monkeypatch, D):
        """One evaluation per form with b >= 0: of gamma2 when 3 does not divide D, else of j."""
        calls = {"j": [], "gamma2": []}

        def counting(name, evaluate):
            def counted(tau, prec_bits):
                calls[name].append(tau)
                return evaluate(tau, prec_bits)

            return counted

        monkeypatch.setattr(classpoly, "j_tau", counting("j", j_tau))
        monkeypatch.setattr(classpoly, "_gamma2_tau", counting("gamma2", _gamma2_tau))
        # an explicit precision bypasses the memo and the disk cache
        poly = hilbert_class_polynomial(D, prec_bits=required_precision(D))
        assert poly.degree == class_number(D)
        used, unused = ("gamma2", "j") if D % 3 else ("j", "gamma2")
        assert len(calls[used]) == sum(1 for f in reduced_forms(D) if f.b >= 0)
        assert calls[unused] == []


def dusty(tau, prec_bits):
    """j with an imaginary part far above the per-root gate."""
    j = j_tau(tau, prec_bits)
    return j + 1j * mp.ldexp(1, -(prec_bits // 4)) * max(1, abs(j))


def test_imaginary_dust_on_real_roots_is_rejected(monkeypatch):
    """A real root with an imaginary part above the gate must not round."""
    assert all(_is_ambiguous(f) for f in reduced_forms(-84))
    monkeypatch.setattr(classpoly, "j_tau", dusty)
    with pytest.raises(PrecisionExhausted):
        hilbert_class_polynomial(-84, prec_bits=required_precision(-84))


def test_per_root_rejects_reach_round_real_coeffs(monkeypatch):
    """round_real_coeffs makes every reject, a per-root one included."""
    results = []
    rounding = classpoly.round_real_coeffs

    def counted(coeffs, real_roots, prec):
        results.append(rounding(coeffs, real_roots, prec))
        return results[-1]

    monkeypatch.setattr(classpoly, "j_tau", dusty)
    monkeypatch.setattr(classpoly, "round_real_coeffs", counted)
    with pytest.raises(PrecisionExhausted):
        hilbert_class_polynomial(-84, prec_bits=required_precision(-84))
    assert results == [None] * 4


class TestLowPrecision:
    @pytest.mark.parametrize("D", [-2999, -9375])
    def test_too_low_precision_raises(self, D):
        # W_{-2999} (about 680 bits) and H_{-9375} outgrow 64 to 512 bits;
        # a wrong H_D must not round
        with pytest.raises(PrecisionExhausted):
            hilbert_class_polynomial(D, prec_bits=64)

    def test_w_d_rounds_where_h_d_would_not(self):
        # H_{-479} has 552-bit coefficients, W_{-479} 184: it rounds at 256 bits
        assert digest(hilbert_class_polynomial(-479, prec_bits=64).coeffs) == load_refs()["hd"]["-479"]


def assemble_afresh(monkeypatch, discriminants):
    """H_D for each D with an empty memo; the D of every _assemble call and every check."""
    attempts, checks = [], []
    assemble, verify = classpoly._assemble, classpoly._verify_deuring

    def counted(D, prec):
        attempts.append(D)
        return assemble(D, prec)

    def counted_check(D, coeffs):
        verify(D, coeffs)
        checks.append((D, coeffs))

    monkeypatch.setattr(classpoly, "_assemble", counted)
    monkeypatch.setattr(classpoly, "_verify_deuring", counted_check)
    monkeypatch.setattr(classpoly, "_memo", {})
    polys = [hilbert_class_polynomial(D) for D in discriminants]
    return polys, attempts, checks


FUNDAMENTAL_TO_1000 = [-n for n in range(3, 1001) if is_fundamental_discriminant(-n)]


def test_pinned_digests_of_every_fundamental_discriminant_to_1000(monkeypatch):
    """H_D for fundamental |D| <= 1000 against the digests in perfbench/refs.json.

    Each H_D is assembled afresh and must round at its first precision: a
    retry would double the work without changing the result.
    """
    refs = load_refs()["hd"]
    assert len(FUNDAMENTAL_TO_1000) == 305
    polys, attempts, _ = assemble_afresh(monkeypatch, FUNDAMENTAL_TO_1000)
    wrong = [D for D, poly in zip(FUNDAMENTAL_TO_1000, polys) if digest(poly.coeffs) != refs[str(D)]]
    assert wrong == []
    assert attempts == FUNDAMENTAL_TO_1000


def test_pinned_digests_of_every_non_fundamental_discriminant(monkeypatch):
    """The 52 pinned non-fundamental D, each afresh and at its first precision."""
    refs = load_refs()["hd"]
    discriminants = sorted(
        (int(k) for k in refs if not is_fundamental_discriminant(int(k))), key=abs
    )
    assert len(discriminants) == 52
    polys, attempts, _ = assemble_afresh(monkeypatch, discriminants)
    wrong = [D for D, poly in zip(discriminants, polys) if digest(poly.coeffs) != refs[str(D)]]
    assert wrong == []
    assert attempts == discriminants


# W_D at -2999 (h = 73) and -12500 (h = 50), j at -2991 (h = 48) and
# -9375 (h = 50): the largest class numbers on each route
TOP_BAND = (-2999, -2991, -12500, -9375)


def test_top_band_rounds_at_its_first_precision_with_64_bits_to_spare(monkeypatch):
    """Each H_D afresh at its first precision, and every coefficient that
    round_real_coeffs sees within 2^-64 of an integer."""
    refs = load_refs()["hd"]
    residuals = []
    rounding = classpoly.round_real_coeffs

    def watched(coeffs, real_roots, prec):
        residuals.extend(abs(c - mp.nint(c)) for c in coeffs)
        return rounding(coeffs, real_roots, prec)

    monkeypatch.setattr(classpoly, "round_real_coeffs", watched)
    polys, attempts, _ = assemble_afresh(monkeypatch, TOP_BAND)
    assert [D % 3 != 0 for D in TOP_BAND] == [True, False, True, False]
    assert [digest(poly.coeffs) for poly in polys] == [refs[str(D)] for D in TOP_BAND]
    assert attempts == list(TOP_BAND)
    assert max(residuals) < mp.ldexp(1, -64)


def test_every_fresh_h_d_passes_one_deuring_check(monkeypatch):
    """The check runs once on every H_D assembled afresh, on what is returned."""
    polys, _, checks = assemble_afresh(monkeypatch, FUNDAMENTAL_TO_1000)
    assert checks == [(D, poly.coeffs) for D, poly in zip(FUNDAMENTAL_TO_1000, polys)]


def monomial(k: int, c: int = 1) -> IntPolynomial:
    return IntPolynomial((0,) * k + (c,))


def faults(poly: IntPolynomial) -> list[IntPolynomial]:
    """poly with +-1 on each coefficient below the leading one, and poly + X^h, + X^(h+1)."""
    h, out = poly.degree, []
    for k in range(h):
        for e in (1, -1):
            out.append(poly + monomial(k, e))
    return out + [poly + monomial(h), poly + monomial(h + 1)]


# The j route at -75 (primes 2 and 3), W_D at -23 (5 and 7), at -311 (11
# and 17) and at -944 (11 and 13). H_{-311} + X^8 = X^19 and H_{-944} + X^7
# = X^18 mod 11 are products of supersingular factors as well, so 11 alone
# cannot see those faults; the second prime does.
@pytest.mark.parametrize("D", [-75, -23, -311, -944])
def test_a_wrong_h_d_fails_the_deuring_check(monkeypatch, tmp_path, D):
    h_d = hilbert_class_polynomial(D)
    passed = []
    for i, fault in enumerate(faults(h_d)):
        monkeypatch.setattr(classpoly, "_assemble", lambda key, prec: fault)
        monkeypatch.setattr(classpoly, "_memo", {})
        cache_dir = tmp_path / str(i)
        try:
            hilbert_class_polynomial(D, cache_dir=cache_dir)
        except VerificationFailed:
            # a rejected H_D is neither memoized nor stored
            assert classpoly._memo == {} and not cache_dir.exists()
            continue
        passed.append(fault)
    assert passed == []


def p_divides_conductor(D: int, p: int) -> bool:
    return D % (p * p) == 0 and is_discriminant(D // (p * p))


def sympy_h(D: int, var):
    return sympy.Poly(list(reversed(hilbert_class_polynomial(D).coeffs)), var, domain="ZZ")


# (D, p) for H_{D p^2}. The first eleven: p does not divide the conductor f
# of D in the first seven, and does in the rest; -375 -> -9375 and -500 ->
# -12500 are hd_cold's power discriminants. Then every step of acceptance
# #2's grid (D_K in {-3, -4, -7, -8, -11, -15, -20}, p in {2, 3, 5, 7})
# with h(Dp^2) <= 30, and -4 -> -16, which the grid skips because 4 | D.
ISOGENY_STEPS = [
    (-7, 3), (-20, 3), (-23, 2), (-15, 2), (-20, 5), (-15, 5), (-31, 7),
    (-375, 5), (-500, 5), (-63, 3), (-567, 3),
    (-3, 2), (-12, 2), (-3, 3), (-27, 3), (-3, 5), (-75, 5), (-3, 7), (-147, 7),
    (-4, 2), (-4, 3), (-36, 3), (-4, 5), (-100, 5), (-4, 7), (-196, 7),
    (-7, 2), (-28, 2), (-7, 5), (-175, 5), (-7, 7),
    (-8, 3), (-72, 3), (-8, 5), (-200, 5), (-8, 7),
    (-11, 2), (-44, 2), (-11, 3), (-99, 3), (-11, 5), (-275, 5), (-11, 7),
    (-60, 2), (-15, 3), (-135, 3), (-15, 7), (-180, 3), (-20, 7),
]


@pytest.mark.parametrize("D,p", ISOGENY_STEPS, ids=[f"{D}-{p}" for D, p in ISOGENY_STEPS])
def test_phi_p_resultant_gives_h_of_d_p_squared(D, p):
    """Up to sign, Res_Y(Phi_p(X, Y), H_D(Y)) = H_{Dp^2}(X)^(u(D)/2)
    H_D(X)^(1 + (D/p)) when p does not divide f, with u the unit group
    order. When it does, with D' = D/p^2, it is H_{Dp^2}(X) H_{D'}(X)^e,
    with e = p if p divides f(D') and e = (p - (D'/p)) / (u(D')/2) if
    not. u/2 is 1 except at D = -3 (3) and -4 (2). An exact check of
    H_{Dp^2}, off the floating-point path."""
    X, Y = sympy.symbols("X Y")
    phi = sum(c * X**i * Y**j for (i, j), c in modular_polynomial(p).coeffs.items())
    res = sympy.Poly(sympy.resultant(phi, sympy_h(D, Y).as_expr(), Y), X)
    if p_divides_conductor(D, p):
        parent = D // (p * p)
        if p_divides_conductor(parent, p):
            e = p
        else:
            e, rest = divmod(p - kronecker(parent, p), unit_group_order(parent) // 2)
            assert rest == 0
        expected = sympy_h(D * p * p, X) * sympy_h(parent, X) ** e
    else:
        expected = (
            sympy_h(D * p * p, X) ** (unit_group_order(D) // 2)
            * sympy_h(D, X) ** (1 + kronecker(D, p))
        )
    assert res in (expected, -expected)


H_M15 = IntPolynomial((-121287375, 191025, 1))


def write_v1(D: int, poly: IntPolynomial, cache_dir: Path, magic: str = "HDPOLY 1") -> Path:
    """A cache file as version 1 wrote it: CRC-64/XZ trailer."""
    lines = [magic, str(D), str(poly.degree), *map(str, poly.coeffs)]
    body = "".join(line + "\n" for line in lines).encode("ascii")
    path = cache_dir / f"hd_{abs(D)}.txt"
    path.write_bytes(body + f"CRC64 {crc64_xz(body):016x}\n".encode("ascii"))
    return path


class TestCacheFormat:
    def test_crc64_check_vector(self):
        assert crc64_xz(b"123456789") == 0x995DC9BBDF1939FA
        assert crc64_xz(b"") == 0

    def test_round_trip(self, tmp_path):
        poly = IntPolynomial((-121287375, 191025, 1))
        cache_store(-15, poly, tmp_path)
        assert cache_load(-15, tmp_path) == poly

    def test_missing_returns_none(self, tmp_path):
        assert cache_load(-15, tmp_path) is None

    def test_failed_store_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def replace_fails(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(classpoly.os, "replace", replace_fails)
        with pytest.raises(OSError, match="disk full"):
            cache_store(-15, H_M15, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_flipped_byte_detected(self, tmp_path):
        cache_store(-15, IntPolynomial((-121287375, 191025, 1)), tmp_path)
        path = tmp_path / "hd_15.txt"
        data = bytearray(path.read_bytes())
        data[20] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCache):
            cache_load(-15, tmp_path)

    def test_truncation_detected(self, tmp_path):
        cache_store(-15, IntPolynomial((-121287375, 191025, 1)), tmp_path)
        path = tmp_path / "hd_15.txt"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-2]))
        with pytest.raises(CorruptCache):
            cache_load(-15, tmp_path)

    def test_wrong_degree_detected(self, tmp_path):
        # claims D = -15 but carries a linear polynomial
        cache_store(-3, IntPolynomial((0, 1)), tmp_path)
        (tmp_path / "hd_3.txt").rename(tmp_path / "hd_15.txt")
        with pytest.raises(CorruptCache):
            cache_load(-15, tmp_path)

    def test_store_writes_version_2_with_crc32(self, tmp_path):
        raw = cache_store(-15, H_M15, tmp_path).read_bytes()
        assert raw.startswith(b"HDPOLY 2\n")
        body, trailer = raw[: raw.rindex(b"CRC32 ")], raw[raw.rindex(b"CRC32 ") :]
        assert trailer == b"CRC32 %08x\n" % zlib.crc32(body)
        assert body.count(b"\n") == 6  # magic, D, h, three coefficients

    def test_version_2_never_reaches_crc64(self, tmp_path, monkeypatch):
        def crc64_called(data):
            raise AssertionError("crc64_xz on a version 2 file")

        monkeypatch.setattr(classpoly, "crc64_xz", crc64_called)
        cache_store(-15, H_M15, tmp_path)
        assert cache_load(-15, tmp_path) == H_M15

    def test_version_1_loads_and_is_not_rewritten(self, tmp_path, monkeypatch):
        monkeypatch.setattr(classpoly, "_memo", {})
        path = write_v1(-15, H_M15, tmp_path)
        before = path.read_bytes()
        assert cache_load(-15, tmp_path) == H_M15
        assert hilbert_class_polynomial(-15, cache_dir=tmp_path) == H_M15
        assert path.read_bytes() == before

    def test_version_1_flipped_byte_detected(self, tmp_path):
        path = write_v1(-15, H_M15, tmp_path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCache):
            cache_load(-15, tmp_path)

    def test_unknown_version_rejected(self, tmp_path):
        write_v1(-15, H_M15, tmp_path, magic="HDPOLY 3")
        with pytest.raises(CorruptCache, match="bad magic"):
            cache_load(-15, tmp_path)
        path = cache_store(-15, H_M15, tmp_path)
        body = path.read_bytes().replace(b"HDPOLY 2", b"HDPOLY 3", 1)
        body = body[: body.rindex(b"CRC32 ")]
        path.write_bytes(body + b"CRC32 %08x\n" % zlib.crc32(body))
        with pytest.raises(CorruptCache, match="bad magic"):
            cache_load(-15, tmp_path)


def write_v2(D: int, lines: list[str], cache_dir: Path) -> Path:
    """A version 2 cache file for D with the given body lines and a correct CRC-32."""
    body = "".join(line + "\n" for line in ["HDPOLY 2", *lines]).encode("ascii")
    path = cache_dir / f"hd_{abs(D)}.txt"
    path.write_bytes(body + b"CRC32 %08x\n" % zlib.crc32(body))
    return path


class TestCacheRejectsPastTheChecksum:
    """One fault per check that a correct CRC-32 does not stop."""

    def test_empty_file(self, tmp_path):
        (tmp_path / "hd_15.txt").write_bytes(b"\n")
        with pytest.raises(CorruptCache, match="empty file"):
            cache_load(-15, tmp_path)

    def test_line_count(self, tmp_path):
        write_v2(-15, ["-15", "2", "-121287375", "191025", "1", "0"], tmp_path)
        with pytest.raises(CorruptCache, match="expected 7 lines, found 8"):
            cache_load(-15, tmp_path)

    def test_malformed_coefficient(self, tmp_path):
        write_v2(-15, ["-15", "2", "-121287375", "191025x", "1"], tmp_path)
        with pytest.raises(CorruptCache, match="malformed"):
            cache_load(-15, tmp_path)

    @pytest.mark.parametrize(
        "lines",
        [
            ["-15", "1", "-121287375", "1"],  # degree 1, but h(-15) = 2
            ["-15", "2", "-121287375", "191025", "2"],  # not monic
        ],
        ids=["degree", "monic"],
    )
    def test_degree_or_monicity(self, tmp_path, lines):
        write_v2(-15, lines, tmp_path)
        with pytest.raises(CorruptCache, match="degree or monicity"):
            cache_load(-15, tmp_path)


class TestProp23:
    @pytest.mark.parametrize(
        "D,p,n,k",
        [
            (-3, 2, 1, 1),
            (-3, 3, 1, 1),
            (-4, 3, 1, 2),
            (-7, 3, 1, 4),
            (-7, 2, 1, 1),
            (-8, 3, 1, 2),
            (-3, 2, 2, 2),
        ],
    )
    def test_expected_k_and_congruence(self, D, p, n, k):
        report = verify_prop23(D, p, n)
        assert report.k == k
        assert report.congruence_holds

    def test_k_equals_class_number_ratio(self):
        for D, p, n in ((-15, 2, 1), (-20, 3, 1), (-11, 5, 1)):
            report = verify_prop23(D, p, n)
            assert report.k == class_number(D * p ** (2 * n)) // class_number(D)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            verify_prop23(-15, 7, 2, h_cap=10)

    def test_accepts_p_square_dividing_D(self):
        # the exponent formula still applies when p^2 | D, with chi(p) = 0
        report = verify_prop23(-12, 2, 1)
        assert report.k == 2
        assert report.congruence_holds
