"""The j and gamma2 evaluators and the precision estimate."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import pytest

from hcpkit import classpoly, modfunc
from hcpkit.classpoly import hilbert_class_polynomial
from hcpkit.errors import PrecisionExhausted
from hcpkit.modfunc import _gamma2_tau, _height_bits, _pentagonal, j_tau, required_precision


def close(value, target, prec_bits):
    return abs(value - target) <= mp.ldexp(1, -(prec_bits // 2)) * max(1, abs(target))


class TestRequiredPrecision:
    def test_frozen_values(self):
        assert required_precision(-3) == 72
        assert required_precision(-4) == 74
        assert required_precision(-15) == 91

    def test_height_bits_is_the_bound_inside(self):
        for D in (-3, -4, -15, -23, -2999):
            assert required_precision(D) == _height_bits(D) + 64

    def test_grows_with_discriminant(self):
        values = [required_precision(D) for D in (-3, -23, -71, -471, -971)]
        assert values == sorted(values)
        assert all(v >= 64 for v in values)


def pentagonal(q, nmax):
    """E(q) and E(q^2) from _pentagonal at a guard of log2(nmax) + 4 bits."""
    bits = mp.mp.prec + nmax.bit_length() + 4
    qr, qi = int(mp.ldexp(mp.re(q), bits)), int(mp.ldexp(mp.im(q), bits))
    er, ei, sr, si = _pentagonal(qr, qi, bits, nmax)
    return (
        mp.mpc(mp.ldexp(er, -bits), mp.ldexp(ei, -bits)),
        mp.mpc(mp.ldexp(sr, -bits), mp.ldexp(si, -bits)),
    )


class TestEulerProduct:
    @pytest.mark.parametrize(
        "q",
        [
            lambda: mp.exp(2j * mp.pi * mp.mpc(-0.5, mp.sqrt(3) / 2)),  # rho, |q| largest
            lambda: mp.exp(2j * mp.pi * mp.mpc(mp.mpf("0.3"), mp.mpf("0.41"))),
            lambda: mp.exp(-2 * mp.pi),  # tau = i, real q
            lambda: mp.mpc("0.001", "-0.002"),
        ],
        ids=["rho", "im-0.41", "i", "small"],
    )
    def test_pentagonal_series_is_the_product(self, q):
        prec = 200
        with mp.workprec(prec + 32):
            qv = q()
            # both sides stop once |q|^n < 2^-(prec+32)
            nmax = int(mp.ceil((prec + 32) / -mp.log(abs(qv), 2)))
            e_q, e_q2 = pentagonal(qv, nmax)
            direct = direct2 = mp.mpf(1)
            for n in range(1, nmax + 1):
                direct *= 1 - qv**n
                if 2 * n <= nmax:
                    direct2 *= 1 - qv ** (2 * n)
            assert abs(e_q - direct) <= mp.ldexp(1, -prec)
            assert abs(e_q2 - direct2) <= mp.ldexp(1, -prec)

    def test_exact_on_a_dyadic_argument(self):
        # with q = 2^-10 every term is exact: E(q) = 1 - q - q^2 + q^5 + q^7 - ...
        with mp.workprec(400):
            q = mp.ldexp(1, -10)
            e_q, e_q2 = pentagonal(q, 30)
            assert e_q == 1 - q - q**2 + q**5 + q**7 - q**12 - q**15 + q**22 + q**26
            # E(q^2) takes the k with k(3k-1)/2 <= 30 // 2 + 1, k = 1, 2, 3
            assert e_q2 == 1 - q**2 - q**4 + q**10 + q**14 - q**24 - q**30


def _cm_point(D: int) -> mp.mpc:
    """tau of the principal form at working precision."""
    root = mp.sqrt(-D)
    if D % 4 == 0:
        return mp.mpc(0, root / 2)
    return mp.mpc(mp.mpf(1) / 2, root / 2)


class TestJTau:
    @pytest.mark.parametrize(
        "D,expected",
        [
            (-4, 1728),
            (-16, 287496),  # tau = 2i
            (-3, 0),
            (-7, -3375),
            (-8, 8000),
            (-11, -32768),
            (-163, -262537412640768000),
        ],
    )
    def test_singular_values(self, D, expected):
        for prec in (96, 160):
            with mp.workprec(prec + 10):
                value = j_tau(_cm_point(D), prec)
                assert close(value.real, expected, prec)
                assert abs(value.imag) <= mp.ldexp(1, -(prec // 2)) * max(1, abs(value.real))

    def test_golden_conjugate_value(self):
        # j at (1+i*sqrt(15))/2 is the smaller root of T^2 + 191025*T - 121287375
        prec = 192
        with mp.workprec(prec + 16):
            value = j_tau(_cm_point(-15), prec)
            target = (-191025 - 85995 * mp.sqrt(5)) / 2
            assert abs(value.real - target) < mp.mpf(10) ** -20
            assert abs(value.imag) < mp.mpf(10) ** -20

    def test_period_one(self):
        prec = 128
        with mp.workprec(prec + 10):
            tau = mp.mpc(0.23, 1.31)
            a = j_tau(tau, prec)
            b = j_tau(tau + 1, prec)
            assert abs(a - b) <= mp.ldexp(1, -(prec - 16)) * max(1, abs(a))

    def test_inversion_symmetry(self):
        prec = 128
        with mp.workprec(prec + 10):
            tau = mp.mpc(0.3, 1.1)
            a = j_tau(tau, prec)
            b = j_tau(-1 / tau, prec)
            assert abs(a - b) <= mp.ldexp(1, -(prec - 16)) * max(1, abs(a))

    @pytest.mark.parametrize(
        "tau",
        [
            # near rho = exp(2 pi i/3), where j ~ 0 and (x + 16)^3 cancels
            lambda: mp.mpc(-0.5, mp.sqrt(3) / 2) + mp.mpf(10) ** -20,
            lambda: mp.mpc(0, 1),
            lambda: mp.mpc(mp.mpf("0.3"), mp.mpf("0.41")),  # edge of Im > 0.4
            lambda: mp.mpc(mp.mpf("0.23"), mp.mpf("1.31")),
        ],
        ids=["rho", "i", "im-0.41", "generic"],
    )
    @pytest.mark.parametrize("prec", [96, 160, 1024, 4096])
    def test_agrees_with_kleinj(self, tau, prec):
        # mpmath's kleinj goes through theta functions, not the q-product
        with mp.workprec(prec + 40):
            t = tau()
            value = j_tau(t, prec)
            target = 1728 * mp.kleinj(t)
            assert abs(value - target) <= mp.ldexp(1, -(prec - 8)) * max(1, abs(target))

    @pytest.mark.parametrize(
        "tau",
        [
            lambda: mp.mpc(mp.mpf("0.3"), mp.mpf("0.41")),
            lambda: mp.mpc(mp.mpf("0.23"), mp.mpf("1.31")),
        ],
        ids=["im-0.41", "generic"],
    )
    @pytest.mark.parametrize("prec", [96, 160, 1024, 4096])
    def test_guard_keeps_32_bits_inside_the_documented_bound(self, tau, prec):
        # j keeps about 37 bits to spare; without the 32 + g guard bits of
        # the fixed-point series it keeps 0-3, which the plain bound misses
        with mp.workprec(prec + 160):
            t = tau()
            value = j_tau(t, prec)
            target = 1728 * mp.kleinj(t)
            bound = mp.ldexp(1, -(prec - 8)) * max(1, abs(target))
            assert abs(value - target) <= mp.ldexp(bound, -32)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            j_tau(mp.mpc(0, 0.3), 128)
        with pytest.raises(ValueError):
            j_tau(mp.mpc(0, 2), 32)

    def test_deterministic_rerun(self):
        tau = mp.mpc(0.125, 1.625)
        first = j_tau(tau, 120)
        second = j_tau(tau, 120)
        assert first == second

    def test_thread_safety(self):
        taus = [mp.mpc(0.1 * k, 1 + 0.2 * k) for k in range(6)]
        serial = [j_tau(t, 100) for t in taus]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda t: j_tau(t, 100), taus))
        assert serial == parallel


TAUS = [
    # near rho = exp(2 pi i/3), where gamma2 ~ 0 and 256 q r^24 + 1 cancels
    lambda: mp.mpc(-0.5, mp.sqrt(3) / 2) + mp.mpf(10) ** -20,
    lambda: mp.mpc(0, 1),
    lambda: mp.mpc(mp.mpf("0.3"), mp.mpf("0.41")),  # edge of Im > 0.4
    lambda: mp.mpc(mp.mpf("0.23"), mp.mpf("1.31")),
]
TAU_IDS = ["rho", "i", "im-0.41", "generic"]


class TestGamma2:
    @pytest.mark.parametrize("prec", [96, 160, 1024])
    def test_value_at_i(self, prec):
        with mp.workprec(prec + 40):
            value = _gamma2_tau(mp.mpc(0, 1), prec)
            assert abs(value - 12) <= mp.ldexp(12, -(prec - 8))

    @pytest.mark.parametrize("tau", TAUS, ids=TAU_IDS)
    @pytest.mark.parametrize("prec", [96, 160, 1024, 4096])
    def test_cube_is_j_within_the_documented_bounds(self, tau, prec):
        # j_tau is g^3, so j is mpmath's kleinj: an error e max(1, |g|) in g,
        # e = 2^-(prec-8), puts g^3 within 3e(1 + e)^2 max(1, |g|)^3 of j
        with mp.workprec(prec + 40):
            t = tau()
            g = _gamma2_tau(t, prec)
            bound = 4 * mp.ldexp(1, -(prec - 8)) * max(1, abs(g)) ** 3
            assert abs(g**3 - 1728 * mp.kleinj(t)) <= bound

    @pytest.mark.parametrize("tau", TAUS[1:], ids=TAU_IDS[1:])
    @pytest.mark.parametrize("prec", [96, 160, 1024, 4096])
    def test_guard_keeps_32_bits_inside_the_documented_bound(self, tau, prec):
        # the reference is the cube root of mpmath's kleinj nearest gamma2
        with mp.workprec(prec + 160):
            t = tau()
            value = _gamma2_tau(t, prec)
            root = mp.cbrt(1728 * mp.kleinj(t))
            zeta3 = mp.exp(2j * mp.pi / 3)
            target = min((root * zeta3**k for k in range(3)), key=lambda z: abs(z - value))
            bound = mp.ldexp(1, -(prec - 8)) * max(1, abs(target))
            assert abs(value - target) <= mp.ldexp(bound, -32)

    @pytest.mark.parametrize("k", [1, 2])
    def test_period_three_up_to_a_cube_root_of_unity(self, k):
        # gamma2(tau - k) = zeta3^k gamma2(tau), the shift classpoly._assemble takes
        prec = 128
        with mp.workprec(prec + 10):
            tau = mp.mpc(0.23, 1.31)
            a = _gamma2_tau(tau, prec)
            b = _gamma2_tau(tau - k, prec)
            assert abs(b - a * mp.exp(2j * mp.pi * k / 3)) <= mp.ldexp(1, -(prec - 16)) * abs(a)

    def test_inversion_symmetry(self):
        prec = 128
        with mp.workprec(prec + 10):
            tau = mp.mpc(0.3, 1.1)
            a = _gamma2_tau(tau, prec)
            b = _gamma2_tau(-1 / tau, prec)
            assert abs(a - b) <= mp.ldexp(1, -(prec - 16)) * max(1, abs(a))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            _gamma2_tau(mp.mpc(0, 0.3), 128)
        with pytest.raises(ValueError):
            _gamma2_tau(mp.mpc(0, 2), 32)


@pytest.mark.parametrize(
    "build, p0",
    [
        # 3 does not divide 23: W_{-23} starts at a third of the height bound
        (
            lambda cache_dir: hilbert_class_polynomial(-23, cache_dir),
            -(-_height_bits(-23) // 3) + 64,
        ),
        (lambda cache_dir: hilbert_class_polynomial(-23, cache_dir, prec_bits=200), 200),
    ],
    ids=["H_D", "H_D-prec_bits"],
)
def test_retry_ladder_exhausts(monkeypatch, tmp_path, build, p0):
    """An attempt that never rounds is tried at p0, 2p0, 4p0 and 8p0."""
    tried = []
    monkeypatch.setattr(classpoly, "_assemble", lambda key, prec: tried.append(prec))
    monkeypatch.setattr(classpoly, "_memo", {})
    with pytest.raises(PrecisionExhausted) as excinfo:
        build(tmp_path)
    assert str(excinfo.value) == "H_-23 did not round cleanly after 3 retries"
    assert tried == [p0, 2 * p0, 4 * p0, 8 * p0]
    assert -23 not in classpoly._memo
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("D", [-23, -15], ids=["W_D", "j"])
def test_one_height_bound_per_fresh_h_d(monkeypatch, D):
    """A fresh H_D evaluates _height_bits once, on either route; each
    evaluation calls inv_a_sum once."""
    calls = []
    inv_a_sum = modfunc.inv_a_sum
    monkeypatch.setattr(modfunc, "inv_a_sum", lambda key: calls.append(key) or inv_a_sum(key))
    monkeypatch.setattr(classpoly, "_memo", {})
    hilbert_class_polynomial(D)
    assert calls == [D]
