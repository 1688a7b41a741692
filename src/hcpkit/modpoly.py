"""Exact modular polynomials for small prime levels.

Phi_N is built over the integers from the q-expansion of j, with no
floating point. Newton's identities turn the power sums of the N
conjugates j(zeta^k q^(1/N)) into their elementary symmetric functions;
multiplying in X - j(q^N) gives the X-coefficients of Phi_N(X, j(q)),
each a polynomial of degree <= N+1 in j, which is peeled off term by term
from its lowest power of q. Every peel must leave no remainder, or
VerificationFailed is raised.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .arith import is_prime
from .errors import UnsupportedLevel, VerificationFailed

SUPPORTED_LEVELS = (1, 2, 3, 5, 7)


class BivarIntPolynomial:
    """Integer polynomial in X and Y stored as a sparse coefficient map.

    Coefficients are taken through operator.index: a float raises TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int]):
        self.coeffs = {k: index(v) for k, v in coeffs.items() if v}

    def coefficient(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self.coeffs), default=-1)

    @property
    def degree_y(self) -> int:
        return max((j for _, j in self.coeffs), default=-1)

    def is_symmetric(self) -> bool:
        return all(v == self.coeffs.get((j, i), 0) for (i, j), v in self.coeffs.items())

    def evaluate(self, x, y):
        """Horner in X of Horner-in-Y slices; works for ints and mp types."""
        dx = self.degree_x
        if dx < 0:
            return 0
        dy = self.degree_y
        acc = None
        for i in range(dx, -1, -1):
            slice_acc = None
            for j in range(dy, -1, -1):
                c = self.coeffs.get((i, j), 0)
                slice_acc = c if slice_acc is None else slice_acc * y + c
            acc = slice_acc if acc is None else acc * x + slice_acc
        return acc

    def reduce_mod(self, p: int) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for k, v in self.coeffs.items():
            r = v % p
            if r:
                out[k] = r
        return out

    def __eq__(self, other):
        if not isinstance(other, BivarIntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"BivarIntPolynomial({len(self.coeffs)} terms, degX={self.degree_x})"


def _series_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of the product of two integer q-series."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for k, bk in enumerate(b[: n - i]):
                out[i + k] += ai * bk
    return out


def _qj(n: int) -> list[int]:
    """The first n coefficients of q j(q) = E4(q)^3 / prod(1 - q^k)^24."""
    sigma3 = [0] * n
    for d in range(1, n):
        for m in range(d, n, d):
            sigma3[m] += d**3
    e4 = [1] + [240 * s for s in sigma3[1:]]
    c = _series_mul(_series_mul(e4, e4, n), e4, n)
    for k in range(1, n):
        for _ in range(24):  # divided by 1 - q^k
            for i in range(k, n):
                c[i] += c[i - k]
    return c


def _phi_exact(N: int) -> BivarIntPolynomial:
    """Phi_N for prime N. Each series is kept to n exact terms and shifted
    to start at q^0: q sigma and q g for the N conjugates' power sums and
    elementary symmetric functions, q^(N+1) e for those of all N+1 roots."""
    n = 2 * N + 6
    Q = _qj(N * n)  # sigma reads Q^r below index N n
    powers = [[1] + [0] * (len(Q) - 1)]  # Q^r = q^r j^r
    for _ in range(N + 1):
        powers.append(_series_mul(powers[-1], Q, len(Q)))
    # sigma_r = N sum of Q^r[i] q^((i - r)/N) over i = r mod N, times (-1)^(r-1)
    sigma = [None] + [
        [(N if r % 2 else -N) * P[i] if i >= 0 else 0 for i in range(r - N, r - N + N * n, N)]
        for r, P in enumerate(powers[1 : N + 1], 1)
    ]
    # d g_d = sum of (-1)^(i-1) g_(d-i) sigma_i; sigma_N alone has a pole, of
    # order 1 and met by g_0 = 1, so (q g)(q sigma) / q is exact to n terms
    g = [[0, 1] + [0] * (n - 2)]
    for d in range(1, N + 1):
        terms = [_series_mul(g[d - i], sigma[i], n + 1)[1:] for i in range(1, d + 1)]
        acc = [sum(col) for col in zip(*terms)]
        # exact for any integer Q: the conjugates' symmetric functions are
        # Galois-invariant, so this guards the indexing, not the data
        assert not any(c % d for c in acc), f"Phi_{N}: Newton's identity {d}"
        g.append([c // d for c in acc])
    jqn = [Q[m // N] if m % N == 0 else 0 for m in range(n)]  # q^N j(q^N)
    coeffs: dict[tuple[int, int], int] = {}
    for d in range(N + 2):
        # e_d = g_d + j(q^N) g_(d-1); peel c j^k = c q^-k Q^k off its lowest term
        e = [0] * N + g[d][: n - N] if d <= N else [0] * n
        if d:
            e = [a + b for a, b in zip(e, _series_mul(jqn, g[d - 1], n))]
        for k in range(N + 1, -1, -1):
            t = N + 1 - k
            if c := e[t]:
                coeffs[(N + 1 - d, k)] = -c if d % 2 else c
                e[t:] = [a - c * p for a, p in zip(e[t:], powers[k])]
        if any(e):
            raise VerificationFailed(f"Phi_{N}: e_{d} is not a polynomial in j")
    return BivarIntPolynomial(coeffs)


@lru_cache(maxsize=None)
def modular_polynomial(N: int) -> BivarIntPolynomial:
    """Phi_N for N in {1, 2, 3, 5, 7}, with Phi_N(j(tau), j(N tau)) = 0."""
    if N not in SUPPORTED_LEVELS:
        raise UnsupportedLevel(f"level {N} not supported")
    if N == 1:
        return BivarIntPolynomial({(1, 0): 1, (0, 1): -1})
    return _phi_exact(N)


def kronecker_congruence_check(p: int) -> bool:
    """Whether Phi_p(X, Y) matches (X - Y^p)(X^p - Y) mod p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime; level 1 is not a prime level")
    if p not in SUPPORTED_LEVELS:
        raise UnsupportedLevel(f"level {p} not supported")
    phi = modular_polynomial(p)
    expected = {
        (p + 1, 0): 1,
        (1, 1): -1,
        (p, p): -1,
        (0, p + 1): 1,
    }
    expected = {k: v % p for k, v in expected.items() if v % p}
    return phi.reduce_mod(p) == expected
