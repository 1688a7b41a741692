"""Correctness checks: pinned reference digests plus structural checks.

The digests in refs.json were computed by make_refs.py from the library
at the commit that introduced the benchmark. Structural checks do not
depend on them: degree equals h(D), H_D is monic, and each H_D of class
number one is T - j for the known integral j-invariant.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")

# The thirteen integral j-invariants (class number one), by discriminant.
INTEGRAL_J = {
    -3: 0,
    -4: 1728,
    -7: -3375,
    -8: 8000,
    -11: -32768,
    -12: 54000,
    -16: 287496,
    -19: -884736,
    -27: -12288000,
    -28: 16581375,
    -43: -884736000,
    -67: -147197952000,
    -163: -262537412640768000,
}


def digest(values) -> str:
    """Short SHA-256 of a comma-joined integer sequence."""
    return hashlib.sha256(",".join(map(str, values)).encode("ascii")).hexdigest()[:16]


def histogram_digest(counts: dict) -> str:
    """Digest of a michel_counts histogram as sorted (encoding, mult) pairs."""
    pairs = sorted((root.encoding, mult) for root, mult in counts.items())
    return digest(x for pair in pairs for x in pair)


def load_refs(path: Path = REFS_PATH) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def check_hd(D: int, coeffs, h: int, refs: dict) -> str | None:
    """None when the coefficient list (constant term first) is H_D."""
    if len(coeffs) - 1 != h:
        return f"H_{D} has degree {len(coeffs) - 1}, h({D}) = {h}"
    if coeffs[-1] != 1:
        return f"H_{D} is not monic"
    if h == 1 and D in INTEGRAL_J and coeffs[0] != -INTEGRAL_J[D]:
        return f"H_{D} root {-coeffs[0]} is not j = {INTEGRAL_J[D]}"
    expected = refs["hd"].get(str(D))
    if expected is None:
        return f"no reference digest for H_{D}"
    if digest(coeffs) != expected:
        return f"H_{D} digest {digest(coeffs)} != reference {expected}"
    return None
