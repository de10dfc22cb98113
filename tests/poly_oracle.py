"""Schoolbook polynomial product on residue lists: the oracle for `field_poly.poly_mul`.

This is the library's former `Polynomial.__mul__` loop, unchanged apart from taking and
returning ascending residue lists; the library now multiplies by Kronecker substitution.
"""

from __future__ import annotations

from typing import Sequence


def schoolbook_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """a * b over GF(p), one coefficient pair at a time; [] when either operand is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out
