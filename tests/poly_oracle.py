"""List-based oracles for the packed kernels of `field_poly`.

`schoolbook_mul` is the library's former `Polynomial.__mul__` loop, unchanged apart from
taking and returning ascending residue lists; the library now multiplies by Kronecker
substitution. `euclid_steps` is the decoder's former extended Euclid, one `poly_divmod`,
`poly_mul` and `poly_sub` per step on residue lists; the library now steps on packed ints
(`field_poly.euclid_until`).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence

from shardlab.field_poly import poly_divmod, poly_mul


def schoolbook_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """a * b over GF(p), one coefficient pair at a time; [] when either operand is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """a - b on ascending residue lists, without trailing zeros."""
    out = [(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def euclid_steps(r0: Sequence[int], r: Sequence[int], stop: int,
                 p: int) -> tuple[list[int], list[int]]:
    """Extended Euclid from (r0, r), t0 = 0, t = 1, until len(r) <= stop: that r and its t."""
    t0, t = [], [1]
    while len(r) > stop:
        q, rem = poly_divmod(r0, r, p)
        r0, r, t0, t = r, rem, t, poly_sub(t0, poly_mul(q, t, p), p)
    return list(r), t
