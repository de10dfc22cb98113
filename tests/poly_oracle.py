"""List-based oracles for the packed kernels of `field_poly`.

`schoolbook_mul` is the library's former `Polynomial.__mul__` loop, unchanged apart from
taking and returning ascending residue lists; the library now multiplies by Kronecker
substitution. `euclid_steps` is the decoder's former extended Euclid, one `poly_divmod`,
`poly_mul` and `poly_sub` per step on residue lists; the library now steps on packed ints
(`field_poly.euclid_until`). `general_path` sets up point sets and Lagrange matrices as the
library does for points off one progression, the oracle of their closed forms.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import zip_longest
from typing import Sequence

from shardlab import field_poly, lcc
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


@contextmanager
def general_path(rows_up_to: int | None = None):
    """Inside, no point list counts as a progression, so a `PointSet` takes its weights
    from g' and `EncodingParams.lagrange_matrix` reads the shard point set; with
    `rows_up_to`, `_ROWS_UP_TO` is that. Build fresh objects inside: `point_set` and the
    matrix are cached."""
    saved = field_poly.progression_step, lcc.progression_step, field_poly._ROWS_UP_TO
    field_poly.progression_step = lcc.progression_step = lambda xs, p: None
    if rows_up_to is not None:
        field_poly._ROWS_UP_TO = rows_up_to
    try:
        yield
    finally:
        field_poly.progression_step, lcc.progression_step, field_poly._ROWS_UP_TO = saved
