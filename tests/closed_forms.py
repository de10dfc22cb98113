"""The closed forms on progressions against the general path, at sizes the tests skip.

At N = 1000 and N = 3000 node points (K = N // 6 shard points, p = 2^31 - 1), on the
subproduct-tree branch of `PointSet`: the heard point set of the default layout, the
same count of points on a progression that wraps around p with a large step, and the
default layout's Lagrange matrix, each set up in closed form and by the general path
(`poly_oracle.general_path`), must agree: master, weights, tree levels, an
interpolation and the whole matrix.

    python tests/closed_forms.py

The exit status is nonzero on any difference.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from shardlab.field_poly import DEFAULT_MODULUS, PointSet, PrimeField, progression_step  # noqa: E402
from shardlab.lcc import EncodingParams  # noqa: E402

from poly_oracle import general_path  # noqa: E402


def differences(N: int, p: int = DEFAULT_MODULUS) -> list[str]:
    K, rng, found = N // 6, random.Random(N), []
    for name, xs in (("heard points", tuple(range(K + 1, K + N + 1))),
                     ("wrapping points", tuple((p - N // 2 + 977 * i) % p for i in range(N)))):
        assert progression_step(xs, p) is not None
        form = PointSet(xs, p)
        with general_path():
            oracle = PointSet(xs, p)
        ys = [rng.randrange(p) for _ in xs]
        if form._rows is not None:
            found.append(f"N={N} {name}: not on the tree branch")
        for part in ("master", "weights", "_levels"):
            if getattr(form, part) != getattr(oracle, part):
                found.append(f"N={N} {name}: {part} differs")
        if form.interpolate(ys) != oracle.interpolate(ys):
            found.append(f"N={N} {name}: interpolation differs")
    field = PrimeField(p)
    closed = EncodingParams.default(K, N, 2, field).lagrange_matrix
    with general_path():
        general = EncodingParams.default(K, N, 2, field).lagrange_matrix
    if closed != general:
        found.append(f"N={N}: Lagrange matrix differs")
    return found


def main() -> int:
    found = []
    for N in (1000, 3000):
        start = time.perf_counter()
        found += differences(N)
        print(f"N={N}: checked in {time.perf_counter() - start:.1f} s", flush=True)
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
