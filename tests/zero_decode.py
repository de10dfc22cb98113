"""Decodes of sparse words against the Berlekamp-Welch oracle, exhaustively over GF(7).

`rs_decode` returns the zero polynomial at once for a word with at most max_errors
nonzero heard values. At m = 7 nodes over GF(7), for every degree bound D and every
budget e up to the radius, every word with at most e + 1 nonzero heard values (those
that take the exit and those one value past it) is decoded by `rs_decode` and by
`rs_oracle.berlekamp_welch`, which must agree on status, polynomial, corrected nodes and
diagnostics. The sweep runs once with every node heard and once with node 4 silent.
Node ids run 1..m at points 0..m-1, so a node read as a column index shows. A word with
more nonzero values cannot take the exit; the property tests check Gao's decode of such
words against the oracle.

    python tests/zero_decode.py

Prints the word count and every difference; the exit status is 1 on any difference.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from shardlab import BroadcastSet, PrimeField, rs_decode  # noqa: E402

from rs_oracle import berlekamp_welch  # noqa: E402


def sparse_words(m: int, most: int, p: int):
    """Every word of m residues mod p with at most `most` nonzero values."""
    for k in range(min(most, m) + 1):
        for support in itertools.combinations(range(m), k):
            for values in itertools.product(range(1, p), repeat=k):
                word = [0] * m
                for i, y in zip(support, values):
                    word[i] = y
                yield word


def outcome(decode, b: BroadcastSet, d: int, e: int) -> tuple:
    out = decode(b, d, e)
    return out.status, out.poly, out.error_positions, out.diagnostics


def sweep(field: PrimeField, m: int, d: int, e: int, silent: int | None = None):
    """(words, differences): every word at nodes 1..m, node `silent` silent, with at most
    e + 1 nonzero heard values, decoded at degree bound d and budget e by both decoders."""
    nodes = range(1, m + 1)
    heard = [n for n in nodes if n != silent]
    words, differences = 0, []
    for word in sparse_words(len(heard), e + 1, field.modulus):
        values = dict(zip(heard, word))
        b = BroadcastSet.from_columns(field, nodes, range(m), [values.get(n) for n in nodes])
        words += 1
        got, want = outcome(rs_decode, b, d, e), outcome(berlekamp_welch, b, d, e)
        if got != want:
            differences.append((d, e, silent, word, got, want))
    return words, differences


def main() -> int:
    started = time.perf_counter()
    field, m = PrimeField(7), 7
    words, differences = 0, []
    for silent in (None, 4):
        heard = m - (silent is not None)
        for d in range(heard):
            for e in range((heard - d - 1) // 2 + 1):
                count, found = sweep(field, m, d, e, silent)
                words += count
                differences += found
    for d, e, silent, word, got, want in differences:
        print(f"differs at D={d}, e={e}, silent node {silent}, word {word}: "
              f"rs_decode gives {got}, the oracle {want}")
    print(f"{words} words, {len(differences)} differences, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
