"""Berlekamp-Welch decoding through one dense linear solve: the oracle for `rs_decode`.

`solve_linear` and `berlekamp_welch` are the library's former `field_poly.solve_linear`
and `decoder.rs_decode`, unchanged but for reading the broadcast set's columns: the
decoder now runs Gao's algorithm, and these stay here so tests can check that both
decoders give the same outcome.
"""

from __future__ import annotations

from typing import Sequence

from shardlab.decoder import (
    RECOVERED,
    BroadcastSet,
    DecodeOutcome,
    InsufficientEvaluations,
    _failure,
)
from shardlab.field_poly import FieldElement, Polynomial, kernel_vector

from dense_system import Matrix, echelon_rows


def solve_linear(m: Matrix, rhs: Sequence[int | FieldElement]) -> list[FieldElement] | None:
    """One solution of m @ x = rhs (free variables zeroed), or None if inconsistent:
    the kernel vector of [m | -rhs] at its last column, which has none if it is a pivot."""
    if len(rhs) != m.nrows:
        raise ValueError("rhs length does not match row count")
    p = m.field.modulus
    rows = [[*row, -m.field.residue(b) % p] for row, b in zip(m.rows, rhs)]
    pivots = echelon_rows(rows, m.ncols + 1, p)
    if m.ncols in pivots:
        return None
    sol = kernel_vector(pivots, m.ncols + 1, p, m.ncols)[:-1]
    return [FieldElement(x, m.field) for x in sol]


def berlekamp_welch(b: BroadcastSet, degree_bound: int, max_errors: int) -> DecodeOutcome:
    """Decode a polynomial of degree <= degree_bound from b, tolerating max_errors.

    Solves for a monic error locator E of degree max_errors and a numerator Q
    of degree <= degree_bound + max_errors with Q(a) = y*E(a) at every present
    entry; the codeword is Q/E when the division is exact. Missing entries are
    dropped first (shortening), so max_errors counts among the present ones.
    """
    if degree_bound < 0 or max_errors < 0:
        raise ValueError("degree_bound and max_errors must be >= 0")
    present = [(node, x, y) for node, x, y in zip(b.nodes, b.points, b.values) if y is not None]
    m = len(present)
    needed = degree_bound + 1 + 2 * max_errors
    if m < needed:
        raise InsufficientEvaluations(
            f"{m} present evaluations, {needed} required for degree {degree_bound} "
            f"with {max_errors} errors"
        )
    field = b.field
    p = field.modulus
    e = max_errors
    qn = degree_bound + e + 1  # numerator coefficient count
    rows = []
    rhs = []
    for _, x, y in present:
        powers = [1]
        for _ in range(degree_bound + e):
            powers.append(powers[-1] * x % p)
        #   Q(x) - y*(E_0 + ... + E_{e-1} x^{e-1}) = y*x^e
        row = [(-y * powers[j]) % p for j in range(e)]
        row += powers[:qn]
        rows.append(row)
        rhs.append(y * powers[e] % p)
    solution = solve_linear(Matrix(field, rows, ncols=e + qn), rhs)
    if solution is None:
        return _failure("no error locator explains the broadcast values")
    locator = Polynomial(field, list(solution[:e]) + [1])
    numerator = Polynomial(field, solution[e:])
    quotient, remainder = divmod(numerator, locator)
    if not remainder.is_zero:
        return _failure("error locator does not divide the numerator")
    if (quotient.degree or 0) > degree_bound:
        return _failure(
            f"candidate polynomial has degree {quotient.degree}, bound is {degree_bound}"
        )
    bad = frozenset(node for node, x, y in present if quotient(field(x)) != y)
    if len(bad) > max_errors:
        return _failure(
            f"candidate polynomial disagrees with {len(bad)} entries, only "
            f"{max_errors} errors allowed"
        )
    return DecodeOutcome(
        status=RECOVERED,
        poly=quotient,
        error_positions=bad,
        diagnostics=f"{len(bad)} corrected among {m} present entries",
    )
