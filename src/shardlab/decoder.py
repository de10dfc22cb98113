"""Recovery of the composed verification polynomial from node broadcasts.

Decoding is Gao's Reed-Solomon decoder, which answers only when an error locator
explains the broadcast values, so a broadcast set that mixes evaluations of
several polynomials fails cleanly instead of producing a silent wrong answer.
It runs on int residues: the interpolation runs on the cached `point_set` of the
points heard, set up once per heard point set, products are Kronecker products,
and the extended Euclidean algorithm steps on one packed int per polynomial
(`field_poly.euclid_until`). A word with at most max_errors nonzero heard values (an
epoch of valid blocks broadcasts one) decodes to zero first. A decode keeps no state
between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, NamedTuple, Sequence

from .adversary import VersionAssignment
from .field_poly import (
    DuplicateAbscissa, FieldElement, Polynomial, PrimeField, euclid_until, point_set, poly_divmod,
    poly_values,
)
from .lcc import EncodingParams

RECOVERED = "recovered"
FAILURE = "failure"

# Membership test for verification outputs that affirm a block.
AcceptSet = Container[FieldElement]


class InsufficientEvaluations(ValueError):
    """Too few present evaluations to attempt a decode at the requested radius."""


class BroadcastEntry(NamedTuple):
    """One node's broadcast result; value None models a silent adversary."""

    node: int
    point: FieldElement
    value: FieldElement | int | None


class BroadcastSet:
    """The results every node holds after the broadcast round, as columns: entry i of the
    (node, point, value) entries is node `nodes[i]`, with residues `points[i]` and `values[i]`
    (None: silent). The first point's field is the set's `field`, None for no entries; every
    other point and every value may be an element of it or an int, reduced mod p.
    `from_columns` builds a set from residue columns without converting them."""

    __slots__ = ("field", "nodes", "points", "values")

    def __init__(self, entries: Iterable[tuple]):
        nodes, points, values = tuple(zip(*entries)) or ((), (), ())
        if points and not isinstance(points[0], FieldElement):
            raise ValueError(f"node {nodes[0]}: the first entry's point must be a field element, "
                             f"since it fixes the set's field")
        field = points[0].field if points else None
        try:
            points = tuple(map(field.residue, points)) if points else ()
            values = tuple(None if y is None else field.residue(y) for y in values)
        except ValueError:  # name the first node whose point or value is not in the field
            node = next(n for n, x, y in zip(nodes, points, values) if not all(
                z is None or isinstance(z, int) or getattr(z, "field", None) == field
                for z in (x, y)))
            raise ValueError(f"node {node}: point and value must lie in {field}, "
                             f"the field of the first entry's point") from None
        self._set_columns(field, nodes, points, values)

    @classmethod
    def from_columns(cls, field: PrimeField | None, nodes: Sequence[int], points: Sequence[int],
                     values: Sequence[int | None]) -> "BroadcastSet":
        """The set whose entry i is node nodes[i] at point points[i] with value values[i]:
        residues of `field` in [0, p), a value None for a silent node. A repeated node, a
        point or value outside [0, p) and columns of unequal length raise ValueError."""
        b = cls.__new__(cls)
        b._set_columns(field, tuple(nodes), tuple(points), tuple(values))
        return b

    def _set_columns(self, field, nodes, points, values) -> None:
        if not len(nodes) == len(points) == len(values):
            raise ValueError("the node, point and value columns must have one length")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node index in broadcast set")
        if points:
            p = field.modulus
            heard = values if None not in values else [y for y in values if y is not None]
            if min(points) < 0 or max(points) >= p or heard and (min(heard) < 0 or max(heard) >= p):
                node = next(n for n, x, y in zip(nodes, points, values)
                            if not 0 <= x < p or y is not None and not 0 <= y < p)
                raise ValueError(f"node {node}: point and value must be residues in [0, {p})")
        self.field, self.nodes, self.points, self.values = field, nodes, points, values

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class DecodeOutcome:
    status: str
    poly: Polynomial | None = None
    error_positions: frozenset[int] = frozenset()
    diagnostics: str = ""

    @property
    def recovered(self) -> bool:
        return self.status == RECOVERED


def _failure(reason: str) -> DecodeOutcome:
    return DecodeOutcome(status=FAILURE, diagnostics=reason)


def _recovered(field: PrimeField, poly: list[int], bad: frozenset[int], m: int) -> DecodeOutcome:
    return DecodeOutcome(RECOVERED, Polynomial(field, poly), bad,
                         f"{len(bad)} corrected among {m} present entries")


def rs_decode(b: BroadcastSet, degree_bound: int, max_errors: int) -> DecodeOutcome:
    """Decode a polynomial of degree <= degree_bound from b, tolerating max_errors.

    Gao's algorithm: interpolate the present entries by g1, run the extended Euclidean
    algorithm on (prod (z - x), g1) up to the first remainder r of degree < degree_bound
    + 1 + max_errors, and divide r by its cofactor t. Every Berlekamp-Welch pair (E, Q)
    at this radius is a multiple of (t, r), so one exists exactly when deg t <= max_errors
    and deg r - deg t <= degree_bound, and then Q/E = r/t. Every point, heard or not,
    must be distinct, and that is checked first. Silent entries are then dropped
    (shortening), so max_errors counts among the heard ones, interpolated on the cached
    `point_set` of their points; `euclid_until` steps on packed ints and unpacks (r, t) once.

    A word with at most max_errors nonzero heard values (a valid block's check reads 0)
    returns zero, with those entries as the errors, before any point set is built: two
    polynomials within the radius agree at m - 2 max_errors >= degree_bound + 1 points,
    so zero is the one answer Gao could return.
    """
    if degree_bound < 0 or max_errors < 0:
        raise ValueError("degree_bound and max_errors must be >= 0")
    if len(set(b.points)) != len(b.points):
        raise DuplicateAbscissa("interpolation points must have distinct x values")
    heard = [i for i, y in enumerate(b.values) if y is not None]
    xs, ys = tuple(map(b.points.__getitem__, heard)), list(map(b.values.__getitem__, heard))
    m, needed = len(heard), degree_bound + 1 + 2 * max_errors
    if m < needed:
        raise InsufficientEvaluations(
            f"{m} present evaluations, {needed} required for degree {degree_bound} "
            f"with {max_errors} errors"
        )
    if m - ys.count(0) <= max_errors:  # the zero polynomial is within the radius
        return _recovered(b.field, [], frozenset(b.nodes[i] for i, y in zip(heard, ys) if y), m)
    p = b.field.modulus
    form = point_set(xs, p)
    r, t = euclid_until(form.master, form.interpolate(ys), degree_bound + 1 + max_errors, p)
    if len(t) - 1 > max_errors or len(r) - (len(t) - 1) > degree_bound + 1:
        return _failure("no error locator explains the broadcast values")
    poly, rem = poly_divmod(r, t, p)
    if rem:
        return _failure("error locator does not divide the numerator")
    bad = frozenset(b.nodes[i] for i, y, z in zip(heard, ys, poly_values(poly, xs, p)) if y != z)
    if len(bad) > max_errors:  # each disagreement is a root of t: cannot happen
        raise AssertionError(f"decoded polynomial disagrees with {len(bad)} entries")
    return _recovered(b.field, poly, bad, m)


def recover_outputs(poly: Polynomial, params: EncodingParams) -> list[FieldElement]:
    """Per-shard verification values: the decoded polynomial at every shard point."""
    if (poly.degree or 0) > params.composed_degree:
        raise ValueError(
            f"polynomial degree {poly.degree} exceeds the composed bound "
            f"{params.composed_degree}"
        )
    return [poly(omega) for omega in params.omegas]


def accept_bits(h: Sequence[FieldElement], accept_set: AcceptSet) -> list[int]:
    """Bit per shard: 1 iff the shard's verification value lies in the accept set."""
    return [1 if value in accept_set else 0 for value in h]


def known_behavior_decode(
    b: BroadcastSet,
    assignment: VersionAssignment,
    max_errors: int,
    params: EncodingParams,
) -> DecodeOutcome:
    """Decode assuming the version each node received is known.

    Entries are partitioned by full version tuple; each occupied cell large
    enough to interpolate is decoded on its own, in tuple order, at the composed
    degree bound D = `params.composed_degree`, with an error budget scaled to the
    cell. A cell's answer counts only when it fits at least D+1+max_errors of the
    cell's entries: a wrong polynomial can fit at most D plus the corruptions
    inside the cell, so every certified answer is the cell's true polynomial.
    Certified cells must still agree at every honest shard point; disagreement
    means max_errors understated the corruption and is a diagnosed failure, not
    an answer.
    """
    if max_errors < 0:
        raise ValueError("max_errors must be >= 0")
    degree_bound = params.composed_degree
    cells: dict[tuple, list[int]] = {}  # version tuple -> column indices of its nodes
    for i, node in enumerate(b.nodes):
        try:
            tup = assignment.node_tuples[node]
        except KeyError:
            raise ValueError(f"assignment does not cover node {node}") from None
        cells.setdefault(tup, []).append(i)

    attempted = 0
    certified: list[tuple[tuple, DecodeOutcome]] = []
    for tup, cell in sorted(cells.items()):
        present = sum(b.values[i] is not None for i in cell)
        budget = min(max_errors, (present - degree_bound - 1) // 2)
        if budget < 0:
            continue
        attempted += 1
        out = rs_decode(BroadcastSet.from_columns(
            b.field, *([column[i] for i in cell] for column in (b.nodes, b.points, b.values))),
            degree_bound, budget)
        if not out.recovered:
            continue
        fit = present - len(out.error_positions)
        if fit >= degree_bound + 1 + max_errors:
            certified.append((tup, out))
    if not attempted:
        raise InsufficientEvaluations(
            f"no version cell holds {degree_bound + 1} present evaluations"
        )
    if not certified:
        return _failure("no version cell produced a certified decode")

    honest_shards = [k for k in range(1, params.K + 1) if k not in assignment.producers]
    ref_tuple, ref = certified[0]
    for tup, out in certified[1:]:
        for k in honest_shards:
            omega = params.omegas[k - 1]
            if out.poly(omega) != ref.poly(omega):
                return _failure(
                    f"cells {ref_tuple} and {tup} disagree at honest shard {k}"
                )
    return ref
