"""Lagrange coded computing with distributed encoding.

K shard payloads become evaluations of their degree-(K-1) interpolant; every
node stores and verifies one evaluation point of the global polynomials. Block
payloads are single field elements; coding a vector payload would act
componentwise and adds nothing to the phenomena studied here.

The encoding is a fixed linear map, the N x K Lagrange matrix, in closed form when
every point lies on one progression. `encode_at_node` applies one row of it to one
view; `EncodingParams.encode_each` takes an epoch's distinct views and one view index
per node, in node order, and applies the matrix to the shards on which the views agree
as a single big-integer sum of their columns, each packed into one int
(`field_poly.PackedMap`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Sequence

from .field_poly import (
    FieldElement,
    PackedMap,
    Polynomial,
    PrimeField,
    factorial_table,
    batch_inverse,
    point_set,
    poly_values,
    progression_step,
)

# One block version index per adversarial producer, ordered by producer index.
VersionTuple = tuple[int, ...]

# Per-shard payloads (index k-1 = shard k) as seen by one node; adversarial
# shards may show different nodes different payloads. Inside an epoch a view
# is a tuple of int residues in [0, p); the encoders also take same-field elements.
ReceivedProposals = tuple[int | FieldElement, ...]


class DegreeOverflow(ValueError):
    """A composed verification polynomial exceeded its declared degree bound."""


def all_version_tuples(v: int, producers: int) -> list[VersionTuple]:
    """All version tuples in [1..v]^producers, lexicographic order."""
    return list(itertools.product(range(1, v + 1), repeat=producers))


@dataclass(frozen=True)
class EncodingParams:
    """Public encoding constants: shard points, node points, verification degree.

    The shard count K and node count N are read off the point tuples, one point per
    shard and one per node.
    """

    omegas: tuple[FieldElement, ...]
    alphas: tuple[FieldElement, ...]
    d: int

    def __post_init__(self):
        if self.K < 1 or self.N < 1 or self.d < 1:
            raise ValueError("K, N and d must all be >= 1")
        field = getattr(self.omegas[0], "field", None)
        for kind, points in (("shard", self.omegas), ("node", self.alphas)):
            for i, x in enumerate(points, 1):
                if not isinstance(x, FieldElement):
                    raise ValueError(f"{kind} point {i} ({x!r}) must be a field element")
                if x.field != field:
                    raise ValueError(f"{kind} point {i} ({x!r}): every shard and node point "
                                     f"must lie in omegas[0]'s {field}")
        points = [x.value for x in self.omegas + self.alphas]
        if len(set(points)) != len(points):
            raise ValueError("shard and node evaluation points must be pairwise distinct")

    @property
    def K(self) -> int:
        return len(self.omegas)

    @property
    def N(self) -> int:
        return len(self.alphas)

    @property
    def field(self) -> PrimeField:
        return self.omegas[0].field

    @cached_property
    def lagrange_matrix(self) -> tuple[tuple[int, ...], ...]:
        """N x K residues: row n-1 holds every L_k(alpha_n) = g(alpha_n) w_k/(alpha_n - omega_k).

        When the shard points and then the node points lie on one progression a + h i mod p,
        as in the default layout, L_k(alpha_n) = (K+n-1)!/(n-1)! (-1)^(K-k)/((k-1)! (K-k)!)
        / (K+n-k), from a cached factorial table (h cancels). Any other layout reads the
        shard points' `point_set`."""
        p, xs = self.field.modulus, tuple(w.value for w in self.omegas)
        alphas = [a.value for a in self.alphas]
        if progression_step(xs + tuple(alphas), p) is not None:
            K, N = self.K, self.N
            fact, inv_fact = factorial_table(K + N, p)
            recip = [f * i % p for f, i in zip(fact, inv_fact[1:])][::-1]  # 1/m at K+N-1-m
            by_shard = [(-1) ** (K - k) * inv_fact[k - 1] * inv_fact[K - k] % p
                        for k in range(1, K + 1)]
            by_node = [fact[K + n - 1] * inv_fact[n - 1] % p for n in range(1, N + 1)]
            return tuple(tuple(a * b * r % p for b, r in zip(by_shard, recip[N - n:N - n + K]))
                         for n, a in enumerate(by_node, 1))
        shards = point_set(xs, p)
        scaled = zip(poly_values(shards.master, alphas, p),
                     (batch_inverse([(a - x) % p for x in xs], p) for a in alphas))
        return tuple(tuple(s * w * inv % p for w, inv in zip(shards.weights, invs))
                     for s, invs in scaled)

    @cached_property
    def _transposed(self) -> tuple[tuple[int, ...], ...]:
        """K x N: column k-1 of the Lagrange matrix, L_k(alpha_n) for every node n."""
        return tuple(zip(*self.lagrange_matrix))

    @cached_property
    def _columns(self) -> PackedMap:
        """The Lagrange matrix as a map from a view to every node's coded residue, each
        column packed as one int with a slot per node."""
        return PackedMap(self._transposed, self.field.modulus)

    def encode_each(self, views: Sequence[ReceivedProposals], index: Sequence[int]) -> list[int]:
        """Entry n - 1 is node n's coded residue of views[index[n - 1]], a view of ints
        (reduced mod p) or same-field elements; a view may repeat or be held by no node.
        An index count other than N, an index outside range(len(views)), a view without
        one payload per shard and an element of another field raise ValueError.

        The encoding is linear in the view, so it splits by shard. Each view is reduced to
        residues once. The shards on which all the held views agree are encoded at every
        node by one sum of the packed Lagrange columns, unpacked once; then each shard
        where they differ adds its Lagrange column, times each node's payload, across the
        nodes in one pass.
        """
        if len(index) != self.N:
            raise ValueError(f"{len(index)} view indices given, one per node needs {self.N}")
        if min(index) < 0 or max(index) >= len(views):
            raise ValueError(f"a view index lies outside range({len(views)})")
        reduced = [tuple(map(self.field.residue, view)) for view in views]
        if any(len(view) != self.K for view in reduced):
            raise ValueError("a view must contain exactly one payload per shard")
        held = [reduced[i] for i in set(index)]
        varying = [k for k, values in enumerate(zip(*held)) if len(set(values)) > 1]
        coded = self._columns.apply([0 if k in varying else x for k, x in enumerate(held[0])])
        if not varying:
            return coded
        for k in varying:
            payload = [view[k] for view in reduced]
            coded = [c + a * payload[i] for c, a, i in zip(coded, self._transposed[k], index)]
        p = self.field.modulus
        return [c % p for c in coded]

    @property
    def composed_degree(self) -> int:
        """Degree bound d(K-1) of a verification polynomial composed with coded blocks."""
        return self.d * (self.K - 1)

    @classmethod
    def default(cls, K: int, N: int, d: int, field: PrimeField) -> "EncodingParams":
        """Canonical layout: shard k at k, node n at K+n (distinct by construction)."""
        return cls(
            omegas=tuple(field(k) for k in range(1, K + 1)),
            alphas=tuple(field(K + n) for n in range(1, N + 1)),
            d=d,
        )


def encode_at_node(received: ReceivedProposals, params: EncodingParams, n: int) -> FieldElement:
    """Coded block at node n: one dot product of row n of the Lagrange matrix with a view
    of residues or same-field elements (an element of another field raises ValueError).
    `EncodingParams.encode_each` gives every node's block at once; this is its one-node oracle."""
    if not 1 <= n <= params.N:
        raise ValueError(f"node index {n} out of range 1..{params.N}")
    if len(received) != params.K:
        raise ValueError("a view must contain exactly one payload per shard")
    return params.field(sum(map(mul, params.lagrange_matrix[n - 1], received)))


def build_coded_poly(view: ReceivedProposals, params: EncodingParams) -> Polynomial:
    """The degree-(K-1) polynomial taking value view[k-1] at omega_k for every shard."""
    if len(view) != params.K:
        raise ValueError("a view must contain exactly one payload per shard")
    shards = point_set(tuple(w.value for w in params.omegas), params.field.modulus)
    return Polynomial(params.field, shards.interpolate([params.field.residue(x) for x in view]))


def compose_verification(q: Polynomial, coded_history: Sequence[Polynomial], f) -> Polynomial:
    """Compose the verification function with coded polynomials: run f on them.

    `f` must expose `degree` and an `evaluate(x, history)` that runs on
    polynomials. The result is checked against the total-degree bound implied
    by the inputs; exceeding it signals a wrongly declared degree.
    """
    composed = f.evaluate(q, coded_history)
    input_degree = max(
        [q.degree or 0] + [h.degree or 0 for h in coded_history] or [0]
    )
    bound = f.degree * input_degree
    actual = composed.degree or 0
    if actual > bound:
        raise DegreeOverflow(
            f"composition has degree {actual}, exceeding the bound {bound} "
            f"for a degree-{f.degree} verification function"
        )
    return composed
