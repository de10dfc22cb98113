"""Adversarial behavior: forging block versions, assigning them to nodes,
and corrupting result broadcasts.

A captured shard can inject up to v distinct block versions per epoch and
deliver them over per-node links, so no honest node can tell that its view
differs from anyone else's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .field_poly import FieldElement, Polynomial
from .lcc import VersionTuple


@dataclass(frozen=True)
class AdversaryConfig:
    """Which nodes and producers the adversary controls, and how it behaves."""

    adversarial_nodes: frozenset[int]
    adversarial_producers: tuple[int, ...] = ()
    v: int = 1
    assignment_strategy: str = "balanced"  # balanced | random | targeted
    broadcast_strategy: str = "garbage"  # silent | garbage | honest_looking
    targeted_map: Mapping[int, VersionTuple] | None = None
    valid_first: bool = False  # forge version 1 as a valid block

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("v must be >= 1")
        if len(self.adversarial_producers) > len(self.adversarial_nodes):
            raise ValueError("cannot capture more producers than adversarial nodes")
        if len(set(self.adversarial_producers)) != len(self.adversarial_producers):
            raise ValueError("duplicate adversarial producer")
        if self.assignment_strategy not in ("balanced", "random", "targeted"):
            raise ValueError(f"unknown assignment strategy {self.assignment_strategy!r}")
        if self.broadcast_strategy not in ("silent", "garbage", "honest_looking"):
            raise ValueError(f"unknown broadcast strategy {self.broadcast_strategy!r}")
        if self.assignment_strategy == "targeted" and self.targeted_map is None:
            raise ValueError("targeted strategy requires an explicit map")

    @property
    def beta(self) -> int:
        return len(self.adversarial_nodes)

    @property
    def beta_prime(self) -> int:
        return len(self.adversarial_producers)


@dataclass(frozen=True)
class VersionAssignment:
    """Which version each node received from each adversarial producer."""

    producers: tuple[int, ...]
    v: int
    node_tuples: Mapping[int, VersionTuple]

    def __post_init__(self):
        # each distinct tuple is checked once; an error names the first node holding a bad one
        width = len(self.producers)
        bad = {tup for tup in set(self.node_tuples.values())
               if len(tup) != width or any(not 1 <= x <= self.v for x in tup)}
        if bad:
            node, tup = next((node, tup) for node, tup in self.node_tuples.items() if tup in bad)
            if len(tup) != width:
                raise ValueError(f"node {node}: tuple width {len(tup)} != {width}")
            raise ValueError(f"node {node}: version outside 1..{self.v}")


def forge_versions(
    history: Sequence[FieldElement],
    v: int,
    rng,
    *,
    fn=None,
    valid_first: bool = False,
) -> list[FieldElement]:
    """Produce v pairwise-distinct block versions for a shard with the given history.

    With valid_first, version 1 passes verification against the history (needs
    `fn` with a valid_block constructor); every other version is random and is
    free to contradict the history.
    """
    if v < 1:
        raise ValueError("v must be >= 1")
    if not history:
        raise ValueError("shard history must include at least the genesis block")
    field = history[0].field
    if v > field.modulus:
        raise ValueError(f"cannot forge {v} distinct versions in GF({field.modulus})")
    blocks: list[FieldElement] = []
    if valid_first:
        if fn is None or fn.valid_block is None:
            raise ValueError("valid_first forging needs a verification fn that can build valid blocks")
        blocks.append(fn.valid_block(history))
    seen = {b.value for b in blocks}
    while len(blocks) < v:
        candidate = field.random(rng)
        if candidate.value in seen:
            continue
        seen.add(candidate.value)
        blocks.append(candidate)
    return blocks


def _tuple_at(index: int, v: int, width: int) -> VersionTuple:
    """The index-th tuple of [1..v]^width in lexicographic (`itertools.product`)
    order: index written as width base-v digits, most significant first."""
    return tuple(index // v**j % v + 1 for j in reversed(range(width)))


def assign_versions(
    nodes: Sequence[int],
    config: AdversaryConfig,
    rng=None,
) -> VersionAssignment:
    """Assign a version tuple to every node per the configured strategy.

    balanced: nodes[i] gets tuple i mod v^(producers), with the tuples in
    lexicographic order; `proof_params` spreads its node points by the same
    round robin. random: i.i.d. uniform tuples (needs rng). targeted: the
    explicit map. No strategy lists the tuple space.
    """
    strategy = config.assignment_strategy
    v, width = config.v, config.beta_prime
    n_tuples = v**width
    if strategy == "balanced":
        tuples = [_tuple_at(i, v, width) for i in range(min(len(nodes), n_tuples))]
        mapping = {node: tuples[i % len(tuples)] for i, node in enumerate(nodes)}
    elif strategy == "random":
        if rng is None:
            raise ValueError("random strategy needs an rng")
        mapping = {node: _tuple_at(rng.randrange(n_tuples), v, width) for node in nodes}
    else:
        if missing := [node for node in nodes if node not in config.targeted_map]:
            raise ValueError(f"node {missing[0]}: no version tuple in the targeted map")
        mapping = {node: tuple(config.targeted_map[node]) for node in nodes}
    return VersionAssignment(
        producers=config.adversarial_producers, v=config.v, node_tuples=mapping
    )


def corrupt_results(
    entries: Sequence[tuple[int, FieldElement]],
    strategy: str,
    rng,
    *,
    poly: Polynomial | None = None,
) -> dict[int, FieldElement | None]:
    """Broadcast values for adversarial nodes (node, alpha) under a strategy.

    silent drops the value entirely, garbage is uniform noise in alpha's field,
    honest_looking evaluates the supplied composed polynomial so the entries fit
    one version tuple exactly.
    """
    out: dict[int, FieldElement | None] = {}
    for node, alpha in entries:
        if strategy == "silent":
            out[node] = None
        elif strategy == "garbage":
            out[node] = alpha.field.random(rng)
        elif strategy == "honest_looking":
            if poly is None:
                raise ValueError("honest_looking corruption needs the composed polynomial")
            out[node] = poly(alpha)
        else:
            raise ValueError(f"unknown broadcast strategy {strategy!r}")
    return out
