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
from .lcc import VersionTuple, all_version_tuples


class InfeasiblePartition(ValueError):
    """A balanced split cannot respect the requested cell cap."""


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
        width = len(self.producers)
        for node, tup in self.node_tuples.items():
            if len(tup) != width:
                raise ValueError(f"node {node}: tuple width {len(tup)} != {width}")
            if any(not 1 <= x <= self.v for x in tup):
                raise ValueError(f"node {node}: version outside 1..{self.v}")

    def tuple_for(self, node: int) -> VersionTuple:
        return self.node_tuples[node]

    def cells(self) -> dict[VersionTuple, tuple[int, ...]]:
        """Nodes grouped by full version tuple, every tuple present (maybe empty)."""
        out: dict[VersionTuple, list[int]] = {
            t: [] for t in all_version_tuples(self.v, len(self.producers))
        }
        for node in sorted(self.node_tuples):
            out[self.node_tuples[node]].append(node)
        return {t: tuple(ns) for t, ns in out.items()}


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


def balanced_cells(items: Sequence, n_cells: int, cap: int | None = None) -> list[list]:
    """Round-robin split of the items over n_cells cells, sizes within one of
    each other; with a cap, feasible only when len(items) <= n_cells * cap."""
    if cap is not None and len(items) > n_cells * cap:
        raise InfeasiblePartition(
            f"{len(items)} points cannot be spread over {n_cells} cells of at most {cap}"
        )
    cells: list[list] = [[] for _ in range(n_cells)]
    for i, item in enumerate(items):
        cells[i % n_cells].append(item)
    return cells


def assign_versions(
    nodes: Sequence[int],
    config: AdversaryConfig,
    rng=None,
) -> VersionAssignment:
    """Assign a version tuple to every node per the configured strategy.

    balanced: `balanced_cells` over all v^(producers) tuples, in tuple order.
    random: i.i.d. uniform tuples (needs rng). targeted: the explicit map.
    """
    tuples = all_version_tuples(config.v, config.beta_prime)
    strategy = config.assignment_strategy
    if strategy == "balanced":
        cells = balanced_cells(nodes, len(tuples))
        mapping = {node: t for t, cell in zip(tuples, cells) for node in cell}
    elif strategy == "random":
        if rng is None:
            raise ValueError("random strategy needs an rng")
        mapping = {node: tuples[rng.randrange(len(tuples))] for node in nodes}
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
