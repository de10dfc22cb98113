"""Epoch-driven simulation of coded sharding over N node state machines.

Each epoch: blocks are proposed per shard, every node encodes its own view,
verifies the coded block against its stored coded chain, broadcasts the
result, and decodes everyone's results to learn which blocks every shard
accepted. Delivery is a synchronous round; the state is owned by the driver
and mutated in node-index order, so identical seeds give identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Callable, Sequence

from .adversary import AdversaryConfig, assign_versions, corrupt_results, forge_versions
from .decoder import (
    FAILURE,
    BroadcastSet,
    DecodeOutcome,
    InsufficientEvaluations,
    accept_bits,
    recover_outputs,
    rs_decode,
)
from .field_poly import FieldElement, Polynomial, ResidueVector
from .lcc import EncodingParams, build_coded_poly, compose_verification, encode_at_node

# The version of `EpochReport.to_json_dict`'s line. Version 1 repeated the outcome per
# node: a `statuses` map over all N nodes and an `accepted` map over the honest ones.
REPORT_SCHEMA = 2


@dataclass(frozen=True)
class VerificationFn:
    """A total-degree-d check of a proposed block against its shard history.

    `evaluate(x, history)` uses only `+ - * **`, so it runs on field values, on coded
    `Polynomial`s when composed, and once an epoch in `run_epoch` on `ResidueVector`s of all
    N nodes' coded blocks (x) and coded entries (history[t] for epoch t). History is read-only.
    `valid_block`, when present, constructs a block the check accepts.
    """

    degree: int
    evaluate: Callable[[FieldElement | ResidueVector | Polynomial, Sequence],
                       FieldElement | ResidueVector | Polynomial]
    valid_block: Callable[[Sequence[FieldElement]], FieldElement] | None = None


def power_check(d: int) -> VerificationFn:
    """History-free check f(x) = x^d; accepts exactly x = 0 when the accept set is {0}."""
    return VerificationFn(
        degree=d,
        evaluate=lambda x, history: x**d,
        valid_block=lambda history: history[0].field.zero,
    )


def history_power_check(d: int, a: FieldElement) -> VerificationFn:
    """f(x, history) = (x - a*last)^d: zero iff the block extends the chain by factor a.

    In a field the d-th power vanishes only at x = a*last, so validity is a
    single point and honest proposers can always construct a valid block.
    """
    return VerificationFn(
        degree=d,
        evaluate=lambda x, history: (x - a * history[-1]) ** d,
        valid_block=lambda history: a * history[-1],
    )


class ShardChain:
    """One shard's accepted blocks; history[0] is the public genesis constant."""

    __slots__ = ("shard", "history")

    def __init__(self, shard: int, genesis: FieldElement):
        self.shard = shard
        self.history: list[FieldElement] = [genesis]


@dataclass
class EpochReport:
    """Outcome of one epoch, held once: every honest node decodes the same broadcast set,
    so all share `status` and the accept bits `bits` (None unless the epoch decoded).
    `adversarial` holds the sorted adversarial ids of nodes 1..`nodes`. `statuses` and
    `accepted` map each node and each honest node to these, built on first read.

    recovered_values holds the decoded per-shard verification values (as plain
    residues) when the epoch decoded, for checking against direct evaluation.
    messages files honest proposals under broadcast, unlike CommLoad; the totals
    agree, less N per silent node.
    """

    epoch: int
    nodes: int
    status: str
    adversarial: tuple[int, ...]
    bits: list[int] | None
    chain_divergence: int
    messages: dict[str, int]
    stalled: bool
    recovered_values: list[int] | None = None
    diagnostics: str = ""

    @cached_property
    def statuses(self) -> dict[int, str]:
        statuses = dict.fromkeys(range(1, self.nodes + 1), self.status)
        statuses.update(dict.fromkeys(self.adversarial, "adversarial"))
        return statuses

    @cached_property
    def accepted(self) -> dict[int, list[int] | None]:
        adversarial = set(self.adversarial)
        return {n: self.bits for n in range(1, self.nodes + 1) if n not in adversarial}

    def to_json_dict(self) -> dict:
        """The version-`REPORT_SCHEMA` JSON line, of size O(beta + K)."""
        return {
            "epoch": self.epoch,
            "nodes": self.nodes,
            "status": self.status,
            "adversarial": list(self.adversarial),
            "accepted": self.bits,
            "chain_divergence": self.chain_divergence,
            "messages": dict(self.messages),
            "stalled": self.stalled,
            "recovered_values": self.recovered_values,
            "diagnostics": self.diagnostics,
        }


class Simulation:
    """Driver state: encoding constants, chains, coded columns, and epoch policies.

    `coded_columns[t]` holds every node's coded entry of epoch t and `node_chains[n - 1]`
    node n's chain id; node n's point is `params.alphas[n - 1]`. `epoch` counts completed
    epochs; `adversarial_nodes` is the last one's adversarial set (empty before the first),
    every other node honest.
    """

    def __init__(
        self,
        params: EncodingParams,
        fn: VerificationFn,
        *,
        accept_set=None,
        invalid_proposer_shards: frozenset[int] = frozenset(),
        failure_policy: str = "stall",
    ):
        if params.N < params.composed_degree + 1:
            raise ValueError(
                f"N={params.N} cannot determine a degree-{params.composed_degree} polynomial"
            )
        if failure_policy not in ("stall", "append_own_view"):
            raise ValueError(f"unknown failure policy {failure_policy!r}")
        if bad := sorted(k for k in invalid_proposer_shards if not 1 <= k <= params.K):
            raise ValueError(f"invalid proposer shard {bad[0]} out of range 1..{params.K}")
        field = params.field
        self.params = params
        self.fn = fn
        self.accept_set = {field.zero} if accept_set is None else accept_set
        self.invalid_proposer_shards = invalid_proposer_shards
        self.failure_policy = failure_policy
        self.epoch = 0
        self.adversarial_nodes: frozenset[int] = frozenset()
        # genesis block of shard k is the public constant k
        self.chains = [ShardChain(k, field(k)) for k in range(1, params.K + 1)]
        genesis = tuple(c.history[0].value for c in self.chains)
        self.coded_columns = [ResidueVector(
            [encode_at_node(genesis, params, n).value for n in range(1, params.N + 1)], field)]
        self.node_chains = [0] * params.N  # every node starts on the genesis chain
        self._history_polys: list[Polynomial] = []
        # (parent chain id, appended block residues) -> chain id; 0 is genesis.
        # Two nodes share an id iff their coded entries are evaluations of the
        # same accepted-block polynomials, which is what diverges under attack.
        self.chain_ids: dict[tuple[int, tuple[int, ...]], int] = {}

    @property
    def history_polys(self) -> list[Polynomial]:
        """Each epoch's coded accepted blocks, from the shard chains, extended on each read."""
        for blocks in zip(*(c.history[len(self._history_polys):] for c in self.chains)):
            self._history_polys.append(build_coded_poly(blocks, self.params))
        return self._history_polys

    def chain_divergence(self) -> int:
        adversarial = self.adversarial_nodes
        return len({c for n, c in enumerate(self.node_chains, 1) if n not in adversarial})


def propose_blocks(
    chains: Sequence[ShardChain],
    fn: VerificationFn,
    rng: random.Random,
    invalid_shards: frozenset[int] = frozenset(),
) -> list[FieldElement]:
    """One proposal per shard: valid proposers solve the check, invalid ones draw noise."""
    proposals = []
    for chain in chains:
        if chain.shard in invalid_shards:
            proposals.append(chain.history[0].field.random(rng))
        else:
            if fn.valid_block is None:
                raise ValueError("verification fn cannot construct valid blocks")
            proposals.append(fn.valid_block(chain.history))
    return proposals


def run_epoch(
    sim: Simulation,
    adversary: AdversaryConfig | None = None,
    rng: random.Random | int = 0,
) -> EpochReport:
    """Advance the simulation by one epoch and report what every node saw.

    Delivery, encoding, broadcast corruption, decoding and appends happen in
    node-index order; decode failure is recorded, never raised. Every node's
    verification is one `fn.evaluate` call on `ResidueVector`s. The simulation
    changes only after every step that can raise has run: `epoch` and
    `adversarial_nodes` are set together just before the appends, on the stall
    path too, so an epoch that raises (an adversary index outside 1..N or 1..K, a
    targeted map without some honest node, a `DegreeOverflow` from a wrongly
    declared check) leaves it as it was. Only `honest_looking` broadcasts and a decoded
    epoch with captured producers compose the check, so only they raise that; elsewhere
    the broadcasts exceed the degree bound and the decode reports failure.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    params, fn, field = sim.params, sim.fn, sim.params.field
    t = sim.epoch + 1
    producers = adversary.adversarial_producers if adversary else ()
    adv_nodes = adversary.adversarial_nodes if adversary else frozenset()
    for kind, indices, top in (("node", adv_nodes, params.N), ("producer", producers, params.K)):
        for index in sorted(indices):
            if not 1 <= index <= top:
                raise ValueError(f"adversarial {kind} {index} out of range 1..{top}")
    honest_ids = [n for n in range(1, params.N + 1) if n not in adv_nodes]

    # 1. proposals: honest shards broadcast one block; captured shards unicast versions
    base = [x.value for x in propose_blocks(sim.chains, fn, rng, sim.invalid_proposer_shards)]
    versions = {k: [x.value for x in forge_versions(sim.chains[k - 1].history, adversary.v, rng,
                                                   fn=fn, valid_first=adversary.valid_first)]
                for k in producers}
    node_tuples = (assign_versions(honest_ids, adversary, rng=rng).node_tuples
                   if producers else {})

    # the epoch's views: one residue tuple per version tuple some node holds, in node
    # order, and each node's index into them; version 1 of every captured shard is the
    # view of nodes outside the assignment
    ones = (1,) * len(producers)
    held: dict[tuple[int, ...], int] = {}
    index = [held.setdefault(node_tuples.get(n, ones), len(held)) for n in range(1, params.N + 1)]
    views = []
    for tup in held:
        view = base.copy()
        for k, version in zip(producers, tup):
            view[k - 1] = versions[k][version - 1]
        views.append(tuple(view))
    first = held[ones]
    for k in producers:
        delivered = {view[k - 1] for view in views}
        if len(delivered) > adversary.v:
            raise AssertionError("injection cap violated")

    # 2. every node encodes its own view; one vector call checks them all
    coded = params.encode_each(views, index)
    results = list(fn.evaluate(ResidueVector(coded, field), sim.coded_columns).values)

    # 3. adversarial nodes overwrite their results per strategy
    if adv_nodes:
        target_poly = None
        if adversary.broadcast_strategy == "honest_looking":
            target_poly = compose_verification(
                build_coded_poly(views[first], params), sim.history_polys, fn
            )
        corrupted = corrupt_results(
            [(n, params.alphas[n - 1]) for n in sorted(adv_nodes)],
            adversary.broadcast_strategy,
            rng,
            poly=target_poly,
        )
        for n, value in corrupted.items():
            results[n - 1] = value if value is None else value.value
    broadcast = BroadcastSet.from_columns(field, range(1, params.N + 1),
                                          [alpha.value for alpha in params.alphas], results)

    # 4. every honest node decodes the same broadcast set
    degree_bound = params.composed_degree
    n_silent = broadcast.values.count(None)
    max_errors = (params.N - n_silent - degree_bound - 1) // 2
    try:
        outcome = rs_decode(broadcast, degree_bound, max(max_errors, 0))
    except InsufficientEvaluations as exc:
        outcome = DecodeOutcome(status=FAILURE, diagnostics=str(exc))
    diagnostics = outcome.diagnostics

    # 5. appends: every step that can raise has run, so the simulation changes from here
    bits: list[int] | None = None
    recovered_values: list[int] | None = None
    canonical = None  # the index of the accepted view
    if outcome.recovered:
        h = recover_outputs(outcome.poly, params)
        recovered_values = [value.value for value in h]
        bits = accept_bits(h, sim.accept_set)
        canonical, mask = _canonical_blocks(sim, outcome.poly, first, views, producers), bits
    elif sim.failure_policy == "append_own_view":
        canonical, mask = first, [1] * params.K
    sim.epoch, sim.adversarial_nodes = t, adv_nodes
    stalled = canonical is None
    if not stalled:
        _append_epoch(sim, canonical, mask, views, index, coded)

    messages = {
        "unicast": len(producers) * params.N,
        "broadcast": (params.K - len(producers)) * params.N
        + (params.N - n_silent) * params.N,
    }
    return EpochReport(
        epoch=t,
        nodes=params.N,
        status=outcome.status,
        adversarial=tuple(sorted(adv_nodes)),
        bits=bits,
        chain_divergence=sim.chain_divergence(),
        messages=messages,
        stalled=stalled,
        recovered_values=recovered_values,
        diagnostics=diagnostics,
    )


def _canonical_blocks(sim, decoded_poly, first, views, producers):
    """The index into `views` of the blocks the network as a whole accepted, identified
    from the decoded polynomial.

    Under an attack that still decodes (a dominant version absorbing the rest
    as errors), the decoded polynomial singles out one realized version tuple.
    `views[first]` (version 1 of every captured shard) is the answer without
    producers, and the bookkeeping fallback when no realized view matches.
    """
    if not producers:
        return first
    params, fn = sim.params, sim.fn
    for view in set(views):
        composed = compose_verification(
            build_coded_poly(view, params), sim.history_polys, fn
        )
        if composed == decoded_poly:
            return views.index(view)
    return first


def _append_epoch(sim, canonical, bits, views, index, coded):
    """Append e_k * X_k per shard and the column of matching coded entries.

    `views` are the epoch's distinct views, residue tuples, `index[n - 1]` the index of
    node n's view and `canonical` that of the accepted view. Each view is masked once into
    what a node holding it encodes; only the K accepted blocks are boxed, and the coded
    entries are appended as one column of residues. `coded` is step 2's encoding of the
    views, appended as it is when every node's masked own view is its view.
    Honest nodes encode *their own* received view, so a node whose view lost
    the decode silently diverges; the epoch's adversarial nodes track the canonical chain.
    A node's chain id is looked up once per distinct (parent id, own view index) pair,
    in node order, so new ids are issued in node order.
    """
    field, chains, adversarial = sim.params.field, sim.node_chains, sim.adversarial_nodes
    masked = [tuple(map(mul, bits, view)) for view in views]
    owns = [canonical if n in adversarial else i for n, i in enumerate(index, 1)]
    for chain, block in zip(sim.chains, masked[canonical]):
        chain.history.append(FieldElement(block, field))
    if any(masked[own] != views[i] for own, i in set(zip(owns, index))):
        coded = sim.params.encode_each(masked, owns)
    sim.coded_columns.append(ResidueVector(coded, field))
    ids: dict[tuple[int, int], int] = {}
    for parent, own in zip(chains, owns):
        if (parent, own) not in ids:
            ids[parent, own] = sim.chain_ids.setdefault((parent, masked[own]),
                                                        len(sim.chain_ids) + 1)
    chains[:] = map(ids.__getitem__, zip(chains, owns))


@dataclass(frozen=True)
class CommLoad:
    """Delivery counts: unicast = proposal deliveries, broadcast = result deliveries
    (EpochReport.messages instead counts honest proposals as broadcast)."""

    unicast: int
    broadcast: int

    @property
    def total(self) -> int:
        return self.unicast + self.broadcast


def comm_load(params: EncodingParams, mitigation: str = "none") -> CommLoad:
    """Analytic per-epoch delivery counts, exact integers.

    Baseline: K*N proposal deliveries plus N result broadcasts reaching N
    recipients each. full_rebroadcast additionally has every node broadcast
    its K received blocks: N*K*N more deliveries.
    """
    if mitigation not in ("none", "full_rebroadcast"):
        raise ValueError(f"unknown mitigation {mitigation!r}")
    unicast = params.K * params.N
    broadcast = params.N * params.N
    if mitigation == "full_rebroadcast":
        broadcast += params.N * params.K * params.N
    return CommLoad(unicast=unicast, broadcast=broadcast)
