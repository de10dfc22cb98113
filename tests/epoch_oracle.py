"""A literal epoch on `FieldElement`s: the oracle for `polyshard_sim.run_epoch`.

Every node's coded block comes from the Lagrange product formula, every node is
verified on its own with `fn.evaluate` on element histories, and the broadcasts are
decoded by Berlekamp-Welch (`rs_oracle.berlekamp_welch`). Coded polynomials are
interpolated by the product formula too. The proposals, forged versions, version
assignment and corrupted broadcasts come from the library's own functions, called in
`run_epoch`'s order, so one seed draws the same random values in both.

The oracle reports in the version-1 layout, one status per node and one list of accept
bits per honest node. `expand_report` turns a version-2 line into that layout, so a
library line compares with the oracle, and with the version-1 goldens, through it.
"""

from __future__ import annotations

import random

from shardlab.adversary import assign_versions, corrupt_results, forge_versions
from shardlab.decoder import (
    FAILURE, BroadcastEntry, BroadcastSet, DecodeOutcome, InsufficientEvaluations,
)
from shardlab.field_poly import Polynomial
from shardlab.polyshard_sim import ShardChain, propose_blocks

from rs_oracle import berlekamp_welch


class OracleSimulation:
    """The state `Simulation` keeps, as element lists: shard chains, one coded chain per
    node, node chain ids and the chain-id table. Points are those of
    `EncodingParams.default`: shard k at k, node n at K + n."""

    def __init__(self, K, N, d, field, fn, *, accept_set=None,
                 invalid_proposer_shards=frozenset(), failure_policy="stall"):
        self.K, self.N, self.d, self.field, self.fn = K, N, d, field, fn
        self.accept_set = {field.zero} if accept_set is None else accept_set
        self.invalid_proposer_shards = invalid_proposer_shards
        self.failure_policy = failure_policy
        self.omegas = [field(k) for k in range(1, K + 1)]
        self.alphas = [field(K + n) for n in range(1, N + 1)]
        self.epoch, self.adversarial_nodes = 0, frozenset()
        self.chains = [ShardChain(k, field(k)) for k in range(1, K + 1)]
        genesis = tuple(c.history[0] for c in self.chains)
        self.coded_chains = {n: [self.encode(genesis, n)] for n in range(1, N + 1)}
        self.node_chains = dict.fromkeys(range(1, N + 1), 0)
        self.chain_ids: dict = {}

    def lagrange(self, k: int, x):
        """L_k(x) = prod_{j != k} (x - omega_j) / (omega_k - omega_j)."""
        out = self.field.one
        for j, omega in enumerate(self.omegas, 1):
            if j != k:
                out = out * (x - omega) / (self.omegas[k - 1] - omega)
        return out

    def encode(self, view, n: int):
        """Node n's coded block: sum_k view[k-1] L_k(alpha_n)."""
        out = self.field.zero
        for k, x in enumerate(view, 1):
            out = out + x * self.lagrange(k, self.alphas[n - 1])
        return out

    def coded_poly(self, view) -> Polynomial:
        """sum_k view[k-1] L_k(z), one product of linear factors per shard."""
        out = Polynomial.zero(self.field)
        for k, x in enumerate(view, 1):
            term = Polynomial(self.field, [x])
            for j, omega in enumerate(self.omegas, 1):
                if j != k:
                    scale = (self.omegas[k - 1] - omega).inverse()
                    term = term * Polynomial(self.field, [-omega * scale, scale])
            out = out + term
        return out

    def history_polys(self) -> list[Polynomial]:
        return [self.coded_poly(blocks) for blocks in zip(*(c.history for c in self.chains))]

    def run_epoch(self, adversary=None, rng=0) -> dict:
        """One epoch; returns the version-1 line of the same epoch, which
        `expand_report(EpochReport.to_json_dict())` equals. A failed
        decode's diagnostics come from Berlekamp-Welch, which words some failures
        differently from the library's decoder."""
        if isinstance(rng, int):
            rng = random.Random(rng)
        K, N, fn, field = self.K, self.N, self.fn, self.field
        t = self.epoch + 1
        producers = adversary.adversarial_producers if adversary else ()
        adv_nodes = adversary.adversarial_nodes if adversary else frozenset()
        honest = [n for n in range(1, N + 1) if n not in adv_nodes]

        base = propose_blocks(self.chains, fn, rng, self.invalid_proposer_shards)
        versions = {k: forge_versions(self.chains[k - 1].history, adversary.v, rng, fn=fn,
                                      valid_first=adversary.valid_first) for k in producers}
        node_tuples = (assign_versions(honest, adversary, rng=rng).node_tuples
                       if producers else {})

        def view_of(tup):
            blocks = list(base)
            for k, version in zip(producers, tup):
                blocks[k - 1] = versions[k][version - 1]
            return tuple(blocks)

        first_view = view_of((1,) * len(producers))
        views = {n: view_of(node_tuples[n]) if n in node_tuples else first_view
                 for n in range(1, N + 1)}

        results = {n: fn.evaluate(self.encode(views[n], n), self.coded_chains[n])
                   for n in honest}
        n_silent = 0
        if adv_nodes:
            target = None
            if adversary.broadcast_strategy == "honest_looking":
                target = fn.evaluate(self.coded_poly(first_view), self.history_polys())
            corrupted = corrupt_results([(n, self.alphas[n - 1]) for n in sorted(adv_nodes)],
                                        adversary.broadcast_strategy, rng, poly=target)
            results.update(corrupted)
            n_silent = sum(1 for value in corrupted.values() if value is None)

        broadcast = BroadcastSet([BroadcastEntry(n, self.alphas[n - 1], results[n])
                                  for n in range(1, N + 1)])
        degree_bound = self.d * (K - 1)
        present = sum(value is not None for value in broadcast.values)
        try:
            outcome = berlekamp_welch(broadcast, degree_bound,
                                      max((present - degree_bound - 1) // 2, 0))
        except InsufficientEvaluations as exc:
            outcome = DecodeOutcome(status=FAILURE, diagnostics=str(exc))

        bits = recovered_values = canonical = None
        if outcome.recovered:
            h = [outcome.poly(omega) for omega in self.omegas]
            recovered_values = [x.value for x in h]
            bits = [1 if x in self.accept_set else 0 for x in h]
            canonical, mask = first_view, bits
            if producers:
                history = self.history_polys()
                # element tuples hash as their residue tuples, so this set iterates in
                # the order of run_epoch's set of residue views
                matches = [view for view in set(views.values())
                           if fn.evaluate(self.coded_poly(view), history) == outcome.poly]
                canonical = matches[0] if matches else first_view
        elif self.failure_policy == "append_own_view":
            canonical, mask = first_view, [1] * K
        self.epoch, self.adversarial_nodes = t, adv_nodes
        if canonical is not None:
            def masked(view):
                return tuple(b * x for b, x in zip(mask, view))

            for chain, block in zip(self.chains, masked(canonical)):
                chain.history.append(block)
            for n in range(1, N + 1):
                own = masked(canonical if n in adv_nodes else views[n])
                self.coded_chains[n].append(self.encode(own, n))
                key = (self.node_chains[n], tuple(x.value for x in own))
                self.node_chains[n] = self.chain_ids.setdefault(key, len(self.chain_ids) + 1)

        return {
            "epoch": t,
            "statuses": {str(n): "adversarial" if n in adv_nodes else outcome.status
                         for n in range(1, N + 1)},
            "accepted": {str(n): bits for n in honest},
            "chain_divergence": len({self.node_chains[n] for n in honest}),
            "messages": {"unicast": len(producers) * N,
                         "broadcast": (K - len(producers)) * N + (N - n_silent) * N},
            "stalled": canonical is None,
            "recovered_values": recovered_values,
            "diagnostics": outcome.diagnostics,
        }


def expand_report(line: dict) -> dict:
    """A version-2 epoch line as the version-1 line it replaces: `status` repeated as
    `statuses` over nodes 1..`nodes`, with "adversarial" for the listed ids, and the
    `accepted` bits repeated for every honest node. Other keys (the CLI's `seed`) pass
    through. Raises ValueError unless the ids are strictly increasing within 1..nodes."""
    nodes, ids = line["nodes"], line["adversarial"]
    if ids != sorted(set(ids)) or not all(1 <= n <= nodes for n in ids):
        raise ValueError(f"adversarial ids {ids} are not sorted ids in 1..{nodes}")
    expanded = {key: value for key, value in line.items()
                if key not in ("nodes", "status", "adversarial", "accepted")}
    adversarial = set(ids)
    expanded["statuses"] = {str(n): "adversarial" if n in adversarial else line["status"]
                            for n in range(1, nodes + 1)}
    expanded["accepted"] = {str(n): line["accepted"] for n in range(1, nodes + 1)
                            if n not in adversarial}
    return expanded


def v1_report(report) -> dict:
    """The version-1 line of an `EpochReport`, built from its `statuses` and `accepted`
    mappings, as `to_json_dict` wrote it before version 2."""
    line = report.to_json_dict()
    for key in ("nodes", "status", "adversarial"):
        del line[key]
    line["statuses"] = {str(n): s for n, s in report.statuses.items()}
    line["accepted"] = {str(n): bits for n, bits in report.accepted.items()}
    return line
