"""The version-discrepancy attack: one captured shard, two block versions.

The captured shard unicasts different versions to different nodes. Every node
still computes a correct evaluation -- of its own version's polynomial. The
broadcast results then lie on several polynomials at once, joint decoding
fails, and no node can tell why. Knowing who received which version rescues
decoding, but costs the assignment knowledge the network does not have.
"""

import random

from shardlab import (
    AdversaryConfig,
    BroadcastEntry,
    BroadcastSet,
    DEFAULT_MODULUS,
    EncodingParams,
    PrimeField,
    Simulation,
    VersionAssignment,
    build_coded_poly,
    compose_verification,
    known_behavior_decode,
    known_behavior_upper_bound,
    run_epoch,
)
from shardlab.polyshard_sim import history_power_check, power_check

field = PrimeField(DEFAULT_MODULUS)
params = EncodingParams.default(5, 20, 2, field)
fn = history_power_check(2, field(3))

print("--- the attack breaks every honest node's decode ---")
adversary = AdversaryConfig(
    adversarial_nodes=frozenset({18, 19, 20}),
    adversarial_producers=(1,),
    v=2,
    assignment_strategy="balanced",
    broadcast_strategy="garbage",
)
sim = Simulation(params, fn)
epoch = run_epoch(sim, adversary, rng=5)
honest = [n for n in range(1, 21) if n not in adversary.adversarial_nodes]
print(f"honest statuses: {set(epoch.statuses[n] for n in honest)}")
print(f"epoch stalled: {epoch.stalled} ({epoch.diagnostics})")

print("\n--- if nodes append their own views anyway, their chains fork ---")
sim = Simulation(params, fn, failure_policy="append_own_view")
for t in range(3):
    epoch = run_epoch(sim, adversary, rng=10 + t)
    print(f"epoch {epoch.epoch}: distinct honest chains = {epoch.chain_divergence}")

print("\n--- knowing the version assignment rescues decoding ---")
N = known_behavior_upper_bound(2, 1, 2, 3, 1)
print(f"at N = {N} nodes (K=3, d=2, v=2, one corrupt broadcast):")
small = EncodingParams.default(3, N, 2, field)
f = power_check(2)
rng = random.Random(99)
base = [field.random(rng) for _ in range(3)]
views = {1: tuple(base), 2: (base[0] + 17, base[1], base[2])}
polys = {
    i: compose_verification(build_coded_poly(v, small), [], f)
    for i, v in views.items()
}
node_tuples = {n: (rng.randrange(1, 3),) for n in range(1, N + 1)}
entries = []
for n in range(1, N + 1):
    alpha = small.alphas[n - 1]
    y = polys[node_tuples[n][0]](alpha)
    if n == 4:  # one adversarial broadcast
        y = y + field(1)
    entries.append(BroadcastEntry(n, alpha, y))
assignment = VersionAssignment(producers=(1,), v=2, node_tuples=node_tuples)
out = known_behavior_decode(BroadcastSet(entries), assignment, 1, small)
honest_values = [out.poly(small.omegas[k - 1]) for k in (2, 3)]
direct = [f.evaluate(base[k - 1], ()) for k in (2, 3)]
print(f"decode status: {out.status}; honest outputs match direct evaluation: "
      f"{honest_values == direct}")
