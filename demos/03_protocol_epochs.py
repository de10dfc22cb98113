"""Epoch-by-epoch protocol runs: honest operation and garbage broadcasts.

With N=20 nodes, K=5 shards and a degree-2 check, the composed polynomial has
degree 8, so decoding tolerates floor((20-8-1)/2) = 5 corrupted broadcasts.
"""

from shardlab import (
    AdversaryConfig,
    DEFAULT_MODULUS,
    EncodingParams,
    PrimeField,
    Simulation,
    comm_load,
    run_epoch,
)
from shardlab.polyshard_sim import history_power_check

field = PrimeField(DEFAULT_MODULUS)
params = EncodingParams.default(5, 20, 2, field)
fn = history_power_check(2, field(3))

print("--- three honest epochs ---")
sim = Simulation(params, fn)
for t in range(3):
    epoch = run_epoch(sim, None, rng=t)
    print(f"epoch {epoch.epoch}: status={epoch.statuses[1]}, accept bits={epoch.accepted[1]}, "
          f"divergence={epoch.chain_divergence}")
print(f"shard 1 chain after 3 epochs: {[b.value for b in sim.chains[0].history]}")

print("\n--- five garbage broadcasters (at the tolerance) ---")
sim = Simulation(params, fn)
adversary = AdversaryConfig(
    adversarial_nodes=frozenset(range(16, 21)), broadcast_strategy="garbage"
)
epoch = run_epoch(sim, adversary, rng=42)
honest = [n for n in range(1, 21) if n not in adversary.adversarial_nodes]
print(f"all honest nodes recovered: {all(epoch.statuses[n] == 'recovered' for n in honest)}")
print(f"accept bits: {epoch.accepted[1]}, divergence: {epoch.chain_divergence}")

print("\n--- six garbage broadcasters (one past the tolerance) ---")
sim = Simulation(params, fn)
adversary = AdversaryConfig(
    adversarial_nodes=frozenset(range(15, 21)), broadcast_strategy="garbage"
)
epoch = run_epoch(sim, adversary, rng=42)
print(f"node 1 status: {epoch.statuses[1]} ({epoch.diagnostics})")

print("\n--- per-epoch delivery counts ---")
for n in (10, 20, 40):
    p = EncodingParams.default(n // 5, n, 2, field)
    base, full = comm_load(p), comm_load(p, "full_rebroadcast")
    print(f"N={n:3d}, K={n // 5:2d}: baseline {base.total:7d} deliveries, "
          f"rebroadcast-everything mitigation {full.total:8d} (+{full.total - base.total})")
