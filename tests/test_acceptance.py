"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either hand-checkable or produced by an
independent oracle inside the test.
"""

import itertools
import random
import time

from shardlab import (
    AdversaryConfig,
    BroadcastEntry,
    BroadcastSet,
    DEFAULT_MODULUS,
    EncodingParams,
    Polynomial,
    PrimeField,
    Simulation,
    VersionAssignment,
    build_coded_poly,
    build_system,
    c_row_count,
    comm_load,
    compose_verification,
    free_variable_count,
    free_variable_count_closed_form,
    known_behavior_decode,
    known_behavior_upper_bound,
    recovery_threshold,
    rs_decode,
    run_epoch,
    unique_decodability,
)
from shardlab.lcc import all_version_tuples
from shardlab.polyshard_sim import history_power_check, power_check
from shardlab.threshold_analysis import AnalysisParams

from dense_system import _c_row_blocks, dense_system

FIELD = PrimeField(DEFAULT_MODULUS)


def report(n, text):
    print(f"criterion {n} PASS: {text}")


class _Everything:
    def __contains__(self, item):
        return True


def test_criterion_1_lcc_roundtrip():
    """100 seeded honest epochs decode and match direct evaluation exactly."""
    started = time.monotonic()
    fn = history_power_check(2, FIELD(3))
    params = EncodingParams.default(5, 20, 2, FIELD)
    for seed in range(100):
        sim = Simulation(
            params, fn,
            accept_set=_Everything(),  # keep the random blocks on the chains
            invalid_proposer_shards=frozenset(range(1, 6)),  # random proposals
        )
        histories = [tuple(chain.history) for chain in sim.chains]
        epoch = run_epoch(sim, None, rng=seed)
        assert all(status == "recovered" for status in epoch.statuses.values())
        # direct, uncoded oracle: apply the check to each shard's own block
        direct = [
            fn.evaluate(chain.history[-1], history).value
            for chain, history in zip(sim.chains, histories)
        ]
        assert epoch.recovered_values == direct
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, f"100/100 honest epochs decoded to the direct values ({elapsed:.2f}s)")


def test_criterion_2_error_tolerance():
    """Garbage broadcasters: success up to floor((N-d(K-1)-1)/2), not beyond."""
    fn = history_power_check(2, FIELD(3))
    params = EncodingParams.default(5, 20, 2, FIELD)
    bound = (20 - 2 * 4 - 1) // 2
    assert bound == 5
    zeros = [0] * 5  # valid proposals verify to 0 on every shard
    for seed in range(100):
        rng = random.Random(seed)
        beta_low = rng.randrange(1, bound)
        for beta in (beta_low, bound):
            sim = Simulation(params, fn)
            adv = AdversaryConfig(
                adversarial_nodes=frozenset(range(21 - beta, 21)),
                broadcast_strategy="garbage",
            )
            epoch = run_epoch(sim, adv, rng=seed)
            assert epoch.statuses[1] == "recovered"
            assert epoch.recovered_values == zeros
        sim = Simulation(params, fn)
        adv = AdversaryConfig(
            adversarial_nodes=frozenset(range(21 - (bound + 1), 21)),
            broadcast_strategy="garbage",
        )
        epoch = run_epoch(sim, adv, rng=seed)
        # one past the bound: either an outright failure or a wrong polynomial
        # that the direct-evaluation oracle exposes
        assert epoch.statuses[1] == "failure" or epoch.recovered_values != zeros
    report(2, f"beta <= {bound} corrected, beta = {bound + 1} detected, 100/100 seeds")


def test_criterion_3_discrepancy_breaks_decoding():
    """One captured shard with v=2 defeats joint decoding for any usable split."""
    params = EncodingParams.default(5, 20, 2, FIELD)
    f = power_check(2)
    degree_bound = params.composed_degree
    max_errors = (20 - degree_bound - 1) // 2
    for seed in range(100):
        rng = random.Random(seed)
        base = [FIELD.random(rng) for _ in range(5)]
        second = FIELD.random(rng)
        while second == base[0]:
            second = FIELD.random(rng)
        views = (tuple(base), tuple([second] + base[1:]))
        polys = [
            compose_verification(build_coded_poly(view, params), [], f)
            for view in views
        ]
        cut = rng.randrange(max_errors + 1, 20 - max_errors)  # both cells > budget
        entries = [
            BroadcastEntry(
                n,
                params.alphas[n - 1],
                polys[0 if n <= cut else 1](params.alphas[n - 1]),
            )
            for n in range(1, 21)
        ]
        out = rs_decode(BroadcastSet(entries), degree_bound, max_errors)
        assert not out.recovered
    report(3, "mixed-version broadcasts failed to decode on 100/100 seeds")


def test_criterion_4_threshold_witness_exhaustive():
    """At one node below the threshold, every balanced partition is ambiguous."""
    started = time.monotonic()
    v, beta_prime, d, K, beta = 2, 1, 2, 3, 1
    n_star = recovery_threshold(v, beta_prime, d, K, beta)
    assert n_star == 10
    N = n_star - 1
    retained = N - 2 * beta
    omegas = tuple(FIELD(k) for k in range(1, K + 1))
    alphas = tuple(FIELD(K + n) for n in range(1, retained + 1))
    cap = d * (K - 1)
    checked = 0
    for size_one in range(retained - cap, cap + 1):  # both cells within the cap
        for cell_one in itertools.combinations(alphas, size_one):
            cell_two = tuple(a for a in alphas if a not in cell_one)
            params = AnalysisParams(
                d=d, beta=beta, v=v,
                omegas=omegas, partition=(cell_one, cell_two), producers=(1,),
            )
            sys_m = build_system(params)
            result = unique_decodability(sys_m)
            assert not result.unique_Z
            assert result.witness is not None
            assert all(x.value == 0 for x in dense_system(params).D.mul_vec(result.witness))
            assert any(x.value for x in result.zeta_block(sys_m.z_width))
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 70  # C(7,3) + C(7,4)
    assert elapsed < 1.0
    report(4, f"all {checked} balanced partitions at N=9 ambiguous with verified witnesses ({elapsed:.2f}s)")


def test_criterion_5_single_version_reduces_to_plain_bound():
    """v=1 threshold equals d(K-1)+1+2*beta across the whole grid."""
    checked = 0
    for d, K, beta in itertools.product(range(1, 5), range(2, 9), range(5)):
        for beta_prime in range(3):
            assert recovery_threshold(1, beta_prime, d, K, beta) == d * (K - 1) + 1 + 2 * beta
        checked += 1
    report(5, f"v=1 bound matches the plain coding threshold on {checked} grid points")


def test_criterion_6_known_behavior_at_upper_bound():
    """Knowing who got which version decodes at N = upper bound, any assignment."""
    v, beta_prime, d, K, beta = 2, 1, 2, 3, 1
    N = known_behavior_upper_bound(v, beta_prime, d, K, beta)
    assert N == 12
    params = EncodingParams.default(K, N, d, FIELD)
    f = power_check(d)
    for seed in range(100):
        rng = random.Random(seed)
        base = [FIELD.random(rng) for _ in range(K)]
        second = FIELD.random(rng)
        while second == base[0]:
            second = FIELD.random(rng)
        views = {1: tuple(base), 2: tuple([second] + base[1:])}
        polys = {
            i: compose_verification(build_coded_poly(view, params), [], f)
            for i, view in views.items()
        }
        node_tuples = {n: (rng.randrange(1, 3),) for n in range(1, N + 1)}
        corrupt = rng.randrange(1, N + 1)
        entries = []
        for n in range(1, N + 1):
            alpha = params.alphas[n - 1]
            y = polys[node_tuples[n][0]](alpha)
            if n == corrupt:
                y = y + FIELD.random_nonzero(rng)
            entries.append(BroadcastEntry(n, alpha, y))
        assignment = VersionAssignment(producers=(1,), v=v, node_tuples=node_tuples)
        out = known_behavior_decode(BroadcastSet(entries), assignment, beta, params)
        assert out.recovered
        for k in (2, 3):  # the honest producers
            assert out.poly(params.omegas[k - 1]) == f.evaluate(base[k - 1], ())
    report(6, "known-version decoding recovered honest outputs on 100/100 seeds at N=12")


def test_criterion_7_three_shard_expansion():
    """Four composed quartics have pairwise-distinct coefficients; the coded
    polynomial matches the hand expansion at 10 random points."""
    params = EncodingParams(
        omegas=(FIELD(1), FIELD(2), FIELD(3)), alphas=(FIELD(4),), d=2,
    )
    f = power_check(2)
    half = FIELD(2).inverse()
    for seed in range(100):
        rng = random.Random(seed)
        x1 = [FIELD.random(rng) for _ in range(2)]
        x2 = [FIELD.random(rng) for _ in range(2)]
        while x1[0] == x1[1]:
            x1[1] = FIELD.random(rng)
        while x2[0] == x2[1]:
            x2[1] = FIELD.random(rng)
        x3 = FIELD.random(rng)
        quartics = []
        for i, j in itertools.product(range(2), repeat=2):
            view = (x1[i], x2[j], x3)
            composed = compose_verification(build_coded_poly(view, params), [], f)
            assert composed.degree == 4
            quartics.append(composed)
        for degree in range(5):
            values = {q.coefficient(degree).value for q in quartics}
            assert len(values) == 4  # pairwise distinct at every degree
        # hand expansion of the coded polynomial over shard points 1, 2, 3:
        #   z^2 (x1/2 - x2 + x3/2) + z (-5 x1/2 + 4 x2 - 3 x3/2) + (3 x1 - 3 x2 + x3)
        a, b, c = x1[0], x2[0], x3
        displayed = Polynomial(
            FIELD,
            [
                3 * a - 3 * b + c,
                -(FIELD(5) * half) * a + 4 * b - (FIELD(3) * half) * c,
                a * half - b + c * half,
            ],
        )
        coded = build_coded_poly((a, b, c), params)
        for _ in range(10):
            z = FIELD.random(rng)
            assert coded(z) == displayed(z)
    report(7, "coefficient separation and the displayed expansion hold on 100/100 seeds")


def test_criterion_8_proof_arithmetic():
    """Free-variable closed forms agree; the pair-agreement block has
    beta_prime*(v^beta_prime - v) rows, exhaustively."""
    grid = list(
        itertools.product(range(1, 4), range(1, 4), range(1, 4), range(2, 7))
    )
    for v, beta_prime, d, K in grid:
        assert free_variable_count(v, beta_prime, d, K) == free_variable_count_closed_form(
            v, beta_prime, d, K
        )
        rows = _c_row_blocks(all_version_tuples(v, beta_prime))
        assert len(rows) == c_row_count(v, beta_prime)
    report(8, f"both identities hold on all {len(grid)} grid points")


def test_criterion_9_rebroadcast_load():
    """Full rebroadcast costs exactly N^2·K extra deliveries."""
    for N in (10, 20, 40):
        K = N // 5
        params = EncodingParams.default(K, N, 1, FIELD)
        delta = comm_load(params, "full_rebroadcast").total - comm_load(params).total
        assert delta == N * N * K
    report(9, "mitigation delta equals N^2*K at N = 10, 20, 40")
