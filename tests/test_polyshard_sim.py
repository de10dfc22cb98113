import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shardlab import (
    DEFAULT_MODULUS,
    AdversaryConfig,
    DegreeOverflow,
    EncodingParams,
    FieldElement,
    Polynomial,
    PrimeField,
    Simulation,
    all_version_tuples,
    build_coded_poly,
    comm_load,
    compose_verification,
    encode_at_node,
    lagrange_interpolate,
    propose_blocks,
    run_epoch,
)
from shardlab import field_poly, polyshard_sim
from shardlab.field_poly import ResidueVector, point_set
from shardlab.polyshard_sim import VerificationFn, history_power_check, power_check
from epoch_oracle import OracleSimulation, expand_report, v1_report


def make_sim(field, K=5, N=20, d=2, **kw):
    params = EncodingParams.default(K, N, d, field)
    return Simulation(params, history_power_check(d, field(3)), **kw)


def garbage_adversary(nodes):
    return AdversaryConfig(adversarial_nodes=frozenset(nodes), broadcast_strategy="garbage")


def discrepancy_adversary(nodes, producers=(1,), v=2):
    return AdversaryConfig(
        adversarial_nodes=frozenset(nodes),
        adversarial_producers=tuple(producers),
        v=v,
        assignment_strategy="balanced",
        broadcast_strategy="garbage",
    )


class TestVerificationFns:
    def test_history_check_degree(self, field, rng):
        # composing with generic degree-(K-1) inputs hits the d(K-1) bound exactly
        fn = history_power_check(2, field(3))
        q = Polynomial(field, [field.random(rng) for _ in range(5)])
        p_last = Polynomial(field, [field.random(rng) for _ in range(5)])
        composed = fn.evaluate(q, (p_last,))
        assert composed.degree == 8

    def test_history_check_accepts_only_the_chain_extension(self, field, rng):
        fn = history_power_check(3, field(3))
        history = (field(1), field.random(rng))
        good = fn.valid_block(history)
        assert fn.evaluate(good, history) == field.zero
        assert fn.evaluate(good + 1, history) != field.zero

    def test_power_check(self, field):
        fn = power_check(2)
        assert fn.evaluate(field(5), ()) == field(25)


class TestVectorVerification:
    @pytest.mark.parametrize("make_check", [
        pytest.param(lambda field: power_check(3), id="power_check"),
        pytest.param(lambda field: history_power_check(2, field(3)), id="history_power_check"),
        pytest.param(lambda field: VerificationFn(
            degree=2, evaluate=lambda x, history: (7 - x) * history[-1] + history[0] ** 2 + 11),
            id="custom-constant-and-int-minus-x"),
    ])
    def test_one_vector_call_equals_the_per_node_calls(self, field, rng, make_check):
        fn, N = make_check(field), 9
        x = [rng.randrange(field.modulus) for _ in range(N)]
        columns = [ResidueVector([rng.randrange(field.modulus) for _ in range(N)], field)
                   for _ in range(4)]
        vector = fn.evaluate(ResidueVector(x, field), columns)
        for n in range(N):
            history = [field(column[n]) for column in columns]
            assert vector[n] == fn.evaluate(field(x[n]), history).value

    def test_one_evaluate_call_per_epoch(self, field):
        inner = history_power_check(2, field(3))
        calls = []

        def evaluate(x, history):
            calls.append(len(x))
            return inner.evaluate(x, history)

        sim = Simulation(EncodingParams.default(5, 20, 2, field),
                         VerificationFn(2, evaluate, inner.valid_block))
        for t, adversary in enumerate([None, garbage_adversary({19, 20}), None]):
            report = run_epoch(sim, adversary, rng=t)
            assert not report.stalled and calls == [20] * (t + 1)


class TestProposeBlocks:
    def test_valid_proposal_is_unique_root(self, field, rng):
        sim = make_sim(field, K=3, N=8)
        fn = sim.fn
        proposals = propose_blocks(sim.chains, fn, rng)
        for chain, block in zip(sim.chains, proposals):
            assert block == field(3) * chain.history[-1]

    def test_first_epoch_uses_genesis(self, field, rng):
        sim = make_sim(field, K=3, N=8)
        proposals = propose_blocks(sim.chains, sim.fn, rng)
        assert proposals == [field(3) * field(k) for k in (1, 2, 3)]

    def test_invalid_proposals_never_accepted(self, field):
        # Monte Carlo: acceptance chance of a random block is |W|/p, i.e. ~1e-9
        sim = make_sim(field, K=1, N=4, d=2)
        fn = sim.fn
        rng = random.Random(2024)
        accepted = 0
        history = sim.chains[0].history
        for _ in range(10_000):
            block = propose_blocks(sim.chains, fn, rng, invalid_shards=frozenset({1}))[0]
            if fn.evaluate(block, history) in sim.accept_set:
                accepted += 1
        assert accepted == 0

    @pytest.mark.parametrize("shards, bad", [({7}, 7), ({0}, 0), ({-1, 2}, -1), ({3, 6, 9}, 6)])
    def test_invalid_proposer_shard_outside_1_to_K_rejected(self, field, shards, bad):
        # no chain proposes for shard 7 of K=5, so ignoring it would pass an honest epoch
        with pytest.raises(ValueError, match=f"^invalid proposer shard {bad} out of range 1..5$"):
            make_sim(field, K=5, N=20, invalid_proposer_shards=frozenset(shards))
        assert make_sim(field, K=5, N=20,
                        invalid_proposer_shards=frozenset({1, 5})).invalid_proposer_shards


class TestRunEpoch:
    def test_garbage_within_tolerance(self, field):
        # beta=3 <= floor((20-8-1)/2)=5 garbage broadcasters are corrected
        sim = make_sim(field)
        report = run_epoch(sim, garbage_adversary({18, 19, 20}), rng=11)
        honest = [n for n in range(1, 21) if n not in (18, 19, 20)]
        assert all(report.statuses[n] == "recovered" for n in honest)
        bits = {tuple(report.accepted[n]) for n in honest}
        assert bits == {(1, 1, 1, 1, 1)}
        assert report.chain_divergence == 1
        # oracle: verify each shard directly, no coding involved
        for k, chain in enumerate(sim.chains, 1):
            history = chain.history[:-1]
            assert sim.fn.evaluate(chain.history[-1], history) == field.zero

    def test_discrepancy_breaks_decoding(self, field):
        for seed in range(10):
            sim = make_sim(field)
            report = run_epoch(sim, discrepancy_adversary({18, 19, 20}), rng=seed)
            honest = [n for n in range(1, 21) if n not in (18, 19, 20)]
            assert all(report.statuses[n] == "failure" for n in honest)
            assert report.stalled

    def test_single_shard_degenerate(self, field):
        # K=1: the composed polynomial is a constant, decoding still works
        sim = make_sim(field, K=1, N=4, d=2)
        report = run_epoch(sim, None, rng=5)
        assert all(report.statuses[n] == "recovered" for n in range(1, 5))
        assert report.accepted[1] == [1]

    def test_decode_failure_is_recorded_not_raised(self, field):
        # all nodes silent except too few: failure in the report
        sim = make_sim(field, K=3, N=6, d=2)
        report = run_epoch(
            sim,
            AdversaryConfig(
                adversarial_nodes=frozenset({2, 3, 4, 5, 6}),
                broadcast_strategy="silent",
            ),
            rng=0,
        )
        assert report.statuses[1] == "failure"

    def test_garbage_epochs_agree_across_the_rows_cutoff(self, field, monkeypatch, request):
        # N=156 hears more points than _ROWS_UP_TO: the decode interpolates on the
        # subproduct tree, and on packed quotient rows once the cutoff is raised above N;
        # shard 1's proposals are invalid, so the words are not zero decodes
        K, N = 26, 156
        beta = (N - 2 * (K - 1) - 1) // 2  # the correction boundary
        request.addfinalizer(point_set.cache_clear)
        runs = []
        for cutoff in (field_poly._ROWS_UP_TO, N):
            monkeypatch.setattr(field_poly, "_ROWS_UP_TO", cutoff)
            point_set.cache_clear()
            sim = make_sim(field, K=K, N=N, invalid_proposer_shards=frozenset({1}))
            adversary = garbage_adversary(range(N - beta + 1, N + 1))
            reports = [run_epoch(sim, adversary, rng=seed).to_json_dict() for seed in range(3)]
            assert all(report["status"] == "recovered" and 1 not in report["adversarial"]
                       for report in reports)
            misses = point_set.cache_info().misses
            heard = point_set(tuple(alpha.value for alpha in sim.params.alphas), field.modulus)
            assert point_set.cache_info().misses == misses  # the decode's own point set
            assert (heard._rows is None) == (N > cutoff)
            runs.append((reports, [c.values for c in sim.coded_columns], sim.node_chains))
        assert runs[0] == runs[1]

    def test_determinism(self, field):
        def runs():
            sim = make_sim(field, K=4, N=14)
            adv = discrepancy_adversary({13, 14}, v=2)
            reports = [
                run_epoch(sim, adv if t == 1 else None, rng=1000 + t).to_json_dict()
                for t in range(3)
            ]
            return reports, sim.coded_columns, sim.node_chains

        assert runs() == runs()  # coded columns compare by modulus and residues

    @pytest.mark.parametrize("nodes, producers, bad", [
        pytest.param({12}, (0,), "producer 0", id="producer-0"),
        pytest.param({0}, (), "node 0", id="node-0"),
        pytest.param({12}, (4,), "producer 4", id="producer-above-K"),
        pytest.param({13}, (), "node 13", id="node-above-N"),
    ])
    def test_bad_adversary_index_raises_before_any_change(self, field, nodes, producers, bad):
        sim = make_sim(field, K=3, N=12)
        run_epoch(sim, garbage_adversary({11}), rng=1)
        roles = sim.adversarial_nodes
        adversary = AdversaryConfig(adversarial_nodes=frozenset(nodes),
                                    adversarial_producers=producers)
        with pytest.raises(ValueError, match=f"adversarial {bad} out of range"):
            run_epoch(sim, adversary, rng=2)
        assert sim.epoch == 1
        assert sim.adversarial_nodes == roles
        assert all(len(c.history) == 2 for c in sim.chains)

    def test_raising_epoch_changes_nothing(self, field):
        # the check declares degree 2 but computes x^3: composing it for the
        # honest_looking broadcasts overflows, after the adversarial set is known
        params = EncodingParams.default(3, 12, 2, field)
        fn = VerificationFn(degree=2, evaluate=lambda x, history: x**3,
                            valid_block=lambda history: history[0].field.zero)
        sim = Simulation(params, fn)
        adversary = AdversaryConfig(adversarial_nodes=frozenset({11, 12}),
                                    adversarial_producers=(1,), v=2,
                                    broadcast_strategy="honest_looking")

        def state():
            return (sim.epoch, sim.adversarial_nodes, [list(c.history) for c in sim.chains],
                    [c.values for c in sim.coded_columns], list(sim.node_chains),
                    dict(sim.chain_ids), list(sim.history_polys))

        before = state()
        assert before[:2] == (0, frozenset())
        with pytest.raises(DegreeOverflow):
            run_epoch(sim, adversary, rng=1)
        assert state() == before

    def test_rejected_shard_appends_zero_and_masked_encodings(self, field, monkeypatch):
        # shard 2's proposer is invalid: its accept bit is 0, so its chain appends
        # e_2 * X_2 = 0, and every node encodes its view masked the same way
        sim = make_sim(field, K=4, N=20, invalid_proposer_shards=frozenset({2}))
        owns, append = [], polyshard_sim._append_epoch

        def recording_append(sim, canonical, bits, views, index, coded):
            owns.append([tuple(b * x for b, x in zip(
                bits, views[canonical if n in sim.adversarial_nodes else i]))
                for n, i in enumerate(index, 1)])
            append(sim, canonical, bits, views, index, coded)

        monkeypatch.setattr(polyshard_sim, "_append_epoch", recording_append)
        for t in range(2):
            report = run_epoch(sim, None, rng=t)
            assert report.accepted[1] == [1, 0, 1, 1]
            for n, own in enumerate(owns[-1], 1):
                assert own[1] == 0
                assert sim.coded_columns[-1][n - 1] == encode_at_node(own, sim.params, n).value
        assert sim.chains[1].history == [field(2), field.zero, field.zero]

    def test_honest_looking_broadcasts_fit_the_version_1_view(self, field, monkeypatch):
        # two realized views of shard 1: the adversarial broadcasts evaluate the
        # composition of version 1's view, the view of nodes outside the assignment
        forged, broadcasts = [], []
        forge, decode = polyshard_sim.forge_versions, polyshard_sim.rs_decode

        def recording_forge(*args, **kwargs):
            forged.append(forge(*args, **kwargs))
            return forged[-1]

        def recording_decode(b, *args):
            broadcasts.append(b)
            return decode(b, *args)

        monkeypatch.setattr(polyshard_sim, "forge_versions", recording_forge)
        monkeypatch.setattr(polyshard_sim, "rs_decode", recording_decode)
        sim = make_sim(field, K=3, N=12)
        adversary = AdversaryConfig(adversarial_nodes=frozenset({11, 12}),
                                    adversarial_producers=(1,), v=2,
                                    broadcast_strategy="honest_looking")
        for t in range(2):
            history = list(sim.history_polys)
            base = [sim.fn.valid_block(c.history) for c in sim.chains]
            run_epoch(sim, adversary, rng=90 + t)
            values = dict(zip(broadcasts[-1].nodes, broadcasts[-1].values))
            targets = [compose_verification(build_coded_poly((version, *base[1:]), sim.params),
                                            history, sim.fn) for version in forged[-1]]
            for n in (11, 12):
                alpha = sim.params.alphas[n - 1]
                assert values[n] == targets[0](alpha).value != targets[1](alpha).value

    def test_decoded_dominant_version_is_appended(self, gf97, monkeypatch):
        # 16 honest nodes see version 2 of shard 1 and 2 see version 1: the
        # decoder absorbs the minority as errors, and shard 1 must append the
        # version the decoded polynomial singles out, not version 1
        forged = []
        forge = polyshard_sim.forge_versions

        def recording_forge(*args, **kwargs):
            forged.append(forge(*args, **kwargs))
            return forged[-1]

        monkeypatch.setattr(polyshard_sim, "forge_versions", recording_forge)
        params = EncodingParams.default(3, 20, 2, gf97)
        sim = Simulation(params, power_check(2), accept_set=set(map(gf97, range(97))))
        adversary = AdversaryConfig(
            adversarial_nodes=frozenset({19, 20}), adversarial_producers=(1,), v=2,
            assignment_strategy="targeted",
            targeted_map={n: (2,) if n <= 16 else (1,) for n in range(1, 19)},
        )
        report = run_epoch(sim, adversary, rng=5)
        assert report.statuses[1] == "recovered"
        assert report.accepted[1] == [1, 1, 1]
        assert sim.chains[0].history[-1] == forged[0][1] != forged[0][0]
        canonical = [sim.history_polys[-1](alpha).value for alpha in params.alphas]
        on_canonical = [n for n, (own, value) in enumerate(
            zip(sim.coded_columns[-1], canonical), 1) if own == value]
        assert on_canonical == [*range(1, 17), 19, 20]
        assert report.chain_divergence == 2

    def test_recovered_epoch_boxes_at_most_n_plus_k_products(self, field, monkeypatch):
        # views, masks and encodings run on residues: the only boxed products
        # left are the verification function's own, K proposals and one check
        # per honest node
        sim = make_sim(field, K=6, N=40)
        calls = 0
        boxed_mul = FieldElement.__mul__

        def counting_mul(self, other):
            nonlocal calls
            calls += 1
            return boxed_mul(self, other)

        monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
        monkeypatch.setattr(FieldElement, "__rmul__", counting_mul)
        report = run_epoch(sim, garbage_adversary(range(33, 41)), rng=12)
        assert not report.stalled and report.statuses[1] == "recovered"
        assert calls <= 40 + 6

    def test_epoch_counter_and_chains(self, field):
        sim = make_sim(field, K=3, N=10)
        for t in range(1, 4):
            run_epoch(sim, None, rng=t)
            assert sim.epoch == t
            assert all(len(c.history) == t + 1 for c in sim.chains)
            assert len(sim.coded_columns) == t + 1
            assert all(len(column) == 10 for column in sim.coded_columns)


class TestCodedChainSoundness:
    def test_interpolation_recovers_accepted_blocks(self, field):
        # after honest epochs, any K coded entries determine every shard's block
        sim = make_sim(field, K=4, N=10)
        for t in range(3):
            run_epoch(sim, None, rng=t)
        for m in range(0, 4):  # epoch 0 is genesis
            pts = [
                (sim.params.alphas[n - 1], field(sim.coded_columns[m][n - 1]))
                for n in (1, 4, 7, 10)
            ]
            poly = lagrange_interpolate(pts)
            for k, chain in enumerate(sim.chains, 1):
                expected = chain.history[m]
                assert poly(sim.params.omegas[k - 1]) == expected

    def test_recovered_epochs_have_identical_bits(self, field):
        sim = make_sim(field)
        report = run_epoch(sim, garbage_adversary({19, 20}), rng=3)
        bit_sets = {
            tuple(bits) for n, bits in report.accepted.items() if bits is not None
        }
        assert len(bit_sets) == 1


class TestDivergence:
    def test_divergence_grows_monotonically_under_attack(self, field):
        sim = make_sim(field, failure_policy="append_own_view")
        adv = discrepancy_adversary({18, 19, 20})
        last = 1
        for t in range(4):
            report = run_epoch(sim, adv, rng=40 + t)
            assert report.chain_divergence >= last
            last = report.chain_divergence
        assert last >= 2

    def test_stall_policy_keeps_chains_aligned(self, field):
        sim = make_sim(field)
        run_epoch(sim, discrepancy_adversary({18, 19, 20}), rng=9)
        assert all(len(c.history) == 1 for c in sim.chains)
        assert sim.chain_divergence() == 1

    @pytest.mark.parametrize("policy", ["stall", "append_own_view"])
    def test_chain_ids_match_full_masked_histories(self, field, monkeypatch, policy):
        # oracle: each node's whole history of masked block tuples, the chain
        # identity the interned ids stand for, rebuilt beside the simulation
        sim = make_sim(field, K=3, N=14, failure_policy=policy)
        histories = {n: [] for n in range(1, 15)}
        append = polyshard_sim._append_epoch

        def recording_append(sim, canonical, bits, views, index, coded):
            for n, history in histories.items():
                view = views[index[n - 1] if n not in sim.adversarial_nodes else canonical]
                history.append(tuple(field.residue(b * x) for b, x in zip(bits, view)))
            append(sim, canonical, bits, views, index, coded)

        monkeypatch.setattr(polyshard_sim, "_append_epoch", recording_append)
        # adversaries come and go, so nodes switch roles between epochs
        adversaries = [discrepancy_adversary({12, 13, 14}), None,
                       discrepancy_adversary({1, 2, 3}, v=3), garbage_adversary({13, 14}),
                       None, discrepancy_adversary({5, 9, 14}, producers=(2, 3))]
        divergence = []
        for t, adversary in enumerate(adversaries):
            report = run_epoch(sim, adversary, rng=70 + t)
            honest = [h for n, h in histories.items() if n not in sim.adversarial_nodes]
            assert report.chain_divergence == len({tuple(h) for h in honest})
            divergence.append(report.chain_divergence)
            assert len(sim.coded_columns) == len(sim.history_polys)
            if not report.stalled:
                # adversarial nodes hold the canonical coded entry
                for n in sim.adversarial_nodes:
                    alpha = sim.params.alphas[n - 1]
                    assert sim.coded_columns[-1][n - 1] == sim.history_polys[-1](alpha).value
        assert list(sim.coded_columns[0]) == [sim.history_polys[0](alpha).value
                                              for alpha in sim.params.alphas]
        assert (max(divergence) > 1) == (policy == "append_own_view")


class TestManyViewEpochs:
    def test_many_view_epochs_append_each_nodes_own_encoding(self, field, monkeypatch):
        # four captured producers with two versions each: up to 16 distinct views
        sim = make_sim(field, K=6, N=40, failure_policy="append_own_view")
        owns, append = [], polyshard_sim._append_epoch

        def recording_append(sim, canonical, bits, views, index, coded):
            owns.append([tuple(b * x for b, x in zip(
                bits, views[i if n not in sim.adversarial_nodes else canonical]))
                for n, i in enumerate(index, 1)])
            append(sim, canonical, bits, views, index, coded)

        monkeypatch.setattr(polyshard_sim, "_append_epoch", recording_append)
        adversary = discrepancy_adversary(range(35, 41), producers=(1, 2, 3, 4))
        for t in range(2):
            run_epoch(sim, adversary, rng=80 + t)
            assert len(owns) == t + 1 and len(set(owns[-1])) >= 8
            for n, own in enumerate(owns[-1], 1):
                assert sim.coded_columns[-1][n - 1] == encode_at_node(own, sim.params, n).value


class TestCommLoad:
    def test_baseline_counts(self, field):
        params = EncodingParams.default(3, 10, 1, field)
        load = comm_load(params, "none")
        assert load.unicast == 30  # proposal deliveries
        assert load.broadcast == 100  # result deliveries
        assert load.total == 130

    def test_full_rebroadcast_adds_n_squared_k(self, field):
        params = EncodingParams.default(3, 10, 1, field)
        assert comm_load(params, "full_rebroadcast").total - comm_load(params).total == 300

    def test_mitigation_ratio_grows_linearly(self, field):
        # with K proportional to N the overhead ratio is affine in N:
        # successive doublings of N double the ratio increment, exactly
        def ratio(n):
            params = EncodingParams.default(n // 5, n, 1, field)
            return Fraction(
                comm_load(params, "full_rebroadcast").total, comm_load(params).total
            )

        r10, r20, r40, r80 = (ratio(n) for n in (10, 20, 40, 80))
        assert r40 - r20 == 2 * (r20 - r10)
        assert r80 - r40 == 2 * (r40 - r20)

    @given(
        K=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=0, max_value=4),
        n_silent=st.integers(min_value=0, max_value=3),
        captured=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=30, deadline=None)
    def test_epoch_messages_total_matches_comm_load(self, field, K, extra, n_silent,
                                                   captured, seed):
        # the report files honest proposals under broadcast, comm_load under
        # unicast: only the totals agree, less N per silent node
        N = 2 * K - 1 + extra + n_silent
        captured = min(captured, n_silent, K)
        adversary = None
        if n_silent:
            adversary = AdversaryConfig(
                adversarial_nodes=frozenset(range(N - n_silent + 1, N + 1)),
                adversarial_producers=tuple(range(1, captured + 1)),
                v=2,
                broadcast_strategy="silent",
            )
        sim = make_sim(field, K=K, N=N)
        report = run_epoch(sim, adversary, rng=seed)
        total = comm_load(sim.params).total
        assert sum(report.messages.values()) == total - n_silent * N

    def test_unknown_mitigation(self, field):
        with pytest.raises(ValueError):
            comm_load(EncodingParams.default(2, 5, 1, field), "prayer")


class AcceptAll:
    """An accept set holding every value, so a forged block that wins the decode is appended."""

    def __contains__(self, value):
        return True


ACCEPT_ALL = AcceptAll()


@st.composite
def adversaries(draw, K, N):
    """None, or an adversary of any broadcast and assignment strategy on K shards, N nodes."""
    if not draw(st.integers(0, 3)):
        return None
    assignment = draw(st.sampled_from(["balanced", "random", "targeted", "dominant"]))
    # "dominant": one tuple, mostly not version 1's, for all but a few nodes, and few
    # adversarial nodes, so that the epoch often decodes to a view other than version 1's
    dominant = assignment == "dominant"
    nodes = draw(st.sets(st.integers(1, N), min_size=1, max_size=N // 6 + 1 if dominant else N))
    producers = draw(st.lists(st.integers(1, K), unique=True, min_size=int(dominant),
                              max_size=min(K, len(nodes))))
    v = draw(st.integers(1 + dominant, 3))
    targeted_map = None
    if assignment in ("targeted", "dominant"):
        tuples = all_version_tuples(v, len(producers))
        targeted_map = {n: draw(st.sampled_from(tuples)) for n in range(1, N + 1)}
        if dominant:
            top = draw(st.sampled_from(tuples[::-1]))
            few = draw(st.sets(st.integers(1, N), max_size=N // 6))
            targeted_map = {n: tup if n in few else top for n, tup in targeted_map.items()}
            assignment = "targeted"
    return AdversaryConfig(
        adversarial_nodes=frozenset(nodes), adversarial_producers=tuple(producers), v=v,
        assignment_strategy=assignment, targeted_map=targeted_map,
        broadcast_strategy=draw(st.sampled_from(["silent", "garbage", "honest_looking"])),
        valid_first=draw(st.booleans()),
    )


@st.composite
def epoch_runs(draw):
    field = PrimeField(draw(st.sampled_from([97, DEFAULT_MODULUS])))
    K, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    N = draw(st.integers(d * (K - 1) + 1, 40))
    fn = draw(st.sampled_from([power_check(d), history_power_check(d, field(3))]))
    config = dict(invalid_proposer_shards=frozenset(draw(st.sets(st.integers(1, K)))),
                  failure_policy=draw(st.sampled_from(["stall", "append_own_view"])),
                  accept_set=draw(st.sampled_from([None, ACCEPT_ALL])))
    epochs = draw(st.lists(adversaries(K, N), min_size=1, max_size=4))
    return field, K, N, d, fn, config, epochs, draw(st.integers(0, 2**32))


GF97, P31 = PrimeField(97), PrimeField(DEFAULT_MODULUS)


class TestEpochOracle:
    @given(run=epoch_runs())
    # 16 honest nodes hold version 2 of shard 1 and win the decode: the adversarial
    # nodes 19 and 20 must append that view, not their own version 1 view
    @example(run=(GF97, 3, 20, 2, power_check(2),
                  dict(invalid_proposer_shards=frozenset(), failure_policy="stall",
                       accept_set=ACCEPT_ALL),
                  [AdversaryConfig(adversarial_nodes=frozenset({19, 20}),
                                   adversarial_producers=(1,), v=2,
                                   assignment_strategy="targeted",
                                   targeted_map={n: (2,) if n <= 16 else (1,)
                                                 for n in range(1, 19)})],
                  5))
    # 160 nodes hear more points than _ROWS_UP_TO, so the decode interpolates on the
    # subproduct tree; 8 garbage broadcasters are corrected in each of the two epochs
    @example(run=(P31, 3, 160, 2, history_power_check(2, P31(3)),
                  dict(invalid_proposer_shards=frozenset({2}), failure_policy="stall",
                       accept_set=None),
                  [garbage_adversary(range(153, 161)), garbage_adversary(range(1, 9))], 11))
    # the same garbage broadcasters in every epoch: the decodes from the third epoch on
    # divide by the error locator remembered for the heard points instead of running
    # Gao's Euclid, once with valid blocks (zero decode) and once with an invalid proposer
    @example(run=(P31, 4, 30, 2, history_power_check(2, P31(3)),
                  dict(invalid_proposer_shards=frozenset(), failure_policy="stall",
                       accept_set=None),
                  [garbage_adversary({3, 11, 29})] * 4, 7))
    @example(run=(GF97, 3, 24, 2, history_power_check(2, GF97(3)),
                  dict(invalid_proposer_shards=frozenset({2}), failure_policy="stall",
                       accept_set=None),
                  [garbage_adversary({1, 9, 17, 24})] * 4, 5))
    @settings(max_examples=150, deadline=None)
    def test_run_epoch_matches_the_literal_epoch(self, run):
        field, K, N, d, fn, config, epochs, seed = run
        sim = Simulation(EncodingParams.default(K, N, d, field), fn, **config)
        oracle = OracleSimulation(K, N, d, field, fn, **config)
        for t, adversary in enumerate(epochs):
            report = expand_report(run_epoch(sim, adversary, rng=seed + t).to_json_dict())
            expected = oracle.run_epoch(adversary, rng=seed + t)
            if report["recovered_values"] is None:  # the two decoders word failures apart
                report["diagnostics"] = expected["diagnostics"] = None
            assert report == expected
            assert [c.history for c in sim.chains] == [c.history for c in oracle.chains]
            assert [c.values for c in sim.coded_columns] == [
                tuple(x.value for x in column) for column in zip(*oracle.coded_chains.values())]
            assert sim.node_chains == list(oracle.node_chains.values())
            assert sim.chain_ids == oracle.chain_ids


@st.composite
def report_runs(draw):
    """`epoch_runs`, where one epoch's adversary may hold all N nodes (no node honest)."""
    field, K, N, d, fn, config, epochs, seed = draw(epoch_runs())
    if draw(st.booleans()):
        producers = draw(st.lists(st.integers(1, K), unique=True, max_size=K))
        epochs[draw(st.integers(0, len(epochs) - 1))] = AdversaryConfig(
            adversarial_nodes=frozenset(range(1, N + 1)), adversarial_producers=tuple(producers),
            v=draw(st.integers(1, 3)),
            broadcast_strategy=draw(st.sampled_from(["silent", "garbage", "honest_looking"])))
    return field, K, N, d, fn, config, epochs, seed


class TestReportLines:
    @given(run=report_runs())
    # every node adversarial and broadcasting a fit to version 1's view: the decode
    # recovers, yet no node is honest, so version 1's `accepted` map is empty
    @example(run=(GF97, 3, 8, 2, power_check(2),
                  dict(invalid_proposer_shards=frozenset(), failure_policy="stall",
                       accept_set=None),
                  [AdversaryConfig(adversarial_nodes=frozenset(range(1, 9)),
                                   adversarial_producers=(2,), v=2,
                                   broadcast_strategy="honest_looking")],
                  3))
    @settings(max_examples=100, deadline=None)
    def test_line_expands_to_the_mappings(self, run):
        field, K, N, d, fn, config, epochs, seed = run
        sim = Simulation(EncodingParams.default(K, N, d, field), fn, **config)
        for t, adversary in enumerate(epochs):
            report = run_epoch(sim, adversary, rng=seed + t)
            line = json.loads(json.dumps(report.to_json_dict()))
            assert expand_report(line) == v1_report(report)
            assert line["adversarial"] == sorted(adversary.adversarial_nodes if adversary else ())
            # derived once: every read returns the same mapping
            assert report.statuses is report.statuses and report.accepted is report.accepted
