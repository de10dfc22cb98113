import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shardlab import (
    AdversaryConfig,
    EncodingParams,
    Polynomial,
    Simulation,
    VersionAssignment,
    assign_versions,
    corrupt_results,
    forge_versions,
    run_epoch,
)
from shardlab.lcc import all_version_tuples
from shardlab.polyshard_sim import history_power_check


def config(beta_nodes, producers=(), v=1, **kw):
    return AdversaryConfig(
        adversarial_nodes=frozenset(beta_nodes),
        adversarial_producers=tuple(producers),
        v=v,
        **kw,
    )


def cells_of(assignment):
    """Nodes grouped by full version tuple, every tuple present (maybe empty)."""
    out = {t: [] for t in all_version_tuples(assignment.v, len(assignment.producers))}
    for node in sorted(assignment.node_tuples):
        out[assignment.node_tuples[node]].append(node)
    return {t: tuple(ns) for t, ns in out.items()}


# node ids in any order, so the tests see that assignment goes by position, not by id
node_lists = st.lists(st.integers(1, 200), unique=True, max_size=30)
tuple_spaces = {"v": st.integers(1, 4), "width": st.integers(0, 3)}


class TestConfig:
    def test_more_producers_than_nodes_rejected(self):
        with pytest.raises(ValueError):
            config({9}, producers=(1, 2), v=2)

    def test_unknown_strategies_rejected(self):
        with pytest.raises(ValueError):
            config({9}, assignment_strategy="psychic")
        with pytest.raises(ValueError):
            config({9}, broadcast_strategy="interpretive")

    def test_targeted_needs_map(self):
        with pytest.raises(ValueError):
            config({9}, producers=(1,), v=2, assignment_strategy="targeted")


class TestForgeVersions:
    def test_single_version(self, field, rng):
        history = (field(1),)
        blocks = forge_versions(history, 1, rng)
        assert len(blocks) == 1

    def test_valid_first(self, field, rng):
        fn = history_power_check(2, field(3))
        history = (field(1), field(5))
        blocks = forge_versions(history, 2, rng, fn=fn, valid_first=True)
        # validity oracle: the check value must land in {0}
        assert fn.evaluate(blocks[0], history) == field.zero
        assert blocks[0] != blocks[1]

    def test_more_versions_than_field_elements_rejected(self, gf7, rng):
        assert len({b.value for b in forge_versions((gf7(1),), 7, rng)}) == 7
        with pytest.raises(ValueError, match="distinct versions"):
            forge_versions((gf7(1),), 8, rng)

    def test_distinctness_over_seeds(self, field):
        for seed in range(100):
            blocks = forge_versions((field(1),), 3, random.Random(seed))
            assert len({b.value for b in blocks}) == 3


class TestAssignVersions:
    def test_balanced_seven_nodes(self):
        assignment = assign_versions(
            list(range(1, 8)), config({9}, producers=(1,), v=2)
        )
        sizes = sorted(len(ns) for ns in cells_of(assignment).values())
        assert sizes == [3, 4]

    def test_single_version_single_cell(self):
        assignment = assign_versions(
            list(range(1, 6)), config({9}, producers=(1,), v=1)
        )
        cells = cells_of(assignment)
        assert list(cells) == [(1,)]
        assert cells[(1,)] == (1, 2, 3, 4, 5)

    def test_two_producers_twelve_nodes(self):
        assignment = assign_versions(
            list(range(1, 13)), config({8, 9}, producers=(1, 2), v=2)
        )
        cells = cells_of(assignment)
        assert len(cells) == 4
        assert all(len(ns) == 3 for ns in cells.values())
        assert all(len(ns) < 5 for ns in cells.values())  # below d(K-1)+1 at d=2, K=3

    def test_balance_property(self, rng):
        for _ in range(20):
            n = rng.randrange(1, 30)
            v, bp = rng.randrange(1, 4), rng.randrange(1, 3)
            nodes = list(range(1, n + 1))
            producers = tuple(range(1, bp + 1))
            assignment = assign_versions(
                nodes, config({100 + i for i in range(bp)}, producers=producers, v=v)
            )
            sizes = [len(ns) for ns in cells_of(assignment).values()]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == n

    @given(nodes=node_lists, **tuple_spaces)
    def test_balanced_matches_the_enumeration_oracle(self, nodes, v, width):
        # the oracle is the round robin over the listed tuples, the split proof_params
        # makes of its points: tuple t takes every len(tuples)-th node from the t-th on
        cfg = config({100 + i for i in range(width)}, producers=range(1, width + 1), v=v)
        tuples = all_version_tuples(v, width)
        expected = {node: t for i, t in enumerate(tuples) for node in nodes[i::len(tuples)]}
        assert assign_versions(nodes, cfg).node_tuples == expected

    @given(nodes=node_lists, seed=st.integers(0, 2**32), **tuple_spaces)
    def test_random_matches_the_enumeration_oracle(self, nodes, seed, v, width):
        cfg = config({100 + i for i in range(width)}, producers=range(1, width + 1), v=v,
                     assignment_strategy="random")
        rng, clone = random.Random(seed), random.Random(seed)
        tuples = all_version_tuples(v, width)
        expected = {node: tuples[clone.randrange(v**width)] for node in nodes}
        assert assign_versions(nodes, cfg, rng=rng).node_tuples == expected
        assert rng.getstate() == clone.getstate()

    def test_tuple_space_beyond_memory(self, rng, bounded_memory):
        # 2^40 tuples: an assignment that listed them could not finish
        nodes = list(range(1, 13))
        producers = tuple(range(1, 41))
        balanced = assign_versions(nodes, config(range(41, 81), producers, v=2)).node_tuples
        assert balanced[1] == (1,) * 40
        assert balanced[2] == (1,) * 39 + (2,)
        assert balanced[12] == (1,) * 36 + (2, 1, 2, 2)
        cfg = config(range(41, 81), producers, v=2, assignment_strategy="random")
        drawn = assign_versions(nodes, cfg, rng=rng).node_tuples
        assert sorted(drawn) == nodes
        assert all(len(t) == 40 and set(t) <= {1, 2} for t in drawn.values())

    def test_random_strategy(self, rng):
        cfg = config({9}, producers=(1,), v=3, assignment_strategy="random")
        assignment = assign_versions(list(range(1, 40)), cfg, rng=rng)
        seen = {assignment.node_tuples[n] for n in range(1, 40)}
        assert seen <= {(1,), (2,), (3,)}
        assert len(seen) > 1

    def test_targeted_passthrough(self):
        explicit = {1: (2,), 2: (1,), 3: (2,)}
        cfg = config(
            {9}, producers=(4,), v=2,
            assignment_strategy="targeted", targeted_map=explicit,
        )
        assignment = assign_versions([1, 2, 3], cfg)
        assert {n: assignment.node_tuples[n] for n in (1, 2, 3)} == explicit

    def test_targeted_map_missing_node_is_named(self, field):
        cfg = config(
            {9}, producers=(1,), v=2,
            assignment_strategy="targeted", targeted_map={1: (2,), 3: (1,)},
        )
        with pytest.raises(ValueError, match="node 2: no version tuple"):
            assign_versions([1, 2, 3], cfg)
        sim = Simulation(EncodingParams.default(3, 9, 2, field), history_power_check(2, field(3)))
        with pytest.raises(ValueError, match="node 2: no version tuple"):
            run_epoch(sim, cfg, rng=0)
        assert sim.epoch == 0
        assert sim.adversarial_nodes == frozenset()
        assert all(len(c.history) == 1 for c in sim.chains)

    def test_version_cap_validated(self):
        with pytest.raises(ValueError):
            VersionAssignment(producers=(1,), v=2, node_tuples={1: (3,)})

    def test_first_node_with_a_bad_tuple_is_named(self):
        # each distinct tuple is checked once, and the error names the first node, in the
        # map's order, that holds a bad one
        good, wide, high = (1, 2), (1, 2, 1), (3, 1)
        for tuples, message in (([good, high, wide, high], "node 11: version outside 1..2"),
                                ([good, good, wide, high], "node 12: tuple width 3 != 2"),
                                ([high, good, good, wide], "node 10: version outside 1..2"),
                                ([good, (0, 1), good], "node 11: version outside 1..2")):
            node_tuples = dict(zip(range(10, 20), tuples))
            with pytest.raises(ValueError, match=f"^{message}$"):
                VersionAssignment(producers=(1, 2), v=2, node_tuples=node_tuples)
        assert VersionAssignment(producers=(1, 2), v=2,
                                 node_tuples={5: good, 3: good}).node_tuples == {5: good, 3: good}


class TestCorruptResults:
    def test_silent(self, field, rng):
        out = corrupt_results(
            [(1, field(4)), (2, field(5))], "silent", rng
        )
        assert out == {1: None, 2: None}

    def test_garbage_values_in_field(self, field, rng):
        out = corrupt_results([(1, field(4))], "garbage", rng)
        assert out[1] is not None

    def test_honest_looking_fits_polynomial(self, field, rng):
        poly = Polynomial(field, [3, 1, 4, 1, 5])
        entries = [(n, field(10 + n)) for n in range(1, 6)]
        out = corrupt_results(entries, "honest_looking", rng, poly=poly)
        for n, alpha in entries:
            assert out[n] == poly(alpha)

    def test_honest_looking_requires_poly(self, field, rng):
        with pytest.raises(ValueError):
            corrupt_results([(1, field(4))], "honest_looking", rng)


class TestNoAttackEquivalence:
    def test_v1_matches_no_attack(self, field):
        # a v=1 "attack" that forges the valid block is behaviorally identical
        # to no attack: same decode results, accept bits and divergence (the
        # traffic split and role labels legitimately differ)
        params = EncodingParams.default(4, 12, 2, field)
        fn = history_power_check(2, field(3))
        cfg = config(
            {11, 12}, producers=(1,), v=1,
            broadcast_strategy="honest_looking", valid_first=True,
        )
        for seed in range(5):
            sim = Simulation(params, fn)
            attack = run_epoch(sim, cfg, rng=seed)
            sim = Simulation(params, fn)
            plain = run_epoch(sim, None, rng=seed)
            assert attack.accepted == {
                n: bits for n, bits in plain.accepted.items() if n <= 10
            }
            assert attack.chain_divergence == plain.chain_divergence == 1
            assert attack.stalled == plain.stalled is False
            assert all(
                status == "recovered"
                for n, status in attack.statuses.items()
                if n <= 10
            )
