import random

import pytest

from shardlab import (
    AdversaryConfig,
    EncodingParams,
    InfeasiblePartition,
    Polynomial,
    Simulation,
    VersionAssignment,
    assign_versions,
    corrupt_results,
    forge_versions,
    run_epoch,
)
from shardlab.adversary import balanced_cells
from shardlab.polyshard_sim import history_power_check


def config(beta_nodes, producers=(), v=1, **kw):
    return AdversaryConfig(
        adversarial_nodes=frozenset(beta_nodes),
        adversarial_producers=tuple(producers),
        v=v,
        **kw,
    )


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
        sizes = sorted(len(ns) for ns in assignment.cells().values())
        assert sizes == [3, 4]

    def test_single_version_single_cell(self):
        assignment = assign_versions(
            list(range(1, 6)), config({9}, producers=(1,), v=1)
        )
        cells = assignment.cells()
        assert list(cells) == [(1,)]
        assert cells[(1,)] == (1, 2, 3, 4, 5)

    def test_two_producers_twelve_nodes(self):
        assignment = assign_versions(
            list(range(1, 13)), config({8, 9}, producers=(1, 2), v=2)
        )
        cells = assignment.cells()
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
            sizes = [len(ns) for ns in assignment.cells().values()]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == n

    def test_infeasible_cap(self):
        with pytest.raises(InfeasiblePartition, match="9 points cannot be spread over 2 cells"):
            balanced_cells(list(range(1, 10)), 2, cap=4)
        assert balanced_cells(list(range(1, 9)), 2, cap=4) == [[1, 3, 5, 7], [2, 4, 6, 8]]

    def test_random_strategy(self, rng):
        cfg = config({9}, producers=(1,), v=3, assignment_strategy="random")
        assignment = assign_versions(list(range(1, 40)), cfg, rng=rng)
        seen = {assignment.tuple_for(n) for n in range(1, 40)}
        assert seen <= {(1,), (2,), (3,)}
        assert len(seen) > 1

    def test_targeted_passthrough(self):
        explicit = {1: (2,), 2: (1,), 3: (2,)}
        cfg = config(
            {9}, producers=(4,), v=2,
            assignment_strategy="targeted", targeted_map=explicit,
        )
        assignment = assign_versions([1, 2, 3], cfg)
        assert {n: assignment.tuple_for(n) for n in (1, 2, 3)} == explicit

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
            attack = run_epoch(sim, cfg, rng=seed).to_json_dict()
            sim = Simulation(params, fn)
            plain = run_epoch(sim, None, rng=seed).to_json_dict()
            assert attack["accepted"] == {
                n: bits for n, bits in plain["accepted"].items() if int(n) <= 10
            }
            assert attack["chain_divergence"] == plain["chain_divergence"] == 1
            assert attack["stalled"] == plain["stalled"] is False
            assert all(
                status == "recovered"
                for n, status in attack["statuses"].items()
                if int(n) <= 10
            )
