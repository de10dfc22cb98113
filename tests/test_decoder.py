import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rs_oracle import berlekamp_welch
from zero_decode import sweep
from shardlab import (
    AdversaryConfig,
    BroadcastEntry,
    BroadcastSet,
    DuplicateAbscissa,
    EncodingParams,
    InsufficientEvaluations,
    Polynomial,
    PrimeField,
    VersionAssignment,
    accept_bits,
    assign_versions,
    build_coded_poly,
    compose_verification,
    known_behavior_decode,
    lagrange_interpolate,
    recover_outputs,
    rs_decode,
    run_epoch,
)
from shardlab import decoder, field_poly
from shardlab.field_poly import point_set
from shardlab.polyshard_sim import Simulation, history_power_check, power_check


def broadcast_from(points):
    """points: list of (x, y-or-None); node ids are positions."""
    return BroadcastSet(
        [BroadcastEntry(i, x, y) for i, (x, y) in enumerate(points, 1)]
    )


def exhaustive_fit(b, degree_bound, max_errors):
    """Brute-force oracle: search every error hypothesis for a consistent fit.

    Tries each subset of at most max_errors of b's present entries as errors,
    interpolates the first degree_bound+1 survivors and checks the rest; returns
    every distinct polynomial that explains the data.
    """
    entries = [(b.field(x), b.field(y)) for x, y in zip(b.points, b.values) if y is not None]
    fits = []
    for r in range(max_errors + 1):
        for bad in itertools.combinations(range(len(entries)), r):
            kept = [e for i, e in enumerate(entries) if i not in bad]
            if len(kept) < degree_bound + 1:
                continue
            poly = lagrange_interpolate(kept[: degree_bound + 1])
            if all(poly(x) == y for x, y in kept):
                if poly not in fits:
                    fits.append(poly)
    return fits


class TestRsDecode:
    def test_clean_codeword(self, gf7):
        poly = Polynomial(gf7, [1, 1])
        b = broadcast_from([(gf7(x), poly(gf7(x))) for x in range(1, 6)])
        out = rs_decode(b, degree_bound=1, max_errors=1)
        assert out.recovered
        assert out.poly == poly
        assert out.error_positions == frozenset()

    def test_single_corruption(self, gf7):
        poly = Polynomial(gf7, [1, 1])
        points = [(gf7(x), poly(gf7(x))) for x in range(1, 6)]
        points[2] = (gf7(3), gf7.zero)  # corrupt the node at x=3
        b = broadcast_from(points)
        # brute force over all single-error hypotheses: unique explanation
        fits = exhaustive_fit(b, 1, 1)
        assert fits == [poly]
        out = rs_decode(b, degree_bound=1, max_errors=1)
        assert out.recovered
        assert out.poly == poly
        assert out.error_positions == {3}

    def test_interleaved_versions_fail(self, field, rng):
        # two composed polynomials split across 12 nodes defeat joint decoding
        params = EncodingParams.default(3, 12, 2, field)
        f = power_check(2)
        base = [field.random(rng) for _ in range(3)]
        views = [tuple(base), tuple([base[0] + 1] + base[1:])]
        polys = [
            compose_verification(build_coded_poly(v, params), [], f) for v in views
        ]
        entries = [
            (params.alphas[n - 1], polys[n % 2](params.alphas[n - 1]))
            for n in range(1, 13)
        ]
        b = broadcast_from(entries)
        assert exhaustive_fit(b, 4, 1) == []  # no poly fits within 1 error
        out = rs_decode(b, degree_bound=4, max_errors=1)
        assert not out.recovered

    def test_insufficient_evaluations(self, gf7):
        b = broadcast_from([(gf7(1), gf7(1)), (gf7(2), gf7(2))])
        with pytest.raises(InsufficientEvaluations):
            rs_decode(b, degree_bound=1, max_errors=1)

    def test_repeated_point_rejected(self, gf7):
        # interpolation needs distinct points; node points are distinct by construction
        b = broadcast_from([(gf7(x), gf7(1)) for x in (1, 2, 3, 2)])
        with pytest.raises(DuplicateAbscissa):
            rs_decode(b, degree_bound=1, max_errors=1)

    def test_repeated_point_rejected_with_a_silent_entry(self, gf7):
        # the point set holds only the heard points, but every entry's point must be distinct
        b = broadcast_from([(gf7(x), gf7(1)) for x in (1, 2, 3, 4)] + [(gf7(2), None)])
        with pytest.raises(DuplicateAbscissa):
            rs_decode(b, degree_bound=1, max_errors=1)

    def test_repeated_point_rejected_before_the_count(self, gf7):
        # two entries cannot meet degree bound 2, but the repeated point is the fault
        b = broadcast_from([(gf7(5), gf7(1)), (gf7(5), gf7(2))])
        with pytest.raises(DuplicateAbscissa):
            rs_decode(b, degree_bound=2, max_errors=0)

    def test_values_from_another_field_rejected(self, gf7, gf97):
        entries = [BroadcastEntry(1, gf7(1), gf7(3)), BroadcastEntry(2, gf7(2), gf97(3)),
                   BroadcastEntry(3, gf7(3), None)]
        with pytest.raises(ValueError, match="node 2: .* GF\\(7\\)"):
            BroadcastSet(entries)
        with pytest.raises(ValueError, match="node 1: "):
            broadcast_from([(gf7(x), gf97(x)) for x in range(1, 6)])

    def test_points_from_two_fields_rejected(self, gf7, gf97):
        points = [(gf7(1), gf7(1)), (gf7(2), gf7(2)), (gf97(3), gf7(3)), (gf7(4), None)]
        with pytest.raises(ValueError, match="node 3: "):
            broadcast_from(points)
        with pytest.raises(ValueError, match="node 3: "):  # a silent entry's point counts
            broadcast_from(points[:2] + [(gf97(4), None)])

    def test_first_point_must_be_a_field_element(self, gf7):
        # the first entry's point fixes the set's field, so an int or None there is named
        for entries in ([(1, 5, 3)], [(1, None, None), (2, gf7(2), 1)]):
            with pytest.raises(ValueError, match="^node 1: .* field element"):
                BroadcastSet(entries)

    def test_columns_hold_residues_and_int_values_are_reduced(self, gf97, gf7):
        b = BroadcastSet([BroadcastEntry(4, gf97(10), gf97(3)), BroadcastEntry(2, gf97(11), 200),
                          BroadcastEntry(9, gf97(12), None), (7, gf97(13), -1)])
        assert b.field == gf97 and len(b) == 4
        assert (b.nodes, b.points, b.values) == ((4, 2, 9, 7), (10, 11, 12, 13), (3, 6, None, 96))
        empty = BroadcastSet([])
        assert (empty.field, empty.nodes, empty.points, empty.values) == (None, (), (), ())
        for bad in (gf7(5), "x"):  # ints pass, elements of another field and non-numbers not
            with pytest.raises(ValueError, match="^node 2: .* GF\\(97\\)"):
                BroadcastSet([(1, gf97(1), 5), (2, gf97(2), bad), (3, gf97(3), gf7(1))])

    def test_from_columns_equals_the_entries_form(self, gf97, rng):
        for _ in range(20):
            nodes = rng.sample(range(1, 60), rng.randrange(1, 12))
            points = rng.sample(range(97), len(nodes))
            values = [rng.choice((None, 0, 96, rng.randrange(97))) for _ in nodes]
            b = BroadcastSet(zip(nodes, map(gf97, points), values))
            c = BroadcastSet.from_columns(gf97, nodes, points, values)
            assert (c.field, c.nodes, c.points, c.values) == (b.field, b.nodes, b.points,
                                                              b.values)
            assert isinstance(c.nodes, tuple) and isinstance(c.values, tuple)
        empty = BroadcastSet.from_columns(None, [], [], [])
        assert (empty.field, empty.nodes, empty.points, empty.values) == (None, (), (), ())

    def test_from_columns_rejects_non_residues_and_repeated_nodes(self, gf97):
        nodes, points, values = [4, 2, 9], [10, 11, 12], [3, None, 5]
        for column, bad in ((2, -1), (2, 97), (2, 10**9), (1, -1), (1, 97)):
            cols = [list(nodes), list(points), list(values)]
            cols[column][2] = bad
            with pytest.raises(ValueError, match=r"^node 9: .* residues in \[0, 97\)$"):
                BroadcastSet.from_columns(gf97, *cols)
        with pytest.raises(ValueError, match="duplicate node index"):
            BroadcastSet.from_columns(gf97, [4, 2, 4], points, values)
        with pytest.raises(ValueError, match="duplicate node index"):  # as the entries form
            BroadcastSet(zip([4, 2, 4], map(gf97, points), values))
        with pytest.raises(ValueError, match="one length"):
            BroadcastSet.from_columns(gf97, nodes, points, values[:2])

    def test_missing_entries_are_shortened(self, gf97, rng):
        poly = Polynomial(gf97, [3, 1, 4])
        points = [(gf97(x), poly(gf97(x))) for x in range(1, 8)]
        points[1] = (gf97(2), None)
        points[5] = (gf97(6), None)
        out = rs_decode(broadcast_from(points), degree_bound=2, max_errors=1)
        assert out.recovered and out.poly == poly

    def test_zero_budget_equals_interpolation(self, gf97, rng):
        for _ in range(20):
            degree = rng.randrange(0, 4)
            poly = Polynomial(gf97, [gf97.random(rng) for _ in range(degree + 1)])
            pts = [(gf97(x), poly(gf97(x))) for x in range(1, degree + 2)]
            out = rs_decode(broadcast_from(pts), degree_bound=degree, max_errors=0)
            assert out.recovered
            assert out.poly == lagrange_interpolate(pts)

    def test_boundary_error_tolerance(self, field):
        # exactly floor((M - D - 1)/2) corruptions still decode, 100/100 seeds
        m, degree = 15, 4
        budget = (m - degree - 1) // 2
        for seed in range(100):
            rng = random.Random(seed)
            poly = Polynomial(field, [field.random(rng) for _ in range(degree + 1)])
            points = [(field(x), poly(field(x))) for x in range(1, m + 1)]
            for i in rng.sample(range(m), budget):
                x, y = points[i]
                points[i] = (x, y + field.random_nonzero(rng))
            out = rs_decode(broadcast_from(points), degree, budget)
            assert out.recovered and out.poly == poly
            assert len(out.error_positions) == budget

    def test_two_version_split_always_fails(self, field):
        m, degree = 12, 3
        for seed in range(50):
            rng = random.Random(seed)
            p1 = Polynomial(field, [field.random(rng) for _ in range(degree + 1)])
            p2 = p1 + Polynomial(field, [field.random_nonzero(rng)])
            cut = rng.randrange(3, m - 2)  # both parts larger than the budget
            points = [
                (field(x), (p1 if x <= cut else p2)(field(x)))
                for x in range(1, m + 1)
            ]
            out = rs_decode(broadcast_from(points), degree, max_errors=2)
            assert not out.recovered

    def test_equivalent_to_exhaustive_oracle(self, gf97):
        # under the evaluation-count precondition at most one polynomial can
        # fit within budget, and the decoder finds it exactly when it exists
        for seed in range(60):
            rng = random.Random(seed)
            degree = rng.randrange(0, 3)
            budget = rng.randrange(0, 3)
            m = degree + 1 + 2 * budget + rng.randrange(0, 3)
            poly = Polynomial(gf97, [gf97.random(rng) for _ in range(degree + 1)])
            xs = rng.sample(range(1, 97), m)
            points = [(gf97(x), poly(gf97(x))) for x in xs]
            corruptions = rng.randrange(0, budget + 2)  # sometimes past the budget
            for i in rng.sample(range(m), min(corruptions, m)):
                x, y = points[i]
                points[i] = (x, y + gf97.random_nonzero(rng))
            b = broadcast_from(points)
            fits = exhaustive_fit(b, degree, budget)
            assert len(fits) <= 1
            out = rs_decode(b, degree, budget)
            if fits:
                assert out.recovered and out.poly == fits[0]
            else:
                assert not out.recovered

    @pytest.mark.parametrize("heard", [field_poly._ROWS_UP_TO - 2, field_poly._ROWS_UP_TO + 3])
    def test_maximal_garbage_on_either_form(self, field, heard):
        # heard points on each side of the cutoff, so the quotient rows and the subproduct
        # tree each decode at the full radius, with a few silent entries dropped first
        rng = random.Random(heard)
        degree, silent = 20, 4
        budget = (heard - degree - 1) // 2
        poly = Polynomial(field, [field.random(rng) for _ in range(degree + 1)])
        points = [(field(x), poly(field(x))) for x in range(1, heard + silent + 1)]
        nodes = rng.sample(range(1, heard + silent + 1), budget + silent)
        for n in nodes[budget:]:
            points[n - 1] = (points[n - 1][0], None)
        for n in nodes[:budget]:
            x, y = points[n - 1]
            points[n - 1] = (x, y + field.random_nonzero(rng))
        b = broadcast_from(points)
        out = rs_decode(b, degree, budget)
        assert out.poly == poly
        assert out.error_positions == frozenset(nodes[:budget])
        assert out.diagnostics == f"{budget} corrected among {heard} present entries"
        form = point_set(tuple(x for x, y in zip(b.points, b.values) if y is not None),
                         field.modulus)
        assert (form._rows is None) == (heard > field_poly._ROWS_UP_TO)

    def test_a_word_of_degree_one_too_high_fails(self, field):
        # three errors on a codeword of degree 4, twice, then the same three on a word of
        # degree 5: on 20 points at radius 7 no polynomial of degree <= 4 explains it
        S = {2, 5, 11}
        for k in (5, 5):
            out = rs_decode(shifted_word(field, Polynomial(field, [1] * k), S), 4, 7)
            assert out.recovered and out.error_positions == {3, 6, 12}
        assert not rs_decode(shifted_word(field, Polynomial(field, [1] * 6), S), 4, 7).recovered

    def test_three_errors_at_a_budget_of_two_fail(self, field, rng):
        # the errors Gao corrected at the full radius are past a budget of 2
        poly = Polynomial(field, [field.random(rng) for _ in range(5)])
        for e in (7, 7):
            assert rs_decode(shifted_word(field, poly, {2, 5, 11}), 4, e).poly == poly
        assert not rs_decode(shifted_word(field, poly, {2, 5, 11}), 4, 2).recovered

    def test_soundness_of_recovered(self, field, rng):
        # whatever comes back recovered disagrees with at most max_errors entries
        for _ in range(20):
            points = [(field(x), field.random(rng)) for x in range(1, 10)]
            out = rs_decode(broadcast_from(points), 2, 3)
            if out.recovered:
                bad = sum(
                    1 for x, y in points if out.poly(x) != y
                )
                assert bad <= 3


@st.composite
def mixed_broadcasts(draw):
    """Entries of two polynomials of degree <= d over GF(7) or GF(97), some shifted
    by noise, some silent; the budget e runs from 0 to its maximum and there are
    k + 2e .. k + 2e + 3 present entries."""
    p = draw(st.sampled_from([7, 97]))
    d = draw(st.integers(0, 3))
    e = draw(st.integers(0, min(3, (p - d - 1) // 2)))
    m = d + 1 + 2 * e + draw(st.integers(0, min(3, p - d - 1 - 2 * e)))
    xs = draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=min(p, m + 2),
                       unique=True))
    polys = [draw(st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1))
             for _ in range(2)]
    second = draw(st.sets(st.integers(1, m)))  # present nodes on the second polynomial
    noisy = draw(st.sets(st.integers(1, m), max_size=e + 2))
    field = PrimeField(p)
    entries = []
    for node, x in enumerate(xs, 1):
        y = None
        if node <= m:
            y = Polynomial(field, polys[node in second])(field(x))
            y += draw(st.integers(1, p - 1)) if node in noisy else 0
        entries.append(BroadcastEntry(node, field(x), y))
    return BroadcastSet(draw(st.permutations(entries))), d, e


class TestGaoMatchesBerlekampWelch:
    @given(case=mixed_broadcasts())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome(self, case):
        b, d, e = case
        gao, bw = rs_decode(b, d, e), berlekamp_welch(b, d, e)
        assert (gao.status, gao.poly, gao.error_positions, gao.diagnostics) == (
            bw.status, bw.poly, bw.error_positions, bw.diagnostics)


class TestSilentEntriesAreDropped:
    @given(case=mixed_broadcasts())
    @settings(max_examples=200, deadline=None)
    def test_same_outcome_as_the_heard_entries_alone(self, case):
        b, d, _ = case
        heard = BroadcastSet((n, b.field(x), y) for n, x, y in zip(b.nodes, b.points, b.values)
                             if y is not None)
        assume(len(heard) < len(b))
        for e in range((len(heard) - d - 1) // 2 + 1):
            full, dropped = rs_decode(b, d, e), rs_decode(heard, d, e)
            assert (full.status, full.poly, full.error_positions, full.diagnostics) == (
                dropped.status, dropped.poly, dropped.error_positions, dropped.diagnostics)


@st.composite
def repeated_decodes(draw):
    """6-12 decodes on one point set over GF(p), p in {7, 13, 97, 2^31 - 1}, as (b, d, e).
    Each word comes from a polynomial of degree <= d + 2, so some are not codewords. Its
    errors come mostly from a pool of three sets, so that error sets repeat, grow and
    shrink. Now and then one or two entries are silent, which changes the heard set and
    lowers the radius. The budget e is the radius or one below a pool set's size, so that it
    drops below an earlier decode's error count. Node ids shift by one now and then, so
    equal corrected node sets can lie on other points."""
    p = draw(st.sampled_from([7, 13, 97, 2**31 - 1]))
    d = draw(st.integers(0, 2))
    n = draw(st.integers(d + 3, min(p, d + 12)))
    xs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n, unique=True))
    sizes = st.sampled_from(range((n - d - 1) // 2 + 2))  # uniform: many sets near the radius
    subsets = sizes.flatmap(lambda k: st.sets(st.integers(0, n - 1), min_size=k, max_size=k))
    rarely = st.sampled_from([False, False, False, True])
    pool = [draw(subsets) for _ in range(3)]
    silent_sets = (set(), draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2)))
    field = PrimeField(p)
    decodes = []
    for _ in range(draw(st.integers(6, 12))):
        k = draw(st.sampled_from([d + 1, d + 1, 0, d + 2, d + 3]))  # codewords, 0 or not
        poly = Polynomial(field, draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k)))
        errors = draw(subsets) if draw(rarely) else draw(st.sampled_from(pool))
        silent, shift = silent_sets[draw(rarely)], draw(rarely)
        entries = []
        for j, x in enumerate(xs):
            y = poly(field(x)) + (draw(st.integers(1, p - 1)) if j in errors else 0)
            y = None if j in silent else y
            entries.append(BroadcastEntry((j + shift) % n + 1, field(x), y))
        radius = (n - len(silent) - d - 1) // 2
        budgets = [radius] + [min(radius, len(S) - 1) for S in pool if S]
        decodes.append((BroadcastSet(entries), d, draw(st.sampled_from(budgets))))
    return decodes


def shifted_word(field, poly, errors, silent=(), n=20):
    """poly at 1..n for nodes 1..n, shifted by 7 + j at each index j in errors and
    silent at each index in silent."""
    return BroadcastSet(
        (j + 1, field(j + 1), None if j in silent else poly(field(j + 1)) + (7 + j) * (j in errors))
        for j in range(n))


@pytest.fixture
def euclid_calls(monkeypatch):
    """The list of `euclid_until` calls rs_decode makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return field_poly.euclid_until(*args)

    monkeypatch.setattr(decoder, "euclid_until", counted)
    return calls


@st.composite
def sparse_words(draw):
    """A word over GF(7), GF(97) or 2^31 - 1 with k <= e + 1 nonzero heard values, at a
    budget e from 0 to the radius, with up to two silent entries, as (b, d, e, k). Node
    ids run from 1 and the points are any distinct residues."""
    p = draw(st.sampled_from([7, 97, 2**31 - 1]))
    d = draw(st.integers(0, 3))
    n = draw(st.integers(d + 1, min(p, d + 12)))
    silent = draw(st.integers(0, min(2, n - d - 1)))
    e = draw(st.integers(0, (n - silent - d - 1) // 2))
    k = draw(st.integers(0, min(e + 1, n - silent)))
    xs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n, unique=True))
    values = ([draw(st.integers(1, p - 1)) for _ in range(k)] + [0] * (n - silent - k)
              + [None] * silent)
    values = draw(st.permutations(values))
    return BroadcastSet.from_columns(PrimeField(p), range(1, n + 1), xs, values), d, e, k


class TestZeroWords:
    D = 4  # on 20 points: radius 7

    @given(case=sparse_words())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_as_berlekamp_welch(self, case):
        # the exit is taken exactly when at most e values are nonzero: only then is no
        # point set read
        b, d, e, k = case
        before = point_set.cache_info()
        out = rs_decode(b, d, e)
        after = point_set.cache_info()
        assert (after.hits + after.misses == before.hits + before.misses) == (k <= e)
        bw = berlekamp_welch(b, d, e)
        assert (out.status, out.poly, out.error_positions, out.diagnostics) == (
            bw.status, bw.poly, bw.error_positions, bw.diagnostics)
        if k <= e:
            assert out.recovered and out.poly.is_zero
            assert out.error_positions == {n for n, y in zip(b.nodes, b.values) if y}

    def test_every_sparse_word_over_gf7(self, gf7):
        # m = 6, D = 1: every word with at most e + 1 nonzero values at each budget e up
        # to the radius 2
        results = [sweep(gf7, 6, 1, e) for e in range(3)]
        assert sum(words for words, _ in results) == 5511
        assert [diff for _, found in results for diff in found] == []

    def test_a_zero_word_builds_no_point_set_and_runs_no_euclid(self, field, euclid_calls):
        zero = Polynomial.zero(field)
        point_set.cache_clear()
        out = rs_decode(shifted_word(field, zero, {2, 5, 11}), self.D, 7)
        assert out.recovered and out.poly == zero and out.error_positions == {3, 6, 12}
        assert point_set.cache_info().misses == 0 and not euclid_calls
        # one nonzero value more than the budget: Gao runs on a new point set
        out = rs_decode(shifted_word(field, zero, range(8)), self.D, 7)
        assert not out.recovered
        assert point_set.cache_info().misses == 1 and len(euclid_calls) == 1

    def test_a_zero_word_too_short_for_the_budget_raises(self, gf7):
        b = broadcast_from([(gf7(x), gf7.zero) for x in range(1, 6)])
        with pytest.raises(InsufficientEvaluations):
            rs_decode(b, degree_bound=1, max_errors=2)


class TestPointSetCache:
    @pytest.mark.parametrize("strategy", ["garbage", "silent"])
    def test_two_point_sets_for_every_epoch_and_seed(self, field, strategy):
        # four bad broadcasters at N=20, K=4, d=2 are within the radius: every epoch
        # decodes; shard 1's proposals are invalid, so the word is not within the radius
        # of the zero polynomial and the decode reads its point set; a fixed silent set
        # leaves the same heard points every epoch, so the heard points are set up once;
        # the epochs build no coded polynomial, and the default layout's Lagrange matrix
        # is in closed form, so the shard points are set up only when history_polys is
        # first read
        params = EncodingParams.default(K=4, N=20, d=2, field=field)
        attack = AdversaryConfig(adversarial_nodes=frozenset({17, 18, 19, 20}),
                                 broadcast_strategy=strategy)
        point_set.cache_clear()
        recovered = 0
        for seed in (1, 2):
            sim = Simulation(params, history_power_check(2, field(3)),
                             invalid_proposer_shards=frozenset({1}))
            for epoch in range(4):
                report = run_epoch(sim, attack, rng=seed * 100 + epoch)
                recovered += report.statuses[1] == "recovered"
        assert recovered == 8
        info = point_set.cache_info()
        assert (info.misses, info.hits) == (1, 7)
        # the first read of history_polys interpolates genesis and the 4 appended epochs
        # on the shard points, set up at the first; a second read interpolates nothing
        assert len(sim.history_polys) == len(sim.history_polys) == 5
        info = point_set.cache_info()
        assert (info.misses, info.hits) == (2, 11)

    @given(decodes=repeated_decodes())
    @settings(max_examples=200, deadline=None)
    def test_same_outcome_as_after_clearing_the_point_sets(self, decodes):
        # the point sets are the only state rs_decode reads: no history of decodes on the
        # same points changes an outcome
        live = [rs_decode(*case) for case in decodes]
        cold = []
        for case in decodes:
            point_set.cache_clear()
            cold.append(rs_decode(*case))
        assert live == cold


class TestRecoverOutputs:
    def test_zero_polynomial(self, gf97):
        params = EncodingParams.default(4, 5, 1, gf97)
        assert recover_outputs(Polynomial.zero(gf97), params) == [gf97.zero] * 4

    def test_degree_guard(self, gf97):
        params = EncodingParams.default(2, 3, 1, gf97)
        with pytest.raises(ValueError):
            recover_outputs(Polynomial(gf97, [0, 0, 1]), params)

    def test_matches_direct_evaluation(self, field, rng):
        # oracle: apply the check to each shard's payload with no coding at all
        params = EncodingParams.default(5, 12, 2, field)
        f = power_check(2)
        view = tuple(field.random(rng) for _ in range(5))
        composed = compose_verification(build_coded_poly(view, params), [], f)
        assert recover_outputs(composed, params) == [
            f.evaluate(x, ()) for x in view
        ]

    def test_three_shard_versions(self, field, rng):
        # evaluating the composed polynomial at the shard points separates versions
        params = EncodingParams.default(3, 4, 2, field)
        f = power_check(2)
        x1 = [field.random(rng) for _ in range(2)]
        x2 = [field.random(rng) for _ in range(2)]
        x3 = field.random(rng)
        for i, j in itertools.product(range(2), repeat=2):
            view = (x1[i], x2[j], x3)
            composed = compose_verification(build_coded_poly(view, params), [], f)
            assert recover_outputs(composed, params) == [
                f.evaluate(x1[i], ()), f.evaluate(x2[j], ()), f.evaluate(x3, ()),
            ]


class _Everything:
    def __contains__(self, item):
        return True


class TestAcceptBits:
    def test_zero_accept_set(self, gf7):
        h = [gf7(0), gf7(5), gf7(0)]
        assert accept_bits(h, {gf7.zero}) == [1, 0, 1]

    def test_whole_field(self, gf7, rng):
        h = [gf7.random(rng) for _ in range(4)]
        assert accept_bits(h, _Everything()) == [1, 1, 1, 1]


class TestKnownBehaviorDecode:
    def _composed(self, params, view, f):
        return compose_verification(build_coded_poly(view, params), [], f)

    def test_single_tuple_matches_plain_decode(self, field, rng):
        params = EncodingParams.default(3, 9, 2, field)
        f = power_check(2)
        view = tuple(field.random(rng) for _ in range(3))
        poly = self._composed(params, view, f)
        entries = [
            BroadcastEntry(n, params.alphas[n - 1], poly(params.alphas[n - 1]))
            for n in range(1, 10)
        ]
        b = BroadcastSet(entries)
        assignment = VersionAssignment(
            producers=(1,), v=1, node_tuples={n: (1,) for n in range(1, 10)}
        )
        out = known_behavior_decode(b, assignment, 1, params)
        plain = rs_decode(b, 4, 1)
        assert out.recovered and plain.recovered and out.poly == plain.poly

    def test_pigeonhole_recovery_with_corruption(self, field):
        # N = 2(d(K-1)+1) + 2*beta nodes, balanced split, beta corrupt broadcasts
        params = EncodingParams.default(3, 12, 2, field)
        f = power_check(2)
        for seed in range(30):
            rng = random.Random(seed)
            base = [field.random(rng) for _ in range(3)]
            views = {1: tuple(base), 2: tuple([base[0] + 7] + base[1:])}
            polys = {i: self._composed(params, v, f) for i, v in views.items()}
            node_tuples = {n: ((n % 2) + 1,) for n in range(1, 13)}
            corrupt = rng.randrange(1, 13)
            entries = []
            for n in range(1, 13):
                alpha = params.alphas[n - 1]
                y = polys[node_tuples[n][0]](alpha)
                if n == corrupt:
                    y = y + field.random_nonzero(rng)
                entries.append(BroadcastEntry(n, alpha, y))
            assignment = VersionAssignment(producers=(1,), v=2, node_tuples=node_tuples)
            out = known_behavior_decode(BroadcastSet(entries), assignment, 1, params)
            assert out.recovered
            # honest shards 2 and 3 evaluate identically under either version
            for k in (2, 3):
                assert out.poly(params.omegas[k - 1]) == f.evaluate(base[k - 1], ())

    def test_all_cells_too_small(self, field, rng):
        params = EncodingParams.default(3, 8, 2, field)
        entries = [
            BroadcastEntry(n, params.alphas[n - 1], field.random(rng))
            for n in range(1, 9)
        ]
        # 8 nodes over 4 tuples: every cell has 2 < d(K-1)+1 = 5 entries
        assignment = VersionAssignment(
            producers=(1, 2),
            v=2,
            node_tuples={
                n: ((n % 2) + 1, ((n // 2) % 2) + 1) for n in range(1, 9)
            },
        )
        with pytest.raises(InsufficientEvaluations):
            known_behavior_decode(BroadcastSet(entries), assignment, 1, params)

    def test_uncovered_node_rejected(self, field, rng):
        params = EncodingParams.default(3, 6, 2, field)
        entries = [
            BroadcastEntry(n, params.alphas[n - 1], field.random(rng))
            for n in range(1, 7)
        ]
        assignment = VersionAssignment(
            producers=(1,), v=2, node_tuples={n: (1,) for n in range(1, 6)}
        )
        with pytest.raises(ValueError):
            known_behavior_decode(BroadcastSet(entries), assignment, 1, params)

    def test_uncovered_node_named(self, field, rng):
        params = EncodingParams.default(3, 6, 2, field)
        entries = [BroadcastEntry(n, params.alphas[n - 1], field.random(rng))
                   for n in range(1, 7)]
        entries[2] = BroadcastEntry(3, params.alphas[2], None)  # silent entries count too
        assignment = VersionAssignment(
            producers=(1,), v=2, node_tuples={n: (1,) for n in (1, 2, 4, 5, 6)}
        )
        with pytest.raises(ValueError, match="^assignment does not cover node 3$"):
            known_behavior_decode(BroadcastSet(entries), assignment, 1, params)

    def test_negative_max_errors_rejected(self, gf97, rng):
        # two cells of 6 nodes each hold the D + 1 = 5 evaluations a cell needs: the fault
        # is the negative budget, as in rs_decode, not too few evaluations
        params = EncodingParams.default(3, 12, 2, gf97)
        entries = [BroadcastEntry(n, alpha, gf97.random(rng))
                   for n, alpha in enumerate(params.alphas, 1)]
        assignment = VersionAssignment(producers=(1,), v=2,
                                       node_tuples={n: ((n > 6) + 1,) for n in range(1, 13)})
        with pytest.raises(ValueError, match="^max_errors must be >= 0$"):
            known_behavior_decode(BroadcastSet(entries), assignment, -1, params)
        with pytest.raises(ValueError, match=">= 0"):
            rs_decode(BroadcastSet(entries), params.composed_degree, -1)

    def test_certified_cells_disagreeing_at_an_honest_shard_fail(self, field):
        # every broadcast of cell (2,) is corrupted consistently, onto the composition of
        # a view that also differs at honest shard 2; with max_errors understated as 0
        # both cells certify, and the decoder must report their disagreement
        params = EncodingParams.default(3, 10, 2, field)
        f = power_check(2)
        views = {1: (field(5), field(6), field(7)), 2: (field(12), field(7), field(7))}
        polys = {i: self._composed(params, view, f) for i, view in views.items()}
        node_tuples = {n: (1 if n <= 5 else 2,) for n in range(1, 11)}
        entries = [BroadcastEntry(n, alpha, polys[node_tuples[n][0]](alpha))
                   for n, alpha in enumerate(params.alphas, 1)]
        assignment = VersionAssignment(producers=(1,), v=2, node_tuples=node_tuples)
        out = known_behavior_decode(BroadcastSet(entries), assignment, 0, params)
        assert not out.recovered
        assert out.diagnostics == "cells (1,) and (2,) disagree at honest shard 2"

    def test_tuple_space_beyond_memory(self, field, rng, bounded_memory):
        # 40 producers at v=2 span 2^40 tuples; only the occupied cells are visited
        params = EncodingParams.default(3, 12, 2, field)
        poly = self._composed(params, tuple(field.random(rng) for _ in range(3)), power_check(2))
        entries = BroadcastSet(BroadcastEntry(n, alpha, poly(alpha))
                               for n, alpha in enumerate(params.alphas, 1))
        producers = tuple(range(1, 41))
        cfg = AdversaryConfig(frozenset(range(41, 81)), producers, v=2)
        with pytest.raises(InsufficientEvaluations):  # one node per cell
            known_behavior_decode(entries, assign_versions(range(1, 13), cfg), 1, params)
        node_tuples = {n: (1 + (n > 9),) * 40 for n in range(1, 13)}
        assignment = VersionAssignment(producers=producers, v=2, node_tuples=node_tuples)
        out = known_behavior_decode(entries, assignment, 1, params)
        assert out.recovered and out.poly == poly
