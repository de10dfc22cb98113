import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardlab import (
    DegreeOverflow,
    EncodingParams,
    Polynomial,
    PrimeField,
    build_coded_poly,
    compose_verification,
    encode_at_node,
    lagrange_interpolate,
)
from shardlab import DEFAULT_MODULUS, lcc
from shardlab.field_poly import point_set
from shardlab.polyshard_sim import VerificationFn, history_power_check, power_check

from poly_oracle import general_path


def three_shard_params(field, N=4, d=2):
    """Shard points 1, 2, 3 -- the layout used for hand-checkable expansions."""
    return EncodingParams.default(3, N, d, field)


def product_basis(params, k, z):
    """Oracle: L_k(z) = prod_{j != k} (z - omega_j) / (omega_k - omega_j), in elements."""
    num = den = params.field.one
    for j, omega_j in enumerate(params.omegas, start=1):
        if j != k:
            num *= z - omega_j
            den *= params.omegas[k - 1] - omega_j
    return num / den


def unit_basis(params, k):
    """L_k: the coded polynomial of the view holding 1 at shard k and 0 elsewhere."""
    view = tuple(params.field(int(j == k)) for j in range(1, params.K + 1))
    return build_coded_poly(view, params)


def interpolated_coded_poly(view, params):
    """Oracle: a fresh interpolation through (omega_k, view[k-1]) for every shard."""
    return lagrange_interpolate(list(zip(params.omegas, view)))


class TestParams:
    def test_point_collision_rejected(self, gf97):
        with pytest.raises(ValueError):
            EncodingParams(
                omegas=(gf97(1), gf97(2)), alphas=(gf97(2),), d=1,
            )

    def test_mixed_field_points_rejected(self, gf7, gf97):
        for omegas, alphas in (((gf97(1), gf97(2)), (gf7(3), gf7(4))),
                               ((gf97(1), gf7(2)), (gf97(3), gf97(4)))):
            with pytest.raises(ValueError, match=r"must lie in omegas\[0\]'s GF\(97\)"):
                EncodingParams(d=1, omegas=omegas, alphas=alphas)
        params = EncodingParams(d=1, omegas=(gf97(1), gf97(2)),
                                alphas=(gf97(3), gf97(4)))
        with pytest.raises(ValueError, match="different field"):
            build_coded_poly((gf97(1), gf7(1)), params)

    def test_int_points_rejected(self, gf97):
        # a ValueError names the point, as for AnalysisParams and BroadcastSet
        for omegas, alphas, named in (((gf97(1), 2), (gf97(3),), r"shard point 2 \(2\)"),
                                      ((1, 2), (gf97(3),), r"shard point 1 \(1\)"),
                                      ((gf97(1), gf97(2)), (gf97(3), 4), r"node point 2 \(4\)")):
            with pytest.raises(ValueError, match=named + " must be a field element"):
                EncodingParams(omegas=omegas, alphas=alphas, d=2)

    def test_one_point_set(self, gf97):
        # every coded polynomial reads one cached point set, and so does the Lagrange matrix
        # of a layout off one progression; the default layout's matrix is in closed form
        custom = EncodingParams(omegas=tuple(map(gf97, (1, 2, 4))),
                                alphas=tuple(map(gf97, (5, 6, 7, 8))), d=2)
        for params, counts in ((custom, (1, 2)), (EncodingParams.default(3, 4, 2, gf97), (1, 1))):
            point_set.cache_clear()
            for view in ((1, 2, 3), (4, 5, 6)):
                build_coded_poly(tuple(map(gf97, view)), params)
            assert len(params.lagrange_matrix) == 4
            info = point_set.cache_info()
            assert (info.misses, info.hits) == counts

    def test_bad_counts(self, gf97):
        # K and N are the point counts, so no node point is N = 0
        with pytest.raises(ValueError, match="K, N and d must all be >= 1"):
            EncodingParams(omegas=(gf97(1),), alphas=(), d=1)
        with pytest.raises(ValueError):
            EncodingParams.default(0, 3, 1, gf97)


class TestLagrangeBasis:
    def test_one_at_own_point(self, gf97):
        params = three_shard_params(gf97)
        assert unit_basis(params, 1)(gf97(1)) == 1

    def test_zero_at_other_points(self, gf97):
        params = three_shard_params(gf97)
        assert unit_basis(params, 1)(gf97(2)) == 0
        assert unit_basis(params, 1)(gf97(3)) == 0

    def test_middle_basis_polynomial(self, gf97):
        # basis for shard 2 is (z-1)(z-3)/(-1) = -z^2 + 4z - 3
        params = three_shard_params(gf97)
        expected = Polynomial(gf97, [-3, 4, -1])
        for z in map(gf97, range(10, 20)):
            assert unit_basis(params, 2)(z) == expected(z)

    def test_partition_of_unity(self, field, rng):
        params = EncodingParams.default(5, 8, 2, field)
        for _ in range(50):
            z = field.random(rng)
            total = sum(
                (unit_basis(params, k)(z) for k in range(1, 6)), field.zero
            )
            assert total == 1

    def test_single_shard_basis_is_one(self, gf97, rng):
        params = EncodingParams.default(1, 3, 2, gf97)
        assert unit_basis(params, 1)(gf97.random(rng)) == 1


    @given(points=st.lists(st.integers(0, 96), min_size=2, max_size=20, unique=True),
           K=st.integers(1, 12))
    @settings(max_examples=60)
    def test_barycentric_set_up_matches_product_formula(self, points, K):
        # random distinct shard and node points in GF(97): every basis polynomial
        # and every Lagrange-matrix entry equals the product formula's
        gf97 = PrimeField(97)
        K = min(K, len(points) - 1)
        params = EncodingParams(omegas=tuple(map(gf97, points[:K])),
                                alphas=tuple(map(gf97, points[K:])), d=1)
        for k in range(1, K + 1):
            oracle = Polynomial(gf97, [1])
            for j, omega_j in enumerate(params.omegas, start=1):
                if j != k:
                    oracle = oracle * Polynomial(gf97, [-omega_j, 1])
            oracle = oracle * (gf97.one / oracle(params.omegas[k - 1]))
            assert unit_basis(params, k) == oracle
        assert params.lagrange_matrix == tuple(
            tuple(product_basis(params, k, alpha).value for k in range(1, K + 1))
            for alpha in params.alphas
        )


class TestEncodeAtNode:
    def test_zero_view(self, gf97):
        params = three_shard_params(gf97)
        view = (gf97.zero,) * 3
        assert encode_at_node(view, params, 1) == 0

    def test_unit_view_recovers_payload_at_shard_point(self, gf97, rng):
        # interpolation property: the coded polynomial passes through each payload
        params = three_shard_params(gf97)
        payload = gf97.random_nonzero(rng)
        for k in range(1, 4):
            view = tuple(payload if j == k else gf97.zero for j in range(1, 4))
            coded = build_coded_poly(view, params)
            for j in range(1, 4):
                assert coded(params.omegas[j - 1]) == (payload if j == k else gf97.zero)

    def test_matches_explicit_polynomial(self, field, rng):
        # cross-check one construction against the other
        params = EncodingParams.default(5, 12, 2, field)
        for _ in range(10):
            view = tuple(field.random(rng) for _ in range(5))
            poly = build_coded_poly(view, params)
            for n in range(1, 13):
                assert encode_at_node(view, params, n) == poly(params.alphas[n - 1])

    def test_matches_basis_sum_on_custom_layout(self, gf97, rng):
        # the cached basis, the Lagrange matrix and the coded polynomial against
        # the product formula and a fresh interpolation, on two layouts
        custom = EncodingParams(omegas=tuple(map(gf97, (90, 3, 41, 17))),
                                alphas=tuple(map(gf97, (0, 96, 55, 8, 23))), d=2)
        for params in (EncodingParams.default(4, 5, 2, gf97), custom):
            for k in range(1, 5):
                for z in params.omegas + params.alphas + (gf97.random(rng),):
                    assert unit_basis(params, k)(z) == product_basis(params, k, z)
            assert params.lagrange_matrix == tuple(
                tuple(product_basis(params, k, alpha).value for k in range(1, 5))
                for alpha in params.alphas
            )
            for _ in range(10):
                view = tuple(gf97.random(rng) for _ in range(4))
                assert build_coded_poly(view, params) == interpolated_coded_poly(view, params)
                for n, alpha in enumerate(params.alphas, start=1):
                    expected = sum((product_basis(params, k, alpha) * x
                                    for k, x in enumerate(view, start=1)), gf97.zero)
                    assert encode_at_node(view, params, n) == expected
            for n in (0, -1, 6):
                with pytest.raises(ValueError, match="out of range"):
                    encode_at_node(view, params, n)
            with pytest.raises(ValueError, match="one payload per shard"):
                encode_at_node(view[:3], params, 1)

    def test_residue_view_matches_element_view_and_coded_poly(self, gf97, gf7, rng):
        params = EncodingParams.default(4, 9, 2, gf97)
        for _ in range(20):
            residues = tuple(rng.randrange(97) for _ in range(4))
            elements = tuple(map(gf97, residues))
            coded = build_coded_poly(residues, params)
            for n, alpha in enumerate(params.alphas, start=1):
                block = encode_at_node(residues, params, n)
                assert block.field == gf97
                assert block == encode_at_node(elements, params, n) == coded(alpha)
        for k in range(4):
            for view in (elements, residues):
                mixed = view[:k] + (gf7(3),) + view[k + 1:]
                with pytest.raises(ValueError, match="different field"):
                    encode_at_node(mixed, params, 2)

    def test_linear_in_view(self, field, rng):
        params = EncodingParams.default(4, 6, 2, field)
        for _ in range(10):
            u = tuple(field.random(rng) for _ in range(4))
            w = tuple(field.random(rng) for _ in range(4))
            both = tuple(a + b for a, b in zip(u, w))
            n = rng.randrange(1, 7)
            assert encode_at_node(both, params, n) == (
                encode_at_node(u, params, n) + encode_at_node(w, params, n)
            )


@st.composite
def progression_layouts(draw):
    """(field, K, points): K shard points, then the node points, on one progression
    a + h i mod p; h = 1, 2, p - 1 or any, and K + N up to p in GF(13)."""
    p = draw(st.sampled_from([13, 97, DEFAULT_MODULUS]))
    total = draw(st.integers(2, min(p, 40)))
    a = draw(st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1)))
    h = draw(st.one_of(st.sampled_from([1, 2, p - 1]), st.integers(1, p - 1)))
    return PrimeField(p), draw(st.integers(1, total - 1)), [(a + h * i) % p for i in range(total)]


def layout(field, K, points):
    return EncodingParams(omegas=tuple(map(field, points[:K])),
                          alphas=tuple(map(field, points[K:])), d=1)


def general_matrix(field, K, points):
    """The Lagrange matrix from the shard point set, as off a progression."""
    with general_path():
        return layout(field, K, points).lagrange_matrix


class TestClosedFormMatrix:
    """On a layout whose shard and then node points lie on one progression, L_k(alpha_n) =
    (K+n-1)!/(n-1)! (-1)^(K-k)/((k-1)! (K-k)!) / (K+n-k): against the general path."""

    @given(case=progression_layouts())
    @settings(max_examples=100)
    def test_matches_the_general_path(self, case):
        field, K, points = case
        assert layout(field, K, points).lagrange_matrix == general_matrix(field, K, points)

    @pytest.mark.parametrize("p, a, h, K, N", [
        (13, 1, 1, 4, 9), (13, 7, 5, 6, 7), (13, 2, 12, 1, 11),  # K + N = p or nearly
        (97, 1, 1, 20, 77), (97, 80, 3, 30, 66), (97, 10, 96, 40, 55),  # wrap-around
        (DEFAULT_MODULUS, 1, 1, 20, 120), (DEFAULT_MODULUS, DEFAULT_MODULUS - 7, 1, 5, 30),
        (DEFAULT_MODULUS, 5, DEFAULT_MODULUS - 1, 8, 30), (DEFAULT_MODULUS, 99, 31337, 12, 40),
    ])
    def test_small_fields_and_wrap_around(self, p, a, h, K, N):
        field = PrimeField(p)
        points = [(a + h * i) % p for i in range(K + N)]
        params = layout(field, K, points)
        assert params.lagrange_matrix == general_matrix(field, K, points)
        view = tuple(range(3, 3 + K))
        assert params.encode_each([view], [0] * N) == [
            sum(x * y for x, y in zip(row, view)) % p for row in general_matrix(field, K, points)]

    @pytest.mark.parametrize("K, points", [
        (3, [1, 2, 3, 5, 6, 7]),  # a gap between the shard and the node points
        (3, [4, 5, 6, 1, 2, 3]),  # nodes before shards
        (2, [1, 3, 2, 4, 5]),  # shards out of order
        (3, [1, 2, 3, 4, 5, 7]),  # a gap among the nodes
    ])
    def test_other_layouts_take_the_general_path(self, gf97, monkeypatch, K, points):
        def no_table(n, p):
            raise AssertionError("the factorial table was read off a progression")

        monkeypatch.setattr(lcc, "factorial_table", no_table)
        params = layout(gf97, K, points)
        assert params.lagrange_matrix == tuple(
            tuple(product_basis(params, k, alpha).value for k in range(1, K + 1))
            for alpha in params.alphas)


class TestEncodeAllNodes:
    """`EncodingParams.encode_each` against its one-node oracle `encode_at_node`."""

    @pytest.mark.parametrize("K, N", [(1, 1), (1, 7), (4, 9), (20, 120), (30, 12)])
    def test_matches_encode_at_node_on_default_layout(self, field, rng, K, N):
        params = EncodingParams.default(K, N, 2, field)
        p = field.modulus
        views = [tuple(field.random(rng) for _ in range(K)), (field(p - 1),) * K, (0,) * K,
                 tuple(rng.randrange(-2 * p, 3 * p) for _ in range(K))]  # ints out of range
        views.append(tuple(x.value for x in views[0]))
        for view in views:
            coded = params.encode_each([view], [0] * N)
            assert coded == [encode_at_node(view, params, n).value for n in range(1, N + 1)]

    def test_matches_encode_at_node_on_custom_layout(self, gf97, gf7, rng):
        params = EncodingParams(omegas=tuple(map(gf97, (90, 3, 41, 17))),
                                alphas=tuple(map(gf97, (0, 96, 55, 8, 23))), d=2)
        for _ in range(20):
            residues = tuple(rng.randrange(-200, 300) for _ in range(4))
            elements = tuple(map(gf97, residues))
            expected = [encode_at_node(residues, params, n).value for n in range(1, 6)]
            assert (params.encode_each([residues], [0] * 5)
                    == params.encode_each([elements], [0] * 5) == expected)
        for k in range(4):
            for view in (elements, residues):
                mixed = view[:k] + (gf7(3),) + view[k + 1:]
                with pytest.raises(ValueError, match="different field"):
                    params.encode_each([mixed], [0] * 5)
        with pytest.raises(ValueError, match="one payload per shard"):
            params.encode_each([residues[:3]], [0] * 5)

    @pytest.mark.parametrize("K, N", [(1, 1), (3, 8), (6, 40), (20, 120)])
    def test_each_matches_encode_at_node(self, field, K, N):
        # views agree on some shards and differ on others: none, one, several or all;
        # the pool may repeat a view, and some views are held by no node
        params, rng, p = EncodingParams.default(K, N, 2, field), random.Random(K * N), field.modulus
        base = [rng.randrange(-p, 2 * p) for _ in range(K)]  # out-of-range ints included
        for varying in ([], [K - 1], rng.sample(range(K), K // 2), list(range(K))):
            pool = []
            for _ in range(rng.choice((1, 2, 16))):
                view = list(base)
                for k in varying:
                    view[k] = rng.choice((0, p - 1, p, rng.randrange(p)))
                pool.append(tuple(view))
            index = [rng.randrange(len(pool)) for _ in range(N)]
            assert params.encode_each(pool, index) == [
                encode_at_node(pool[i], params, n).value for n, i in enumerate(index, 1)]

    def test_each_matches_encode_at_node_on_element_views(self, gf97, gf7, rng):
        # same-field element views that differ at one shard, alone or beside int views,
        # as `encode_at_node` takes them
        params = EncodingParams.default(3, 6, 2, gf97)
        for _ in range(20):
            v1 = tuple(gf97.random(rng) for _ in range(3))
            v2 = (v1[0], v1[1] + gf97.random_nonzero(rng), v1[2])
            ints = tuple(x.value + 97 for x in v1)
            for views, index in (([v1, v2], [0, 1] * 3), ([v2, v1], [1, 1, 0, 1, 1, 0]),
                                 ([ints, v2, v1, v2], [0, 1, 2, 2, 0, 3])):
                assert params.encode_each(views, index) == [
                    encode_at_node(views[i], params, n).value for n, i in enumerate(index, 1)]
        # an element of another field raises, on a varying shard or not, held or not
        foreign = (v1[0], gf7(3), v1[2])
        for views, index in (([v1, foreign], [0, 1] * 3), ([foreign], [0] * 6),
                             ([v1, foreign], [0] * 6)):
            with pytest.raises(ValueError, match="different field"):
                params.encode_each(views, index)

    def test_each_rejects_bad_nodes_and_views(self, field):
        params = EncodingParams.default(3, 8, 2, field)
        for count in (0, 1, 7, 9):
            with pytest.raises(ValueError,
                               match=f"^{count} view indices given, one per node needs 8$"):
                params.encode_each([(1, 2, 3)], [0] * count)
        with pytest.raises(ValueError, match="one payload per shard"):
            params.encode_each([(1, 2, 3), (1, 2)], [0] * 7 + [1])
        with pytest.raises(ValueError, match="one payload per shard"):  # held by no node
            params.encode_each([(1, 2, 3), (1, 2, 3, 4)], [0] * 8)
        for bad in (2, 3, -1, -3):
            with pytest.raises(ValueError, match=r"^a view index lies outside range\(2\)$"):
                params.encode_each([(1, 2, 3), (4, 5, 6)], [0] * 7 + [bad])
        with pytest.raises(ValueError, match=r"outside range\(0\)"):
            params.encode_each([], [0] * 8)

    @given(data=st.data(), K=st.integers(1, 6), N=st.integers(1, 12),
           custom=st.booleans())
    @settings(max_examples=60)
    def test_index_form_matches_encode_at_node(self, data, K, N, custom):
        # views that repeat, views no node holds, ints in and out of [0, p) beside elements,
        # on the default layout or on scattered points
        gf97 = PrimeField(97)
        if custom:
            points = data.draw(st.lists(st.integers(0, 96), min_size=K + N, max_size=K + N,
                                        unique=True))
            params = EncodingParams(omegas=tuple(map(gf97, points[:K])),
                                    alphas=tuple(map(gf97, points[K:])), d=1)
        else:
            params = EncodingParams.default(K, N, 1, gf97)
        payload = st.one_of(st.integers(-200, 300), st.integers(0, 96).map(gf97))
        views = data.draw(st.lists(st.tuples(*[payload] * K), min_size=1, max_size=5))
        views += data.draw(st.lists(st.sampled_from(views), max_size=2))  # repeats
        index = data.draw(st.lists(st.integers(0, len(views) - 1), min_size=N, max_size=N))
        assert params.encode_each(views, index) == [
            encode_at_node(views[i], params, n).value for n, i in enumerate(index, 1)]

class TestBuildCodedPoly:
    def test_constant_view(self, gf97, rng):
        params = three_shard_params(gf97)
        c = gf97.random(rng)
        assert build_coded_poly((c, c, c), params) == Polynomial(gf97, [c])

    def test_roundtrip_at_shard_points(self, field, rng):
        params = EncodingParams.default(6, 8, 2, field)
        for _ in range(10):
            view = tuple(field.random(rng) for _ in range(6))
            poly = build_coded_poly(view, params)
            assert (poly.degree or 0) <= 5
            for k in range(1, 7):
                assert poly(params.omegas[k - 1]) == view[k - 1]

    def test_three_shard_coefficients(self, field, rng):
        # expansion over shard points 1,2,3 in terms of the payloads:
        #   z^2 (x1/2 - x2 + x3/2) + z (-5 x1/2 + 4 x2 - 3 x3/2) + (3 x1 - 3 x2 + x3)
        params = three_shard_params(field)
        half = field(2).inverse()
        for _ in range(10):
            x1, x2, x3 = (field.random(rng) for _ in range(3))
            poly = build_coded_poly((x1, x2, x3), params)
            assert poly.coefficient(2) == x1 * half - x2 + x3 * half
            assert poly.coefficient(1) == -(field(5) * half) * x1 + 4 * x2 - field(3) * half * x3
            assert poly.coefficient(0) == 3 * x1 - 3 * x2 + x3


class TestComposeVerification:
    def test_square_of_linear(self, gf97, rng):
        f = power_check(2)
        a, b = gf97.random_nonzero(rng), gf97.random(rng)
        q = Polynomial(gf97, [b, a])
        composed = compose_verification(q, [], f)
        assert composed == Polynomial(gf97, [b * b, 2 * a * b, a * a])

    def test_pointwise_oracle(self, field, rng):
        # compose then evaluate == evaluate then apply, at 20 random points
        for d in (2, 3):
            f = power_check(d)
            q = Polynomial(field, [field.random(rng) for _ in range(5)])
            composed = compose_verification(q, [], f)
            for _ in range(20):
                alpha = field.random(rng)
                assert composed(alpha) == f.evaluate(q(alpha), ())
        # with a coded history: the composition evaluated at every node point is
        # the check a node runs on its own coded block and coded chain
        params = EncodingParams.default(4, 9, 2, field)
        views = [tuple(field.random(rng) for _ in range(4)) for _ in range(4)]
        f = history_power_check(2, field(3))
        composed = compose_verification(
            build_coded_poly(views[-1], params), [build_coded_poly(v, params) for v in views[:-1]], f
        )
        assert composed.degree == f.degree * (params.K - 1)
        for n, alpha in enumerate(params.alphas, start=1):
            coded = [encode_at_node(v, params, n) for v in views]
            assert composed(alpha) == f.evaluate(coded[-1], coded[:-1])

    def test_degree_overflow(self, gf97):
        lying = VerificationFn(
            degree=1,
            evaluate=lambda x, history: x * x,
        )
        q = Polynomial(gf97, [1, 2])
        with pytest.raises(DegreeOverflow):
            compose_verification(q, [], lying)


class TestViewConsistency:
    def test_honest_views_on_one_polynomial(self, field, rng):
        # interpolate any K coded blocks, check the remaining N-K fall on the fit
        params = EncodingParams.default(4, 9, 2, field)
        view = tuple(field.random(rng) for _ in range(4))
        blocks = [encode_at_node(view, params, n) for n in range(1, 10)]
        fit = lagrange_interpolate(
            [(params.alphas[n - 1], blocks[n - 1]) for n in (2, 4, 6, 8)]
        )
        for n in range(1, 10):
            assert fit(params.alphas[n - 1]) == blocks[n - 1]

    def test_discrepant_views_break_single_polynomial(self, field, rng):
        params = EncodingParams.default(4, 9, 2, field)
        base = [field.random(rng) for _ in range(4)]
        v1, v2 = tuple(base), tuple([base[0] + 1] + base[1:])
        blocks = [
            encode_at_node(v1 if n % 2 else v2, params, n) for n in range(1, 10)
        ]
        fit = lagrange_interpolate(
            [(params.alphas[n - 1], blocks[n - 1]) for n in range(1, 5)]
        )
        assert any(
            fit(params.alphas[n - 1]) != blocks[n - 1] for n in range(5, 10)
        )
