import ast
import inspect
import random
from functools import reduce
from itertools import zip_longest
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardlab import (
    DEFAULT_MODULUS,
    DuplicateAbscissa,
    FieldElement,
    Polynomial,
    PrimeField,
    build_system,
    lagrange_interpolate,
    proof_params,
    recovery_threshold,
)
from shardlab import field_poly
from shardlab.field_poly import (
    _MR_EXACT_BELOW, PackedMap, PointSet, ResidueVector, _pack, _slot_width, _unpack,
    batch_inverse, echelon, euclid_until, is_prime,
    kernel_vector, nullspace_vector, point_set, poly_divmod, poly_mul, poly_values,
    vanishing_polynomial,
)
from dense_system import Matrix, echelon_rows, matrix_rank, nullspace_basis, vandermonde
from poly_oracle import euclid_steps, schoolbook_mul
from rs_oracle import solve_linear

GF97 = PrimeField(97)

residues = st.integers(min_value=0, max_value=96)
elements = residues.map(GF97)


def vandermonde_det_nonzero(xs):
    """Independent oracle: det of a square Vandermonde is prod of (x_i - x_j)."""
    det = reduce(lambda a, b: a * b,
                 (xs[i] - xs[j] for i in range(len(xs)) for j in range(i)),
                 xs[0].field.one)
    return det.value != 0


class TestPrimality:
    def test_small_primes(self):
        assert [n for n in range(2, 40) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37
        ]

    def test_mersenne(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31)
        assert not is_prime(1)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(91)

    def test_strong_pseudoprime_to_bases_up_to_37(self):
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441
        assert not is_prime(n)
        with pytest.raises(ValueError, match="must be prime"):
            PrimeField(n)

    def test_refuses_at_exactness_bound(self):
        # strong pseudoprime to every base up to 41: no answer here is exact
        n = 3317044064679887385961981
        assert n == 1287836182261 * 2575672364521
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(n)
        with pytest.raises(ValueError, match="exact only below"):
            PrimeField(n)
        assert is_prime(2**61 - 1)


class TestFieldAxioms:
    @given(a=elements, b=elements, c=elements)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(a=elements, b=elements)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(a=st.integers(min_value=1, max_value=96).map(GF97))
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == GF97.one
        assert a / a == 1

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF97.zero.inverse()

    def test_negative_power_of_zero(self):
        # like inverse() and /, not pow's "base is not invertible" ValueError
        for exponent in (-1, -2):
            with pytest.raises(ZeroDivisionError):
                GF97.zero ** exponent
        assert GF97.zero ** 0 == 1 and GF97(5) ** -1 == GF97(5).inverse()

    def test_int_mixing(self, gf7):
        assert gf7(3) + 5 == gf7(1)
        assert 2 * gf7(4) == 1
        assert gf7(3) - 5 == gf7(5)
        assert 1 / gf7(3) == gf7(5)

    def test_cross_field_rejected(self, gf7, gf97):
        with pytest.raises(ValueError):
            gf7(1) + gf97(1)


class TestResidueVector:
    """Every operation against the same operation on each entry's `FieldElement`."""

    @given(xs=st.lists(residues, min_size=1, max_size=8), data=st.data())
    def test_ops_match_the_per_element_oracle(self, xs, data):
        ys = data.draw(st.lists(residues, min_size=len(xs), max_size=len(xs)))
        c = data.draw(st.integers(min_value=-200, max_value=200))
        e = data.draw(elements)
        vx, vy = ResidueVector(xs, GF97), ResidueVector(ys, GF97)
        x, y = list(map(GF97, xs)), list(map(GF97, ys))
        cases = [
            (vx + vy, [a + b for a, b in zip(x, y)]),
            (vx - vy, [a - b for a, b in zip(x, y)]),
            (vx * vy, [a * b for a, b in zip(x, y)]),
            (-vx, [-a for a in x]),
            (vx + c, [a + c for a in x]), (c + vx, [c + a for a in x]),
            (vx - c, [a - c for a in x]), (c - vx, [c - a for a in x]),
            (vx * c, [a * c for a in x]), (c * vx, [c * a for a in x]),
            (vx + e, [a + e for a in x]), (e + vx, [e + a for a in x]),
            (vx - e, [a - e for a in x]), (e - vx, [e - a for a in x]),
            (vx * e, [a * e for a in x]), (e * vx, [e * a for a in x]),
        ]
        for exponent in (0, 1, 2, 5):
            cases.append((vx ** exponent, [a ** exponent for a in x]))
        if all(xs):
            cases.append((vx ** -3, [a ** -3 for a in x]))
        for vector, expected in cases:
            assert isinstance(vector, ResidueVector) and vector.field is GF97
            assert list(vector) == [a.value for a in expected]
            assert len(vector) == len(xs)

    def test_foreign_field_and_length_mismatch_raise(self, gf7):
        v = ResidueVector([1, 2, 3], GF97)
        for other in (gf7(1), ResidueVector([1, 2, 3], gf7), ResidueVector([1, 2], GF97)):
            for op in (lambda a, b: a + b, lambda a, b: b - a, lambda a, b: b * a):
                with pytest.raises(ValueError):
                    op(v, other)

    def test_negative_power_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ResidueVector([3, 0, 5], GF97) ** -1
        assert list(ResidueVector([3, 0], GF97) ** 0) == [1, 1]

    def test_unsupported_operands_are_not_implemented(self):
        with pytest.raises(TypeError):
            ResidueVector([1, 2], GF97) + 1.5


class TestPolynomial:
    def test_eval_square(self, gf7):
        # z^2 at 3: 9 mod 7
        assert Polynomial(gf7, [0, 0, 1])(gf7(3)) == gf7(2)

    def test_eval_zero_poly(self, gf7, rng):
        zero = Polynomial.zero(gf7)
        assert zero.degree is None
        for _ in range(5):
            assert zero(gf7.random(rng)) == 0

    def test_eval_shard_basis_constant_term(self, gf7):
        # (z-2)(z-3)/2 has constant term 6/2 = 3
        basis = (Polynomial(gf7, [-2, 1]) * Polynomial(gf7, [-3, 1])) * gf7(2).inverse()
        assert basis(gf7.zero) == gf7(3)

    def test_canonical_form(self, gf7):
        assert Polynomial(gf7, [1, 2, 0, 0]).coeffs == (gf7(1), gf7(2))
        assert Polynomial(gf7, [0, 0]).is_zero

    def test_divmod_roundtrip(self, gf97, rng):
        for _ in range(20):
            a = Polynomial(gf97, [gf97.random(rng) for _ in range(rng.randrange(1, 6))])
            b = Polynomial(gf97, [gf97.random(rng) for _ in range(rng.randrange(1, 4))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_divmod_by_zero(self):
        for zero in ([], [0], [0, 0], [97, 0]):
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                poly_divmod([1, 2, 3], zero, 97)

    def test_divmod_by_unstripped_divisor(self):
        for b in ([1, 0], [0, 5, 0], [3, 97]):
            with pytest.raises(ValueError, match="zero last coefficient"):
                poly_divmod([1, 2, 3], b, 97)

    def test_pow(self, gf97):
        q = Polynomial(gf97, [1, 1])
        assert q**3 == q * q * q
        assert q**0 == Polynomial(gf97, [1])

    @pytest.mark.parametrize("exponent, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
    def test_pow_makes_no_unused_products(self, gf97, monkeypatch, exponent, products):
        # square-and-multiply: one square per bit below the top, one product per set bit
        # after the first, and neither a product by 1 nor a square past the top bit
        q = Polynomial(gf97, [3, 1, 4])
        expected = Polynomial(gf97, [1])
        for _ in range(exponent):
            expected = Polynomial(gf97, schoolbook_mul(expected.coeffs, q.coeffs, 97))
        calls = []

        def counted(a, b, p):
            calls.append((len(a), len(b)))
            return poly_mul(a, b, p)

        monkeypatch.setattr(field_poly, "poly_mul", counted)
        assert q**exponent == expected
        assert len(calls) == products


class TestInterpolation:
    def test_exact_square_fit(self, gf97):
        pts = [(gf97(1), gf97(1)), (gf97(2), gf97(4)), (gf97(3), gf97(9))]
        assert lagrange_interpolate(pts) == Polynomial(gf97, [0, 0, 1])

    def test_single_point(self, gf97):
        assert lagrange_interpolate([(gf97(5), gf97(42))]) == Polynomial(gf97, [42])

    def test_random_roundtrip(self, gf97, rng):
        # oracle: re-verify every interpolated value by direct evaluation
        for _ in range(20):
            ys = [gf97.random(rng) for _ in range(3)]
            poly = lagrange_interpolate([(gf97(i), y) for i, y in enumerate(ys, 1)])
            for i, y in enumerate(ys, 1):
                assert poly(gf97(i)) == y

    def test_duplicate_abscissa(self, gf97):
        with pytest.raises(DuplicateAbscissa):
            lagrange_interpolate([(gf97(1), gf97(1)), (gf97(1), gf97(2))])

    @given(
        coeffs=st.lists(elements, min_size=1, max_size=6),
        extra=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=50)
    def test_interpolate_inverts_evaluation(self, coeffs, extra):
        poly = Polynomial(GF97, coeffs)
        n = len(coeffs) + extra  # more points than the degree requires
        pts = [(GF97(i), poly(GF97(i))) for i in range(1, n + 1)]
        assert lagrange_interpolate(pts) == poly


def _largest_prime_below(n):
    m = n - 1
    while not is_prime(m):
        m -= 1
    return m


# the largest modulus the library accepts, about 82 bits: the widest Kronecker slots
P_MAX = _largest_prime_below(_MR_EXACT_BELOW)
SLOT_LENGTHS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                127, 128, 129, 255, 256, 257, 299, 300)


class TestKroneckerProduct:
    """`poly_mul` against the schoolbook oracle where the slots are fullest: modulus
    P_MAX, every coefficient p - 1, and min(len) on both sides of the row-by-row cut-over
    and at and around each power of two."""

    def test_largest_modulus(self):
        assert P_MAX.bit_length() == 82 and is_prime(P_MAX)

    @pytest.mark.parametrize("n", SLOT_LENGTHS)
    def test_all_max_coefficients(self, n):
        top = [P_MAX - 1] * n
        for m in {n, n + 1, 300, 1}:
            other = [P_MAX - 1] * m
            out = poly_mul(top, other, P_MAX)
            assert out == schoolbook_mul(top, other, P_MAX) == poly_mul(other, top, P_MAX)
            # (p - 1)^2 = 1 mod p: coefficient k counts the index pairs summing to k
            assert out == [min(k + 1, n, m, n + m - 1 - k) % P_MAX for k in range(n + m - 1)]

    def test_zero_and_empty_operands(self, gf97):
        top = [P_MAX - 1] * 300
        for n in (1, 2, 300):
            assert poly_mul([], top[:n], P_MAX) == poly_mul(top[:n], [], P_MAX) == []
            assert poly_mul([0] * n, top, P_MAX) == [0] * (n + 299)
        zero, q = Polynomial.zero(gf97), Polynomial(gf97, [96] * 300)
        assert (zero * q).is_zero and (q * zero).is_zero

    @given(a=st.lists(st.integers(0, P_MAX - 1), max_size=40),
           b=st.lists(st.integers(0, P_MAX - 1), max_size=40))
    def test_random_operands(self, a, b):
        assert poly_mul(a, b, P_MAX) == schoolbook_mul(a, b, P_MAX)


class TestPackedSums:
    """`_pack` and `_unpack` where the slots are fullest, and the packed quotient rows of a
    `PointSet` against the interpolant built from `Polynomial` products."""

    @pytest.mark.parametrize("p", [97, DEFAULT_MODULUS, 2**61 - 1])
    @pytest.mark.parametrize("terms", [1, 2, 3, 7, 8, 20, 150, 255, 256])
    def test_round_trip_at_the_maximal_slot_sum(self, p, terms):
        width, n = _slot_width(p, terms), 6
        top = _pack([p - 1] * n, width)
        total = sum([top * (p - 1)] * terms)
        # read raw, every slot holds terms (p - 1)^2: nothing carried into a neighbour
        assert _unpack(total, n, width, 1 << 8 * width) == [terms * (p - 1) ** 2] * n
        assert _unpack(total, n, width, p) == [terms % p] * n  # (p - 1)^2 = 1 mod p
        rng = random.Random(terms)
        cs = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(40)]
        assert _unpack(_pack(cs, width), len(cs), width, p) == cs

    def test_packed_map_matches_the_dot_products(self):
        p, rng = 97, random.Random(31)
        vectors = [[rng.randrange(p) for _ in range(9)] for _ in range(5)]
        packed = PackedMap(vectors, p)
        for cs in ([0] * 5, [p - 1] * 5, [rng.randrange(p) for _ in range(5)]):
            expected = [sum(c * v[i] for c, v in zip(cs, vectors)) % p for i in range(9)]
            assert packed.apply(cs) == expected

    @pytest.mark.parametrize("count", [4, 6], ids=["short", "long"])
    def test_packed_map_takes_one_coefficient_per_vector(self, count):
        packed = PackedMap([[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]], 97)
        with pytest.raises(ValueError, match=f"{count} coefficients for 5 vectors"):
            packed.apply([1] * count)

    def test_interpolate_matches_product_form(self):
        p, field = DEFAULT_MODULUS, PrimeField(DEFAULT_MODULUS)
        rng = random.Random(30)
        points = rng.sample(range(p), field_poly._ROWS_UP_TO)
        g, quotients = Polynomial(field, [1]), []  # g and every g/(z - x_j) on points[:n]
        for n, x in enumerate(points, start=1):
            factor = Polynomial(field, [-x, 1])
            g, quotients = g * factor, [q * factor for q in quotients] + [g]
            xs, ys = tuple(points[:n]), [rng.randrange(-3 * p, 3 * p) for _ in range(n)]
            expected = [0] * n  # sum_j y_j w_j g/(z - x_j)
            for y, w, q in zip(ys, product_weights(xs, p), quotients):
                expected = [e + y * w * c for e, c in zip(expected, q.coeffs)]
            form = PointSet(xs, p)
            assert form._rows is not None and form.master == g.coeffs
            assert form.interpolate(ys) == list(Polynomial(field, expected).coeffs)


@st.composite
def point_sets(draw, p=97):
    """Distinct residues xs and values ys, at least one of each."""
    xs = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=40, unique=True))
    ys = draw(st.lists(st.integers(0, p - 1), min_size=len(xs), max_size=len(xs)))
    return tuple(xs), ys


def both_forms(xs, p):
    """The quotient-row and the subproduct-tree `PointSet` of xs, whatever len(xs) is."""
    forms = []
    for cutoff in (len(xs), len(xs) - 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(field_poly, "_ROWS_UP_TO", cutoff)
            forms.append(PointSet(xs, p))
    return forms


def product_weights(xs, p):
    """Oracle: w_j = 1 / prod_{i != j} (x_j - x_i)."""
    return tuple(pow(prod(x - y for y in xs if y != x), p - 2, p) for x in xs)


class TestSubproductTree:
    """The tree form of a `PointSet` against its quotient rows, the O(n^2) reference form."""

    def assert_same_forms(self, xs, ys, p):
        rows, tree = both_forms(xs, p)
        assert rows._levels is None and tree._rows is None
        assert rows.master == tree.master == vanishing_polynomial(xs, PrimeField(p)).coeffs
        assert rows.weights == tree.weights
        assert rows.interpolate(ys) == tree.interpolate(ys)

    @given(case=point_sets())
    @settings(max_examples=150)
    def test_matches_barycentric_sum(self, case):
        self.assert_same_forms(*case, 97)

    @pytest.mark.parametrize("n", [field_poly._ROWS_UP_TO, field_poly._ROWS_UP_TO + 1])
    def test_at_the_cutoff(self, n):
        rng = random.Random(n)
        xs = tuple(rng.sample(range(DEFAULT_MODULUS), n))
        self.assert_same_forms(xs, [rng.randrange(DEFAULT_MODULUS) for _ in xs], DEFAULT_MODULUS)
        point_set.cache_clear()
        assert (point_set(xs, DEFAULT_MODULUS)._rows is None) == (n > field_poly._ROWS_UP_TO)

    def test_weights(self):
        xs = tuple(range(3, 40, 3))
        for form in both_forms(xs, 97):
            assert form.weights == product_weights(xs, 97)

    def test_fields_never_share_an_entry(self):
        point_set.cache_clear()
        xs = (1, 2, 3, 5, 8)
        for p in (97, 101, 97, 101):
            form = point_set(xs, p)
            assert form.master == vanishing_polynomial(xs, PrimeField(p)).coeffs
            assert form.weights == product_weights(xs, p)
        info = point_set.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    @pytest.mark.parametrize("count", [2, 4], ids=["short", "long"])
    def test_one_value_per_point(self, count):
        for form in both_forms((1, 2, 3), 97):
            with pytest.raises(ValueError, match=f"{count} values for 3 points"):
                form.interpolate([5] * count)

    def test_repeated_point(self):
        with pytest.raises(DuplicateAbscissa):
            point_set((4, 9, 4), 97)
        with pytest.raises(DuplicateAbscissa):
            both_forms((4, 9, 4), 97)


EUCLID_MODULI = (7, 13, 97, DEFAULT_MODULUS, 2**61 - 1)


@st.composite
def euclid_inputs(draw):
    """(p, r0, r) with len(r) <= len(r0), neither with trailing zeros. Mostly Gao's pair:
    the master polynomial of distinct points and an interpolant through them that is zero,
    of degree < 3 (a long first quotient) or of any degree; else any two residue lists."""
    p = draw(st.sampled_from(EUCLID_MODULI))
    coeffs = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["zero", "low", "any", "lists"]))
    if kind == "lists":
        r0 = draw(st.lists(coeffs, min_size=1, max_size=30))
        r = draw(st.lists(coeffs, max_size=len(r0)))
        r0[-1] = r0[-1] or 1
        return p, r0, list(Polynomial(PrimeField(p), r).coeffs)
    xs = draw(st.lists(coeffs, min_size=1, max_size=min(p, 40), unique=True))
    if kind == "zero":
        ys = [0] * len(xs)
    elif kind == "low":
        ys = poly_values(draw(st.lists(coeffs, min_size=1, max_size=3)), xs, p)
    else:
        ys = draw(st.lists(coeffs, min_size=len(xs), max_size=len(xs)))
    form = PointSet(tuple(xs), p)
    return p, list(form.master), form.interpolate(ys)


class TestPackedEuclid:
    """`euclid_until` against `euclid_steps`, the list Euclid it replaced, at every stop."""

    @staticmethod
    def assert_matches_the_list_euclid(r0, r, p):
        for stop in range(len(r0) + 1):
            assert euclid_until(r0, r, stop, p) == euclid_steps(r0, r, stop, p)

    @given(case=euclid_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_list_euclid(self, case):
        p, r0, r = case
        self.assert_matches_the_list_euclid(r0, r, p)

    @pytest.mark.parametrize("p", [*EUCLID_MODULI, P_MAX])
    def test_fullest_slots(self, p):
        # every coefficient p - 1: a quotient as long as r0, and long quotients by long
        # divisors, whose products each add to the slots they overlap
        n = 64
        for r in ([p - 1], [p - 1] * 2, [p - 1] * (n // 2), [p - 1] * (n - 1)):
            self.assert_matches_the_list_euclid([p - 1] * n, r, p)
        q, r = [1] * (n // 2), [p - 1] * (n // 2)  # -q_j = p - 1 for every j
        for rem in ([], [p - 1] * (n // 2 - 1)):
            r0 = [(a + b) % p for a, b in zip_longest(schoolbook_mul(q, r, p), rem, fillvalue=0)]
            self.assert_matches_the_list_euclid(r0, r, p)

    def test_by_hand(self):
        # over GF(7): z^2 - 1 = 3 (2 + 5 z^2), so one step leaves r = 0 and t = -(2 + 5 z^2)
        assert euclid_until([6, 0, 1], [3], 0, 7) == ([], [5, 0, 2])
        assert euclid_until([6, 0, 1], [3], 1, 7) == ([3], [1])
        assert euclid_until([6, 0, 1], [], 0, 7) == ([], [1])

    def test_explicit_byte_order(self):
        # Python 3.10 has no default length or byte order for int.to_bytes/int.from_bytes
        tree = ast.parse(inspect.getsource(field_poly))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in ("to_bytes", "from_bytes"):
                assert len(call.args) + len(call.keywords) >= 2, ast.unparse(call)
            if isinstance(func, ast.Name) and func.id == "map" and ast.unparse(call.args[0]) in (
                    "int.to_bytes", "int.from_bytes"):
                assert len(call.args) >= 3, ast.unparse(call)


ECHELON_MODULI = (2, 3, 97, DEFAULT_MODULUS, 2**61 - 1, P_MAX)


@st.composite
def echelon_systems(draw):
    """(rows, ncols, p): up to 40 rows of up to 40 residues, drawn densely, from
    {0, 1, p - 1}, or with at most a tenth of each row nonzero, plus zero, duplicate and
    dependent rows, in any order."""
    p = draw(st.sampled_from(ECHELON_MODULI))
    ncols = draw(st.integers(0, 40))
    residue = st.integers(0, p - 1)
    dense = st.lists(draw(st.sampled_from([residue, st.sampled_from([0, 1, p - 1])])),
                     min_size=ncols, max_size=ncols)
    sparse = st.dictionaries(st.integers(0, max(ncols - 1, 0)), st.integers(1, p - 1),
                             max_size=ncols // 10).map(
        lambda at: [at.get(j, 0) for j in range(ncols)])
    rows = draw(st.lists(st.one_of(dense, sparse), max_size=34))
    for _ in range(draw(st.integers(0, 6 if rows else 0))):
        i, j, a, b = (draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1)),
                      draw(residue), draw(residue))
        rows.append(draw(st.sampled_from([
            [0] * ncols, list(rows[i]), [(a * x + b * y) % p for x, y in zip(rows[i], rows[j])],
        ])))
    return draw(st.permutations(rows)), ncols, p


def fullest_slots(n, p):
    """n rows of rank n whose last row meets a multiplier of p - 1 and a kept entry of
    p - 1 at every column: its slot j gains j products (p - 1)^2, the most any slot can."""
    kept = [[0] * c + [1] + [p - 1] * (n - c - 1) for c in range(n - 1)]
    # after the pivots left of j, slot j reads x_j + j (p - 1)^2 = x_j + j = 1 mod p
    return [*kept, [1, *((1 - j) % p for j in range(1, n))]]


class TestPackedEchelon:
    """`echelon` against `echelon_rows`, the list elimination it replaced."""

    @given(case=echelon_systems())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_list_echelon(self, case):
        rows, ncols, p = case
        assert echelon(rows, ncols, p) == echelon_rows(rows, ncols, p)

    @pytest.mark.parametrize("p", ECHELON_MODULI)
    def test_fullest_slots(self, p):
        for n in (2, 3, 5, 17, 40):
            rows = fullest_slots(n, p)
            kept = echelon(rows, n, p)
            assert kept == echelon_rows(rows, n, p) and len(kept) == n
        # rows of p - 1 on ever longer prefixes, full rank: each reduces through every
        # pivot before it
        rows = [[p - 1] * (i + 1) + [0] * (n - i - 1) for i in range(n)]
        assert echelon(rows, n, p) == echelon_rows(rows, n, p)

    @pytest.mark.parametrize("config, ns", [
        ((3, 2, 2, 8, 1), None), ((2, 2, 3, 6, 2), None), ((3, 3, 2, 6, 1), (40,)),
    ])
    def test_rank_systems(self, field, config, ns):
        # sweep_rank's layouts at every N it sweeps, and a 153 x 262 system
        th = recovery_threshold(*config)
        for n in ns or range(th - 8, th + 3):
            sys_m = build_system(proof_params(*config, n, field))
            assert echelon(sys_m.R, sys_m.ncols, field.modulus) == echelon_rows(
                sys_m.R, sys_m.ncols, field.modulus)

    @pytest.mark.parametrize("bad, column", [(-1, 1), (97, 2), (10**30, 0)])
    def test_rejects_entries_outside_the_residues(self, bad, column):
        rows = [[1, 2, 3], [4, 5, 6]]
        rows[1][column] = bad
        with pytest.raises(ValueError, match=f"row 1, column {column}: {bad} is not a residue"):
            echelon(rows, 3, 97)

    def test_accepts_p_minus_one(self):
        rows = [[96, 96, 0], [96, 0, 96], [0, 96, 96]]
        assert echelon(rows, 3, 97) == echelon_rows(rows, 3, 97) == {
            0: [1, 1, 0], 1: [0, 1, 96], 2: [0, 0, 1]}


class TestVandermonde:
    def test_descending_two_rows(self, gf97):
        a1, a2 = gf97(5), gf97(11)
        m = vandermonde([a1, a2], 3)
        assert (m.nrows, m.ncols) == (2, 4)
        assert m.rows[0] == (a1**3, a1**2, a1, gf97.one)
        assert m.rows[1] == (a2**3, a2**2, a2, gf97.one)

    def test_empty(self, gf97):
        m = vandermonde([], 2, field=gf97)
        assert (m.nrows, m.ncols) == (0, 3)
        assert matrix_rank(m) == 0

    def test_full_rank_three_points(self, gf7):
        xs = [gf7(1), gf7(2), gf7(3)]
        assert vandermonde_det_nonzero(xs)  # oracle agrees rank is full
        assert matrix_rank(vandermonde(xs, 2)) == 3

    def test_rank_is_min_of_dims(self, gf97, rng):
        for _ in range(20):
            n = rng.randrange(1, 7)
            degree = rng.randrange(0, 8)
            xs = rng.sample(range(97), n)
            m = vandermonde([gf97(x) for x in xs], degree)
            assert matrix_rank(m) == min(n, degree + 1)


def identity(field, n):
    return Matrix(field, [[int(i == j) for j in range(n)] for i in range(n)])


class TestRankNullspace:
    def test_identity(self, gf7):
        assert matrix_rank(identity(gf7, 4)) == 4
        assert nullspace_basis(identity(gf7, 3)) == []

    def test_zero_matrix(self, gf7):
        m = Matrix(gf7, [[0] * 5 for _ in range(3)])
        assert matrix_rank(m) == 0
        assert len(nullspace_basis(m)) == 5

    def test_sum_constraint(self, gf7):
        # x + y = 0 has the single line x = -y
        basis = nullspace_basis(Matrix(gf7, [[1, 1]]))
        assert len(basis) == 1
        x, y = basis[0]
        assert x and x == -y

    def test_nullspace_vector_rechecks_rows(self, gf97):
        # pivots of other rows give a vector that misses these rows: caught by multiplication
        pivots = echelon([[1, 2]], 2, 97)
        assert nullspace_vector([[1, 2]], 2, gf97, pivots, 1) == (gf97(-2), gf97(1))
        with pytest.raises(AssertionError, match="failed verification"):
            nullspace_vector([[1, 1]], 2, gf97, pivots, 1)

    def test_kernel_vector_needs_a_free_column(self, gf97):
        # column 1 is a pivot, -1 would index from the end, 3 is past the last column
        rows = [[1, 2, 3], [0, 1, 4]]
        pivots = echelon(rows, 3, 97)
        assert nullspace_vector(rows, 3, gf97, pivots, 2) == (gf97(5), gf97(-4), gf97(1))
        for free in (0, 1, -1, 3):
            with pytest.raises(ValueError, match=f"column {free} is not a non-pivot column"):
                kernel_vector(pivots, 3, 97, free)
            with pytest.raises(ValueError, match=f"column {free} is not a non-pivot column"):
                nullspace_vector(rows, 3, gf97, pivots, free)

    def test_nullity_plus_rank(self, gf97, rng):
        for _ in range(20):
            nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
            m = Matrix(gf97, [[gf97.random(rng) for _ in range(ncols)] for _ in range(nrows)])
            basis = nullspace_basis(m)  # each vector verified internally
            assert len(basis) == ncols - matrix_rank(m)


any_ints = st.integers(min_value=-300, max_value=300)  # inside and outside [0, 97)
coeff_lists = st.lists(st.one_of(elements, any_ints), max_size=7)


def is_residue_tuple(values, p):
    return isinstance(values, tuple) and all(type(v) is int and 0 <= v < p for v in values)


def fe_strip(cs):
    """Schoolbook canonical form: FieldElement list without trailing zeros, as residues."""
    cs = [GF97(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(c.value for c in cs)


def fe_eval(cs, x):
    return sum((GF97(c) * GF97(x) ** i for i, c in enumerate(cs)), GF97.zero)


def fe_divmod(a, b):
    """Long division written on FieldElements alone."""
    rem = [GF97(c) for c in fe_strip(a)]
    div = [GF97(c) for c in fe_strip(b)]
    quot = [GF97.zero] * max(0, len(rem) - len(div) + 1)
    while len(rem) >= len(div):
        shift = len(rem) - len(div)
        c = rem[-1] / div[-1]
        quot[shift] = c
        for j, d in enumerate(div):
            rem[shift + j] = rem[shift + j] - c * d
        rem = [GF97(v) for v in fe_strip(rem)]
    return fe_strip(quot), fe_strip(rem)


def schoolbook_rref(rows, ncols):
    """Gauss-Jordan on FieldElements, every row updated across all its columns."""
    rows = [[GF97(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [[x.value for x in row] for row in rows], pivots


@st.composite
def degenerate_matrices(draw):
    """GF(97) rows with zero columns, repeated rows and combinations of rows."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(residues, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    rows = [[0 if c in zero_cols else x for c, x in enumerate(row)] for row in rows]
    picks = st.integers(0, len(rows) - 1)
    for _ in range(draw(st.integers(0, 2))):
        rows.append(list(rows[draw(picks)]))
    for _ in range(draw(st.integers(0, 2))):
        a, b, i, j = draw(residues), draw(residues), draw(picks), draw(picks)
        rows.append([(a * x + b * y) % 97 for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows)), ncols


class TestEqualityAndHash:
    @given(a=any_ints, b=any_ints)
    def test_equal_objects_hash_equal(self, a, b):
        for x, y in ((GF97(a), b), (a, GF97(b)), (GF97(a), GF97(b))):
            if x == y:
                assert hash(x) == hash(y)

    def test_int_equals_only_its_canonical_residue(self, gf7):
        assert gf7(3) == 3 and 3 == gf7(3)
        assert gf7(0) != 7 and gf7(6) != -1
        assert gf7(0) in {0} and gf7(0) not in {7}
        table = {gf7(3): "x"}
        assert table.get(3) == "x" and table.get(10) is None

    @given(a=coeff_lists, b=coeff_lists, c=any_ints)
    def test_polynomial_equals_only_polynomials(self, a, b, c):
        pa, pb = Polynomial(GF97, a), Polynomial(GF97, b)
        if pa == pb:
            assert hash(pa) == hash(pb)
        for poly in (pa, Polynomial(GF97, [c])):
            assert poly != c and c != poly
            assert poly != GF97(c) and GF97(c) != poly


class TestKernelOracle:
    """Polynomial arithmetic and the residue-row kernel against schoolbook FieldElement
    computations."""

    @given(a=coeff_lists, b=coeff_lists)
    def test_add_sub_mul(self, a, b):
        pa, pb = Polynomial(GF97, a), Polynomial(GF97, b)
        n = max(len(a), len(b))
        fa = [GF97(c) for c in a] + [GF97.zero] * (n - len(a))
        fb = [GF97(c) for c in b] + [GF97.zero] * (n - len(b))
        assert (pa + pb).coeffs == fe_strip([x + y for x, y in zip(fa, fb)])
        assert (pa - pb).coeffs == fe_strip([x - y for x, y in zip(fa, fb)])
        prod = [GF97.zero] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = prod[i + j] + GF97(x) * GF97(y)
        assert (pa * pb).coeffs == fe_strip(prod)

    @given(a=coeff_lists, b=coeff_lists.filter(lambda cs: any(GF97(c) for c in cs)))
    def test_divmod(self, a, b):
        q, r = divmod(Polynomial(GF97, a), Polynomial(GF97, b))
        assert (q.coeffs, r.coeffs) == fe_divmod(a, b)

    @given(cs=coeff_lists, x=st.one_of(elements, any_ints))
    def test_evaluation(self, cs, x):
        assert Polynomial(GF97, cs)(x) == fe_eval(cs, x)

    @given(xs=st.lists(residues, min_size=1, max_size=6, unique=True),
           ys=st.lists(elements, min_size=6, max_size=6))
    @settings(max_examples=50)
    def test_lagrange_interpolate(self, xs, ys):
        points = [(GF97(x), y) for x, y in zip(xs, ys)]
        poly = lagrange_interpolate(points)
        assert poly.is_zero or poly.degree < len(points)
        for z in range(97):
            expected = GF97.zero
            for i, (xi, yi) in enumerate(points):
                term = yi
                for j, (xj, _) in enumerate(points):
                    if j != i:
                        term = term * (GF97(z) - xj) / (xi - xj)
                expected = expected + term
            assert poly(GF97(z)) == expected

    @given(xs=st.lists(residues, max_size=6, unique=True))
    def test_vanishing_polynomial(self, xs):
        m = vanishing_polynomial(xs, GF97)
        prod = [GF97.one]  # ascending: multiply by (z - x) one factor at a time
        for x in xs:
            prod = [lo - GF97(x) * hi for lo, hi in zip([GF97.zero, *prod], [*prod, GF97.zero])]
        assert m.coeffs == fe_strip(prod)
        assert [z for z in range(97) if not m(GF97(z))] == sorted(xs)

    @given(values=st.lists(st.integers(1, 96), max_size=8))
    def test_batch_inverse(self, values):
        assert batch_inverse(values, 97) == [pow(v, 95, 97) for v in values]
        with pytest.raises(ZeroDivisionError):
            batch_inverse([*values, 0], 97)

    @given(xs=st.lists(residues, min_size=1, max_size=8, unique=True))
    def test_barycentric(self, xs):
        # the interpolant of the unit values at x_j is L_j = w_j g/(z - x_j)
        form = point_set(tuple(xs), 97)
        g = vanishing_polynomial(xs, GF97)
        assert form.master == g.coeffs
        for j, (x, w) in enumerate(zip(xs, form.weights)):
            others = [GF97(x) - y for y in xs if y != x]
            assert GF97(w) * reduce(lambda a, b: a * b, others, GF97.one) == 1
            unit = [int(i == j) for i in range(len(xs))]
            assert form.interpolate(unit) == list((g // Polynomial(GF97, [-x, 1]) * w).coeffs)
        with pytest.raises(DuplicateAbscissa):
            point_set((*xs, xs[0]), 97)

    @given(data=degenerate_matrices())
    @settings(max_examples=200)
    def test_echelon_and_kernel_vector(self, data):
        rows, ncols = data
        red, pivots = schoolbook_rref(rows, ncols)
        kept = echelon(rows, ncols, 97)
        assert sorted(kept) == pivots
        assert all(row[c] == 1 and not any(row[:c]) for c, row in kept.items())
        for free in sorted(set(range(ncols)) - set(pivots)):
            expected = [0] * ncols
            expected[free] = 1
            for i, c in enumerate(pivots):
                expected[c] = -red[i][free] % 97
            assert kernel_vector(kept, ncols, 97, free) == expected

    @pytest.mark.parametrize("nrows, ncols", [(0, 3), (2, 0), (0, 0)])
    def test_empty_shapes(self, nrows, ncols):
        m = Matrix(GF97, [[]] * nrows, ncols=ncols)
        assert matrix_rank(m) == 0
        units = [tuple(GF97(int(i == j)) for i in range(ncols)) for j in range(ncols)]
        assert nullspace_basis(m) == units
        assert solve_linear(m, [0] * nrows) == [GF97.zero] * ncols
        if nrows:
            # no column can produce a nonzero right-hand side
            assert solve_linear(m, [0, GF97(5)]) is None

    @given(rows=st.lists(st.lists(st.one_of(elements, any_ints), min_size=3, max_size=3),
                         max_size=4),
           vec=st.lists(st.one_of(elements, any_ints), min_size=3, max_size=3))
    def test_mul_vec(self, rows, vec):
        out = Matrix(GF97, rows, ncols=3).mul_vec(vec)
        assert out == tuple(
            sum((GF97(a) * GF97(b) for a, b in zip(row, vec)), GF97.zero) for row in rows
        )


class TestKernelBoundary:
    """Residues inside Polynomial and in linear-algebra rows, FieldElements at every accessor."""

    def test_residue_conversion(self, gf7, gf97):
        assert gf7.residue(10) == 3 and gf7.residue(-1) == 6
        assert gf7.residue(gf7(5)) == 5
        with pytest.raises(ValueError, match="different field"):
            gf7.residue(gf97(5))

    @given(a=coeff_lists, b=coeff_lists.filter(lambda cs: any(GF97(c) for c in cs)),
           x=st.one_of(elements, any_ints))
    def test_polynomials_hold_residues(self, a, b, x):
        pa, pb = Polynomial(GF97, a), Polynomial(GF97, b)
        for poly in (pa, pa + pb, pa - pb, -pa, pa * pb, pa * x, pa**2, *divmod(pa, pb)):
            assert is_residue_tuple(poly.coeffs, 97)
        for value in (pa.coefficient(0), pa.coefficient(10), pa(x)):
            assert isinstance(value, FieldElement) and value.field == GF97

    @given(rows=st.lists(st.lists(st.one_of(elements, any_ints), min_size=2, max_size=2),
                         min_size=1, max_size=3))
    def test_matrices_hold_residues(self, rows):
        m = Matrix(GF97, rows)
        assert isinstance(m.rows, tuple)
        assert all(is_residue_tuple(row, 97) for row in m.rows)
        assert isinstance(m[0, 1], FieldElement) and m[0, 1].field == GF97
        assert all(isinstance(v, FieldElement) for v in m.mul_vec([1, GF97(2)]))
        sol = solve_linear(m, [0] * m.nrows)
        assert all(isinstance(v, FieldElement) and v.field == GF97 for v in sol)
        pivots = echelon(m.rows, 2, 97)
        assert all(is_residue_tuple(tuple(row), 97) for row in pivots.values())
        for free in set(range(2)) - set(pivots):
            vec = nullspace_vector(m.rows, 2, GF97, pivots, free)
            assert all(isinstance(v, FieldElement) and v.field == GF97 for v in vec)

    def test_interpolant_and_vandermonde_hold_residues(self, gf97):
        poly = lagrange_interpolate([(gf97(1), gf97(5)), (gf97(2), gf97(90)), (gf97(4), 3)])
        assert is_residue_tuple(poly.coeffs, 97)
        # R's rows are signed multiples of Vandermonde rows at the shard points
        sys_m = build_system(proof_params(2, 1, 2, 3, 1, 9, gf97))
        assert isinstance(sys_m.R, tuple) and sys_m.R
        assert all(is_residue_tuple(row, 97) and len(row) == sys_m.ncols for row in sys_m.R)

    def test_foreign_field_rejected(self, gf7, gf97):
        poly = Polynomial(gf97, [1, 2])
        m = Matrix(gf97, [[1, 2], [3, 4]])
        for build in (
            lambda: Polynomial(gf97, [1, gf7(1)]),
            lambda: Matrix(gf97, [[1, gf7(1)]]),
            lambda: poly(gf7(3)),
            lambda: m.mul_vec([gf97(1), gf7(1)]),
            lambda: solve_linear(m, [gf97(1), gf7(1)]),
        ):
            with pytest.raises(ValueError, match="different field"):
                build()
