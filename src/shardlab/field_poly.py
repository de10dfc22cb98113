"""Exact arithmetic substrate: prime fields, univariate polynomials, residue rows.

Everything is integer arithmetic modulo a prime, so ranks, nullspaces and the
decoders built on top never need a numerical tolerance.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat, zip_longest
from operator import mul
from typing import Iterable, Sequence

# Mersenne prime: large enough that random-instance degeneracies have
# probability ~N/p, small enough for fast native arithmetic.
DEFAULT_MODULUS = 2**31 - 1

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Smallest strong pseudoprime to every base above: the test is exact below it.
_MR_EXACT_BELOW = 3317044064679887385961981
# Longest operand `poly_mul` multiplies row by row: packing costs more below it.
_SHORT = 4


class DuplicateAbscissa(ValueError):
    """Two interpolation points share an x coordinate."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 3317044064679887385961981.

    Raises ValueError at or above that bound, where it could not be exact.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"cannot decide whether {n} is prime: the test is exact only below "
            f"{_MR_EXACT_BELOW}"
        )
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p; instances double as element factories."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        if not is_prime(modulus):
            raise ValueError(f"field modulus must be prime, got {modulus}")
        self.modulus = modulus

    def residue(self, value: "int | FieldElement") -> int:
        """The canonical residue in [0, p) of an int or of an element of this field."""
        if isinstance(value, FieldElement):
            if value.field.modulus != self.modulus:
                raise ValueError("element belongs to a different field")
            return value.value
        return int(value) % self.modulus

    def __call__(self, value: "int | FieldElement") -> "FieldElement":
        return FieldElement(self.residue(value), self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def random(self, rng) -> "FieldElement":
        return FieldElement(rng.randrange(self.modulus), self)

    def random_nonzero(self, rng) -> "FieldElement":
        return FieldElement(rng.randrange(1, self.modulus), self)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.modulus})"


class FieldElement:
    """Residue in [0, p). Immutable; hashable; mixes with ints, equals only its own."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value
        self.field = field

    def _other(self, other) -> int | None:
        if isinstance(other, (FieldElement, int)):
            return self.field.residue(other)
        return None

    def __add__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return FieldElement((self.value + v) % self.field.modulus, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return FieldElement((self.value - v) % self.field.modulus, self.field)

    def __rsub__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return FieldElement((v - self.value) % self.field.modulus, self.field)

    def __mul__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.value * v % self.field.modulus, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value % self.field.modulus, self.field)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        p = self.field.modulus
        return FieldElement(pow(self.value, p - 2, p), self.field)

    def __truediv__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero field element")
        p = self.field.modulus
        return FieldElement(self.value * pow(v, p - 2, p) % p, self.field)

    def __rtruediv__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return FieldElement(v, self.field) / self

    def __pow__(self, exponent: int):
        return FieldElement(pow(self.value, exponent, self.field.modulus), self.field)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.value == other.value and self.field.modulus == other.field.modulus
        if isinstance(other, int):
            # no reduction: equal objects must hash equal, and hash(7) != hash(0)
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value}"


class Polynomial:
    """Univariate polynomial; `coeffs` holds int residues, ascending, no trailing zeros."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int | FieldElement] = ()):
        p, residue = field.modulus, field.residue
        cs = [c % p if type(c) is int else residue(c) for c in coeffs]  # ints skip the call
        self.field = field
        self.coeffs = tuple(_strip(cs))

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        return cls(field, ())

    @property
    def degree(self) -> int | None:
        """Index of the last nonzero coefficient; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> FieldElement:
        return FieldElement(self.coeffs[i] if i < len(self.coeffs) else 0, self.field)

    def _coeffs_of(self, other: "Polynomial") -> tuple[int, ...]:
        if other.field != self.field:
            raise ValueError("element belongs to a different field")
        return other.coeffs

    def __call__(self, point: FieldElement) -> FieldElement:
        p = self.field.modulus
        x = self.field.residue(point)
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return FieldElement(acc, self.field)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        pairs = zip_longest(self.coeffs, self._coeffs_of(other), fillvalue=0)
        return Polynomial(self.field, (a + b for a, b in pairs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        pairs = zip_longest(self.coeffs, self._coeffs_of(other), fillvalue=0)
        return Polynomial(self.field, (a - b for a, b in pairs))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(self.field, poly_mul(self.coeffs, self._coeffs_of(other),
                                                   self.field.modulus))
        if isinstance(other, (FieldElement, int)):
            s = self.field.residue(other)
            return Polynomial(self.field, (c * s for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined")
        result, base = None, self
        while exponent:  # square-and-multiply: no product by 1, no square past the top bit
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return Polynomial(self.field, (1,)) if result is None else result

    def __divmod__(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            return NotImplemented
        quot, rem = poly_divmod(self.coeffs, self._coeffs_of(other), self.field.modulus)
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.field!r}, {list(self.coeffs)})"


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Product of two ascending residue lists by Kronecker substitution: pack each into
    one int, one slot per coefficient, multiply once and read the slots back mod p.

    A slot of the integer product holds a sum of at most min(len(a), len(b)) products of
    residues below p, so 2 bitlen(p - 1) + bitlen(min(len(a), len(b))) bits never carry.
    An operand of at most _SHORT coefficients is cheaper as that many scaled shifted
    copies of the other.
    """
    if not a or not b:
        return []
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    if len(short) <= _SHORT:
        out, n = [0] * (len(a) + len(b) - 1), len(long)
        for i, s in enumerate(short):
            out[i:i + n] = [o + s * c for o, c in zip(out[i:i + n], long)]
        return [o % p for o in out]
    width = (2 * (p - 1).bit_length() + len(short).bit_length() + 7) // 8
    packed = [int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(width), repeat("little"))),
                             "little") for cs in (a, b)]
    n = len(a) + len(b) - 1
    out = (packed[0] * packed[1]).to_bytes(n * width, "little")
    return [int.from_bytes(out[i:i + width], "little") % p for i in range(0, n * width, width)]


def _strip(cs: list[int]) -> list[int]:
    """`cs` without trailing zero coefficients."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """a - b on ascending residue lists, without trailing zeros."""
    return _strip([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ascending residue lists by long division; `b` must have
    a nonzero last coefficient. The remainder has no trailing zeros."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    dd = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * max(0, len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] * inv_lead % p
        if c:
            quot[i - dd] = c
            # reduced once at the end: each step adds less than p^2 to an entry
            rem[i - dd:i] = [r - c * d for r, d in zip(rem[i - dd:i], b)]
    return quot, _strip([r % p for r in rem[:dd]])


def vanishing_polynomial(xs: Iterable[int | FieldElement], field: PrimeField) -> Polynomial:
    """The monic polynomial prod (z - x) over xs: its roots are exactly the xs.

    One linear factor at a time: for the few dozen points its callers pass, this is
    faster than `subproduct_tree`, which the decoder uses for its N points."""
    p = field.modulus
    m = [1]  # ascending
    for x in xs:
        a = field.residue(x)
        m = [(lo - a * hi) % p for lo, hi in zip([0, *m], [*m, 0])]
    return Polynomial(field, m)


def batch_inverse(values: Sequence[int], p: int) -> list[int]:
    """Inverses of nonzero residues from one exponentiation (Montgomery's trick)."""
    prefix = list(accumulate(values, lambda a, b: a * b % p, initial=1))
    if not prefix[-1]:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    inv, out = pow(prefix[-1], p - 2, p), [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i], inv = inv * prefix[i] % p, inv * values[i] % p
    return out


def poly_values(cs: Sequence[int], xs: Sequence[int], p: int) -> list[int]:
    """The polynomial with ascending residues cs at every x in xs, by one Horner pass."""
    acc = [0] * len(xs)
    for c in reversed(cs):
        acc = [(a * x + c) % p for a, x in zip(acc, xs)]
    return acc


def barycentric(xs: Sequence[int],
                field: PrimeField) -> tuple[Polynomial, list[int], list[list[int]]]:
    """Master polynomial g = prod (z - x_j) of distinct residues xs, the barycentric weights
    w_j = 1/g'(x_j), and the quotients g/(z - x_j) as rows (row i holds coefficient i of
    each), by synthetic division at every x at once: L_j = w_j g/(z - x_j)."""
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation points must have distinct x values")
    p = field.modulus
    g = vanishing_polynomial(xs, field)
    rows, q, derivs = [], [0] * len(xs), [0] * len(xs)
    for c in reversed(g.coeffs[1:]):
        q = [(a * x + c) % p for a, x in zip(q, xs)]
        derivs = [(d * x + a) % p for d, x, a in zip(derivs, xs, q)]  # Horner: g'(x_j)
        rows.append(q)
    return g, batch_inverse(derivs, p), rows[::-1]


def barycentric_sum(form: tuple[Polynomial, Sequence[int], Sequence[Sequence[int]]],
                    ys: Sequence[int]) -> Polynomial:
    """The polynomial of degree < len(xs) through the (x_j, y_j), from the triple
    `form = barycentric(xs, field)`: sum_j y_j w_j g/(z - x_j)."""
    g, w, rows = form
    cs = [y * wj % g.field.modulus for y, wj in zip(ys, w)]
    return Polynomial(g.field, [sum(map(mul, row, cs)) for row in rows])


@lru_cache(maxsize=16)
def subproduct_tree(xs: tuple[int, ...], p: int) -> tuple[tuple[tuple[tuple[int, ...], ...], ...],
                                                          tuple[int, ...]]:
    """Subproduct tree of the z - x over distinct nonempty residues xs, leaves first, and
    the barycentric weights w_j = 1/g'(x_j) of their product g, as tuples: built once per
    (xs, p) and shared by every interpolation on these points, at the cost of one
    O(len(xs)^2) Horner pass. Each level holds the products of adjacent pairs of the
    level below (an odd last node moves up unchanged), and the top level g alone."""
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation points must have distinct x values")
    level: list[Sequence[int]] = [(-x % p, 1) for x in xs]
    levels = [level]
    while len(level) > 1:
        level = [poly_mul(a, b, p) for a, b in zip(level[::2], level[1::2])
                 ] + level[len(level) - len(level) % 2:]
        levels.append(level)
    g = level[0]
    derivs = poly_values([i * c % p for i, c in enumerate(g)][1:], xs, p)
    return tuple(tuple(map(tuple, level)) for level in levels), tuple(batch_inverse(derivs, p))


def tree_interpolate(xs: tuple[int, ...], ys: Sequence[int],
                     p: int) -> tuple[list[int], list[int]]:
    """Master polynomial g = prod (z - x_j) of distinct residues xs, and the polynomial of
    degree < len(xs) through the (x_j, y_j), as residue lists, on `subproduct_tree(xs, p)`:
    the numerator sum_j y_j w_j g/(z - x_j) combines up the tree, n = n_L g_R + n_R g_L
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 10)."""
    levels, weights = subproduct_tree(xs, p)
    nums = [[y * w % p] for y, w in zip(ys, weights)]
    for level in levels[:-1]:
        pairs = zip(nums[::2], nums[1::2], level[::2], level[1::2])
        nums = [[(u + v) % p for u, v in zip_longest(poly_mul(n_l, g_r, p), poly_mul(n_r, g_l, p),
                                                     fillvalue=0)]
                for n_l, n_r, g_l, g_r in pairs] + nums[len(level) - len(level) % 2:]
    return list(levels[-1][0]), _strip(nums[0])


def lagrange_interpolate(points: Sequence[tuple[FieldElement, FieldElement]]) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given (x, y) pairs."""
    if not points:
        raise ValueError("at least one interpolation point is required")
    field = points[0][0].field
    xs = tuple(field.residue(x) for x, _ in points)
    return Polynomial(field, tree_interpolate(xs, [field.residue(y) for _, y in points],
                                              field.modulus)[1])


def echelon(rows: Iterable[Sequence[int]], ncols: int, p: int) -> dict[int, list[int]]:
    """Echelon basis over GF(p) of the span of residue rows, keyed by leading column.

    Each row is reduced left to right against the rows kept so far; a nonzero
    remainder is kept, scaled to 1 at its leading column. Every echelon basis of
    a row space leads at its RREF pivot columns, so the keys are those.
    """
    kept: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        for c in range(ncols):
            f = row[c]
            if f and c in kept:
                # both rows are zero left of c, so only columns c.. change
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], kept[c][c:])]
            elif f:
                inv = pow(f, p - 2, p)
                row[c:] = [x * inv % p for x in row[c:]]
                kept[c] = row
                break
    return kept


def kernel_vector(pivots: dict[int, list[int]], ncols: int, p: int, free: int) -> list[int]:
    """The x with r @ x = 0 for each row r of `pivots = echelon(...)`, 1 at the non-pivot
    column `free` and 0 at the other non-pivot columns, by back-substitution."""
    vec = [0] * ncols
    vec[free] = 1
    for c in sorted(pivots, reverse=True):
        vec[c] = -sum(map(mul, pivots[c][c + 1:], vec[c + 1:])) % p
    return vec


def nullspace_vector(rows: Sequence[Sequence[int]], ncols: int, field: PrimeField,
                     pivots: dict[int, list[int]], free: int) -> tuple[FieldElement, ...]:
    """The x with r @ x = 0 for each residue row r, 1 at free column `free` and 0 at the
    other free columns, from `kernel_vector` on `pivots = echelon(rows, ...)`, re-verified
    by multiplication."""
    p = field.modulus
    vec = kernel_vector(pivots, ncols, p, free)
    if any(sum(map(mul, row, vec)) % p for row in rows):
        raise AssertionError("nullspace vector failed verification")
    return tuple(FieldElement(x, field) for x in vec)
