"""Exact arithmetic substrate: prime fields, univariate polynomials, residue rows.

Everything is integer arithmetic modulo a prime, so ranks, nullspaces and the
decoders built on top never need a numerical tolerance.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat, zip_longest
from operator import add, mul, sub
from struct import unpack
from typing import Iterable, Iterator, Sequence

# Mersenne prime: large enough that random-instance degeneracies have
# probability ~N/p, small enough for fast native arithmetic.
DEFAULT_MODULUS = 2**31 - 1

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Smallest strong pseudoprime to every base above: the test is exact below it.
_MR_EXACT_BELOW = 3317044064679887385961981
# Longest operand `poly_mul` multiplies row by row: packing costs more below it.
_SHORT = 4
# Most points a `PointSet` interpolates by packed quotient rows. Warm rows vs tree, set-up
# in brackets, p = 2^31 - 1 (2-vCPU VM, Python 3.11, two runs): n=150 0.33-0.40 vs 2.6-3.4 ms
# (20-25 vs 8-9 ms), 200 0.56-0.59 vs 4.1-4.5 ms (36-43 vs 12-15 ms), 400 1.6-1.8 vs 8.2-9.3 ms
# (143-166 vs 49-50 ms), 1000 7.9-10.3 vs 21-26 ms (0.89 vs 0.25 s). The rows win every
# warm call, but their set-up grows faster, and no workload hears more than 120 points.
_ROWS_UP_TO = 150


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
        return FieldElement(pow(self.value, -1, p), self.field)

    def __truediv__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError("division by zero field element")
        p = self.field.modulus
        return FieldElement(self.value * pow(v, -1, p) % p, self.field)

    def __rtruediv__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return FieldElement(v, self.field) / self

    def __pow__(self, exponent: int):
        if exponent < 0 and not self.value:
            raise ZeroDivisionError("zero has no multiplicative inverse")
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


class ResidueVector:
    """Immutable sequence of residues in [0, p), one per node, with elementwise `+ - *` and
    `**` by an int, so a `VerificationFn` runs at every node at once. It mixes with ints,
    same-field elements and equal-length vectors; another field or length raises ValueError.
    Vectors are equal when their moduli and their values are."""

    __slots__ = ("values", "field")

    def __init__(self, values: Iterable[int], field: PrimeField):
        self.values, self.field = tuple(values), field

    def _apply(self, op, other):
        if isinstance(other, ResidueVector):
            if other.field.modulus != self.field.modulus or len(other.values) != len(self.values):
                raise ValueError("vectors must share one field and one length")
            theirs = other.values
        elif isinstance(other, (FieldElement, int)):
            theirs = repeat(self.field.residue(other))
        else:
            return NotImplemented
        p = self.field.modulus
        return ResidueVector([x % p for x in map(op, self.values, theirs)], self.field)

    def __add__(self, other): return self._apply(add, other)
    def __sub__(self, other): return self._apply(sub, other)
    def __rsub__(self, other): return self._apply(lambda mine, theirs: theirs - mine, other)
    def __mul__(self, other): return self._apply(mul, other)
    def __neg__(self): return 0 - self
    __radd__, __rmul__ = __add__, __mul__

    def __len__(self) -> int: return len(self.values)
    def __getitem__(self, i: int) -> int: return self.values[i]
    def __hash__(self) -> int: return hash((self.field.modulus, self.values))

    def __eq__(self, other) -> bool:
        if isinstance(other, ResidueVector):
            return self.field.modulus == other.field.modulus and self.values == other.values
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0 and 0 in self.values:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return ResidueVector([pow(x, e, self.field.modulus) for x in self.values], self.field)


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


def _slot_width(p: int, terms: int) -> int:
    """Bytes per slot of a packed sum of at most `terms` products of residues below p:
    2 bitlen(p - 1) + bitlen(terms) bits never carry into the next slot."""
    return (2 * (p - 1).bit_length() + terms.bit_length() + 7) // 8


def _pack(cs: Sequence[int], width: int) -> int:
    """Canonical residues cs as one int, cs[i] in byte slot i of `width` bytes; a packed
    sum of them is exact only on entries in [0, p), and a negative one raises."""
    return int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(width), repeat("little"))),
                          "little")


def _slots(x: int, n: int, width: int) -> Iterator[int]:
    """The first n byte slots of `width` of a packed x >= 0, split by one struct call."""
    raw = x.to_bytes(n * width, "little")
    return map(int.from_bytes, unpack(f"{width}s" * n, raw), repeat("little"))


def _unpack(x: int, n: int, width: int, p: int) -> list[int]:
    """The first n byte slots of `width` of a packed x >= 0, each reduced mod p."""
    return [a % p for a in _slots(x, n, width)]


class PackedMap:
    """The linear map cs -> sum_i cs[i] v_i mod p of fixed residue vectors v_i of one
    length n, each kept as one packed int with a slot per entry: applying it is one
    big-integer sum of len(cs) products, unpacked once."""

    __slots__ = ("p", "n", "width", "vectors")

    def __init__(self, vectors: Iterable[Sequence[int]], p: int):
        vectors = list(vectors)
        self.p, self.n = p, len(vectors[0]) if vectors else 0
        self.width = _slot_width(p, len(vectors))
        self.vectors = tuple(_pack(v, self.width) for v in vectors)

    def apply(self, cs: Sequence[int]) -> list[int]:
        """sum_i cs[i] v_i, all n entries; cs holds one residue in [0, p) per vector (another
        count raises ValueError; a value outside [0, p) leaves the sum inexact)."""
        if len(cs) != len(self.vectors):
            raise ValueError(f"{len(cs)} coefficients for {len(self.vectors)} vectors")
        return _unpack(sum(map(mul, cs, self.vectors)), self.n, self.width, self.p)


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Product of two ascending residue lists by Kronecker substitution: pack each into
    one int, one slot per coefficient, multiply once and read the slots back mod p.

    A slot of the integer product holds a sum of at most min(len(a), len(b)) products of
    residues. An operand of at most _SHORT coefficients is cheaper as that many scaled
    shifted copies of the other.
    """
    if not a or not b:
        return []
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    if len(short) <= _SHORT:
        out, n = [0] * (len(a) + len(b) - 1), len(long)
        for i, s in enumerate(short):
            out[i:i + n] = [o + s * c for o, c in zip(out[i:i + n], long)]
        return [o % p for o in out]
    width = _slot_width(p, len(short))
    return _unpack(_pack(a, width) * _pack(b, width), len(a) + len(b) - 1, width, p)


def _strip(cs: list[int]) -> list[int]:
    """`cs` without trailing zero coefficients."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ascending residue lists by long division. The remainder
    has no trailing zeros. A zero divisor raises ZeroDivisionError, and any other divisor
    with a zero last coefficient raises ValueError."""
    if not b or not b[-1] % p:
        if not any(c % p for c in b):
            raise ZeroDivisionError("polynomial division by zero")
        raise ValueError("divisor has a zero last coefficient: strip trailing zeros first")
    rem = list(a)
    dd = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(0, len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] * inv_lead % p
        if c:
            quot[i - dd] = c
            # reduced once at the end: each step adds less than p^2 to an entry
            rem[i - dd:i] = [r - c * d for r, d in zip(rem[i - dd:i], b)]
    return quot, _strip([r % p for r in rem[:dd]])


@lru_cache(maxsize=16)
def _euclid_constants(n0: int, p: int) -> tuple[int, int, int, int, int, int]:
    """`euclid_until`'s (B, bytes per slot, W, M, slot mask, low) for len(r0) = n0 and p."""
    big = (2 * p + n0 * (p - 1) * 2 * p).bit_length()
    width = (2 * big - p.bit_length() + 8) // 8
    bits = 8 * width
    return (big, width, bits, (1 << big) // p, (1 << bits) - 1,
            _pack([(1 << bits - big) - 1] * n0, width))


def euclid_until(r0: Sequence[int], r: Sequence[int], stop: int,
                 p: int) -> tuple[list[int], list[int]]:
    """The extended Euclidean algorithm on ascending residue lists without trailing zeros,
    len(r) <= len(r0): (r0, r, t0, t) -> (r, r0 mod r, t, t0 - (r0 div r) t) from t0 = 0,
    t = 1, until len(r) <= stop. Returns that r and its cofactor t.

    Each of r0, r, t0 and t is one packed int, a slot per coefficient, every slot in
    [0, 2p). A step is a long division on the packed ints: from the top down, it reads
    the quotient coefficient q_j off one slot of the partial remainder X and adds
    (-q_j mod p) times r and t shifted j slots, with small-int multiplies. It keeps
    len(r) - 1 slots of X and brings every slot of X and of the new t back under 2p by one
    packed Barrett step (Barrett 1986), X - ((X M >> B) & low) p with M = 2^B // p. A slot
    holds less than 2p + len(r0) (p - 1) 2p < 2^B before it, so W >= 2B - bitlen(p) + 1
    bits per slot hold X M with no carry, and `low` keeps the W - B bits of each slot of
    X M >> B that hold its quotient, not the fraction shifted down from the slot above.
    It then drops the top slots of X that vanish mod p, reading one slot per dropped
    coefficient: after Barrett a vanished slot holds 0 or p. These constants depend only
    on (len(r0), p), so calls on the same pair share them.
    """
    n0, n = len(r0), len(r)
    big, width, bits, m, slot, low = _euclid_constants(n0, p)
    rs0, rs, ts0, ts, nt = _pack(r0, width), _pack(r, width), 0, 1, 1
    while n > stop:
        inv, x, y = pow((rs >> (n - 1) * bits) % p, -1, p), rs0, ts0
        for j in range(n0 - n, -1, -1):  # q_j from the exact slot n - 1 + j of x
            c = -((x >> (n - 1 + j) * bits) & slot) * inv % p
            x += c * (rs << j * bits)
            y += c * (ts << j * bits)
        x &= (1 << (n - 1) * bits) - 1
        x -= ((x * m >> big) & low) * p
        ts0, ts, nt = ts, y - ((y * m >> big) & low) * p, nt + n0 - n
        n0, n = n, n - 1
        while n and not ((x >> (n - 1) * bits) & slot) % p:
            n -= 1
        rs0, rs = rs, x if n == n0 - 1 else x & ((1 << n * bits) - 1)
    return _unpack(rs, n, width, p), _unpack(ts, nt, width, p)


def vanishing_polynomial(xs: Iterable[int | FieldElement], field: PrimeField) -> Polynomial:
    """The monic polynomial prod (z - x) over xs: its roots are exactly the xs.

    One linear factor at a time, which is fast enough for the points its callers pass:
    a version cell of the rank witness and the error positions of a confirmed error
    locator (at most max_errors). A `PointSet` takes g from its subproduct tree instead."""
    p, residue = field.modulus, field.residue
    m = [1]  # ascending
    for x in xs:
        a = x % p if type(x) is int else residue(x)  # ints skip the call
        m = [(lo - a * hi) % p for lo, hi in zip([0, *m], [*m, 0])]
    return Polynomial(field, m)


def batch_inverse(values: Sequence[int], p: int) -> list[int]:
    """Inverses of nonzero residues from one exponentiation (Montgomery's trick)."""
    prefix = list(accumulate(values, lambda a, b: a * b % p, initial=1))
    if not prefix[-1]:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    inv, out = pow(prefix[-1], -1, p), [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i], inv = inv * prefix[i] % p, inv * values[i] % p
    return out


def poly_values(cs: Sequence[int], xs: Sequence[int], p: int) -> list[int]:
    """The polynomial with ascending residues cs at every x in xs, by one Horner pass."""
    acc = [0] * len(xs)
    for c in reversed(cs):
        acc = [(a * x + c) % p for a, x in zip(acc, xs)]
    return acc


@lru_cache(maxsize=16)
def factorial_table(n: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(i! mod p, 1/i! mod p) for i in range(n), 1 <= n <= p, from one inversion."""
    fact = tuple(accumulate(range(1, n), lambda a, i: a * i % p, initial=1))
    inv = [pow(fact[-1], -1, p)] * n
    for i in range(n - 1, 0, -1):
        inv[i - 1] = inv[i] * i % p
    return fact, tuple(inv)


def progression_step(xs: Sequence[int], p: int) -> int | None:
    """The step h when the residues xs are xs[0] + h i mod p for i = 0, 1, ..., in this
    order, with at least two points; else None."""
    if len(xs) < 2:
        return None
    h = (xs[1] - xs[0]) % p
    return h if all(x == y % p for x, y in zip(xs, range(xs[0], xs[0] + h * len(xs), h))) else None


class PointSet:
    """Interpolation on distinct residues xs mod p, cached by `point_set`: the master
    polynomial g = prod (z - x_j) and the weights w_j = 1/g'(x_j) as residue tuples, so the
    interpolant through the (x_j, y_j) is sum_j y_j w_j g/(z - x_j). g is the top of the
    subproduct tree of the linear factors (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 10). On points a + h j mod p, in that order, g'(x_j) is
    (-1)^(n-1-j) h^(n-1) j! (n-1-j)!, so the weights come from a cached factorial table;
    on any other points, from g' at every x_j by one Horner pass, O(len(xs)^2).

    Up to _ROWS_UP_TO points the interpolant is one `PackedMap` application: each quotient
    g/(z - x_j), from one synthetic division at every x, O(len(xs)^2), is kept as one int
    with a slot per coefficient, so the n scaled quotients add up in CPython's integers and
    are unpacked once. Above it, the sum combines up the subproduct tree,
    n = n_L g_R + n_R g_L."""

    __slots__ = ("p", "master", "weights", "_rows", "_levels")

    def __init__(self, xs: tuple[int, ...], p: int):
        n = len(xs)
        if len(set(xs)) != n:
            raise DuplicateAbscissa("interpolation points must have distinct x values")
        self.p, self._rows, self._levels = p, None, None
        level: list[Sequence[int]] = [(-x % p, 1) for x in xs] or [(1,)]
        levels = [tuple(level)]
        while len(level) > 1:  # products of adjacent pairs; an odd last node moves up
            level = [tuple(poly_mul(a, b, p)) for a, b in zip(level[::2], level[1::2])
                     ] + level[len(level) - len(level) % 2:]
            levels.append(tuple(level))
        self.master = level[0]
        if n <= _ROWS_UP_TO:
            rows, q = [], [0] * n
            for c in reversed(self.master[1:]):
                q = [(a * x + c) % p for a, x in zip(q, xs)]
                rows.append(q)
            # rows[i] holds coefficient n-1-i of every quotient
            self._rows = PackedMap((quotient[::-1] for quotient in zip(*rows)), p)
        else:
            self._levels = tuple(levels[:-1])
        h = progression_step(xs, p)
        if h is None:
            derivs = poly_values([i * c % p for i, c in enumerate(self.master)][1:], xs, p)
            self.weights = tuple(batch_inverse(derivs, p))
        else:
            _, inv_fact = factorial_table(n, p)
            c = pow(h, 1 - n, p)
            self.weights = tuple((c if (n - j) % 2 else -c) * a * b % p
                                 for j, (a, b) in enumerate(zip(inv_fact, reversed(inv_fact))))

    def interpolate(self, ys: Sequence[int]) -> list[int]:
        """Ascending residues of the polynomial of degree < len(xs) through one y_j per x_j."""
        if len(ys) != len(self.weights):
            raise ValueError(f"{len(ys)} values for {len(self.weights)} points")
        p = self.p
        cs = [y * w % p for y, w in zip(ys, self.weights)]
        if self._rows is not None:
            return _strip(self._rows.apply(cs))
        nums = [[c] for c in cs]
        for level in self._levels:
            pairs = zip(nums[::2], nums[1::2], level[::2], level[1::2])
            nums = [[(u + v) % p for u, v in zip_longest(poly_mul(n_l, g_r, p),
                                                         poly_mul(n_r, g_l, p), fillvalue=0)]
                    for n_l, n_r, g_l, g_r in pairs] + nums[len(level) - len(level) % 2:]
        return _strip(nums[0])


@lru_cache(maxsize=16)
def point_set(xs: tuple[int, ...], p: int) -> PointSet:
    """The `PointSet` of distinct nonempty residues xs mod p, built at the first call on
    (xs, p) and shared by every later one: shard points and heard node points alike."""
    return PointSet(xs, p)


def lagrange_interpolate(points: Sequence[tuple[FieldElement, FieldElement]]) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given (x, y) pairs."""
    if not points:
        raise ValueError("at least one interpolation point is required")
    field = points[0][0].field
    xs = tuple(field.residue(x) for x, _ in points)
    return Polynomial(field, point_set(xs, field.modulus).interpolate(
        [field.residue(y) for _, y in points]))


def echelon(rows: Iterable[Sequence[int]], ncols: int, p: int) -> dict[int, list[int]]:
    """Echelon basis over GF(p) of the span of rows of ncols canonical residues, each in
    [0, p), keyed by leading column; an entry outside raises ValueError.

    Each row is reduced left to right against the rows kept so far; a nonzero
    remainder is kept, scaled to 1 at its leading column. Every echelon basis of
    a row space leads at its RREF pivot columns, so the keys are those.

    Delayed reduction on packed rows (Dumas, Giorgi & Pernet, FFLAS-FFPACK, 2008): a row
    whose leading column has no pivot yet is scaled straight from its list. Any other row
    is one packed int x, a slot per column from its leading one up, the current column c
    in the low slot. A step reads f = (low slot) mod p, adds (p - f) times kept row c,
    packed from column c at its first use, and shifts the low slot out: only additions
    happen, so nothing borrows. A slot starts below p and gains at most one product below
    (p - 1)^2 per pivot left of it, so `_slot_width(p, ncols + 1)` bytes never carry. A
    run of integer-zero slots goes in one shift, to the lowest set bit of x. A row that
    finds a new pivot is read back through its top set bit and scaled in the same pass.
    """
    width = _slot_width(p, ncols + 1)
    bits = 8 * width
    slot, pair = (1 << bits) - 1, (1 << 2 * bits) - 1  # the low slot, the two low slots
    tails: dict[int, list[int]] = {}  # kept row c from column c on, less trailing zeros
    packed: dict[int, int] = {}
    for i, row in enumerate(rows):
        if row and (min(row) < 0 or max(row) >= p):
            j = next(j for j, a in enumerate(row) if not 0 <= a < p)
            raise ValueError(f"row {i}, column {j}: {row[j]} is not a residue in [0, {p})")
        c = next((c for c, a in enumerate(row) if a), ncols)
        if c == ncols:
            continue
        if c not in tails:
            inv = pow(row[c], -1, p)
            tails[c] = _strip([a * inv % p for a in row[c:]])
            continue
        x = _pack(row[c:], width)
        while x:
            f = (x & slot) % p
            if not f:  # one slot if either low slot is nonzero, else to the lowest set bit
                step = 1 if x & pair else ((x & -x).bit_length() - 1) // bits
                x >>= step * bits
                c += step
            elif c in tails:
                if c not in packed:
                    packed[c] = _pack(tails[c], width)
                x = (x + (p - f) * packed[c]) >> bits
                c += 1
            else:  # read up to the top set bit: the slots above it are zero
                inv = pow(f, -1, p)
                tails[c] = [a * inv % p for a in _slots(x, -(-x.bit_length() // bits), width)]
                break
    return {c: [0] * c + tail + [0] * (ncols - c - len(tail)) for c, tail in tails.items()}


def kernel_vector(pivots: dict[int, list[int]], ncols: int, p: int, free: int) -> list[int]:
    """The x with r @ x = 0 for each row r of `pivots = echelon(...)`, 1 at the non-pivot
    column `free` and 0 at the other non-pivot columns, by back-substitution. A `free`
    that is a pivot or outside range(ncols) raises ValueError."""
    if free in pivots or not 0 <= free < ncols:
        raise ValueError(f"column {free} is not a non-pivot column in range({ncols})")
    vec = [0] * ncols
    vec[free] = 1
    for c in sorted(pivots, reverse=True):
        vec[c] = -sum(map(mul, pivots[c][c + 1:], vec[c + 1:])) % p
    return vec


def nullspace_vector(rows: Sequence[Sequence[int]], ncols: int, field: PrimeField,
                     pivots: dict[int, list[int]], free: int) -> tuple[FieldElement, ...]:
    """The x with r @ x = 0 for each residue row r, 1 at free column `free` and 0 at the
    other free columns, from `kernel_vector` on `pivots = echelon(rows, ...)`, re-verified
    by multiplication. A `free` that is not a free column raises ValueError."""
    p = field.modulus
    vec = kernel_vector(pivots, ncols, p, free)
    if any(sum(map(mul, row, vec)) % p for row in rows):
        raise AssertionError("nullspace vector failed verification")
    return tuple(FieldElement(x, field) for x in vec)
