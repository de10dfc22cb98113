"""Exact arithmetic building blocks: GF(p), polynomials, Vandermonde ranks.

Everything downstream rides on this substrate: no floats, no tolerances,
every rank and every decode is an exact statement about integers mod p.
"""

import random

from shardlab import DEFAULT_MODULUS, Polynomial, PrimeField, lagrange_interpolate
from shardlab.field_poly import echelon, nullspace_vector

rng = random.Random(7)

# A small field for hand-checkable numbers, the big Mersenne field for runs.
gf7 = PrimeField(7)
field = PrimeField(DEFAULT_MODULUS)
print(f"fields: {gf7} and {field}")

a = gf7(3)
print(f"in GF(7): 3 + 5 = {a + 5}, 3 * 5 = {a * 5}, 3^-1 = {a.inverse()}")

# Polynomials evaluate by Horner and interpolate exactly.
square = Polynomial(gf7, [0, 0, 1])
print(f"z^2 at z=3 over GF(7): {square(gf7(3))}")

points = [(field(x), field.random(rng)) for x in range(1, 6)]
fit = lagrange_interpolate(points)
print(f"interpolated degree-{fit.degree} polynomial through 5 random points;")
print(f"  refits all of them: {all(fit(x) == y for x, y in points)}")

# Linear algebra runs on rows of residues mod p. `echelon` reduces them once;
# its leading columns give the rank.
p = field.modulus

# Vandermonde matrices on distinct points have full rank -- the fact that
# makes evaluations of a polynomial decodable in the first place.
van = [[pow(x, e, p) for e in range(6, -1, -1)] for x in (2, 3, 5, 8)]
print(f"Vandermonde on 4 distinct points, degree 6: {len(van)}x{len(van[0])}, "
      f"rank {len(echelon(van, 7, p))}")

# Nullspaces witness rank deficits exactly: one vector per non-leading column,
# each checked by multiplying it back through the rows.
wide = [[1, 1, 0], [0, 1, 1]]
pivots = echelon(wide, 3, p)
basis = [nullspace_vector(wide, 3, field, pivots, free) for free in range(3) if free not in pivots]
print(f"nullspace of a 2x3 system has dimension {len(basis)}: {basis[0]}")
