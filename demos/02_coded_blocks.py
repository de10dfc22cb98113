"""Lagrange-coded blocks: how K shard proposals become one shared polynomial.

Each node stores a single evaluation of the interpolant through all K
proposals; applying a degree-d verification function to those evaluations
makes the N results a codeword of the composed polynomial.
"""

import random

from shardlab import (
    DEFAULT_MODULUS,
    EncodingParams,
    PrimeField,
    build_coded_poly,
    compose_verification,
    encode_at_node,
)
from shardlab.polyshard_sim import power_check

rng = random.Random(21)
field = PrimeField(DEFAULT_MODULUS)

# 3 shards at points 1, 2, 3 -- small enough to read the expansion.
params = EncodingParams(
    d=2,
    omegas=tuple(field(k) for k in (1, 2, 3)),
    alphas=tuple(field(n) for n in range(4, 10)),
)

# The shard basis functions: the coded polynomial of a unit view, 1 at the own
# shard point and 0 at the others.
print("basis values at the shard points:")
for k in range(1, 4):
    basis = build_coded_poly(tuple(field(int(j == k)) for j in range(1, 4)), params)
    row = [basis(w) for w in params.omegas]
    print(f"  shard {k}: {row}")

# Blocks x1, x2, x3 define the coded polynomial
#   z^2 (x1/2 - x2 + x3/2) + z (-5 x1/2 + 4 x2 - 3 x3/2) + (3 x1 - 3 x2 + x3).
x1, x2, x3 = field(10), field(20), field(100)
coded = build_coded_poly((x1, x2, x3), params)
half = field(2).inverse()
print("\ncoded polynomial coefficients for blocks (10, 20, 100):")
print(f"  z^2: {coded.coefficient(2)}  (x1/2 - x2 + x3/2 = {x1 * half - x2 + x3 * half})")
print(f"  z^1: {coded.coefficient(1)}  (-5x1/2 + 4x2 - 3x3/2 = {-(field(5) * half) * x1 + 4 * x2 - field(3) * half * x3})")
print(f"  z^0: {coded.coefficient(0)}  (3x1 - 3x2 + x3 = {3 * x1 - 3 * x2 + x3})")

# Every node's coded block is just this polynomial at the node's point.
view = (x1, x2, x3)
agree = all(
    encode_at_node(view, params, n) == coded(params.alphas[n - 1])
    for n in range(1, 7)
)
print(f"\nper-node encodings match the polynomial at every node point: {agree}")

# Composing a degree-2 check turns the 3 blocks into a degree-4 polynomial
# whose evaluations the network must jointly decode.
f = power_check(2)
composed = compose_verification(coded, [], f)
print(f"composed verification polynomial has degree {composed.degree} = d(K-1)")
print(f"  at the shard points it returns the per-shard check values: "
      f"{[composed(w) == f.evaluate(x, ()) for w, x in zip(params.omegas, view)]}")
