"""Exact rank analysis: where linear decoding of honest outputs becomes possible.

The decodability question is linear algebra: unknown coefficient blocks (one
per version tuple) plus the honest outputs, tied together by evaluation rows,
cross-tuple agreement rows, and the output tie. The honest outputs are unique
exactly when dropping their columns costs the full output rank.
"""

from shardlab import (
    DEFAULT_MODULUS,
    PrimeField,
    build_system,
    c_row_count,
    empirical_threshold,
    known_behavior_upper_bound,
    proof_params,
    recovery_threshold,
    unique_decodability,
)

field = PrimeField(DEFAULT_MODULUS)
v, beta_prime, d, K, beta = 2, 1, 2, 3, 1

n_star = recovery_threshold(v, beta_prime, d, K, beta)
print(f"parameters: v={v}, captured producers={beta_prime}, d={d}, K={K}, beta={beta}")
print(f"recovery threshold: {n_star} nodes")
print(f"upper bound with known behavior: {known_behavior_upper_bound(v, beta_prime, d, K, beta)} nodes\n")

print("--- the system one node below the threshold ---")
params = proof_params(v, beta_prime, d, K, beta, n_star - 1, field)
sys_m = build_system(params)
print(f"partition of retained evaluation points: {params.cell_sizes}")
# the full system's block shapes, counted: only M, the system on the shard values, is built
coeff_cols = sys_m.n_tuples * sys_m.block_width
a_rows = sum(params.cell_sizes)
b_rows = (sys_m.n_tuples - 1) * sys_m.z_width
c_rows = c_row_count(v, beta_prime)
d_rows = a_rows + b_rows + c_rows + sys_m.z_width
print(f"A: {a_rows}x{coeff_cols} (evaluations)   "
      f"B: {b_rows}x{coeff_cols} (honest-point agreement)")
print(f"C: {c_rows}x{coeff_cols} (shared-version agreement)   "
      f"D: {d_rows}x{coeff_cols + sys_m.z_width} (full system)")
report = unique_decodability(sys_m)
print(f"rank(D) = {report.rank_D}, rank without output columns = "
      f"{report.rank_D_without_Z_columns}, outputs unique: {report.unique_Z}")
zeta = report.zeta_block(sys_m.z_width)
print(f"witness output block (nonzero => two explanations of the same broadcasts): {zeta}\n")

print("--- sweep across N ---")
print(f"{'N':>3}  {'cells':>7}  {'rank D':>6}  {'reduced':>7}  verdict")
for row in empirical_threshold(v, beta_prime, d, K, beta, range(6, 13), field):
    if row.unique_Z is None:
        print(f"{row.N:>3}  {'-':>7}  {'-':>6}  {'-':>7}  {row.note}")
    else:
        cells = "|".join(map(str, row.partition_sizes))
        verdict = "decodable" if row.unique_Z else "ambiguous"
        print(f"{row.N:>3}  {cells:>7}  {row.rank_D:>6}  {row.rank_D_reduced:>7}  {verdict}")

print("\n--- the bound collapses honest tolerance when shards scale with nodes ---")
for K_big in (4, 8, 16, 32):
    bound = recovery_threshold(2, K_big // 2, 2, K_big, K_big)
    print(f"K={K_big:3d}, half the shards captured: need N >= {bound}")
