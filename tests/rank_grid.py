"""Rank verdicts of M, the system on the shard values, against the R oracle on a grid.

Every round-robin layout of `proof_params` with v <= 3, beta' <= 2 (beta' <= K),
d <= 3, K <= 5, beta <= 2 and N from threshold - 4 to threshold + 1, at p = 97
and p = 2^31 - 1: `unique_decodability` on `build_system` must give the same
rank(D), rank(D) without the output columns, uniqueness and witness output block
as one reduction of R (`dense_system.restricted_verdict`), and every ambiguous
witness must be the one `dense_system.evaluated_lift` lifts from the same
nullspace vector of M, whole. Each verdict must also be that of the layout's affine
image, every point x moved to 5x + 11 (`dense_system.affine_image`). Infeasible layouts
are skipped. The per-cell kernel (m_t and 1/m_t(omega_k)) is cleared before every
layout at p = 97 and kept warm across the layouts at p = 2^31 - 1, so both cold and
reused cells are checked.

    python tests/rank_grid.py

Prints the verdict count and every difference; the exit status is 1 on any
difference.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from shardlab import (  # noqa: E402
    InfeasiblePartition, PrimeField, build_system, proof_params, recovery_threshold,
    unique_decodability,
)
from shardlab.field_poly import echelon, nullspace_vector  # noqa: E402
from shardlab.threshold_analysis import _cell  # noqa: E402
from dense_system import (  # noqa: E402
    affine_image, evaluated_lift, restricted_system, restricted_verdict,
)


def evaluated_witness(sys):
    """The oracle's lift of M's nullspace vector at its first free output column."""
    field = sys.params.field
    pivots = echelon(sys.M, sys.ncols, field.modulus)
    free_z = next(c for c in range(sys.ncols - sys.z_width, sys.ncols) if c not in pivots)
    return evaluated_lift(sys, nullspace_vector(sys.M, sys.ncols, field, pivots, free_z))


def verdict(report, z_width: int):
    zeta = None if report.unique_Z else report.zeta_block(z_width)
    return report.rank_D, report.rank_D_without_Z_columns, report.unique_Z, zeta


def main() -> int:
    started = time.perf_counter()
    checked, differences = 0, []
    for p in (97, 2**31 - 1):
        field = PrimeField(p)
        for v, beta_prime, d, K, beta in itertools.product(
            range(1, 4), range(3), range(1, 4), range(1, 6), range(3)
        ):
            if beta_prime > K:
                continue
            threshold = recovery_threshold(v, beta_prime, d, K, beta)
            for N in range(max(2 * beta, threshold - 4), threshold + 2):
                try:
                    params = proof_params(v, beta_prime, d, K, beta, N, field)
                except InfeasiblePartition:
                    continue
                z_width = K - beta_prime
                if p == 97:
                    _cell.cache_clear()
                sys_m = build_system(params)
                report = unique_decodability(sys_m)
                mine = verdict(report, z_width)
                oracle = verdict(restricted_verdict(restricted_system(params)), z_width)
                checked += 1
                where = (f"(v, beta', d, K, beta) = {(v, beta_prime, d, K, beta)}, "
                         f"N={N}, p={p}")
                if mine != oracle:
                    differences.append(((v, beta_prime, d, K, beta), N, p))
                    print(f"differs at {where}: M gives {mine[:3]}, R gives {oracle[:3]}")
                elif not report.unique_Z and report.witness != evaluated_witness(sys_m):
                    differences.append(((v, beta_prime, d, K, beta), N, p))
                    print(f"witness differs at {where} from the evaluated lift")
                elif (moved := verdict(unique_decodability(build_system(
                        affine_image(params, 5, 11))), z_width)) != mine:
                    differences.append(((v, beta_prime, d, K, beta), N, p))
                    print(f"differs at {where} from x -> 5x + 11: {moved[:3]} vs {mine[:3]}")
    print(f"{checked} verdicts, {len(differences)} differences, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
