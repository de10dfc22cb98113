"""Exact rank analysis of linear decodability under version discrepancies.

When captured producers deliver different block versions to different nodes,
the broadcast results are evaluations of several composed polynomials. The
unknowns are the coefficient block of each version tuple plus the honest
outputs; decodability of the honest outputs is a rank condition on the block
matrix assembled here, checked exactly over the prime field.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

from .adversary import InfeasiblePartition, balanced_cells
from .field_poly import FieldElement, Matrix, PrimeField, nullspace_vector, row_reduce, vandermonde
from .lcc import VersionTuple, all_version_tuples


def versions_match_set(vi: VersionTuple, vj: VersionTuple) -> frozenset[int]:
    """Producer positions (0-based) where the two version tuples agree."""
    if len(vi) != len(vj):
        raise ValueError("version tuples must have equal length")
    return frozenset(r for r, (a, b) in enumerate(zip(vi, vj)) if a == b)


@dataclass(frozen=True)
class AnalysisParams:
    """A concrete adversarial layout to rank-check: points, partition, tuples."""

    N: int
    K: int
    d: int
    beta: int
    beta_prime: int
    v: int
    omegas: tuple[FieldElement, ...]
    partition: tuple[tuple[FieldElement, ...], ...]  # alpha points per version cell
    producers: tuple[int, ...]

    def __post_init__(self):
        if self.beta_prime > self.K:
            raise ValueError("cannot capture more producers than shards")
        if len(self.producers) != self.beta_prime:
            raise ValueError("producer list must have beta_prime entries")
        if len(self.partition) != self.v**self.beta_prime:
            raise ValueError("one cell per version tuple is required")
        retained = sum(len(cell) for cell in self.partition)
        if retained != self.N - 2 * self.beta:
            raise ValueError(
                f"partition holds {retained} points, expected N - 2*beta = "
                f"{self.N - 2 * self.beta}"
            )
        points = [x.value for x in self.omegas] + [
            x.value for cell in self.partition for x in cell
        ]
        if len(set(points)) != len(points):
            raise ValueError("evaluation points must be pairwise distinct")

    @property
    def field(self) -> PrimeField:
        return self.omegas[0].field

    @property
    def tuples(self) -> list[VersionTuple]:
        return all_version_tuples(self.v, self.beta_prime)

    @property
    def honest_producers(self) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.K + 1) if k not in self.producers)

    @property
    def block_width(self) -> int:
        return self.d * (self.K - 1) + 1

    @property
    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(len(cell) for cell in self.partition)


def proof_params(
    v: int,
    beta_prime: int,
    d: int,
    K: int,
    beta: int,
    N: int,
    field: PrimeField,
    *,
    cells: Sequence[Sequence[FieldElement]] | None = None,
) -> AnalysisParams:
    """Adversarial layout at N nodes: 2*beta evaluation rows dropped, the rest
    spread by `balanced_cells` (the simulation's balanced assignment) over all
    version tuples with every cell held below d(K-1)+1 (the size at which a
    cell would decode alone).

    Canonical points (shard k at k, node n at K+n) are used; pass `cells`
    to pin an explicit partition of the retained points instead.
    """
    if beta_prime > K:
        raise ValueError("beta_prime cannot exceed K")
    if v < 1 or beta_prime < 0 or d < 1 or K < 1 or beta < 0:
        raise ValueError("bad parameters")
    omegas = tuple(field(k) for k in range(1, K + 1))
    retained = N - 2 * beta
    if retained < 0:
        raise ValueError("N must be at least 2*beta")
    alphas = tuple(field(K + n) for n in range(1, retained + 1))
    n_tuples = v**beta_prime
    # the cap keeps any one cell from decoding alone; it only binds when the
    # adversary actually splits the nodes over several version tuples
    cap = d * (K - 1) if n_tuples > 1 else None
    if cells is None:
        cells = balanced_cells(alphas, n_tuples, cap)
    else:
        if len(cells) != n_tuples:
            raise ValueError("explicit partition must have one cell per tuple")
        if cap is not None and any(len(cell) > cap for cell in cells):
            raise InfeasiblePartition("a cell reaches d(K-1)+1 points and would decode alone")
    return AnalysisParams(
        N=N,
        K=K,
        d=d,
        beta=beta,
        beta_prime=beta_prime,
        v=v,
        omegas=omegas,
        partition=tuple(tuple(cell) for cell in cells),
        producers=tuple(range(1, beta_prime + 1)),
    )


@dataclass(frozen=True)
class SystemMatrices:
    """The decodability system: evaluation, consistency and output-tie blocks.

    Columns: one width-(d(K-1)+1) block of composed-polynomial coefficients per
    version tuple (descending degree, tuples in lexicographic order), then one
    column per honest producer output.
    """

    A: Matrix  # evaluations: block-diagonal, one Vandermonde block per cell
    B: Matrix  # tuple 1 vs tuple i agreement at honest shard points
    C: Matrix  # per-producer agreement between tuples sharing a version
    D: Matrix  # A, B, C stacked, plus the tie of tuple 1 to the output columns
    n_tuples: int
    block_width: int
    z_width: int


def _c_row_blocks(tuples: Sequence[VersionTuple]) -> list[tuple[int, int, int]]:
    """(tuple index i, tuple index j, producer position r) triples for C's rows.

    For each producer position and version value, the tuples agreeing there are
    chained consecutively; transitivity then gives every pairwise agreement, at
    (v^(width-1) - 1) * v rows per producer.
    """
    if not tuples:
        return []
    width = len(tuples[0])
    values = sorted({t[0] for t in tuples}) if width else []
    rows = []
    for r in range(width):
        for value in values:
            group = [i for i, t in enumerate(tuples) if t[r] == value]
            rows.extend((group[a], group[a + 1], r) for a in range(len(group) - 1))
    return rows


def build_system(params: AnalysisParams) -> SystemMatrices:
    """Assemble the block matrices for the layout, all Vandermonde rows descending."""
    field = params.field
    width = params.block_width
    tuples = params.tuples
    n_tuples = len(tuples)
    lam_cols = n_tuples * width
    z_width = params.K - params.beta_prime
    degree = width - 1

    def lam_row(*placements: tuple[int, Sequence[int], int]) -> list[int]:
        """Zero row over the coefficient columns with Vandermonde segments placed."""
        row = [0] * lam_cols
        for block_index, coeffs, sign in placements:
            for j, c in enumerate(coeffs):
                row[block_index * width + j] = c if sign > 0 else -c
        return row

    # A: one Vandermonde block per version cell, on the diagonal
    a_rows = []
    for i, cell in enumerate(params.partition):
        for van_row in vandermonde(cell, degree, field).rows:
            a_rows.append(lam_row((i, van_row, 1)))
    A = Matrix(field, a_rows, ncols=lam_cols)

    # B: tuple 1's honest-shard evaluations equal every other tuple's
    honest_omegas = [params.omegas[k - 1] for k in params.honest_producers]
    van_h = vandermonde(honest_omegas, degree, field).rows if honest_omegas else ()
    b_rows = [
        lam_row((0, van_row, 1), (i, van_row, -1))
        for i in range(1, n_tuples)
        for van_row in van_h
    ]
    B = Matrix(field, b_rows, ncols=lam_cols)

    # C: tuples sharing a producer's version agree at that producer's shard point
    c_rows = []
    for i, j, r in _c_row_blocks(tuples):
        omega = params.omegas[params.producers[r] - 1]
        van_row = vandermonde([omega], degree, field).rows[0]
        c_rows.append(lam_row((i, van_row, 1), (j, van_row, -1)))
    C = Matrix(field, c_rows, ncols=lam_cols)

    # final block: tuple 1's honest evaluations are the output unknowns
    d_rows = [row + [0] * z_width for row in a_rows + b_rows + c_rows]
    for idx, van_row in enumerate(van_h):
        tie = [0] * z_width
        tie[idx] = -1
        d_rows.append(lam_row((0, van_row, 1)) + tie)
    D = Matrix(field, d_rows, ncols=lam_cols + z_width)
    return SystemMatrices(
        A=A, B=B, C=C, D=D, n_tuples=n_tuples, block_width=width, z_width=z_width
    )


@dataclass(frozen=True)
class RankReport:
    """Verdict on unique determination of the honest outputs."""

    rank_D: int
    rank_D_without_Z_columns: int
    unique_Z: bool
    witness: tuple[FieldElement, ...] | None

    def zeta_block(self, z_width: int) -> tuple[FieldElement, ...]:
        if self.witness is None:
            raise ValueError("no witness on a unique_Z report")
        return self.witness[-z_width:]


def unique_decodability(sys: SystemMatrices, K: int, beta_prime: int) -> RankReport:
    """Rank test: outputs are unique iff no column relation touches the output block.

    One left-to-right reduction of D answers all of it, as the output (Z) columns
    come last: rank(D) is the pivot count, the pivots left of Z are the rank of D
    without the Z columns, and Z is unique iff every Z column is a pivot. If not,
    the witness is the verified nullspace vector of the first free Z column: two
    explanations of the same broadcasts that disagree on the honest outputs.
    """
    z_width = K - beta_prime
    if z_width != sys.z_width:
        raise ValueError("K and beta_prime do not match the system's output block")
    lam_cols = sys.n_tuples * sys.block_width
    red, pivots = row_reduce(sys.D)
    free_z = next((c for c in range(lam_cols, sys.D.ncols) if c not in pivots), None)
    return RankReport(
        rank_D=len(pivots),
        rank_D_without_Z_columns=sum(c < lam_cols for c in pivots),
        unique_Z=free_z is None,
        witness=None if free_z is None else nullspace_vector(sys.D, red, pivots, free_z),
    )


def recovery_threshold(v: int, beta_prime: int, d: int, K: int, beta: int) -> int:
    """Minimum node count below which a worst-case version assignment defeats
    every linear decoder of the honest outputs."""
    return v**beta_prime * (d - 1) * (K - 1) + v * beta_prime + K - beta_prime + 2 * beta


def known_behavior_upper_bound(v: int, beta_prime: int, d: int, K: int, beta: int) -> int:
    """Node count at which knowing each node's received versions always suffices:
    one version cell then holds d(K-1)+1 clean evaluations."""
    return v**beta_prime * (d * (K - 1) + 1) + 2 * beta


def free_variable_count(v: int, beta_prime: int, d: int, K: int) -> int:
    """Free coefficient variables left by the evaluation block at the critical
    size, before producer-agreement substitution: total unknowns minus retained
    evaluations."""
    n_hat = v**beta_prime * (d - 1) * (K - 1) + v * beta_prime + K - beta_prime - 1
    return v**beta_prime * (d * (K - 1) + 1) - n_hat


def free_variable_count_closed_form(v: int, beta_prime: int, d: int, K: int) -> int:
    """The same count, written without the node total; must agree with
    free_variable_count everywhere."""
    t = v**beta_prime
    return (t - 1) * (K - beta_prime) + (t - v) * beta_prime + 1


def c_row_count(v: int, beta_prime: int) -> int:
    """Rows of the producer-agreement block: beta_prime * (v^beta_prime - v)."""
    return beta_prime * (v**beta_prime - v)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the layout attempted at N and the rank verdict."""

    N: int
    partition_sizes: tuple[int, ...] | None
    rank_D: int | None
    rank_D_reduced: int | None
    unique_Z: bool | None
    note: str = ""


def empirical_threshold(
    v: int,
    beta_prime: int,
    d: int,
    K: int,
    beta: int,
    N_range: Iterable[int],
    field: PrimeField,
) -> list[SweepRow]:
    """Rank verdict at each N under the worst balanced partition.

    Where the balanced partition is infeasible (every spread would let a cell
    decode alone), the row records that the construction cannot attack N.
    """
    rows = []
    for N in N_range:
        try:
            params = proof_params(v, beta_prime, d, K, beta, N, field)
        except InfeasiblePartition:
            rows.append(
                SweepRow(
                    N=N,
                    partition_sizes=None,
                    rank_D=None,
                    rank_D_reduced=None,
                    unique_Z=None,
                    note="not attackable by this construction",
                )
            )
            continue
        report = unique_decodability(
            build_system(params), params.K, params.beta_prime
        )
        rows.append(
            SweepRow(
                N=N,
                partition_sizes=params.cell_sizes,
                rank_D=report.rank_D,
                rank_D_reduced=report.rank_D_without_Z_columns,
                unique_Z=report.unique_Z,
            )
        )
    return rows


SWEEP_CSV_HEADER = ["N", "partition_sizes", "rank_D", "rank_D_reduced", "unique_Z"]


def sweep_to_csv(rows: Sequence[SweepRow], out: io.TextIOBase) -> None:
    """Write sweep rows with the fixed header; infeasible rows carry empty ranks."""
    writer = csv.writer(out)
    writer.writerow(SWEEP_CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.N,
                "|".join(map(str, row.partition_sizes)) if row.partition_sizes else "",
                row.rank_D if row.rank_D is not None else "",
                row.rank_D_reduced if row.rank_D_reduced is not None else "",
                {True: "true", False: "false", None: "infeasible"}[row.unique_Z],
            ]
        )
