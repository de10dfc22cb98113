"""Exact rank analysis of linear decodability under version discrepancies.

When captured producers deliver different block versions to different nodes,
the broadcast results are evaluations of several composed polynomials. The
unknowns are the coefficient block of each version tuple plus the honest
outputs; decodability of the honest outputs is a rank condition on the block
matrix D of that system, checked exactly over the prime field.

The check follows the counting argument behind the recovery threshold. D's
evaluation block A holds one Vandermonde block per version cell; on distinct
points each has full row rank, so A pins rank(A) = sum(min(|cell|, width))
coefficients and leaves ker A = {P_t = m_t * h_t}, with m_t the cell's
vanishing polynomial and deg h_t < max(0, width - |cell|). The agreement and
tie rows restricted to ker A form a smaller system R over the h_t and the
outputs, and rank(D) = rank(A) + rank(R), with or without the output columns.
Only R is built and eliminated; a witness is lifted back to D's columns and
checked against the layout's equations, evaluated from its points directly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Sequence

from .adversary import InfeasiblePartition, balanced_cells
from .field_poly import (
    FieldElement, Polynomial, PrimeField, echelon, nullspace_vector, vanishing_polynomial,
)
from .lcc import VersionTuple, all_version_tuples


def _check_counts(**counts: int) -> None:
    """Name the first count below its least value; K first, as later checks read K points."""
    for name, least in (("K", 1), ("v", 1), ("d", 1), ("beta", 0), ("beta_prime", 0)):
        if counts[name] < least:
            raise ValueError(f"{name} must be at least {least}, got {counts[name]}")


@dataclass(frozen=True)
class AnalysisParams:
    """A concrete adversarial layout to rank-check: points, partition, tuples.

    The counts are read off the sets they count: K is the number of shard points,
    beta_prime the number of captured producers, and N the retained points plus the
    2*beta dropped evaluation rows.
    """

    d: int
    beta: int
    v: int
    omegas: tuple[FieldElement, ...]
    partition: tuple[tuple[FieldElement, ...], ...]  # alpha points per version cell
    producers: tuple[int, ...]

    def __post_init__(self):
        _check_counts(K=self.K, v=self.v, d=self.d, beta=self.beta, beta_prime=self.beta_prime)
        if len(set(self.producers)) != len(self.producers):
            raise ValueError(f"producers must be distinct, got {self.producers}")
        if any(not 1 <= k <= self.K for k in self.producers):
            raise ValueError(f"producers must lie in 1..K = 1..{self.K}, got {self.producers}")
        if len(self.partition) != self.v**self.beta_prime:
            raise ValueError("one cell per version tuple is required")
        points = [x.value for x in self.omegas] + [
            x.value for cell in self.partition for x in cell
        ]
        if len(set(points)) != len(points):
            raise ValueError("evaluation points must be pairwise distinct")

    @property
    def N(self) -> int:
        return sum(self.cell_sizes) + 2 * self.beta

    @property
    def K(self) -> int:
        return len(self.omegas)

    @property
    def beta_prime(self) -> int:
        return len(self.producers)

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
    spread by `balanced_cells` over all version tuples with every cell held
    below d(K-1)+1 (the size at which a cell would decode alone). The rule is
    the simulation's balanced assignment: point i gets tuple i mod v^beta_prime,
    with the tuples in lexicographic order.

    Canonical points (shard k at k, node n at K+n) are used; pass `cells`
    to pin an explicit partition of the retained points instead.
    """
    # before the layout: v = 0 with beta_prime >= 1 would leave no cell to fill
    _check_counts(K=K, v=v, d=d, beta=beta, beta_prime=beta_prime)
    if beta_prime > K:
        raise ValueError("beta_prime cannot exceed K")
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
        if sum(map(len, cells)) != retained:
            raise ValueError(f"explicit partition must hold N - 2*beta = {retained} points")
    return AnalysisParams(
        d=d,
        beta=beta,
        v=v,
        omegas=omegas,
        partition=tuple(tuple(cell) for cell in cells),
        producers=tuple(range(1, beta_prime + 1)),
    )


@dataclass(frozen=True)
class SystemMatrices:
    """The decodability system D on the kernel of its evaluation block.

    D is never built. Its columns are one width-(d(K-1)+1) block of
    composed-polynomial coefficients per version tuple (descending degree, tuples
    in lexicographic order), then one column per honest producer output; its rows
    are the evaluations A, the agreements at honest shard points B, the
    shared-version agreements C and the tie of tuple 1 to the outputs. R is the
    B, C and tie rows on ker A: one block of max(0, width - |cell|) descending
    coefficients of h_t per tuple, where P_t = m_t * h_t, then the same output
    columns.
    """

    params: AnalysisParams
    R: tuple[tuple[int, ...], ...]  # B, C and tie rows restricted to ker A, residues in [0, p)
    ncols: int  # R's column count: the h_t coefficients, then the outputs
    rank_A: int  # sum of min(|cell|, width): the coefficients A pins
    vanishing: tuple[Polynomial, ...]  # m_t, the vanishing polynomial of each cell

    @property
    def n_tuples(self) -> int:
        return len(self.params.partition)

    @property
    def block_width(self) -> int:
        return self.params.block_width

    @property
    def z_width(self) -> int:
        return self.params.K - self.params.beta_prime


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
    """Assemble R, the rows of D outside A restricted to ker A."""
    field, p = params.field, params.field.modulus
    width = params.block_width
    n_tuples = len(params.partition)
    z_width = params.K - params.beta_prime
    # omega_k's Vandermonde row, descending: (omega_k^(width-1), ..., omega_k, 1)
    van = [[pow(w.value, e, p) for e in range(width - 1, -1, -1)] for w in params.omegas]
    vanishing = tuple(vanishing_polynomial(cell, field) for cell in params.partition)
    m_at = [[m(omega).value for omega in params.omegas] for m in vanishing]
    h_widths = [max(0, width - len(cell)) for cell in params.partition]
    h_offsets = list(accumulate(h_widths, initial=0))
    h_cols = h_offsets[-1]

    def equation(k: int, *signed: tuple[int, int]) -> list[int]:
        """R's row of sum(sign * P_i(omega_k)) over (i, sign), output columns zero.

        P_i = m_i * h_i, so tuple i's segment is m_i(omega_k) times the last
        len(h_i) entries of omega_k's Vandermonde row.
        """
        row = [0] * (h_cols + z_width)
        for i, sign in signed:
            scale = sign * m_at[i][k]
            segment = van[k][width - h_widths[i]:]
            row[h_offsets[i]:h_offsets[i + 1]] = [scale * c % p for c in segment]
        return row

    honest = [k - 1 for k in params.honest_producers]
    # B: tuple 1's honest-shard evaluations equal every other tuple's
    rows = [equation(k, (0, 1), (i, -1)) for i in range(1, n_tuples) for k in honest]
    # C: tuples sharing a producer's version agree at that producer's shard point
    rows += [
        equation(params.producers[r] - 1, (i, 1), (j, -1))
        for i, j, r in _c_row_blocks(params.tuples)
    ]
    # ties: tuple 1's honest evaluations are the output unknowns
    for idx, k in enumerate(honest):
        rows.append(equation(k, (0, 1)))
        rows[-1][h_cols + idx] = p - 1
    return SystemMatrices(
        params=params,
        R=tuple(map(tuple, rows)),
        ncols=h_cols + z_width,
        rank_A=n_tuples * width - h_cols,
        vanishing=vanishing,
    )


@dataclass(frozen=True)
class RankReport:
    """Verdict on unique determination of the honest outputs.

    An ambiguous verdict carries a witness w with D @ w = 0, checked against the
    layout's equations, whose output (Z) block is 1 at the first free Z column of D
    and 0 at the other free Z columns. That block is determined by D alone: in
    an echelon basis of D's rows a Z pivot's row is zero left of its pivot, so
    back-substitution gives the Z pivot entries from the free Z entries. The
    coefficient part of w is one of many and is not part of the contract.
    """

    rank_D: int
    rank_D_without_Z_columns: int
    unique_Z: bool
    witness: tuple[FieldElement, ...] | None

    def zeta_block(self, z_width: int) -> tuple[FieldElement, ...]:
        if self.witness is None:
            raise ValueError("no witness on a unique_Z report")
        return self.witness[-z_width:]


def _lift(sys: SystemMatrices, vec: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """Map a nullspace vector of R back to D's columns through P_t = m_t * h_t,
    and check the P_t and the outputs against the layout's equations, evaluated
    from its points without R's row placement."""
    params = sys.params
    width = params.block_width
    polys = []
    start = 0
    for m in sys.vanishing:
        stop = start + max(0, width - m.degree)
        polys.append(m * Polynomial(params.field, reversed(vec[start:stop])))
        start = stop
    z = vec[start:]
    if any(P(alpha) for P, cell in zip(polys, params.partition) for alpha in cell):
        raise AssertionError("a witness polynomial misses a zero of its cell")
    at = [[P(omega) for omega in params.omegas] for P in polys]
    if any(row[k - 1] != z_k for k, z_k in zip(params.honest_producers, z) for row in at):
        raise AssertionError("witness tuples disagree with the outputs at an honest shard")
    tuples = params.tuples
    if any(
        tuples[i][r] == tuples[j][r] and at[i][k - 1] != at[j][k - 1]
        for r, k in enumerate(params.producers)
        for i, j in combinations(range(len(tuples)), 2)
    ):
        raise AssertionError("witness tuples sharing a captured producer's version disagree")
    return (*(P.coefficient(j) for P in polys for j in range(width - 1, -1, -1)), *z)


def unique_decodability(sys: SystemMatrices) -> RankReport:
    """Rank test: outputs are unique iff no column relation touches the output block.

    One left-to-right reduction of R, the system on ker A, answers all of it, as
    the output (Z) columns come last: rank(D) is rank(A) plus R's pivot count,
    rank(D) without the Z columns is rank(A) plus R's pivots left of Z, and Z is
    unique iff every Z column is a pivot. If not, the witness is R's nullspace
    vector at the first free Z column, mapped back to D's columns and checked
    against the layout's equations: two explanations of the same broadcasts that
    disagree on the honest outputs.
    """
    field, h_cols = sys.params.field, sys.ncols - sys.z_width
    pivots = echelon(sys.R, sys.ncols, field.modulus)
    free_z = next((c for c in range(h_cols, sys.ncols) if c not in pivots), None)
    return RankReport(
        rank_D=sys.rank_A + len(pivots),
        rank_D_without_Z_columns=sys.rank_A + sum(c < h_cols for c in pivots),
        unique_Z=free_z is None,
        witness=None if free_z is None else _lift(
            sys, nullspace_vector(sys.R, sys.ncols, field, pivots, free_z)),
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
    """Rank verdict at each N on the round-robin layout of `proof_params`.

    That layout is not worst-case for v >= 3: it can report unique outputs
    below `recovery_threshold`, where another partition is ambiguous, so the
    threshold it finds can fall below the formula. Where the layout is
    infeasible (a cell would reach d(K-1)+1 points and decode alone), the row
    records that the construction cannot attack N.
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
        report = unique_decodability(build_system(params))
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
