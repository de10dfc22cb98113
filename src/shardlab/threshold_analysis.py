"""Exact rank analysis of linear decodability under version discrepancies.

When captured producers deliver different block versions to different nodes,
the broadcast results are evaluations of several composed polynomials. The
unknowns are the coefficient block of each version tuple plus the honest
outputs; decodability of the honest outputs is a rank condition on the block
matrix D of that system, checked exactly over the prime field.

The check follows the counting argument behind the recovery threshold. D's
evaluation block A pins rank(A) = sum(min(|cell|, width)) coefficients and leaves
ker A = {P_t = m_t * h_t}, with m_t the cell's vanishing polynomial and
deg h_t < w_t = max(0, width - |cell|). D's other rows read the P_t only at the
shard points, where they force one value per honest shard (its output) and one
per captured producer's version. M has those values as unknowns, and one row per
coefficient j in [w_t, K) of the interpolant through tuple t's values over
m_t(omega_k), which must vanish: the parity checks of a generalized Reed-Solomon
code (MacWilliams and Sloane, ch. 10), max(0, |cell| - (d-1)(K-1)) rows for a
cell of at most width points. Only M is built and eliminated; a witness is
lifted back to D's columns and checked against the layout's equations. The lift
cuts m_t * h_t = P_t + x^width * H_t at D's block width, so P_t = -x^width * H_t
mod m_t: where the cut-off H_t is zero, m_t divides P_t, and P_t vanishes on the
cell without being evaluated there. Verdicts share one per-cell kernel, `_cell`, which
builds m_t and 1/m_t(omega_k) once per cell for `build_system`, the lift and the next N
of a sweep, whose layout changes one cell.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING, Iterable, Sequence

from .field_poly import (
    FieldElement, PackedMap, PrimeField, batch_inverse, echelon, nullspace_vector,
    point_set, poly_mul, poly_values, vanishing_polynomial,
)
from .lcc import VersionTuple, all_version_tuples

if TYPE_CHECKING:
    from fractions import Fraction


class InfeasiblePartition(ValueError):
    """The round robin of `proof_params` cannot keep every cell below d(K-1)+1 points."""


def _check_counts(**counts: int) -> None:
    """Name the first count below its least value; K first, as later checks read K points."""
    for name, least in (("K", 1), ("v", 1), ("d", 1), ("beta", 0), ("beta_prime", 0)):
        if counts[name] < least:
            raise ValueError(f"{name} must be at least {least}, got {counts[name]}")


@dataclass(frozen=True)
class AnalysisParams:
    """A concrete adversarial layout to rank-check: points, partition, tuples.

    The shard points are elements of one prime field, which they fix; `partition` holds
    each version cell's node points, given as ints or elements of that field, as residues
    in [0, p). Any partition is taken, even one whose cell decodes alone. The counts are
    read off the sets they count: K is the number of shard points, beta_prime the number
    of captured producers, and N the retained points plus the 2*beta dropped rows.
    """

    d: int
    beta: int
    v: int
    omegas: tuple[FieldElement, ...]
    partition: tuple[tuple[int, ...], ...]  # node point residues per version cell
    producers: tuple[int, ...]

    def __post_init__(self):
        _check_counts(K=self.K, v=self.v, d=self.d, beta=self.beta, beta_prime=self.beta_prime)
        if len(set(self.producers)) != len(self.producers):
            raise ValueError(f"producers must be distinct, got {self.producers}")
        if any(not 1 <= k <= self.K for k in self.producers):
            raise ValueError(f"producers must lie in 1..K = 1..{self.K}, got {self.producers}")
        if len(self.partition) != self.v**self.beta_prime:
            raise ValueError("one cell per version tuple is required")
        if not all(isinstance(w, FieldElement) and w.field == self.omegas[0].field
                   for w in self.omegas):
            raise ValueError("shard points must be elements of one field, omegas[0]'s")
        residue = self.field.residue  # an element of another field raises ValueError
        object.__setattr__(self, "partition",
                           tuple(tuple(map(residue, cell)) for cell in self.partition))
        points = [w.value for w in self.omegas] + [x for cell in self.partition for x in cell]
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
) -> AnalysisParams:
    """Adversarial layout at N nodes: 2*beta evaluation rows dropped, the rest spread
    round robin over the version tuples in lexicographic order, shard k at k and node n
    at K+n in tuple (n-1) mod v^beta_prime, as `assign_versions`'s balanced strategy
    does. Raises `InfeasiblePartition` where a cell would reach d(K-1)+1 points, the
    size at which it decodes alone; any other partition is an `AnalysisParams`.
    """
    # before the layout: v = 0 with beta_prime >= 1 would leave no cell to fill
    _check_counts(K=K, v=v, d=d, beta=beta, beta_prime=beta_prime)
    if beta_prime > K:
        raise ValueError("beta_prime cannot exceed K")
    retained = N - 2 * beta
    if retained < 0:
        raise ValueError("N must be at least 2*beta")
    n_tuples = v**beta_prime
    # the cap keeps a cell from decoding alone; one version tuple has no split to cap
    cap = d * (K - 1)
    if n_tuples > 1 and retained > n_tuples * cap:
        raise InfeasiblePartition(
            f"{retained} points cannot be spread over {n_tuples} cells of at most {cap}")
    alphas = range(K + 1, K + retained + 1)
    return AnalysisParams(
        d=d,
        beta=beta,
        v=v,
        omegas=tuple(field(k) for k in range(1, K + 1)),
        partition=tuple(tuple(alphas[t::n_tuples]) for t in range(n_tuples)),
        producers=tuple(range(1, beta_prime + 1)),
    )


@dataclass(frozen=True)
class SystemMatrices:
    """The decodability system D on the kernel of its evaluation block, as M.

    D is never built. Its columns are one width-(d(K-1)+1) block of
    composed-polynomial coefficients per version tuple (descending degree, tuples
    in lexicographic order), then one column per honest producer output; its rows
    are the evaluations A, the agreements at honest shard points B, the
    shared-version agreements C and the tie of tuple 1 to the outputs. M's columns
    are the values at the shard points: captured producer r's version u at column
    r*v + u - 1, then the outputs in D's order. Tuple t has its value at omega_k in
    column columns[t][k]; its rows say that those values times inv_m[t][k] =
    1/m_t(omega_k) interpolate to degree < w_t = max(0, width - |cell_t|).
    """

    params: AnalysisParams
    M: tuple[tuple[int, ...], ...]  # one row per vanishing interpolant coefficient, in [0, p)
    ncols: int  # M's column count: v * beta_prime versions, then the outputs
    columns: tuple[tuple[int, ...], ...]  # M's column of tuple t's value at omega_k
    inv_m: tuple[tuple[int, ...], ...]  # 1/m_t(omega_k), residues
    unseen: int  # sum of max(0, w_t - K): coefficients of the h_t no shard value sees

    @property
    def n_tuples(self) -> int:
        return len(self.params.partition)

    @property
    def block_width(self) -> int:
        return self.params.block_width

    @property
    def z_width(self) -> int:
        return self.params.K - self.params.beta_prime


@lru_cache(maxsize=256)
def _cell(xs: tuple[int, ...], omegas: tuple[int, ...], field: PrimeField
          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The version cell at xs: m_t's ascending residues, and 1/m_t(omega_k) at every
    shard point. Consecutive N of a sweep share all cells but one, so the 256 kept
    hold every cell of two consecutive layouts up to 27 tuples."""
    m, p = vanishing_polynomial(xs, field).coeffs, field.modulus
    return m, tuple(batch_inverse(poly_values(m, omegas, p), p))


@lru_cache(maxsize=16)
def _lagrange_table(xs: tuple[int, ...], p: int) -> tuple[tuple[int, ...], ...]:
    """table[j][k] is coefficient j of the Lagrange basis polynomial of xs[k], so row j
    times a value per point is coefficient j of the interpolant through them."""
    shards = point_set(xs, p)
    basis = [shards.interpolate([int(i == k) for i in range(len(xs))]) for k in range(len(xs))]
    return tuple(tuple(b[j] if j < len(b) else 0 for b in basis) for j in range(len(xs)))


def build_system(params: AnalysisParams) -> SystemMatrices:
    """Assemble M, the rows of D outside A on ker A, in the values at the shard points."""
    p, K, v, width = params.field.modulus, params.K, params.v, params.block_width
    omegas = tuple(w.value for w in params.omegas)
    z_start = v * params.beta_prime
    shard_cols = [0] * K
    for i, k in enumerate(params.honest_producers):
        shard_cols[k - 1] = z_start + i
    columns = []
    for t in params.tuples:
        for r, k in enumerate(params.producers):
            shard_cols[k - 1] = r * v + t[r] - 1
        columns.append(tuple(shard_cols))
    inv_m = tuple(_cell(cell, omegas, params.field)[1] for cell in params.partition)
    h_widths = [max(0, width - len(cell)) for cell in params.partition]
    table = _lagrange_table(omegas, p)
    ncols = z_start + K - params.beta_prime
    rows = []
    for cols, inv_t, w in zip(columns, inv_m, h_widths):
        for j in range(w, K):
            row = [0] * ncols
            for c, lagrange, i in zip(cols, table[j], inv_t):
                row[c] = lagrange * i % p
            rows.append(tuple(row))
    return SystemMatrices(
        params=params, M=tuple(rows), ncols=ncols, columns=tuple(columns), inv_m=inv_m,
        unseen=sum(max(0, w - K) for w in h_widths))


@dataclass(frozen=True)
class RankReport:
    """Verdict on unique determination of the honest outputs.

    An ambiguous verdict carries a witness w with D @ w = 0, checked against the
    layout's equations, whose output (Z) block is 1 at the first free Z column of D
    and 0 at the other free Z columns. That block is determined by D alone: in
    an echelon basis of D's rows a Z pivot's row is zero left of its pivot, so
    back-substitution gives the Z pivot entries from the free Z entries. The
    coefficient part of w is one of many and is not part of the contract; it is
    the one whose h_t has degree < K.
    """

    rank_D: int
    rank_D_without_Z_columns: int
    unique_Z: bool
    witness: tuple[FieldElement, ...] | None

    def zeta_block(self, z_width: int) -> tuple[FieldElement, ...]:
        if self.witness is None:
            raise ValueError("no witness on a unique_Z report")
        return self.witness[-z_width:]


@lru_cache(maxsize=16)
def _powers_map(xs: tuple[int, ...], width: int, p: int) -> PackedMap:
    """The map from `width` ascending coefficients to the polynomial's values at every x
    in xs: vector i holds x^i at each x."""
    return PackedMap(([pow(x, i, p) for x in xs] for i in range(width)), p)


def _lift(sys: SystemMatrices, vec: Sequence[int | FieldElement]) -> tuple[FieldElement, ...]:
    """Map a nullspace vector of M back to D's columns, and check the P_t and the
    outputs against the layout's equations, evaluated from its points without M's rows.

    Tuple t's values times 1/m_t(omega_k) interpolate on the shard points to h_t, and
    P_t keeps the width low coefficients of m_t * h_t that D's block holds, so a vector
    off M's kernel gives P_t that miss the equations. With H_t the coefficients of
    m_t * h_t from width up, m_t * h_t = P_t + x^width * H_t, so P_t = -x^width * H_t
    mod m_t. Where H_t = 0, m_t divides P_t, which then vanishes at every point of the
    cell, as those points are distinct; only a nonzero H_t has P_t evaluated there.
    P_t at the shard points is one packed sum of the powers of the omegas."""
    params = sys.params
    field, width = params.field, params.block_width
    p = field.modulus
    values = [field.residue(x) for x in vec]
    omegas = tuple(w.value for w in params.omegas)
    shards, at_shards = point_set(omegas, p), _powers_map(omegas, width, p)
    blocks, at = [], []  # P_t's coefficients, ascending; P_t at every omega_k
    for xs, cols, inv in zip(params.partition, sys.columns, sys.inv_m):
        h = shards.interpolate([values[c] * i % p for c, i in zip(cols, inv)])
        mh = poly_mul(_cell(xs, omegas, field)[0], h, p)
        P = mh[:width] + [0] * (width - len(mh))
        if any(mh[width:]) and any(poly_values(P, xs, p)):
            raise AssertionError("a witness polynomial misses a zero of its cell")
        blocks.append(P)
        at.append(at_shards.apply(P))
    z = values[sys.ncols - sys.z_width:]
    if any(row[k - 1] != z_k for k, z_k in zip(params.honest_producers, z) for row in at):
        raise AssertionError("witness tuples disagree with the outputs at an honest shard")
    first: dict[tuple[int, int], int] = {}  # (producer position, version): its first value
    for t, row in zip(params.tuples, at):
        for r, k in enumerate(params.producers):
            if first.setdefault((r, t[r]), row[k - 1]) != row[k - 1]:
                raise AssertionError(
                    "witness tuples sharing a captured producer's version disagree")
    return tuple(FieldElement(c, field) for c in [*(c for P in blocks for c in P[::-1]), *z])


def unique_decodability(sys: SystemMatrices) -> RankReport:
    """Rank test: outputs are unique iff no column relation touches the output block.

    One left-to-right reduction of M answers all of it, as the output (Z) columns
    come last. ker D is ker M times the unseen coefficients, so rank(D) is D's
    coefficient column count less the unseen ones and M's version columns, plus M's
    pivots; without the Z columns only M's pivots left of Z count. Z is unique iff
    every Z column is a pivot. If not, the witness is M's nullspace vector at the
    first free Z column, mapped back to D's columns and checked against the layout's
    equations: two explanations of the same broadcasts that disagree on the honest
    outputs.
    """
    field, z_start = sys.params.field, sys.ncols - sys.z_width
    pivots = echelon(sys.M, sys.ncols, field.modulus)
    free_z = next((c for c in range(z_start, sys.ncols) if c not in pivots), None)
    base = sys.n_tuples * sys.block_width - sys.unseen - z_start
    return RankReport(
        rank_D=base + len(pivots),
        rank_D_without_Z_columns=base + sum(c < z_start for c in pivots),
        unique_Z=free_z is None,
        witness=None if free_z is None else _lift(
            sys, nullspace_vector(sys.M, sys.ncols, field, pivots, free_z)),
    )


def recovery_threshold(v: int, beta_prime: int, d: int, K: int, beta: int) -> int:
    """Minimum node count below which a worst-case version assignment defeats
    every linear decoder of the honest outputs.

    A claim about generic node points: over a small field a layout at or above it can
    still be ambiguous. At (v, beta', d, K, beta) = (2, 1, 3, 4, 0) it is 17, and the
    round-robin layout at N = 17 (cells of 9 and 8 nodes) is ambiguous over GF(31) and
    GF(37) but unique over GF(29), GF(41), GF(97) and 2^31 - 1."""
    return v**beta_prime * (d - 1) * (K - 1) + v * beta_prime + K - beta_prime + 2 * beta


def recovery_probability(N: int, K: int, d: int, beta: int, beta_prime: int, v: int) -> Fraction:
    """Exact chance that the first epoch decodes under `assignment_strategy="random"`:
    beta nodes broadcast garbage, and each of the n = N - beta honest nodes gets one of
    the t = v^beta_prime version tuples uniformly. On generic points every node outside
    the largest cell is an error, so the decode recovers iff that cell holds
    m = N - floor((N - d(K-1) - 1)/2) nodes: 1 - n!/t^n [x^n] (sum_{j<m} x^j/j!)^t."""
    _check_counts(K=K, v=v, d=d, beta=beta, beta_prime=beta_prime)
    if beta_prime > K:
        raise ValueError("beta_prime cannot exceed K")
    if beta > N:
        raise ValueError("N must be at least beta")
    from fractions import Fraction  # here, as it imports decimal: 5% of `import shardlab`

    n, t = N - beta, v**beta_prime
    return 1 - Fraction(_assignments_below(n, t, N - (N - d * (K - 1) - 1) // 2), t**n)


def _assignments_below(n: int, t: int, m: int) -> int:
    """How many of the t^n ways to put n nodes in t cells leave every cell below m nodes:
    n! [x^n] (sum_{j<m} x^j/j!)^t, the truncated exponential generating function raised
    to the power t by repeated squaring (Flajolet and Sedgewick, Analytic Combinatorics,
    ch. II). A series is held as its coefficients times j!, which stay integers: a
    product is then a binomial convolution, exact without fractions."""

    def times(a: list[int], b: list[int]) -> list[int]:  # cut after x^n
        return [sum(comb(k, i) * a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]

    egf = [int(j < m) for j in range(n + 1)]
    power = egf
    for bit in bin(t)[3:]:  # the bits below the leading one
        power = times(power, power)
        if bit == "1":
            power = times(power, egf)
    return power[n]


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
    records that the construction cannot attack N. Every ambiguous row rests on a
    witness that `unique_decodability` lifted and checked against the layout's
    equations; a witness that fails them raises instead of giving a row.
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
