"""Test oracles: the full decodability system D of a layout, built row by row,
and R, D's agreement and tie rows restricted to the kernel of its evaluation block.

The library builds only M, the system on the tuples' values at the shard points.
Here the dense blocks are built straight from the layout's points, so tests can
check M's verdicts and witnesses against D itself, and `rref` reduces D by
Gauss-Jordan elimination, which the library no longer runs, so the oracle shares
no elimination code with the library. R has one column per coefficient of each
h_t in P_t = m_t * h_t and one row per agreement or tie of D; it is the oracle for
layouts whose D is too large to reduce: `restricted_verdict` reduces it once, and
`restricted_lift` maps its witness back to D's columns. `evaluated_lift` maps M's
witness back as the library's `_lift` does, but with no cut-off test: it evaluates
every P_t at each point of its cell and at the shard points by Horner, so it is the
oracle for `_lift`. `affine_image` moves a layout's points by x -> a*x + b, which
leaves every rank verdict as it was.

`Matrix`, `vandermonde`, `matrix_rank` and `nullspace_basis` are the dense
layer the library used to export. The library runs its linear algebra on rows
of residues; here they hold D and the oracles' systems, and the rank and
nullspace helpers run on `echelon_rows`, the list elimination the library's packed
`echelon` replaced, and on the library's `nullspace_vector`.

Columns of D: one width-(d(K-1)+1) block of composed-polynomial coefficients
per version tuple (descending degree, tuples in lexicographic order), then one
column per honest producer output.
"""

from dataclasses import dataclass, replace
from itertools import accumulate, combinations
from operator import mul
from typing import Iterable, Sequence

from shardlab import AnalysisParams, FieldElement, PrimeField, RankReport, SystemMatrices
from shardlab.field_poly import (
    Polynomial, echelon, nullspace_vector, point_set, poly_mul, poly_values,
    vanishing_polynomial,
)
from shardlab.lcc import VersionTuple


class Matrix:
    """Immutable row-major matrix; `rows` holds int residues, indexing gives elements."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: PrimeField, rows: Iterable[Sequence[int | FieldElement]],
                 ncols: int | None = None):
        p, residue = field.modulus, field.residue
        # plain ints, the common case, skip the residue call
        rs = tuple(tuple(v % p if type(v) is int else residue(v) for v in row) for row in rows)
        if rs:
            widths = {len(r) for r in rs}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} but rows have width {width}")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        self.field = field
        self.rows = rs
        self.nrows = len(rs)
        self.ncols = ncols

    def __getitem__(self, ij: tuple[int, int]) -> FieldElement:
        i, j = ij
        return FieldElement(self.rows[i][j], self.field)

    def mul_vec(self, vec: Sequence[int | FieldElement]) -> tuple[FieldElement, ...]:
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        p = self.field.modulus
        vals = [self.field.residue(v) for v in vec]
        return tuple(
            FieldElement(sum(map(mul, row, vals)) % p, self.field)
            for row in self.rows
        )

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def vandermonde(xs: Sequence[FieldElement], degree: int,
                field: PrimeField | None = None) -> Matrix:
    """|xs| x (degree+1) matrix; row i = (x_i^degree, ..., x_i, 1), descending."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if field is None:
        if not xs:
            raise ValueError("field is required when xs is empty")
        field = xs[0].field
    p = field.modulus
    rows = []
    for x in xs:
        v = field.residue(x)
        row = [1] * (degree + 1)
        acc = 1
        for j in range(degree - 1, -1, -1):
            acc = acc * v % p
            row[j] = acc
        rows.append(row)
    return Matrix(field, rows, ncols=degree + 1)


def echelon_rows(rows: Iterable[Sequence[int]], ncols: int, p: int) -> dict[int, list[int]]:
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
                inv = pow(f, -1, p)
                row[c:] = [x * inv % p for x in row[c:]]
                kept[c] = row
                break
    return kept


def matrix_rank(m: Matrix) -> int:
    """Rank over the matrix's field: the leading columns of `echelon_rows`."""
    return len(echelon_rows(m.rows, m.ncols, m.field.modulus))


def nullspace_basis(m: Matrix) -> list[tuple[FieldElement, ...]]:
    """Basis of {x : m @ x = 0}, one `nullspace_vector` per free column."""
    pivots = echelon_rows(m.rows, m.ncols, m.field.modulus)
    return [nullspace_vector(m.rows, m.ncols, m.field, pivots, f)
            for f in range(m.ncols) if f not in pivots]


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


@dataclass(frozen=True)
class DenseSystem:
    A: Matrix  # evaluations: block-diagonal, one Vandermonde block per cell
    B: Matrix  # tuple 1 vs tuple i agreement at honest shard points
    C: Matrix  # per-producer agreement between tuples sharing a version
    D: Matrix  # A, B, C stacked, plus the tie of tuple 1 to the output columns
    n_tuples: int
    block_width: int
    z_width: int


def dense_system(params: AnalysisParams) -> DenseSystem:
    field = params.field
    width = params.block_width
    n_tuples = len(params.partition)
    z_width = params.K - params.beta_prime
    lam_cols = n_tuples * width
    at_shard = vandermonde(params.omegas, width - 1, field).rows

    def row(*segments):
        """Zero coefficient row with tuple i's block set to sign * van for each (i, van, sign)."""
        out = [0] * lam_cols
        for i, van, sign in segments:
            out[i * width:(i + 1) * width] = [sign * c for c in van]
        return out

    a_rows = [
        row((i, van, 1))
        for i, cell in enumerate(params.partition)
        for van in vandermonde(cell, width - 1, field).rows
    ]
    honest = [k - 1 for k in params.honest_producers]
    b_rows = [
        row((0, at_shard[k], 1), (i, at_shard[k], -1))
        for i in range(1, n_tuples) for k in honest
    ]
    c_rows = [
        row((i, at_shard[params.producers[r] - 1], 1), (j, at_shard[params.producers[r] - 1], -1))
        for i, j, r in _c_row_blocks(params.tuples)
    ]
    ties = [
        row((0, at_shard[k], 1)) + [-int(j == idx) for j in range(z_width)]
        for idx, k in enumerate(honest)
    ]
    no_z = [0] * z_width
    return DenseSystem(
        A=Matrix(field, a_rows, ncols=lam_cols),
        B=Matrix(field, b_rows, ncols=lam_cols),
        C=Matrix(field, c_rows, ncols=lam_cols),
        D=Matrix(
            field,
            [r + no_z for r in a_rows + b_rows + c_rows] + ties,
            ncols=lam_cols + z_width,
        ),
        n_tuples=n_tuples,
        block_width=width,
        z_width=z_width,
    )


def rref(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p) of residue rows; returns (rows, pivot cols)."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        # the pivot row is zero left of c, so only columns c.. ever change
        inv = pow(rows[r][c], p - 2, p)
        tail = [x * inv % p for x in rows[r][c:]]
        rows[r][c:] = tail
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


@dataclass(frozen=True)
class RestrictedSystem:
    """R: the B, C and tie rows of D on ker A. One block of max(0, width - |cell|)
    descending coefficients of h_t per tuple, where P_t = m_t * h_t, then D's output
    columns."""

    params: AnalysisParams
    R: tuple[tuple[int, ...], ...]  # residues in [0, p)
    ncols: int  # the h_t coefficients, then the outputs
    rank_A: int  # sum of min(|cell|, width): the coefficients A pins
    vanishing: tuple[Polynomial, ...]  # m_t, the vanishing polynomial of each cell

    @property
    def z_width(self) -> int:
        return self.params.K - self.params.beta_prime


def restricted_system(params: AnalysisParams) -> RestrictedSystem:
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
    return RestrictedSystem(
        params=params,
        R=tuple(map(tuple, rows)),
        ncols=h_cols + z_width,
        rank_A=n_tuples * width - h_cols,
        vanishing=vanishing,
    )


def restricted_lift(sys: RestrictedSystem, vec: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
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


def restricted_verdict(sys: RestrictedSystem) -> RankReport:
    """The verdict from one left-to-right reduction of R, output columns last:
    rank(D) is rank(A) plus R's pivot count, rank(D) without the Z columns is
    rank(A) plus R's pivots left of Z, and Z is unique iff every Z column is a
    pivot. The witness is R's nullspace vector at the first free Z column, lifted."""
    field, h_cols = sys.params.field, sys.ncols - sys.z_width
    pivots = echelon(sys.R, sys.ncols, field.modulus)
    free_z = next((c for c in range(h_cols, sys.ncols) if c not in pivots), None)
    return RankReport(
        rank_D=sys.rank_A + len(pivots),
        rank_D_without_Z_columns=sys.rank_A + sum(c < h_cols for c in pivots),
        unique_Z=free_z is None,
        witness=None if free_z is None else restricted_lift(
            sys, nullspace_vector(sys.R, sys.ncols, field, pivots, free_z)),
    )


def evaluated_lift(sys: SystemMatrices,
                   vec: Sequence[int | FieldElement]) -> tuple[FieldElement, ...]:
    """Map a nullspace vector of M back to D's columns as the library's `_lift` does, and
    check the P_t by evaluating each at every point of its cell and at the shard points.

    Tuple t's values times 1/m_t(omega_k) interpolate on the shard points to h_t, and
    P_t = m_t * h_t keeps the width low coefficients that D's block holds, so a vector
    off M's kernel gives P_t that miss the equations."""
    params = sys.params
    field, width = params.field, params.block_width
    p = field.modulus
    values = [field.residue(x) for x in vec]
    omegas = tuple(w.value for w in params.omegas)
    shards = point_set(omegas, p)
    blocks, at = [], []  # P_t's coefficients, ascending; P_t at every omega_k
    for cell, cols, inv in zip(params.partition, sys.columns, sys.inv_m):
        h = shards.interpolate([values[c] * i % p for c, i in zip(cols, inv)])
        P = poly_mul(vanishing_polynomial(cell, field).coeffs, h, p)[:width]
        P += [0] * (width - len(P))
        at_cell = poly_values(P, [*cell, *omegas], p)
        if any(at_cell[:len(cell)]):
            raise AssertionError("a witness polynomial misses a zero of its cell")
        blocks.append(P)
        at.append(at_cell[len(cell):])
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


def affine_image(params: AnalysisParams, a: int, b: int) -> AnalysisParams:
    """The layout with every point x moved to a*x + b (a nonzero mod p), node points as
    residues: polynomials of degree below the block width are carried to polynomials of
    the same degree, so D's kernel, and with it the verdict, is carried along."""
    field, p = params.field, params.field.modulus
    return replace(
        params, omegas=tuple(field(a * w.value + b) for w in params.omegas),
        partition=tuple(tuple((a * x + b) % p for x in cell) for cell in params.partition))
