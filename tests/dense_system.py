"""Test oracle: the full decodability system D of a layout, built row by row.

The library builds only R, the system restricted to the kernel of the
evaluation block. Here the dense blocks are built straight from the layout's
points, so tests can check R's verdicts and witnesses against D itself, and
`rref` reduces D by Gauss-Jordan elimination, which the library no longer
runs, so the oracle shares no elimination code with the library.

Columns of D: one width-(d(K-1)+1) block of composed-polynomial coefficients
per version tuple (descending degree, tuples in lexicographic order), then one
column per honest producer output.
"""

from dataclasses import dataclass

from shardlab import AnalysisParams, Matrix, vandermonde
from shardlab.threshold_analysis import _c_row_blocks


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
