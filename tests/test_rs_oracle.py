"""The oracle's linear solve, checked against schoolbook Gauss-Jordan."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_system import Matrix
from rs_oracle import solve_linear
from test_field_poly import GF97, degenerate_matrices, residues, schoolbook_rref


class TestSolveLinear:
    def test_solve_consistent(self, gf97, rng):
        for _ in range(20):
            m = Matrix(gf97, [[gf97.random(rng) for _ in range(4)] for _ in range(6)])
            x = [gf97.random(rng) for _ in range(4)]
            rhs = m.mul_vec(x)
            sol = solve_linear(m, rhs)
            assert sol is not None
            assert m.mul_vec(sol) == rhs

    def test_solve_inconsistent(self, gf7):
        m = Matrix(gf7, [[1, 0], [1, 0]])
        assert solve_linear(m, [gf7(1), gf7(2)]) is None

    @given(data=degenerate_matrices(), x=st.lists(residues, min_size=6, max_size=6),
           noise=st.lists(residues, min_size=9, max_size=9), consistent=st.booleans())
    @settings(max_examples=200)
    def test_solve_linear(self, data, x, noise, consistent):
        rows, ncols = data
        m = Matrix(GF97, rows, ncols=ncols)
        rhs = m.mul_vec(x[:ncols]) if consistent else noise[:len(rows)]
        red, pivots = schoolbook_rref([[*row, GF97(b).value] for row, b in zip(rows, rhs)],
                                      ncols + 1)
        sol = solve_linear(m, rhs)
        if pivots and pivots[-1] == ncols:
            assert sol is None and not consistent
        else:
            expected = [0] * ncols
            for i, c in enumerate(pivots):
                expected[c] = red[i][ncols]
            assert sol == [GF97(v) for v in expected]
