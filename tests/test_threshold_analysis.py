import dataclasses
import functools
import io
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardlab import (
    AnalysisParams,
    BroadcastEntry,
    BroadcastSet,
    InfeasiblePartition,
    InsufficientEvaluations,
    RankReport,
    VersionAssignment,
    build_coded_poly,
    build_system,
    c_row_count,
    compose_verification,
    empirical_threshold,
    free_variable_count,
    free_variable_count_closed_form,
    known_behavior_decode,
    known_behavior_upper_bound,
    proof_params,
    recovery_probability,
    recovery_threshold,
    sweep_to_csv,
    unique_decodability,
)
from shardlab import threshold_analysis
from shardlab.field_poly import (
    PrimeField, batch_inverse, echelon, kernel_vector, nullspace_vector, poly_values,
    vanishing_polynomial,
)
from shardlab.lcc import EncodingParams, all_version_tuples
from shardlab.polyshard_sim import power_check
from shardlab.threshold_analysis import _assignments_below, _cell, _lift

from dense_system import (
    Matrix, _c_row_blocks, dense_system, evaluated_lift, matrix_rank, nullspace_basis,
    restricted_lift, restricted_system, restricted_verdict, rref,
)


class TestBuildSystem:
    def test_v1_reduces_to_plain_system(self, field):
        params = proof_params(1, 1, 2, 3, 0, 4, field)
        dense = dense_system(params)
        assert dense.B.nrows == 0
        assert dense.C.nrows == 0
        width = params.block_width
        # D is evaluations stacked on the output tie, nothing else
        assert dense.D.nrows == dense.A.nrows + (3 - 1)
        assert dense.D.ncols == width + 2

    def test_two_version_shapes(self, field):
        params = proof_params(2, 1, 2, 3, 1, 9, field)
        sys_m = build_system(params)
        dense = dense_system(params)
        width = 2 * (3 - 1) + 1
        assert sys_m.block_width == width == 5
        assert dense.A.ncols == 2 * width  # one block of unknowns per version tuple
        assert dense.A.nrows == 7  # N - 2*beta evaluations retained
        assert sys_m.z_width == 2
        assert dense.B.nrows == (2 - 1) * (3 - 1)
        assert dense.C.nrows == 0
        assert dense.D.nrows == 7 + 2 + 0 + 2
        assert dense.D.ncols == 2 * width + 2

    def test_pair_agreement_row_count(self, field):
        # two producers with two versions each: (v^(b'-1)-1)*v = 2 rows per
        # producer, 4 in total
        params = proof_params(2, 2, 2, 3, 2, 15, field)
        assert dense_system(params).C.nrows == 4 == c_row_count(2, 2)

    def test_row_blocks_cover_all_agreements(self):
        # transitive closure of the chained rows equals agreement of every pair
        for v, bp in [(2, 2), (3, 2), (2, 3)]:
            tuples = all_version_tuples(v, bp)
            assert len(_c_row_blocks(tuples)) == c_row_count(v, bp)
            for r in range(bp):
                for value in range(1, v + 1):
                    group = [i for i, t in enumerate(tuples) if t[r] == value]
                    linked = {i: {i} for i in group}
                    for i, j, rr in _c_row_blocks(tuples):
                        if rr == r and tuples[i][r] == value:
                            union = linked[i] | linked[j]
                            for m in union:
                                linked[m] = union
                    assert all(linked[i] == set(group) for i in group)


def composed_instance(field, params_enc, analysis, rng):
    """Real blocks realizing the analysis layout; returns (X, Z, y) vectors."""
    f = power_check(analysis.d)
    producer_versions = {
        k: [field.random(rng) for _ in range(analysis.v)] for k in analysis.producers
    }
    honest_blocks = {k: field.random(rng) for k in analysis.honest_producers}
    width = analysis.block_width
    x_vec, y_vec = [], []
    z_vec = None
    for tup, cell in zip(analysis.tuples, analysis.partition):
        view = tuple(
            producer_versions[k][tup[analysis.producers.index(k)] - 1]
            if k in analysis.producers
            else honest_blocks[k]
            for k in range(1, analysis.K + 1)
        )
        composed = compose_verification(build_coded_poly(view, params_enc), [], f)
        x_vec.extend(composed.coefficient(width - 1 - i) for i in range(width))
        y_vec.extend(composed(alpha) for alpha in cell)
        if z_vec is None:
            z_vec = [
                composed(params_enc.omegas[k - 1]) for k in analysis.honest_producers
            ]
    return x_vec, z_vec, y_vec


class TestUniqueDecodability:
    def test_v1_at_exact_count_is_unique(self, field):
        width = 2 * (3 - 1) + 1
        params = proof_params(1, 1, 2, 3, 0, width, field)
        report = unique_decodability(build_system(params))
        assert report.unique_Z
        assert report.witness is None

    def test_below_threshold_has_witness(self, field):
        params = proof_params(2, 1, 2, 3, 1, 9, field)
        sys_m = build_system(params)
        report = unique_decodability(sys_m)
        assert not report.unique_Z
        assert report.witness is not None
        assert all(x.value == 0 for x in dense_system(params).D.mul_vec(report.witness))
        assert any(x.value for x in report.zeta_block(sys_m.z_width))

    def test_rank_identity(self, field):
        for N in (7, 9, 10):
            params = proof_params(2, 1, 2, 3, 1, N, field)
            sys_m = build_system(params)
            report = unique_decodability(sys_m)
            assert report.unique_Z == (
                report.rank_D == report.rank_D_without_Z_columns + sys_m.z_width
            )

    def test_large_cell_forces_zero_block(self, field):
        # a cell reaching d(K-1)+1 points pins its coefficient block to zero
        # in every nullspace vector, killing the ambiguity from that side
        omegas = tuple(field(k) for k in (1, 2, 3))
        alphas = tuple(field(4 + i) for i in range(7))
        params = AnalysisParams(
            d=2, beta=1, v=2,
            omegas=omegas,
            partition=(alphas[:5], alphas[5:]),
            producers=(1,),
        )
        width = params.block_width
        for vec in nullspace_basis(dense_system(params).D):
            assert all(x.value == 0 for x in vec[:width])

    def test_structural_rank_of_evaluation_block(self, field):
        omegas = tuple(field(k) for k in (1, 2, 3))
        alphas = tuple(field(4 + i) for i in range(7))
        for split in (3, 5):
            params = AnalysisParams(
                d=2, beta=1, v=2,
                omegas=omegas,
                partition=(alphas[:split], alphas[split:]),
                producers=(1,),
            )
            expected = sum(
                min(len(cell), params.block_width) for cell in params.partition
            )
            assert matrix_rank(dense_system(params).A) == expected

    def test_witness_yields_second_explanation(self, field, rng):
        # two solution vectors under identical broadcasts, different honest outputs
        analysis = proof_params(2, 1, 2, 3, 1, 9, field)
        enc = EncodingParams(
            omegas=analysis.omegas,
            alphas=tuple(a for cell in analysis.partition for a in cell), d=2,
        )
        sys_m = build_system(analysis)
        D = dense_system(analysis).D
        x_vec, z_vec, y_vec = composed_instance(field, enc, analysis, rng)
        rhs = tuple(y_vec) + tuple(
            field.zero for _ in range(D.nrows - len(y_vec))
        )
        assert D.mul_vec(tuple(x_vec) + tuple(z_vec)) == rhs
        report = unique_decodability(sys_m)
        shifted = [a + b for a, b in zip(tuple(x_vec) + tuple(z_vec), report.witness)]
        assert D.mul_vec(shifted) == rhs  # same broadcasts explained
        assert shifted[-sys_m.z_width:] != z_vec  # yet the honest outputs differ
        # and the known-version decoder agrees: at this N no cell even reaches
        # the interpolation minimum, so the ambiguity is not decodable away
        entries = [
            BroadcastEntry(n, alpha, y)
            for n, (alpha, y) in enumerate(zip(enc.alphas, y_vec), 1)
        ]
        node_tuples = {}
        node = 1
        for tup, cell in zip(analysis.tuples, analysis.partition):
            for _ in cell:
                node_tuples[node] = tup
                node += 1
        assignment = VersionAssignment(producers=(1,), v=2, node_tuples=node_tuples)
        with pytest.raises(InsufficientEvaluations):
            known_behavior_decode(
                BroadcastSet(entries), assignment, 1, enc
            )


def three_elimination_verdict(dense):
    """rank(D), rank(D_lambda), uniqueness and witness by three separate eliminations."""
    D = dense.D
    lam_cols = dense.n_tuples * dense.block_width
    rank_full = matrix_rank(D)
    rank_reduced = matrix_rank(
        Matrix(D.field, (row[:lam_cols] for row in D.rows), ncols=lam_cols)
    )
    witness = next(
        (vec for vec in nullspace_basis(D) if any(x.value for x in vec[lam_cols:])), None
    )
    return rank_full, rank_reduced, rank_full == rank_reduced + dense.z_width, witness


class TestOneEliminationVerdict:
    # every (v, beta', d, K, beta) the rank tests in this suite build systems for
    @pytest.mark.parametrize(
        "config",
        [(1, 1, 1, 3, 0), (1, 1, 2, 3, 0), (1, 1, 2, 3, 1), (1, 1, 2, 4, 0),
         (2, 1, 2, 3, 1), (2, 2, 2, 3, 2)],
    )
    def test_matches_three_eliminations(self, field, config):
        threshold = recovery_threshold(*config)
        beta = config[-1]
        verdicts = set()
        for N in range(max(2 * beta, threshold - 3), threshold + 2):
            try:
                params = proof_params(*config, N, field)
            except InfeasiblePartition:
                continue
            sys_m = build_system(params)
            dense = dense_system(params)
            report = unique_decodability(sys_m)
            rank_full, rank_reduced, unique, witness = three_elimination_verdict(dense)
            assert (report.rank_D, report.rank_D_without_Z_columns, report.unique_Z) == (
                rank_full, rank_reduced, unique
            ), N
            # only the output block of a witness is determined; the coefficient
            # part is any vector completing it to a nullspace vector of D
            if unique:
                assert report.witness is None, N
            else:
                assert report.zeta_block(sys_m.z_width) == witness[-sys_m.z_width:], N
                assert not any(dense.D.mul_vec(report.witness)), N
            verdicts.add(report.unique_Z)
        assert verdicts == {False, True}


def full_d_verdict(dense):
    """The verdict from one Gauss-Jordan reduction of the whole of D, Z columns
    last, by the test-side `rref`: the witness is read off D's reduced form."""
    D = dense.D
    lam_cols = dense.n_tuples * dense.block_width
    red, pivots = rref(D.rows, D.ncols, D.field.modulus)
    free_z = next((c for c in range(lam_cols, D.ncols) if c not in pivots), None)
    witness = None
    if free_z is not None:
        vec = [0] * D.ncols
        vec[free_z] = 1
        for i, c in enumerate(pivots):
            vec[c] = -red[i][free_z] % D.field.modulus
        assert not any(D.mul_vec(vec))
        witness = tuple(D.field(x) for x in vec)
    return RankReport(
        rank_D=len(pivots),
        rank_D_without_Z_columns=sum(c < lam_cols for c in pivots),
        unique_Z=free_z is None,
        witness=witness,
    )


def assert_matches_full_d(params):
    """unique_decodability, which reduces only M, agrees with the reduction of D."""
    sys_m = build_system(params)
    dense = dense_system(params)
    report = unique_decodability(sys_m)
    oracle = full_d_verdict(dense)
    assert (report.rank_D, report.rank_D_without_Z_columns, report.unique_Z) == (
        oracle.rank_D, oracle.rank_D_without_Z_columns, oracle.unique_Z
    )
    if oracle.unique_Z:
        assert report.witness is None
    else:
        assert report.zeta_block(sys_m.z_width) == oracle.zeta_block(sys_m.z_width)
        assert not any(dense.D.mul_vec(report.witness))
    return report


def explicit_params(field, v, beta_prime, d, K, beta, sizes):
    """Layout with the given cell sizes over canonical points."""
    alphas = iter(field(K + n) for n in range(1, sum(sizes) + 1))
    return AnalysisParams(
        d=d, beta=beta, v=v,
        omegas=tuple(field(k) for k in range(1, K + 1)),
        partition=tuple(tuple(next(alphas) for _ in range(size)) for size in sizes),
        producers=tuple(range(1, beta_prime + 1)),
    )


class TestRestrictedVerdict:
    def test_sweep_rank_small_window(self, field):
        verdicts = {
            assert_matches_full_d(proof_params(2, 2, 3, 6, 2, N, field)).unique_Z
            for N in range(44, 55)
        }
        assert verdicts == {False, True}

    @pytest.mark.parametrize(
        "config",
        [(1, 1, 1, 3, 0), (1, 1, 2, 3, 0), (1, 1, 2, 3, 1), (1, 1, 2, 4, 0),
         (2, 1, 2, 3, 1), (2, 2, 2, 3, 2)],
    )
    def test_one_elimination_configs(self, field, config):
        threshold = recovery_threshold(*config)
        for N in range(max(2 * config[-1], threshold - 3), threshold + 2):
            try:
                params = proof_params(*config, N, field)
            except InfeasiblePartition:
                continue
            assert_matches_full_d(params)

    @pytest.mark.parametrize("v, beta_prime", [(1, 1), (2, 0)])
    def test_single_cell_beyond_block_width(self, field, v, beta_prime):
        # one version tuple, so no cap: the cell outgrows the block and A alone
        # pins every coefficient
        params = proof_params(v, beta_prime, 2, 3, 1, 11, field)
        assert params.cell_sizes == (9,) and params.block_width == 5
        assert restricted_system(params).ncols == params.K - params.beta_prime
        # M: one row per shard value pins every value to zero
        sys_m = build_system(params)
        assert (len(sys_m.M), sys_m.ncols) == (3, 3)
        assert assert_matches_full_d(params).unique_Z

    @pytest.mark.parametrize("sizes", [(5, 2), (3, 4)])
    def test_explicit_two_cell_layouts(self, field, sizes):
        assert_matches_full_d(explicit_params(field, 2, 1, 2, 3, 1, sizes))

    def test_searched_partition_below_threshold(self, field):
        # a partition the round-robin layout misses: ambiguous one node below
        # the threshold of (3, 2, 2, 3, 1)
        params = explicit_params(field, 3, 2, 2, 3, 1, (4, 3, 3, 3, 2, 2, 3, 2, 2))
        assert params.N == 26 == recovery_threshold(3, 2, 2, 3, 1) - 1
        report = assert_matches_full_d(params)
        assert (report.rank_D, report.rank_D_without_Z_columns) == (45, 45)
        assert not report.unique_Z
        assert report.zeta_block(1) == (field(1),)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1, 1), (2, 0), (2, 1), (2, 2), (3, 1)]),
        st.integers(1, 2),
        st.integers(3, 4),
        st.integers(0, 1),
        st.data(),
    )
    def test_random_cell_sizes(self, field, vb, d, K, beta, data):
        v, beta_prime = vb
        width = d * (K - 1) + 1
        sizes = data.draw(
            st.lists(st.integers(0, width), min_size=v**beta_prime, max_size=v**beta_prime)
        )
        assert_matches_full_d(explicit_params(field, v, beta_prime, d, K, beta, sizes))


def free_z_witness(rows, ncols, z_width, field):
    """The nullspace vector of residue rows at their first free output column."""
    pivots = echelon(rows, ncols, field.modulus)
    free_z = next(c for c in range(ncols - z_width, ncols) if c not in pivots)
    return list(nullspace_vector(rows, ncols, field, pivots, free_z))


def assert_matches_restricted(params, dense_cells=40_000):
    """unique_decodability, which reduces M, agrees with the R oracle's one reduction,
    and its witness solves D wherever D has at most dense_cells entries."""
    sys_m = build_system(params)
    report = unique_decodability(sys_m)
    oracle = restricted_verdict(restricted_system(params))
    assert (report.rank_D, report.rank_D_without_Z_columns, report.unique_Z) == (
        oracle.rank_D, oracle.rank_D_without_Z_columns, oracle.unique_Z
    )
    if oracle.unique_Z:
        assert report.witness is None
        return report
    assert report.zeta_block(sys_m.z_width) == oracle.zeta_block(sys_m.z_width)
    n_tuples, z_width = sys_m.n_tuples, sys_m.z_width
    d_rows = (sum(params.cell_sizes) + (n_tuples - 1) * z_width
              + c_row_count(params.v, params.beta_prime) + z_width)
    if d_rows * (n_tuples * sys_m.block_width + z_width) <= dense_cells:
        assert not any(dense_system(params).D.mul_vec(report.witness))
    return report


# (v, beta') with v^beta' up to 27, each with the shard counts that hold beta' producers
VERSION_SHAPES = [(1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3)]


class TestShardValueSystem:
    """M, the system on the shard values, against the R oracle beyond the dense D's reach."""

    def test_column_map(self, field):
        # producer r's version u at column r*v + u - 1, the honest outputs after them
        sys_m = build_system(explicit_params(field, 2, 2, 2, 4, 0, (3, 3, 3, 3)))
        assert sys_m.columns == ((0, 2, 4, 5), (0, 3, 4, 5), (1, 2, 4, 5), (1, 3, 4, 5))
        assert sys_m.ncols == 6 and sys_m.z_width == 2

    @pytest.mark.parametrize("sizes", [(0, 2), (1, 0), (0, 0), (2, 7)])
    def test_unseen_coefficients(self, field, sizes):
        # width 7 against K = 3 shard values: a cell below 4 points leaves
        # coefficients of h_t that no shard value sees
        params = explicit_params(field, 2, 1, 3, 3, 0, sizes)
        sys_m = build_system(params)
        assert sys_m.unseen == sum(max(0, 7 - size - 3) for size in sizes) > 0
        assert_matches_full_d(params)
        assert_matches_restricted(params)

    def test_window_of_27_tuples(self, field):
        # (3, 3, 2, 8, 1): 27 tuples, an R of up to 207 x 208, unique from N = 204 on
        verdicts = {}
        for N in range(190, 206):
            verdicts[N] = assert_matches_restricted(proof_params(3, 3, 2, 8, 1, N, field)).unique_Z
        assert [N for N, unique in verdicts.items() if unique] == [204, 205]

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([97, 2**31 - 1]),
        st.sampled_from(VERSION_SHAPES),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(0, 2),
        st.booleans(),
        st.data(),
    )
    def test_random_cell_sizes_match_the_restricted_oracle(
        self, p, vb, d, K, beta, near_threshold, data
    ):
        v, beta_prime = vb
        K = max(K, beta_prime)
        n_tuples, width, floor = v**beta_prime, d * (K - 1) + 1, (d - 1) * (K - 1)
        if near_threshold:
            # cells at or just below (d-1)(K-1) points, then about as many points
            # above it as M has columns, one at a time: both verdicts are common
            sizes = data.draw(st.lists(st.integers(max(0, floor - 2), floor),
                                       min_size=n_tuples, max_size=n_tuples))
            for t in data.draw(st.lists(st.integers(0, n_tuples - 1),
                                        max_size=v * beta_prime + K - beta_prime + 1)):
                sizes[t] = min(sizes[t] + 1, width)
        else:
            sizes = data.draw(st.lists(st.integers(0, width),
                                       min_size=n_tuples, max_size=n_tuples))
        # distinct points: the K shard points and the retained ones stay below p
        sizes = [min(size, (p - K - 1) // n_tuples) for size in sizes]
        assert_matches_restricted(
            explicit_params(PrimeField(p), v, beta_prime, d, K, beta, sizes))


class TestWitnessEquations:
    """The lifts check a witness against the layout's equations, not against R or M."""

    @staticmethod
    def r_witness(field):
        sys_r = restricted_system(proof_params(2, 1, 2, 3, 1, 9, field))
        return sys_r, free_z_witness(sys_r.R, sys_r.ncols, sys_r.z_width, field)

    @staticmethod
    def m_witness(field):
        sys_m = build_system(proof_params(2, 1, 2, 3, 1, 9, field))
        return sys_m, free_z_witness(sys_m.M, sys_m.ncols, sys_m.z_width, field)

    def test_lifted_vector_solves_d(self, field):
        sys_r, vec = self.r_witness(field)
        assert not any(dense_system(sys_r.params).D.mul_vec(restricted_lift(sys_r, vec)))

    @pytest.mark.parametrize("index", [0, -1], ids=["h_coefficient", "z_entry"])
    def test_perturbed_vector_rejected(self, field, index):
        sys_r, vec = self.r_witness(field)
        vec[index] += 1
        with pytest.raises(AssertionError):
            restricted_lift(sys_r, vec)

    def test_wrong_vanishing_polynomial_rejected(self, field):
        # the check reads the cells from the layout, not from the m_t it was handed
        sys_r, vec = self.r_witness(field)
        shifted = vanishing_polynomial([field(x) for x in range(40, 44)], field)
        with pytest.raises(AssertionError, match="zero of its cell"):
            restricted_lift(
                dataclasses.replace(sys_r, vanishing=(shifted, *sys_r.vanishing[1:])), vec)

    def test_m_lifted_vector_solves_d(self, field):
        sys_m, vec = self.m_witness(field)
        lifted = _lift(sys_m, vec)
        assert not any(dense_system(sys_m.params).D.mul_vec(lifted))
        assert len(lifted) == sys_m.n_tuples * sys_m.block_width + sys_m.z_width

    @pytest.mark.parametrize("index", [0, -1], ids=["version_value", "z_entry"])
    def test_m_perturbed_vector_rejected(self, field, index):
        sys_m, vec = self.m_witness(field)
        vec[index] += 1
        with pytest.raises(AssertionError):
            _lift(sys_m, vec)

    def test_m_wrong_vanishing_values_rejected(self, field):
        # 1/m_t(omega_k) of another cell: the interpolant outgrows h_t, and the block D
        # holds of m_t * h_t misses the zeros of the cell the layout names
        sys_m, vec = self.m_witness(field)
        shifted = vanishing_polynomial([field(x) for x in range(40, 44)], field)
        inv = tuple(batch_inverse(poly_values(shifted.coeffs, [1, 2, 3], field.modulus),
                                  field.modulus))
        with pytest.raises(AssertionError, match="zero of its cell"):
            _lift(dataclasses.replace(sys_m, inv_m=(inv, *sys_m.inv_m[1:])), vec)

    def test_m_shared_version_disagreement_rejected(self, field):
        # tuple (1, 1) has an empty cell and so no row of M; read through the column of
        # producer 1's version 2, it disagrees with tuple (1, 2) at producer 1's shard
        sys_m = build_system(explicit_params(field, 2, 2, 2, 3, 0, (0, 3, 3, 3)))
        vec = free_z_witness(sys_m.M, sys_m.ncols, sys_m.z_width, field)
        assert sys_m.columns[0] == (0, 2, 4) and vec[0] != vec[1]
        with pytest.raises(AssertionError, match="sharing a captured producer's version"):
            _lift(dataclasses.replace(sys_m, columns=((1, 2, 4), *sys_m.columns[1:])), vec)

    def test_cut_off_of_one_coefficient_rejected(self, field):
        # a cell of 3 points under width 5 leaves h_t two coefficients; values that
        # interpolate to h_t = x^2 make m_t * h_t of degree exactly width, so the
        # coefficients cut off above the block are the single leading 1
        sys_m = build_system(explicit_params(field, 1, 0, 2, 3, 0, (3,)))
        p, (inv,) = field.modulus, sys_m.inv_m
        assert sys_m.block_width == 5 and sys_m.columns == ((0, 1, 2),)

        def values(degree):  # m_t(omega_k) * omega_k^degree at the shard points 1, 2, 3
            return [pow(i, -1, p) * pow(k, degree, p) % p for k, i in zip((1, 2, 3), inv)]

        assert not any(dense_system(sys_m.params).D.mul_vec(_lift(sys_m, values(1))))
        for lift in (_lift, evaluated_lift):
            with pytest.raises(AssertionError, match="zero of its cell"):
                lift(sys_m, values(2))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([97, 2**31 - 1]),
        st.sampled_from(VERSION_SHAPES),
        st.integers(1, 3),
        st.integers(1, 5),
        st.data(),
    )
    def test_lift_matches_the_evaluated_lift(self, p, vb, d, K, data):
        # the cut-off test and the packed shard values against evaluating every P_t
        # at its cell and the shard points: the same witness on M's kernel, the same
        # message where a shifted value, another cell's 1/m_t or swapped columns fail
        v, beta_prime = vb
        K = max(K, beta_prime)
        n_tuples, width, floor = v**beta_prime, d * (K - 1) + 1, (d - 1) * (K - 1)
        sizes = data.draw(st.lists(st.integers(max(0, floor - 1), width),
                                   min_size=n_tuples, max_size=n_tuples))
        sizes = [min(size, (p - K - 1) // n_tuples) for size in sizes]
        sys_m = build_system(explicit_params(PrimeField(p), v, beta_prime, d, K, 0, sizes))
        pivots = echelon(sys_m.M, sys_m.ncols, p)
        vec = [0] * sys_m.ncols  # a random combination of M's kernel basis
        for free in (c for c in range(sys_m.ncols) if c not in pivots):
            scale = data.draw(st.integers(0, p - 1))
            basis = kernel_vector(pivots, sys_m.ncols, p, free)
            vec = [(a + scale * b) % p for a, b in zip(vec, basis)]

        def outcome(lift, sys_m, vec):
            try:
                return lift(sys_m, vec)
            except AssertionError as e:
                return str(e)

        def same(sys_m, vec):
            mine = outcome(_lift, sys_m, vec)
            assert mine == outcome(evaluated_lift, sys_m, vec)
            return mine

        assert isinstance(same(sys_m, vec), tuple)
        c = data.draw(st.integers(0, sys_m.ncols - 1))
        shifted = [*vec[:c], (vec[c] + 1) % p, *vec[c + 1:]]
        if any(row[c] for row in sys_m.M):  # off M's kernel
            assert same(sys_m, shifted) == "a witness polynomial misses a zero of its cell"
        else:
            same(sys_m, shifted)
        t, s = data.draw(st.permutations(range(n_tuples)))[:2] if n_tuples > 1 else (0, 0)
        inv_m, columns = list(sys_m.inv_m), list(sys_m.columns)
        inv_m[t] = sys_m.inv_m[s]
        same(dataclasses.replace(sys_m, inv_m=tuple(inv_m)), vec)
        columns[t], columns[s] = columns[s], columns[t]
        same(dataclasses.replace(sys_m, columns=tuple(columns)), vec)


class TestCellKernel:
    """`_cell`, the per-cell m_t and 1/m_t(omega_k), against the products it replaces,
    and its reuse across the N of a sweep."""

    @pytest.mark.parametrize("p", [97, 2**31 - 1])
    def test_matches_vanishing_polynomial_and_inverse_products(self, p):
        field, rng = PrimeField(p), random.Random(p)
        for size in range(12):
            K = rng.randint(1, 8)
            points = rng.sample(range(p), K + size)
            omegas, xs = tuple(points[:K]), tuple(points[K:])
            m, inv = _cell(xs, omegas, field)
            assert m == vanishing_polynomial(xs, field).coeffs
            assert inv == tuple(pow(prod(w - a for a in xs), -1, p) for w in omegas)

    @staticmethod
    def verdicts(config, Ns, field, clear):
        """The sweep rows and the witnesses of each N, clearing the kernel first or not."""
        out = []
        for N in Ns:
            if clear:
                _cell.cache_clear()
            out += empirical_threshold(*config, range(N, N + 1), field)
            try:
                params = proof_params(*config, N, field)
            except InfeasiblePartition:
                continue
            out.append(unique_decodability(build_system(params)).witness)
        return out

    @pytest.mark.parametrize("config, Ns", [((3, 2, 2, 8, 1), range(60, 86)),
                                            ((2, 2, 3, 6, 2), range(40, 57))])
    def test_sweeps_are_the_same_with_a_cold_kernel(self, field, config, Ns):
        cold = self.verdicts(config, Ns, field, clear=True)
        assert any(isinstance(w, tuple) for w in cold)
        assert self.verdicts(config, Ns, field, clear=False) == cold

    def test_a_window_builds_each_cell_once(self, field):
        # the first N builds its 9 cells; each later N adds a node to one cell
        _cell.cache_clear()
        empirical_threshold(3, 2, 2, 8, 1, range(69, 80), field)
        assert _cell.cache_info().misses <= 9 + 10


@functools.lru_cache(maxsize=None)
def count_below(n, t, m):
    """Oracle: how many of the t^n assignments of n nodes to t cells leave every cell
    below m nodes, by listing them all."""
    return sum(max(Counter(cells).values(), default=0) < m
               for cells in itertools.product(range(t), repeat=n))


class TestRecoveryProbability:
    @pytest.mark.parametrize("n, t, m", [(5, 2, 3), (6, 3, 3), (4, 4, 2), (7, 2, 5)])
    def test_generating_function_counts_every_assignment(self, n, t, m):
        assert _assignments_below(n, t, m) == count_below(n, t, m)

    def test_matches_every_assignment_on_small_layouts(self):
        for N, K, d, (v, beta_prime) in itertools.product(
                range(1, 7), range(1, 4), range(1, 3), [(1, 0), (2, 1), (3, 1), (2, 2)]):
            if beta_prime > K:
                continue
            m = N - (N - d * (K - 1) - 1) // 2
            for beta in range(N + 1):
                p = recovery_probability(N, K, d, beta, beta_prime, v)
                assert type(p) is Fraction
                assert p == 1 - Fraction(count_below(N - beta, v**beta_prime, m),
                                         v ** (beta_prime * (N - beta)))

    @pytest.mark.parametrize("layout, value", [
        ((40, 3, 2, 1, 1, 2), "3.368e-01"), ((40, 3, 2, 2, 1, 3), "1.608e-03"),
        ((30, 2, 2, 2, 2, 2), "2.630e-04"), ((60, 3, 2, 3, 2, 2), "5.318e-07")])
    def test_roadmap_table(self, layout, value):
        assert f"{float(recovery_probability(*layout)):.3e}" == value

    @pytest.mark.parametrize("counts, message", [
        ((9, 3, 2, 1, 1, 0), "^v must be at least 1"),
        ((9, 0, 2, 1, 0, 2), "^K must be at least 1"),
        ((9, 3, 0, 1, 1, 2), "^d must be at least 1"),
        ((9, 3, 2, -1, 1, 2), "^beta must be at least 0"),
        ((9, 3, 2, 1, -1, 2), "^beta_prime must be at least 0"),
        ((9, 3, 2, 1, 4, 2), "^beta_prime cannot exceed K"),
        ((9, 3, 2, 10, 1, 2), "^N must be at least beta"),
    ])
    def test_bad_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            recovery_probability(*counts)


class TestBounds:
    def test_threshold_examples(self):
        assert recovery_threshold(2, 1, 2, 3, 1) == 10
        assert recovery_threshold(2, 2, 2, 3, 2) == 17

    def test_no_versions_reduces_to_plain_coding(self):
        for d, K, beta in itertools.product(range(1, 5), range(2, 9), range(5)):
            for beta_prime in range(3):
                assert recovery_threshold(1, beta_prime, d, K, beta) == d * (K - 1) + 1 + 2 * beta

    def test_upper_bound_examples(self):
        assert known_behavior_upper_bound(1, 1, 3, 4, 0) == 3 * 3 + 1
        assert known_behavior_upper_bound(2, 1, 2, 3, 1) == 12

    def test_upper_bound_dominates_threshold(self):
        grid = itertools.product(
            range(1, 4), range(1, 3), range(1, 4), range(2, 8), range(4)
        )
        count = 0
        for v, bp, d, K, beta in grid:
            assert known_behavior_upper_bound(v, bp, d, K, beta) >= recovery_threshold(
                v, bp, d, K, beta
            )
            count += 1
        assert count >= 200

    def test_threshold_monotone_in_each_parameter(self):
        base = dict(v=2, beta_prime=2, d=2, K=4, beta=1)
        for key in base:
            bumped = dict(base)
            bumped[key] += 1
            assert recovery_threshold(**bumped) >= recovery_threshold(**base)


class TestFreeVariables:
    def test_closed_forms_agree(self):
        for v, bp, d, K in itertools.product(
            range(1, 4), range(1, 4), range(1, 4), range(2, 7)
        ):
            assert free_variable_count(v, bp, d, K) == free_variable_count_closed_form(
                v, bp, d, K
            )

    def test_no_versions_leaves_one(self):
        assert free_variable_count(1, 1, 2, 3) == 1

    def test_matches_partition_arithmetic(self, field):
        # at the critical node count the balanced partition leaves exactly the
        # predicted slack: sum of (block width - cell size)
        params = proof_params(2, 1, 2, 3, 1, recovery_threshold(2, 1, 2, 3, 1) - 1, field)
        slack = sum(params.block_width - size for size in params.cell_sizes)
        assert free_variable_count(2, 1, 2, 3) == slack == 3


    def test_restricted_columns_are_the_free_variables(self, field):
        # one node below the threshold, the coefficients the evaluation block
        # leaves free are exactly R's coefficient columns
        for v, bp, d, K in itertools.product(range(1, 4), range(3), range(1, 4), range(3, 6)):
            N = recovery_threshold(v, bp, d, K, 1) - 1
            sys_r = restricted_system(proof_params(v, bp, d, K, 1, N, field))
            assert sys_r.ncols - sys_r.z_width == free_variable_count(v, bp, d, K)

    def test_m_is_one_row_short_below_the_threshold(self, field):
        # the counting argument: one node below the threshold, M has one row per node
        # above T(d-1)(K-1) + 2*beta, which is one row fewer than its columns
        for v, bp, d, K, beta in itertools.product(
            range(1, 4), range(3), range(1, 4), range(3, 6), range(2)
        ):
            threshold = recovery_threshold(v, bp, d, K, beta)
            sys_m = build_system(proof_params(v, bp, d, K, beta, threshold - 1, field))
            assert sys_m.ncols == v * bp + K - bp
            assert len(sys_m.M) == sys_m.ncols - 1
            assert len(sys_m.M) == threshold - 1 - v**bp * (d - 1) * (K - 1) - 2 * beta


class TestEmpiricalThreshold:
    def test_transition_with_no_versions(self, field):
        # v=1 sweeps flip to unique exactly at d(K-1)+1+2*beta
        for d, K, beta in [(1, 3, 0), (2, 3, 1), (2, 4, 0)]:
            threshold = d * (K - 1) + 1 + 2 * beta
            rows = empirical_threshold(
                1, 1, d, K, beta, range(max(1, threshold - 2), threshold + 1), field
            )
            for row in rows:
                assert row.unique_Z is (row.N >= threshold)

    def test_two_version_sweep(self, field):
        rows = empirical_threshold(2, 1, 2, 3, 1, range(6, 15), field)
        verdicts = {row.N: row.unique_Z for row in rows}
        for N in range(6, 10):
            assert verdicts[N] is False
        assert verdicts[10] is True
        for N in range(11, 15):
            assert verdicts[N] is None
        notes = {row.N: row.note for row in rows}
        assert notes[12] == "not attackable by this construction"

    def test_csv_shape(self, field):
        rows = empirical_threshold(2, 1, 2, 3, 1, range(9, 12), field)
        out = io.StringIO()
        sweep_to_csv(rows, out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "N,partition_sizes,rank_D,rank_D_reduced,unique_Z"
        assert lines[1].startswith("9,4|3,")
        assert lines[1].endswith(",false")
        assert lines[2].endswith(",true")
        assert lines[3] == "11,,,,infeasible"

    def test_every_ambiguous_row_is_certified(self, field, monkeypatch):
        # each ambiguous row rests on a lifted witness checked against the layout: with
        # 1/m_t(omega_k) of the other cell handed to the lift, the sweep raises
        build = threshold_analysis.build_system

        def swapped_cells(params):
            sys_m = build(params)
            return dataclasses.replace(sys_m, inv_m=sys_m.inv_m[::-1])

        monkeypatch.setattr(threshold_analysis, "build_system", swapped_cells)
        with pytest.raises(AssertionError, match="zero of its cell"):
            empirical_threshold(2, 1, 2, 3, 1, range(9, 10), field)


class TestProofParams:
    def test_cells_respect_cap(self, field):
        params = proof_params(2, 1, 2, 3, 1, 9, field)
        assert params.cell_sizes == (4, 3)
        assert all(size <= 4 for size in params.cell_sizes)

    def test_infeasible_raises(self, field):
        with pytest.raises(InfeasiblePartition):
            proof_params(2, 1, 2, 3, 1, 11, field)

    def test_explicit_cells_validated(self, field):
        alphas = [field(4 + i) for i in range(7)]
        with pytest.raises(InfeasiblePartition):
            proof_params(
                2, 1, 2, 3, 1, 9, field, cells=[alphas[:5], alphas[5:]]
            )

    @pytest.mark.parametrize(
        "producers, n_omegas, field_name",
        [((0,), 3, "producers"), ((4,), 3, "producers"), ((1, 1), 3, "producers")],
    )
    def test_bad_producers_and_omegas_rejected(self, field, producers, n_omegas, field_name):
        alphas = [field(4 + i) for i in range(7)]
        n_cells = 2 ** len(producers)
        with pytest.raises(ValueError, match=field_name):
            AnalysisParams(
                d=2, beta=1, v=2,
                omegas=tuple(field(k) for k in range(1, n_omegas + 1)),
                partition=tuple(tuple(alphas[i::n_cells]) for i in range(n_cells)),
                producers=producers,
            )

    @pytest.mark.parametrize(
        "name, overrides",
        [("v", dict(v=0, partition=())),
         ("d", dict(d=0)),
         ("beta", dict(beta=-1, partition=((4,), (5,)))),
         ("K", dict(omegas=(), producers=(), partition=(tuple(range(4, 11)),)))],
    )
    def test_bad_counts_rejected(self, field, name, overrides):
        # the layout and proof_params on the same counts name the same bad one
        layout = dict(
            d=2, beta=1, v=2,
            omegas=(1, 2, 3), partition=((4, 6, 8, 10), (5, 7, 9)), producers=(1,),
        )
        layout.update(overrides)
        counts = dict(v=layout["v"], beta_prime=len(layout["producers"]), d=layout["d"],
                      K=len(layout["omegas"]), beta=layout["beta"],
                      N=sum(map(len, layout["partition"])) + 2 * layout["beta"])
        layout["omegas"] = tuple(map(field, layout["omegas"]))
        layout["partition"] = tuple(tuple(map(field, cell)) for cell in layout["partition"])
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            AnalysisParams(**layout)
        with pytest.raises(ValueError, match=f"^{name} must be at least .*, got {counts[name]}$"):
            proof_params(*counts.values(), field)

    def test_negative_beta_prime_rejected(self, field):
        # a layout reads beta' off its producers; proof_params takes it as a count
        with pytest.raises(ValueError, match="^beta_prime must be at least 0, got -1$"):
            proof_params(2, -1, 2, 3, 1, 9, field)

    def test_partition_size_checked(self, field):
        with pytest.raises(ValueError, match="must hold N - 2[*]beta = 7 points"):
            proof_params(2, 1, 2, 3, 1, 9, field, cells=((field(4),), (field(5),)))
