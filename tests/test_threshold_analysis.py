import dataclasses
import io
import itertools

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
    recovery_threshold,
    sweep_to_csv,
    unique_decodability,
)
from shardlab.field_poly import echelon, nullspace_vector, vanishing_polynomial
from shardlab.lcc import EncodingParams, all_version_tuples
from shardlab.polyshard_sim import power_check
from shardlab.threshold_analysis import _c_row_blocks, _lift

from dense_system import Matrix, dense_system, matrix_rank, nullspace_basis, rref


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
    """unique_decodability, which reduces only R, agrees with the reduction of D."""
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
        sys_m = build_system(params)
        assert sys_m.ncols == sys_m.z_width
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


class TestWitnessEquations:
    """The lift checks a witness against the layout's equations, not against R."""

    @staticmethod
    def r_witness(field):
        sys_m = build_system(proof_params(2, 1, 2, 3, 1, 9, field))
        pivots = echelon(sys_m.R, sys_m.ncols, field.modulus)
        free_z = next(c for c in range(sys_m.ncols - sys_m.z_width, sys_m.ncols)
                      if c not in pivots)
        return sys_m, list(nullspace_vector(sys_m.R, sys_m.ncols, field, pivots, free_z))

    def test_lifted_vector_solves_d(self, field):
        sys_m, vec = self.r_witness(field)
        assert not any(dense_system(sys_m.params).D.mul_vec(_lift(sys_m, vec)))

    @pytest.mark.parametrize("index", [0, -1], ids=["h_coefficient", "z_entry"])
    def test_perturbed_vector_rejected(self, field, index):
        sys_m, vec = self.r_witness(field)
        vec[index] += 1
        with pytest.raises(AssertionError):
            _lift(sys_m, vec)

    def test_wrong_vanishing_polynomial_rejected(self, field):
        # the check reads the cells from the layout, not from the m_t it was handed
        sys_m, vec = self.r_witness(field)
        shifted = vanishing_polynomial([field(x) for x in range(40, 44)], field)
        with pytest.raises(AssertionError, match="zero of its cell"):
            _lift(dataclasses.replace(sys_m, vanishing=(shifted, *sys_m.vanishing[1:])), vec)


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
            sys_m = build_system(proof_params(v, bp, d, K, 1, N, field))
            assert sys_m.ncols - sys_m.z_width == free_variable_count(v, bp, d, K)


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
