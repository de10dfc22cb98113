"""Pinned mutants: small edits to the library that named tests must catch.

Each registry entry replaces one snippet of one file. The runner copies the tree to a
temporary directory, applies one mutant there, and runs each of the mutant's tests (a
test file, class or function, as pytest names it) on its own, with `-x` and CI=1 (the
derandomized hypothesis profile). The mutant is caught when every one of them fails.
The working tree is never edited.

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME...  # the named ones

The exit status is nonzero when a mutant not marked equivalent survives, when a
snippet does not occur exactly once, or when the unmutated tests already fail.
An equivalent mutant changes code that correct inputs never reach, so no test can
catch it; it is run and reported all the same.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIM = "src/shardlab/polyshard_sim.py"
SIM_TESTS = ("tests/test_polyshard_sim.py",)
FIELD = "src/shardlab/field_poly.py"
DECODER = "src/shardlab/decoder.py"
EUCLID = "tests/test_field_poly.py::TestPackedEuclid"
ECHELON = "tests/test_field_poly.py::TestPackedEchelon"
EPOCH_ORACLE = "tests/test_polyshard_sim.py::TestEpochOracle"
RUN_EPOCH = "tests/test_polyshard_sim.py::TestRunEpoch"
RS_DECODE = "tests/test_decoder.py::TestRsDecode"
MEMO = "tests/test_decoder.py::TestErrorLocatorMemo"
ADVERSARY = "src/shardlab/adversary.py"
ASSIGN = "tests/test_adversary.py::TestAssignVersions"
TREE = "tests/test_field_poly.py::TestSubproductTree"
PROGRESSIONS = "tests/test_field_poly.py::TestProgressionClosedForms"
THRESHOLD = "src/shardlab/threshold_analysis.py"
SHARD_VALUES = "tests/test_threshold_analysis.py::TestShardValueSystem"
WITNESS = "tests/test_threshold_analysis.py::TestWitnessEquations"
KERNEL = ("tests/test_threshold_analysis.py::TestCellKernel::"
          "test_matches_vanishing_polynomial_and_inverse_products")
CHAIN_IDS = ("tests/test_polyshard_sim.py::TestDivergence::"
             "test_chain_ids_match_full_masked_histories[append_own_view]")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root; each fails
    equivalent: bool = False


MUTANTS = (
    Mutant("accept-mask-dropped", SIM,
           "masked = [tuple(map(mul, bits, view)) for view",
           "masked = [tuple(view) for view", SIM_TESTS),
    Mutant("known-behavior-agreement-check-dropped", DECODER,
           "if out.poly(omega) != ref.poly(omega):",
           "if False:", ("tests/test_decoder.py",)),
    Mutant("honest-looking-targets-another-view", SIM,
           "build_coded_poly(views[first], params), sim.history_polys, fn",
           "build_coded_poly(views[-1], params), sim.history_polys, fn", SIM_TESTS),
    Mutant("injection-cap-raise-deleted", SIM,
           'raise AssertionError("injection cap violated")',
           "pass", SIM_TESTS, equivalent=True),
    Mutant("adversarial-set-assigned-before-the-epoch-runs", SIM,
           "    honest_ids = [n for n in range(1, params.N + 1) if n not in adv_nodes]\n",
           "    sim.adversarial_nodes = adv_nodes\n"
           "    honest_ids = [n for n in range(1, params.N + 1) if n not in adv_nodes]\n",
           SIM_TESTS),
    Mutant("adversaries-append-their-own-view", SIM,
           "owns = [canonical if n in adversarial else i for",
           "owns = [i for", (RUN_EPOCH + "::test_decoded_dominant_version_is_appended",
                            EPOCH_ORACLE)),
    Mutant("vector-rsub-operands-swapped", "src/shardlab/field_poly.py",
           "lambda mine, theirs: theirs - mine",
           "lambda mine, theirs: mine - theirs", ("tests/test_field_poly.py",)),
    Mutant("coded-column-appended-one-node-off", SIM,
           "coded_columns.append(ResidueVector(coded, field))",
           "coded_columns.append(ResidueVector([*coded[1:], 0], field))", SIM_TESTS),
    Mutant("results-column-written-one-node-off", SIM,
           "results[n - 1] = value", "results[n % params.N] = value",
           (RUN_EPOCH + "::test_honest_looking_broadcasts_fit_the_version_1_view",
            EPOCH_ORACLE)),
    Mutant("append-always-reuses-step-2-column", SIM,
           "    if any(masked[own] != views[i] for own, i in set(zip(owns, index))):\n"
           "        coded = sim.params.encode_each(masked, owns)\n", "",
           (RUN_EPOCH + "::test_rejected_shard_appends_zero_and_masked_encodings",
            EPOCH_ORACLE)),
    Mutant("history-polys-memo-stops-at-genesis", SIM,
           "c.history[len(self._history_polys):]",
           "c.history[len(self._history_polys):1]", SIM_TESTS),
    Mutant("euclid-barrett-mask-dropped", FIELD,
           "            _pack([(1 << bits - big) - 1] * n0, width))",
           "            -1)",
           (EUCLID + "::test_matches_the_list_euclid",)),
    Mutant("euclid-strip-loop-deleted", FIELD,
           "        while n and not ((x >> (n - 1) * bits) & slot) % p:\n"
           "            n -= 1\n", "", (EUCLID + "::test_matches_the_list_euclid",)),
    Mutant("euclid-strip-slot-unreduced", FIELD,
           "while n and not ((x >> (n - 1) * bits) & slot) % p:",
           "while n and not (x >> (n - 1) * bits) & slot:",
           (EUCLID + "::test_matches_the_list_euclid",)),
    Mutant("euclid-slot-width-without-len-r0", FIELD,
           "big = (2 * p + n0 * (p - 1) * 2 * p).bit_length()",
           "big = (2 * p + (p - 1) * 2 * p).bit_length()", (EUCLID + "::test_fullest_slots",)),
    Mutant("euclid-cofactor-unreduced", FIELD,
           "ts0, ts, nt = ts, y - ((y * m >> big) & low) * p, nt + n0 - n",
           "ts0, ts, nt = ts, y, nt + n0 - n", (EUCLID + "::test_matches_the_list_euclid",)),
    Mutant("echelon-slot-read-unreduced", FIELD,
           "f = (x & slot) % p", "f = x & slot", (ECHELON + "::test_matches_the_list_echelon",)),
    Mutant("echelon-zero-run-skip-one-slot-too-far", FIELD,
           "((x & -x).bit_length() - 1) // bits", "((x & -x).bit_length() - 1) // bits + 1",
           (ECHELON + "::test_matches_the_list_echelon",)),
    Mutant("echelon-new-pivot-unnormalized", FIELD,
           "tails[c] = [a * inv % p for a in _slots(", "tails[c] = [a % p for a in _slots(",
           (ECHELON + "::test_matches_the_list_echelon",)),
    Mutant("echelon-slot-width-one-term", FIELD,
           "width = _slot_width(p, ncols + 1)", "width = _slot_width(p, 1)",
           (ECHELON + "::test_fullest_slots",)),
    Mutant("packed-map-length-check-dropped", FIELD,
           "        if len(cs) != len(self.vectors):\n", "        if False:\n",
           ("tests/test_field_poly.py::TestPackedSums::"
            "test_packed_map_takes_one_coefficient_per_vector",)),
    Mutant("interpolate-length-check-dropped", FIELD,
           "        if len(ys) != len(self.weights):\n", "        if False:\n",
           (TREE + "::test_one_value_per_point",)),
    Mutant("tree-combine-sign-flipped", FIELD,
           "nums = [[(u + v) % p for u, v in zip_longest(",
           "nums = [[(u - v) % p for u, v in zip_longest(",
           (TREE + "::test_matches_barycentric_sum",)),
    Mutant("rows-cutoff-made-strict", FIELD,
           "if n <= _ROWS_UP_TO:", "if n < _ROWS_UP_TO:",
           (TREE + "::test_at_the_cutoff",)),
    Mutant("slot-width-without-terms", FIELD,
           "2 * (p - 1).bit_length() + terms.bit_length() + 7", "2 * (p - 1).bit_length() + 7",
           ("tests/test_field_poly.py::TestKroneckerProduct::test_all_max_coefficients",)),
    Mutant("silent-entries-decoded-as-zero", DECODER,
           "    heard = [i for i, y in enumerate(b.values) if y is not None]\n"
           "    xs, ys = tuple(map(b.points.__getitem__, heard)), "
           "list(map(b.values.__getitem__, heard))\n",
           "    heard = range(len(b.values))\n"
           "    xs, ys = b.points, [y or 0 for y in b.values]\n",
           (RS_DECODE + "::test_missing_entries_are_shortened",
            "tests/test_decoder.py::TestSilentEntriesAreDropped")),
    Mutant("gao-stops-one-degree-late", DECODER,
           "degree_bound + 1 + max_errors, p)", "degree_bound + 2 + max_errors, p)",
           (RS_DECODE + "::test_boundary_error_tolerance",)),
    Mutant("gao-error-count-check-dropped", DECODER,
           "if len(t) - 1 > max_errors or len(r)", "if len(r)",
           (RS_DECODE + "::test_equivalent_to_exhaustive_oracle",)),
    Mutant("gao-quotient-degree-check-dropped", DECODER,
           "if len(t) - 1 > max_errors or len(r) - (len(t) - 1) > degree_bound + 1:",
           "if len(t) - 1 > max_errors:",
           ("tests/test_decoder.py::TestGaoMatchesBerlekampWelch::test_same_outcome",)),
    Mutant("gao-remainder-check-dropped", DECODER, "    if rem:\n", "    if False:\n",
           (RS_DECODE + "::test_soundness_of_recovered",)),
    Mutant("locator-degree-bound-one-too-high", DECODER,
           "if len(q) <= degree_bound + 1 + len(positions):",
           "if len(q) <= degree_bound + 2 + len(positions):",
           (MEMO + "::test_a_word_of_degree_one_too_high_falls_back_to_gao",)),
    Mutant("locator-budget-guard-dropped", DECODER,
           "if locator is not None and len(positions) <= max_errors:",
           "if locator is not None:", (MEMO + "::test_a_locator_beyond_the_budget_is_not_used",)),
    Mutant("locator-memo-keyed-without-heard-points", DECODER,
           "_seen_errors(xs, p)", "_seen_errors((), p)",
           (MEMO + "::test_each_heard_point_set_has_its_own_memo",)),
    # Q vanishes at every x_s, so the locator always divides it
    Mutant("locator-division-check-dropped", DECODER,
           "            if rem:  # Q vanishes at every x_s, so L divides it\n"
           '                raise AssertionError("the error locator does not divide Q")\n', "",
           (MEMO,), equivalent=True),
    Mutant("recover-outputs-bound-raised-by-one", DECODER,
           "> params.composed_degree:", "> params.composed_degree + 1:",
           ("tests/test_decoder.py::TestRecoverOutputs::test_degree_guard",)),
    Mutant("known-behavior-fit-check-without-max-errors", DECODER,
           "if fit >= degree_bound + 1 + max_errors:", "if fit >= degree_bound + 1:",
           ("tests/test_acceptance.py::test_criterion_6_known_behavior_at_upper_bound",)),
    Mutant("encode-each-drops-a-varying-shard", "src/shardlab/lcc.py",
           "if len(set(values)) > 1]", "if len(set(values)) > 1][1:]",
           ("tests/test_lcc.py::TestEncodeAllNodes::test_each_matches_encode_at_node",)),
    Mutant("closed-form-matrix-factorial-index-slip", "src/shardlab/lcc.py",
           "fact[K + n - 1] * inv_fact[n - 1] % p", "fact[K + n - 1] * inv_fact[n] % p",
           ("tests/test_lcc.py::TestClosedFormMatrix::test_matches_the_general_path",)),
    Mutant("closed-form-weight-sign-flipped", FIELD,
           "(c if (n - j) % 2 else -c)", "(c if (n - j - 1) % 2 else -c)",
           (PROGRESSIONS + "::test_matches_the_general_path",
            PROGRESSIONS + "::test_tree_branch_at_400_points")),
    Mutant("encode-each-varying-shard-read-one-node-off", "src/shardlab/lcc.py",
           "zip(coded, self._transposed[k], index)]",
           "zip(coded, self._transposed[k], [*index[1:], index[0]])]",
           ("tests/test_lcc.py::TestEncodeAllNodes::test_index_form_matches_encode_at_node",
            EPOCH_ORACLE)),
    Mutant("chain-id-parent-set-to-genesis", SIM,
           "setdefault((parent, masked[own])", "setdefault((0, masked[own])", (CHAIN_IDS,)),
    Mutant("messages-ignore-silent-nodes", SIM,
           "+ (params.N - n_silent) * params.N,", "+ params.N * params.N,",
           ("tests/test_polyshard_sim.py::TestCommLoad::"
            "test_epoch_messages_total_matches_comm_load",)),
    Mutant("chain-divergence-counts-adversaries", SIM,
           "if n not in adversarial})", "})", (CHAIN_IDS,)),
    Mutant("version-tuple-digits-reversed", ADVERSARY,
           "for j in reversed(range(width)))", "for j in range(width))",
           (ASSIGN + "::test_random_matches_the_enumeration_oracle",)),
    Mutant("balanced-tuple-index-one-off", ADVERSARY,
           "tuples[i % len(tuples)]", "tuples[(i + 1) % len(tuples)]",
           (ASSIGN + "::test_balanced_matches_the_enumeration_oracle",)),
    Mutant("shard-value-rows-start-one-coefficient-late", THRESHOLD,
           "for j in range(w, K):", "for j in range(w + 1, K):",
           ("tests/test_threshold_analysis.py::TestFreeVariables::"
            "test_m_is_one_row_short_below_the_threshold",)),
    Mutant("unseen-coefficients-left-out-of-the-ranks", THRESHOLD,
           "base = sys.n_tuples * sys.block_width - sys.unseen - z_start",
           "base = sys.n_tuples * sys.block_width - z_start",
           (SHARD_VALUES + "::test_unseen_coefficients",)),
    Mutant("producer-version-in-the-next-column", THRESHOLD,
           "shard_cols[k - 1] = r * v + t[r] - 1", "shard_cols[k - 1] = r * v + t[r]",
           (SHARD_VALUES + "::test_column_map",)),
    Mutant("lift-shared-versions-grouped-by-tuple", THRESHOLD,
           "first.setdefault((r, t[r]), row[k - 1])", "first.setdefault((r, t), row[k - 1])",
           ("tests/test_threshold_analysis.py::TestWitnessEquations::"
            "test_m_shared_version_disagreement_rejected",)),
    Mutant("lift-cut-off-test-skipped", THRESHOLD,
           "if any(mh[width:]) and any(poly_values(P, xs, p)):",
           "if False and any(poly_values(P, xs, p)):",
           (WITNESS + "::test_m_wrong_vanishing_values_rejected",
            WITNESS + "::test_cut_off_of_one_coefficient_rejected")),
    Mutant("shard-powers-start-at-x", THRESHOLD,
           "[pow(x, i, p) for x in xs] for i in range(width)",
           "[pow(x, i + 1, p) for x in xs] for i in range(width)",
           (WITNESS + "::test_m_lifted_vector_solves_d",)),
    Mutant("cell-vanishing-factors-sign-flipped", THRESHOLD,
           "m, p = vanishing_polynomial(xs, field).coeffs, field.modulus",
           "m, p = vanishing_polynomial([-x for x in xs], field).coeffs, field.modulus",
           (KERNEL, WITNESS + "::test_m_lifted_vector_solves_d")),
    Mutant("cell-inverse-read-one-shard-off", THRESHOLD,
           "batch_inverse(poly_values(m, omegas, p), p)",
           "batch_inverse(poly_values(m, omegas[1:] + omegas[:1], p), p)",
           (KERNEL, SHARD_VALUES + "::test_window_of_27_tuples")),
    Mutant("config-validator-without-integral-floats", "src/shardlab/cli.py",
           "cls=_ConfigValidator", "cls=_Validator",
           ("tests/test_cli.py::TestConfigValidation::test_integral_floats_are_config_errors",)),
)

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "*.egg-info", "results")


def tests_fail(tree: Path, tests: tuple[str, ...]) -> bool:
    """Run the tests in a copied tree; True when some test fails or cannot be collected."""
    env = dict(os.environ, CI="1", PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if done.returncode not in (0, 1, 2):  # 1: a test failed, 2: a collection error
        raise RuntimeError(f"pytest exited {done.returncode} on {' '.join(tests)}")
    return done.returncode != 0


def caught(mutant: Mutant, root: Path = ROOT) -> bool:
    """Apply the mutant to a copy of the tree at root and run each of its tests there."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(shutil.copytree(root, Path(tmp) / "tree", ignore=IGNORE))
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: the old snippet occurs {text.count(mutant.old)} "
                             f"times in {mutant.file}, not once")
        path.write_text(text.replace(mutant.old, mutant.new))
        return all(tests_fail(tree, (test,)) for test in mutant.tests)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(shutil.copytree(ROOT, Path(tmp) / "tree", ignore=IGNORE))
        if tests_fail(tree, tuple(sorted({t for m in chosen for t in m.tests}))):
            print("the unmutated tests fail; no mutant can be judged", file=sys.stderr)
            return 1
    survivors = []
    for mutant in chosen:
        verdict = "caught" if caught(mutant) else "survived"
        label = " (equivalent)" if mutant.equivalent else ""
        print(f"{verdict:8} {mutant.name}{label}", flush=True)
        if verdict == "survived" and not mutant.equivalent:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
