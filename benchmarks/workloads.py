"""The benchmark's workloads, their correctness gates and the measurement loops.

One caller drives the library in a closed loop from a single thread: the next
epoch or verdict starts only when the previous one has returned. The calls
are the ones `shardlab.cli` makes for a simulation scenario (one
`Simulation` per seed, `run_epoch` with rng `seed * 1_000_003 + epoch`, then
`to_json_dict` and `json.dumps` on the report) and for a threshold sweep
(`empirical_threshold`, here one N at a time so that each verdict is timed).

A workload runs in passes. A pass is a fixed amount of work built from the
workload seed and the pass index. An untraced run makes a number of passes
fixed by the run's length, so its work never depends on where a deadline
falls or on how fast the machine is at the time.
"""

from __future__ import annotations

import bisect
import functools
import json
import random
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

from shardlab import field_poly
from shardlab import polyshard_sim as ps
from shardlab import threshold_analysis as ta
from shardlab.adversary import AdversaryConfig
from shardlab.lcc import EncodingParams

import tracing

D = 2  # verification degree of every simulation workload
MIN_PASSES = 2


@dataclass(frozen=True)
class SimulationWorkload:
    """Protocol epochs under an attack, as the CLI's simulation scenarios run them."""

    name: str
    scenario: str  # "garbage_attack" or "discrepancy_attack"
    K: int
    N: int
    beta: int
    seeds_per_pass: int
    epochs_per_seed: int
    expect: str  # "recovered": every epoch decodes; "stalled": every decode fails
    pass_seconds: float  # planned pass time; a run makes round(seconds / pass_seconds)
    beta_prime: int = 0
    v: int = 1
    op = "epoch"


@dataclass(frozen=True)
class SweepWorkload:
    """Rank verdicts over a contiguous N window around each recovery threshold."""

    name: str
    configs: tuple[tuple[int, int, int, int, int], ...]  # (v, beta_prime, d, K, beta)
    pass_seconds: float  # planned pass time; a run makes round(seconds / pass_seconds)
    below: int = 8  # window is threshold - below ... threshold + above
    above: int = 2
    op = "verdict"


# Why these four: epoch_n120_garbage is the encode/decode scaling wall at the
# correction boundary; attack_n60_seeds is the paper's attack, where every
# decode fails and per-seed set-up and the adversary layer show;
# sweep_rank runs only the rank engine; long_chain is the only workload where
# costs that grow with chain length dominate.
WORKLOADS = {
    w.name: w
    for w in (
        SimulationWorkload(
            "epoch_n120_garbage", "garbage_attack", K=20, N=120, beta=40,
            seeds_per_pass=1, epochs_per_seed=4, expect="recovered", pass_seconds=1.33,
        ),
        SimulationWorkload(
            "attack_n60_seeds", "discrepancy_attack", K=10, N=60, beta=10,
            beta_prime=1, v=2, seeds_per_pass=10, epochs_per_seed=2, expect="stalled",
            pass_seconds=1.0,
        ),
        # The small window runs twice per pass: with the two windows once
        # each, the median verdict would sit on the gap between the fast
        # 67x68 and the slow 140x141 systems and jump between them.
        SweepWorkload(
            "sweep_rank", configs=((3, 2, 2, 8, 1), (2, 2, 3, 6, 2), (2, 2, 3, 6, 2)),
            pass_seconds=6.2,
        ),
        SimulationWorkload(
            "long_chain", "garbage_attack", K=5, N=20, beta=3,
            seeds_per_pass=1, epochs_per_seed=1000, expect="recovered", pass_seconds=6.3,
        ),
    )
}


class Stats:
    """Operations attempted and failed, and the latency of each completed one."""

    def __init__(self, after_op=None):
        self.latencies: list[float] = []
        self.ends: list[float] = []  # perf_counter at the end of each completed op
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.after_op = after_op  # called after each completed operation

    def done(self, seconds: float, problem: str | None) -> None:
        """One operation returned; `problem` is what its gate found wrong."""
        self.attempted += 1
        self.latencies.append(seconds)
        self.ends.append(perf_counter())
        if self.after_op is not None:
            self.after_op()
        if problem is not None:
            self.failed += 1
            self._note(problem)

    def fail(self, count: int, problem: str) -> None:
        """`count` operations raised or could not start."""
        self.attempted += count
        self.failed += count
        self._note(problem)

    def _note(self, problem: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(problem)


# ---------------------------------------------------------------- correctness


def check_epoch(report, expect: str, adversarial: frozenset[int], outcomes: list) -> str | None:
    """Problem with one epoch report, or None when it is what the workload expects.

    `outcomes` holds the DecodeOutcome of every rs_decode call the epoch made;
    the report itself gives only the number of corrected broadcasts.
    """
    honest = [n for n in report.statuses if n not in adversarial]
    if expect == "stalled":
        if any(report.statuses[n] != "failure" for n in honest):
            return f"epoch {report.epoch}: an honest node did not report failure"
        if not report.stalled:
            return f"epoch {report.epoch}: decode failed but the epoch did not stall"
        return None
    if any(report.statuses[n] != "recovered" for n in honest):
        return f"epoch {report.epoch}: an honest node did not recover"
    if report.recovered_values is None or any(report.recovered_values):
        return f"epoch {report.epoch}: recovered values are not all 0"
    if any(bits is None or any(b != 1 for b in bits) for bits in report.accepted.values()):
        return f"epoch {report.epoch}: accept bits are not all 1"
    if report.chain_divergence != 1:
        return f"epoch {report.epoch}: chain divergence {report.chain_divergence}"
    if len(outcomes) != 1:
        return f"epoch {report.epoch}: saw {len(outcomes)} decode outcomes, expected 1"
    stray = outcomes[0].error_positions - adversarial
    if stray:
        return f"epoch {report.epoch}: corrected honest nodes {sorted(stray)}"
    return None


def check_verdict(rows, N: int, threshold: int) -> str | None:
    """Problem with one sweep point: below the threshold no unique outputs, at
    or above it unique outputs. An infeasible N carries no verdict."""
    if len(rows) != 1 or rows[0].N != N:
        return f"N={N}: expected one sweep row"
    unique = rows[0].unique_Z
    if unique is not None and unique != (N >= threshold):
        return f"N={N}: unique_Z={unique} with recovery threshold {threshold}"
    return None


class DecodeObserver:
    """Keeps the outcome of each rs_decode call that run_epoch makes.

    If a later version of the simulator no longer binds `rs_decode`, nothing
    is observed and the recovered-epoch gate fails closed.
    """

    def __init__(self):
        self.outcomes: list = []
        self._original = None

    def __enter__(self):
        original = getattr(ps, "rs_decode", None)
        if original is not None:
            outcomes = self.outcomes

            def observed(*args, **kwargs):
                outcome = original(*args, **kwargs)
                outcomes.append(outcome)
                return outcome

            observed.__wrapped__ = original
            ps.rs_decode = observed
            self._original = original
        return self

    def __exit__(self, *exc):
        if self._original is not None:
            ps.rs_decode = self._original


# ---------------------------------------------------------------- passes


class SimulationRun:
    """Set-up and passes of a simulation workload."""

    def __init__(self, workload: SimulationWorkload, seed: int):
        w = workload
        self.workload = w
        self.seed = seed
        self.field = field_poly.PrimeField(field_poly.DEFAULT_MODULUS)
        self.params = EncodingParams.default(w.K, w.N, D, self.field)
        adversarial = frozenset(range(w.N - w.beta + 1, w.N + 1))
        if w.scenario == "garbage_attack":
            self.adversary = AdversaryConfig(
                adversarial_nodes=adversarial, broadcast_strategy="garbage"
            )
        else:
            self.adversary = AdversaryConfig(
                adversarial_nodes=adversarial,
                adversarial_producers=tuple(range(1, w.beta_prime + 1)),
                v=w.v,
                assignment_strategy="balanced",
                broadcast_strategy="garbage",
            )
        self.adversarial = self.adversary.adversarial_nodes
        self.observer = DecodeObserver()

    def __enter__(self):
        self.observer.__enter__()
        return self

    def __exit__(self, *exc):
        self.observer.__exit__(*exc)

    def pass_seeds(self, index: int) -> list[int]:
        w = self.workload
        first = self.seed * 100_000 + index * w.seeds_per_pass
        return list(range(first, first + w.seeds_per_pass))

    def run_pass(self, index: int, span, stats: Stats) -> None:
        w = self.workload
        outcomes = self.observer.outcomes
        for seed in self.pass_seeds(index):
            try:
                with span("polyshard_sim.Simulation.init"):
                    sim = ps.Simulation(self.params, ps.history_power_check(D, self.field(3)))
            except Exception as exc:
                stats.fail(w.epochs_per_seed, f"seed {seed}: Simulation raised {exc!r}")
                continue
            for _ in range(w.epochs_per_seed):
                outcomes.clear()
                start = perf_counter()
                try:
                    with span("polyshard_sim.run_epoch"):
                        report = ps.run_epoch(sim, self.adversary, rng=seed * 1_000_003 + sim.epoch)
                    with span("polyshard_sim.report_serialize"):
                        json.dumps({"seed": seed, **report.to_json_dict()}, sort_keys=True)
                except Exception as exc:
                    stats.fail(1, f"seed {seed} epoch {sim.epoch + 1}: raised {exc!r}")
                    continue
                elapsed = perf_counter() - start
                stats.done(elapsed, check_epoch(report, w.expect, self.adversarial, outcomes))


class SweepRun:
    """Set-up and passes of a sweep workload.

    A sweep has no random input, so the seed changes nothing. The order of the
    parameter sets stays fixed too: it moves verdict times by about 15%
    (allocator and collector state), which would read as noise between seeds.
    """

    def __init__(self, workload: SweepWorkload, seed: int):
        self.workload = workload
        self.seed = seed
        self.field = field_poly.PrimeField(field_poly.DEFAULT_MODULUS)
        self.adversarial: frozenset[int] = frozenset()
        self.points = []
        for cfg in workload.configs:
            threshold = ta.recovery_threshold(*cfg)
            for N in range(threshold - workload.below, threshold + workload.above + 1):
                self.points.append((cfg, N, threshold))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def run_pass(self, index: int, span, stats: Stats) -> None:
        for (v, beta_prime, d, K, beta), N, threshold in self.points:
            start = perf_counter()
            try:
                with span("threshold_analysis.empirical_threshold"):
                    rows = ta.empirical_threshold(
                        v=v, beta_prime=beta_prime, d=d, K=K, beta=beta,
                        N_range=range(N, N + 1), field=self.field,
                    )
            except Exception as exc:
                stats.fail(1, f"N={N} at {(v, beta_prime, d, K, beta)}: raised {exc!r}")
                continue
            elapsed = perf_counter() - start
            stats.done(elapsed, check_verdict(rows, N, threshold))


def prepare(workload, seed: int):
    """The workload's set-up: parameters, adversary and inputs for `seed`."""
    if isinstance(workload, SweepWorkload):
        return SweepRun(workload, seed)
    return SimulationRun(workload, seed)


# ---------------------------------------------------------------- measurement


def _no_span(name):
    return _NULL


_NULL = nullcontext()


def _more_passes(done: int, elapsed: float, last: float, seconds: float) -> bool:
    # stop where the end of the next pass would be further past the budget
    # than stopping now falls short of it
    return done < MIN_PASSES or elapsed + last / 2 < seconds


def percentile_tail(samples: list[float]) -> tuple[int, float]:
    """(q, value) for the highest whole percentile q with at least ten samples
    above its nearest-rank value; with ten samples or fewer, (100, max)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    q = 100 * (n - 10) // n
    rank = max(1, -(-q * n // 100))
    return q, ordered[rank - 1]


def median(samples: list[float]) -> float:
    """Upper median: a measured sample even when the count is even, never a
    mean of two unlike operations."""
    return statistics.median_high(samples)


# Time of the reference loop, in ms, on the machine the benchmark was tuned on
# (2 vCPU x86_64 VM, Python 3.11). Timings are reported at that speed.
REFERENCE_MS = 15.0
REFERENCE_EVERY_S = 0.3

_REF_P = 2**31 - 1


@functools.cache
def _reference_matrix() -> list[list[int]]:
    # built on first use, so that it does not count as the workload's set-up
    rng = random.Random(2021)
    return [[rng.randrange(_REF_P) for _ in range(141)] for _ in range(140)]


def reference_work() -> int:
    """Fixed pure-Python work of the kind shardlab does: three pivot steps of
    modular row elimination on a 140x141 matrix of int lists, the size of
    sweep_rank's largest system. It calls no library code, so a change to
    shardlab cannot change its time."""
    p = _REF_P
    rows = [row[:] for row in _reference_matrix()]
    for c in range(3):
        inv = pow(rows[c][c] or 1, p - 2, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for i in range(len(rows)):
            if i != c:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[c])]
    return rows[0][0]


class Reference:
    """Times `reference_work` between operations, at most every
    REFERENCE_EVERY_S, to track the machine's speed through the run.

    On a shared machine the speed of the same code drifts by tens of percent
    within minutes, and by more between runs; the ratio of an operation's time
    to the reference loop's time measured around it stays within a few
    percent. The scales convert measured times to times at REFERENCE_MS.
    """

    NEAREST = 5  # probes whose median gives the speed at one moment

    def __init__(self):
        _reference_matrix()
        self.samples: list[float] = []
        self.times: list[float] = []  # midpoint of each probe
        self.spent = 0.0  # wall time spent probing, kept out of the loop's wall time
        self._due = 0.0

    def probe(self) -> None:
        """Time the reference loop if the last probe is REFERENCE_EVERY_S old."""
        if perf_counter() >= self._due:
            self.sample()

    def sample(self) -> None:
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.samples.append(end - start)
        self.times.append((start + end) / 2)
        self.spent += end - start
        self._due = end + REFERENCE_EVERY_S

    @property
    def scale(self) -> float:
        """Scale for the run as a whole."""
        return REFERENCE_MS / (statistics.median(self.samples) * 1e3)

    def scale_at(self, t: float) -> float:
        """Scale at time t, from the NEAREST probes around it."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - self.NEAREST // 2, len(self.samples) - self.NEAREST))
        return REFERENCE_MS / (statistics.median(self.samples[lo:lo + self.NEAREST]) * 1e3)


@dataclass
class Untraced:
    stats: Stats
    passes: int
    wall_s: float  # timed loop, without the reference probes
    reference: Reference

    @property
    def ops_per_s(self) -> float:
        return len(self.stats.latencies) / self.wall_s

    def scaled_latencies(self) -> list[float]:
        """Each operation's time at the reference speed of its moment."""
        stats, ref = self.stats, self.reference
        return [
            seconds * ref.scale_at(end - seconds / 2)
            for seconds, end in zip(stats.latencies, stats.ends)
        ]


def pass_count(workload, seconds: float) -> int:
    """Passes in an untraced run: about `seconds` of work at the reference
    speed. The count does not depend on how fast the machine happens to be,
    so every run of a workload measures the same mix of operations."""
    return max(MIN_PASSES, round(seconds / workload.pass_seconds))


def measure_untraced(run, seconds: float) -> Untraced:
    """Whole passes, pass i built from the seed and i."""
    reference = Reference()
    stats = Stats(after_op=reference.probe)
    reference.sample()
    wall = 0.0
    passes = pass_count(run.workload, seconds)
    for index in range(passes):
        spent = reference.spent
        start = perf_counter()
        run.run_pass(index, _no_span, stats)
        wall += perf_counter() - start - (reference.spent - spent)
    return Untraced(stats, passes, wall, reference)


# Per-layer metrics: name -> (unit, better). The traced run reports each.
PER_LAYER: dict[str, tuple[str, str]] = {}
_SELF_AND_CALLS = (
    "field_poly.solve_linear",
    "field_poly.matrix_rank",
    "field_poly.nullspace_basis",
    "field_poly.lagrange_interpolate",
    "lcc.encode_at_node",
    "lcc.build_coded_poly",
    "lcc.compose_verification",
    "decoder.rs_decode",
    "adversary.forge_versions",
    "adversary.assign_versions",
    "adversary.corrupt_results",
)
_SELF_ONLY = (
    "decoder.recover_outputs",
    "polyshard_sim.propose_blocks",
    "polyshard_sim.chain_divergence",
    "polyshard_sim.report_serialize",
    "threshold_analysis.proof_params",
    "threshold_analysis.build_system",
)
for _name in _SELF_AND_CALLS:
    PER_LAYER[f"{_name}.ms"] = ("ms", "lower")
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
for _name in _SELF_ONLY:
    PER_LAYER[f"{_name}.ms"] = ("ms", "lower")
PER_LAYER.update({
    "field_poly.elim_cells": ("count", "lower"),
    "decoder.rs_decode.recovered_ratio": ("ratio", "higher"),
    "decoder.rs_decode.corrected": ("count", "higher"),
    "decoder.rs_decode.corrected_precision": ("ratio", "higher"),
    "polyshard_sim.Simulation.init_ms": ("ms", "lower"),
    "polyshard_sim.run_epoch.ms": ("ms", "lower"),
    "polyshard_sim.run_epoch.self_ms": ("ms", "lower"),
    "threshold_analysis.unique_decodability.self_ms": ("ms", "lower"),
    "threshold_analysis.D_cells": ("count", "lower"),
    "trace.ops_per_s_untraced": ("1/s", "higher"),
    "trace.ops_per_s_traced": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
})

# Counts that must repeat exactly across repeats of one pass.
EXACT = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", "elim_cells", "D_cells", "rs_decode.corrected"))
)


def _ratio(num: int, den: int) -> float:
    # 0 when nothing was attempted (sweep_rank) or corrected (attack_n60_seeds)
    return num / den if den else 0.0


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (times in ms, summed over calls)."""
    totals = tracer.totals()
    none = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(span):
        return totals.get(span, none)

    out: dict[str, float] = {}
    for name in _SELF_AND_CALLS:
        out[f"{name}.ms"] = get(name)["self_s"] * 1e3
        out[f"{name}.calls"] = get(name)["calls"]
    for name in _SELF_ONLY:
        out[f"{name}.ms"] = get(name)["self_s"] * 1e3
    c = tracer.counters
    out["field_poly.elim_cells"] = c["elim_cells"]
    out["decoder.rs_decode.recovered_ratio"] = _ratio(c["rs_decode.recovered"], c["rs_decode.attempted"])
    out["decoder.rs_decode.corrected"] = c["rs_decode.corrected"]
    out["decoder.rs_decode.corrected_precision"] = _ratio(
        c["rs_decode.corrected_adversarial"], c["rs_decode.corrected"]
    )
    out["polyshard_sim.Simulation.init_ms"] = get("polyshard_sim.Simulation.init")["total_s"] * 1e3
    out["polyshard_sim.run_epoch.ms"] = get("polyshard_sim.run_epoch")["total_s"] * 1e3
    out["polyshard_sim.run_epoch.self_ms"] = get("polyshard_sim.run_epoch")["self_s"] * 1e3
    out["threshold_analysis.unique_decodability.self_ms"] = (
        get("threshold_analysis.unique_decodability")["self_s"] * 1e3
    )
    out["threshold_analysis.D_cells"] = c["D_cells"]
    return out


@dataclass
class Traced:
    stats: Stats
    metrics: dict[str, float]
    repeats: int
    mismatched: list[str]  # exact counts that differed between repeats
    tracer: tracing.Tracer  # holds the spans of the last repeat
    scale: float  # reference scale applied to the times and rates


def measure_traced(run, seconds: float) -> Traced:
    """Pass 0 repeatedly, in pairs of an untraced repeat and a traced one.

    The per-layer values are medians over the traced repeats; the ops rates
    of the untraced and the traced repeats give the tracing overhead. Times
    and rates are scaled to the reference speed over the whole run.
    """
    reference = Reference()
    stats = Stats(after_op=reference.probe)
    reference.sample()
    tracer = tracing.Tracer()
    tracer.adversarial = run.adversarial
    repeats: list[dict[str, float]] = []
    ops = {False: 0, True: 0}
    wall = {False: 0.0, True: 0.0}
    last = 0.0
    while _more_passes(len(repeats), wall[False] + wall[True], last, seconds):
        last = 0.0
        # alternate which side runs first, so that neither gains from order
        for traced in (False, True) if len(repeats) % 2 == 0 else (True, False):
            before = len(stats.latencies)
            try:
                if traced:
                    tracer.reset()
                    tracer.install()
                spent = reference.spent
                start = perf_counter()
                run.run_pass(0, tracer.span if traced else _no_span, stats)
                elapsed = perf_counter() - start - (reference.spent - spent)
            finally:
                tracer.uninstall()
            last += elapsed
            wall[traced] += elapsed
            ops[traced] += len(stats.latencies) - before
        repeats.append(layer_metrics(tracer))

    metrics = {
        name: (repeats[0][name] if name in EXACT else statistics.median(r[name] for r in repeats))
        for name in repeats[0]
    }
    mismatched = [n for n in EXACT if any(r[n] != repeats[0][n] for r in repeats)]
    scale = reference.scale
    for name in metrics:
        if name.endswith("ms"):
            metrics[name] *= scale
    untraced_rate = ops[False] / wall[False] / scale
    traced_rate = ops[True] / wall[True] / scale
    metrics["trace.ops_per_s_untraced"] = untraced_rate
    metrics["trace.ops_per_s_traced"] = traced_rate
    metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1) * 100 if traced_rate else 0.0
    return Traced(stats, metrics, len(repeats), mismatched, tracer, scale)
