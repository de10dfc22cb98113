"""Experiment runner: JSON configs in, JSON-lines epoch reports and CSV tables out.

Every output embeds the effective config in its header and depends only on the
configured seeds, so re-running a config reproduces the files byte for byte.
Decode failures are scenario data, not process errors: the exit code is 0 for
a completed run, 2 for a config problem, 3 for infeasible strict scenarios. Any
other exception is a fault in the program and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Sequence

import jsonschema

from .adversary import AdversaryConfig
from .field_poly import PrimeField, DEFAULT_MODULUS
from .lcc import EncodingParams
from .polyshard_sim import REPORT_SCHEMA, Simulation, history_power_check, run_epoch
from .threshold_analysis import (
    SWEEP_CSV_HEADER,
    empirical_threshold,
    known_behavior_upper_bound,
    recovery_threshold,
    sweep_to_csv,
)

SCENARIOS = (
    "honest_epoch",
    "garbage_attack",
    "discrepancy_attack",
    "threshold_sweep",
    "bound_table",
)


def _int_or_list(minimum: int) -> dict:
    item = {"type": "integer", "minimum": minimum}
    return {"anyOf": [item, {"type": "array", "items": item, "minItems": 1}]}


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario"],
    "properties": {
        "scenario": {"enum": list(SCENARIOS)},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "N": _int_or_list(1),
                "K": _int_or_list(1),
                "d": _int_or_list(1),
                "beta": _int_or_list(0),
                "beta_prime": _int_or_list(0),
                "v": _int_or_list(1),
                "gamma": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "p": {"type": "integer", "minimum": 2},
                "N_range": {
                    "type": "array",
                    "items": {"type": "integer"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        },
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "epochs": {"type": "integer", "minimum": 1},
        "out_dir": {"type": "string"},
        "strict": {"type": "boolean"},
    },
}


def _is_json_integer(checker, instance) -> bool:
    # JSON Schema counts 20.0 as an integer; the scenarios need a Python int
    return isinstance(instance, int) and not isinstance(instance, bool)


_Validator = jsonschema.validators.validator_for(CONFIG_SCHEMA)
_ConfigValidator = jsonschema.validators.extend(
    _Validator, type_checker=_Validator.TYPE_CHECKER.redefine("integer", _is_json_integer)
)


class ConfigError(ValueError):
    """The configuration cannot be used to run a scenario."""


def shard_capture(beta: int, gamma, N: int, K: int) -> int:
    """Shards an adversary of beta nodes can capture when a gamma fraction of a
    shard's N/K members suffices: floor(beta*K/(gamma*N)), capped at K."""
    g = Fraction(str(gamma)) if isinstance(gamma, float) else Fraction(gamma)
    if not 0 < g <= 1:
        raise ConfigError("gamma must lie in (0, 1]")
    return min(K, int(Fraction(beta * K) / (g * N)))


def load_config(path: str | Path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    try:
        jsonschema.validate(config, CONFIG_SCHEMA, cls=_ConfigValidator)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected at {exc.json_path}: {exc.message}") from exc


def _scalar(params: dict, key: str, default=None):
    value = params.get(key, default)
    if isinstance(value, list):
        raise ConfigError(f"param {key!r} must be a single integer for this scenario")
    if value is None:
        raise ConfigError(f"param {key!r} is required for this scenario")
    return value


def _grid(params: dict, key: str, default) -> list[int]:
    value = params.get(key, default)
    return list(value) if isinstance(value, list) else [value]


def _from_params(factory, *args, **kwargs):
    """Build a library object from config values; its ValueError is a config error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _simulation_scenario(config: dict, scenario: str, out_path: Path) -> None:
    params = config.get("params", {})
    field = _from_params(PrimeField, _scalar(params, "p", DEFAULT_MODULUS))
    N = _scalar(params, "N")
    K = _scalar(params, "K")
    d = _scalar(params, "d")
    beta = _scalar(params, "beta", 0)
    enc = _from_params(EncodingParams.default, K, N, d, field)
    if N <= enc.composed_degree:
        raise ConfigError(f"N={N} cannot determine a degree-{enc.composed_degree} polynomial")
    epochs = config.get("epochs", 1)
    seeds = config.get("seeds", [0])

    producers, v = (), 1  # garbage_attack: no captured producer, one version
    if scenario == "garbage_attack" and not 1 <= beta <= N:
        raise ConfigError("garbage_attack needs 1 <= beta <= N")
    if scenario == "discrepancy_attack":
        v = _scalar(params, "v", 2)
        if v > field.modulus:
            raise ConfigError(f"v={v} distinct block versions do not fit in GF({field.modulus})")
        gamma = params.get("gamma")
        beta_prime = (
            _scalar(params, "beta_prime", None)
            if "beta_prime" in params
            else (shard_capture(beta, gamma, N, K) if gamma is not None else 1)
        )
        if beta_prime < 1:
            raise ConfigError("discrepancy_attack captures no shard; raise beta or beta_prime")
        if not beta_prime <= beta <= N:
            raise ConfigError("discrepancy_attack needs beta_prime <= beta <= N")
        if beta_prime > K:
            raise ConfigError("beta_prime cannot exceed K")
        producers = tuple(range(1, beta_prime + 1))
    adversary = None if scenario == "honest_epoch" else _from_params(
        AdversaryConfig,
        adversarial_nodes=frozenset(range(N - beta + 1, N + 1)),
        adversarial_producers=producers,
        v=v,
        broadcast_strategy="garbage",
    )

    with out_path.open("w") as out:
        header = {"config": config, "report_schema": REPORT_SCHEMA}
        out.write(json.dumps(header, sort_keys=True) + "\n")
        for seed in seeds:
            sim = Simulation(enc, history_power_check(d, field(3)))
            for _ in range(epochs):
                report = run_epoch(sim, adversary, rng=seed * 1_000_003 + sim.epoch)
                line = {"seed": seed, **report.to_json_dict()}
                out.write(json.dumps(line, sort_keys=True) + "\n")


def _threshold_sweep(config: dict, out_path: Path, strict: bool) -> bool:
    params = config.get("params", {})
    field = _from_params(PrimeField, _scalar(params, "p", DEFAULT_MODULUS))
    v, beta_prime = _scalar(params, "v", 2), _scalar(params, "beta_prime", 1)
    d, K, beta = _scalar(params, "d"), _scalar(params, "K"), _scalar(params, "beta", 0)
    lo, hi = params.get("N_range", [1, 1])
    if lo > hi:
        raise ConfigError(f"N_range [{lo}, {hi}] is reversed; give [lo, hi] with lo <= hi")
    if beta_prime >= K:
        # beta_prime = K leaves no honest output, so every verdict would be vacuous
        raise ConfigError(f"threshold_sweep needs beta_prime < K, got {beta_prime} >= {K}")
    if lo < 2 * beta:
        raise ConfigError(f"N_range starts at {lo}, below 2*beta = {2 * beta}")
    # the layout allocates one cell per version tuple before filling any, so more tuples
    # than nodes only adds empty cells, up to more than memory holds; an exponent capped
    # at bitlen(hi) keeps the power small and still exceeds hi whenever v^beta' does
    if v ** min(beta_prime, hi.bit_length()) > hi:
        raise ConfigError(f"threshold_sweep needs v^beta_prime <= {hi}, the largest N, "
                          f"got {v}^{beta_prime} version tuples")
    if K + hi - 2 * beta > field.modulus:
        # shard k sits at k and retained node n at K+n; beyond p they repeat
        raise ConfigError(f"GF({field.modulus}) has too few points for K={K} and N={hi}")
    rows = empirical_threshold(v, beta_prime, d, K, beta, range(lo, hi + 1), field)
    with out_path.open("w") as out:
        out.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        sweep_to_csv(rows, out)
    return strict and any(row.unique_Z is None for row in rows)


# CPython's default cap on int-to-decimal conversion; a fixed cap refuses the same grid
# points on every interpreter, including one built without the cap
_MAX_DIGITS = 4300
_TOO_WIDE = 10**_MAX_DIGITS


def _too_wide(v: int, beta_prime: int, d: int, K: int, beta: int) -> bool:
    """True when a bound at this point has more than _MAX_DIGITS digits. With beta' <= K
    both bounds are at most known_behavior_upper_bound, which is at least v^beta'; a power
    v^beta' >= 2^(beta' (bitlen(v) - 1)) past the cap is refused before it is formed."""
    if beta_prime * (v.bit_length() - 1) >= _TOO_WIDE.bit_length():
        return True
    return known_behavior_upper_bound(v, beta_prime, d, K, beta) >= _TOO_WIDE


def _bound_table(config: dict, out_path: Path) -> None:
    params = config.get("params", {})
    defaults = (("v", 1), ("beta_prime", 1), ("d", 1), ("K", 2), ("beta", 0))
    points = list(product(*(_grid(params, key, default) for key, default in defaults)))
    # the schema bounds each key alone; beta_prime <= K ties two of them
    if any(beta_prime > K for _, beta_prime, _, K, _ in points):
        raise ConfigError("bound_table needs beta_prime <= K at every grid point")
    for point in points:
        if _too_wide(*point):
            raise ConfigError(f"bound_table point (v, beta_prime, d, K, beta) = {point} has a "
                              f"bound of more than {_MAX_DIGITS} digits")
    with out_path.open("w") as out:
        out.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        out.write("v,beta_prime,d,K,beta,recovery_threshold,known_behavior_upper_bound\n")
        for v, beta_prime, d, K, beta in points:
            out.write(
                f"{v},{beta_prime},{d},{K},{beta},"
                f"{recovery_threshold(v, beta_prime, d, K, beta)},"
                f"{known_behavior_upper_bound(v, beta_prime, d, K, beta)}\n"
            )


def run(config: dict | str | Path, out_dir: str | None = None) -> int:
    """Execute a scenario; returns the process exit code."""
    try:
        if not isinstance(config, dict):
            config = load_config(config)
        else:
            validate_config(config)
        scenario = config["scenario"]
        directory = Path(out_dir or config.get("out_dir", "."))
        directory.mkdir(parents=True, exist_ok=True)
        if scenario in ("honest_epoch", "garbage_attack", "discrepancy_attack"):
            out_path = directory / f"{scenario}.jsonl"
            _simulation_scenario(config, scenario, out_path)
        elif scenario == "threshold_sweep":
            out_path = directory / "threshold_sweep.csv"
            infeasible = _threshold_sweep(config, out_path, config.get("strict", False))
            if infeasible:
                print(f"wrote {out_path}", file=sys.stderr)
                print("strict sweep hit infeasible partitions", file=sys.stderr)
                return 3
        else:
            out_path = directory / "bound_table.csv"
            _bound_table(config, out_path)
        print(f"wrote {out_path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shardlab",
        description="Run coded-sharding experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--seed", type=int, help="override the config's seed list")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--scenario", choices=SCENARIOS, help="override the scenario")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config["seeds"] = [args.seed]
    if args.scenario is not None:
        config["scenario"] = args.scenario
    return run(config, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
