"""Command-line front end.

Subcommands: region, simulate, sweep, queue-count, drift-check.  Standard
output carries machine-readable CSV or JSON only; diagnostics go to
standard error.  Exit codes: 0 ok, 2 bad config or arguments, 3 LP solver
failure, 4 queue-count overflow.  The environment variable
COOPSIM_OUTPUT_DIR overrides the output directory for file-writing
commands.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .model import (
    ConfigError,
    CountOverflowError,
    load_config,
    queue_count_encoding_based,
    queue_count_state_based,
)
from .queueing import QueueState
from .region import SolverError, boundary_scale, interior_slack, scale_witness
from .sim import (
    ArrivalConfig,
    DISTRIBUTIONS,
    drift_check,
    run,
    stability_verdict,
    summary_dict,
    write_metrics_csv,
)


def _vector(text: str, k: int, what: str) -> np.ndarray:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of numbers") from None
    if len(parts) == 1 and k > 1:
        parts = parts * k
    if len(parts) != k:
        raise ValueError(f"{what} needs {k} entries, got {len(parts)}")
    return np.array(parts)


def _spec_list(spec: dict, key: str, default=()) -> list:
    value = spec.get(key, list(default))
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def _spec_number(value, what: str, integral: bool = False):
    """A JSON number, or an integral one; never a boolean or a string."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and integral:
        ok = isinstance(value, int) or value.is_integer()
    if not ok:
        raise ValueError(f"{what} must be {'an integer' if integral else 'a number'}, got {value!r}")
    return int(value) if integral else float(value)


def _out_dir(flag_value: str) -> Path:
    out = Path(os.environ.get("COOPSIM_OUTPUT_DIR", flag_value))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x) -> str:
    return repr(float(x))


def _witness_records(config, wit) -> dict:
    """The a and b records of a witness, one per (f, m, g1, g2): a b fraction
    drains under g2 = f2, and an a fraction is split across g2 in proportion
    to its class's drain flow under each (evenly over the supported g2 if
    nothing drains it), so each triple is filled no more than it drains,
    with equality where its class's flow row is tight."""
    drain: dict = {}  # (m, g1) -> {g2: sum of pi_f * b_f over f with f2 = g2}
    for (f, m, g1), val in wit.b.items():
        per_g2 = drain.setdefault((m, g1), {})
        per_g2[f[1]] = per_g2.get(f[1], 0.0) + config.probability(f) * val
    a = []
    for (f, m, g1), val in wit.a.items():
        weights = drain.get((m, g1))
        if not weights:
            weights = {t[2]: 1.0 for t in sorted(config.support.triples) if t[:2] == (m, g1)}
        total = sum(weights.values())
        a += [(f, m, g1, g2, val * w / total) for g2, w in weights.items()]
    b = [(f, m, g1, f[1], val) for (f, m, g1), val in wit.b.items()]

    def record(f, m, g1, g2, value):
        return dict(f1=list(f[0]), f2=list(f[1]), m=m, g1=list(g1), g2=list(g2), value=value)

    return {"a": [record(*r) for r in sorted(a)], "b": [record(*r) for r in sorted(b)]}


# ---------------------------------------------------------------------------
# subcommands


def cmd_region(args) -> int:
    config = load_config(args.config)
    k = config.shape.num_destinations
    direction = _vector(args.direction, k, "direction")
    wit = scale_witness(config, direction)
    if wit.status != "optimal":
        raise SolverError(f"scale LP ended {wit.status}")
    rho = wit.value
    delta = interior_slack(config, 0.9 * rho * direction)
    if args.witness:
        doc = {
            "direction": [float(x) for x in direction],
            "rho_star": rho,
            "delta_star_at_rho(0.9)": delta,
            "status": wit.status,
            "solver": dataclasses.asdict(wit.stats),
            **_witness_records(config, wit),
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for i, x in enumerate(direction):
            print(f"direction_{i + 1},{_fmt(x)}")
        print(f"rho_star,{_fmt(rho)}")
        print(f"delta_star_at_rho(0.9),{_fmt(delta)}")
        print(f"status,{wit.status}")
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    k = config.shape.num_destinations
    lam = _vector(args.lam, k, "lambda")
    if (lam < 0).any():
        raise ValueError("lambda must be non-negative")
    arrivals = ArrivalConfig(rates=tuple(lam), distribution=args.arrival)
    out = _out_dir(args.out)
    sink = None
    try:
        if args.queues:
            sink = open(out / args.queues, "w", encoding="utf-8")
        metrics = run(
            config,
            arrivals,
            horizon=args.horizon,
            seed=args.seed,
            allow_idle=args.allow_idle,
            snapshot_sink=sink,
        )
    finally:
        if sink is not None:
            sink.close()
    verdict = stability_verdict(metrics)
    with open(out / "metrics.csv", "w", encoding="utf-8") as fh:
        write_metrics_csv(metrics, fh)
    summary = summary_dict(metrics, verdict)
    summary["lambda"] = [float(x) for x in lam]
    summary["allow_idle"] = bool(args.allow_idle)
    text = json.dumps(summary, sort_keys=True, indent=2)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def _sweep_task(config_path, rates, horizon, seed, allow_idle, load_factor):
    config = load_config(config_path)
    metrics = run(config, ArrivalConfig(rates=rates), horizon, seed, allow_idle=allow_idle)
    verdict = stability_verdict(metrics)
    return (load_factor, seed, verdict.growth_rate, verdict.verdict)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    config = load_config(args.config)
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError("sweep spec must be a JSON object")
    allowed = {"direction", "load_factors", "horizon", "seeds", "allow_idle"}
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(f"unknown sweep field(s) {sorted(unknown)}")
    k = config.shape.num_destinations
    direction = [_spec_number(x, "direction entry") for x in _spec_list(spec, "direction", [1.0] * k)]
    load_factors = [_spec_number(x, "load factor") for x in _spec_list(spec, "load_factors")]
    if not load_factors or any(lf <= 0 for lf in load_factors):
        raise ValueError("load_factors must be a non-empty list of positive numbers")
    seeds = [_spec_number(s, "seed", integral=True) for s in _spec_list(spec, "seeds")]
    if not seeds:
        raise ValueError("seeds must be a non-empty list")
    horizon = _spec_number(spec.get("horizon", 0), "horizon", integral=True)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    allow_idle = spec.get("allow_idle", False)
    if not isinstance(allow_idle, bool):
        raise ValueError(f"allow_idle must be true or false, got {allow_idle!r}")

    direction = np.array(direction)
    rho = boundary_scale(config, direction)
    tasks = [
        (args.config, tuple(lf * rho * direction), horizon, seed, allow_idle, lf)
        for lf in load_factors
        for seed in seeds
    ]
    # The pool starts all its workers at the first submit, so it gets no
    # more than there are tasks.
    workers = min(args.jobs, len(tasks))
    if workers == 1:
        rows = [_sweep_task(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_task, *zip(*tasks)))
    rows.sort(key=lambda r: (r[0], r[1]))
    print("load_factor,seed,growth_rate,verdict")
    for lf, seed, growth, verdict in rows:
        print(f"{_fmt(lf)},{seed},{_fmt(growth)},{verdict}")
    return 0


def cmd_queue_count(args) -> int:
    config = load_config(args.config)
    enc = queue_count_encoding_based(config)
    if args.state_based_levels is None:
        print(f"encoding={enc}")
        return 0
    sh = config.shape
    state = queue_count_state_based(
        args.state_based_levels,
        sh.num_destinations,
        len(config.fading.alphabet),
        sh.num_relays,
    )
    ratio = state // enc if state % enc == 0 else state / enc
    print(f"encoding={enc} state_based={state} ratio={ratio}")
    return 0


def cmd_drift_check(args) -> int:
    config = load_config(args.config)
    k = config.shape.num_destinations
    lam = _vector(args.lam, k, "lambda")
    qs = _vector(args.qs, k, "qs")
    probe = QueueState.zeros(config)
    probe.source[:] = qs
    probe.relay[:] = args.relay_fill
    est = drift_check(
        config,
        ArrivalConfig(rates=tuple(lam), distribution=args.arrival),
        probe,
        samples=args.samples,
        seed=args.seed,
    )
    print(f"mean_dv,{_fmt(est.mean)}")
    print(f"stderr,{_fmt(est.stderr)}")
    print(f"samples,{est.samples}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopsim",
        description="Two-hop cooperative relay network simulator and region toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="boundary scale and interior slack along a direction")
    p.add_argument("config")
    p.add_argument("--direction", default="1", help="comma-separated K-vector (single value broadcasts)")
    p.add_argument("--witness", action="store_true", help="emit the witness as JSON instead of CSV")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="run the controller loop and write metrics")
    p.add_argument("config")
    p.add_argument("--lambda", dest="lam", required=True, help="arrival rates, bits/symbol")
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-idle", action="store_true")
    p.add_argument("--arrival", choices=DISTRIBUTIONS, default="uniform-integer")
    p.add_argument("--out", default=".", help="output directory (COOPSIM_OUTPUT_DIR overrides)")
    p.add_argument("--queues", metavar="FILE", help="also write per-block queue snapshots")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="load-factor/seed sweep against the computed boundary")
    p.add_argument("config")
    p.add_argument("spec", help="JSON: direction, load_factors, horizon, seeds[, allow_idle]")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("queue-count", help="virtual-queue counts per relay")
    p.add_argument("config")
    p.add_argument("--state-based-levels", type=int, default=None, metavar="L")
    p.set_defaults(func=cmd_queue_count)

    p = sub.add_parser("drift-check", help="Monte Carlo one-block drift at a probe state")
    p.add_argument("config")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--qs", default="0", help="source queue bits, comma-separated")
    p.add_argument("--relay-fill", type=float, default=0.0, help="symbols in every relay queue")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arrival", choices=DISTRIBUTIONS, default="uniform-integer")
    p.set_defaults(func=cmd_drift_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"coopsim: config error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except CountOverflowError as exc:
        print(f"coopsim: overflow: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"coopsim: solver failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"coopsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
