"""Benchmark of coopsim on configs/desk.json.

Run from the root of a checkout:

    python3 bench/run.py --workload desk-region --seed 0 --seconds 20 --trace 0

``--workload all`` runs every workload, each in a fresh process.  With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics that BENCHMARK.json names; with ``--trace 1`` it holds
the per-layer metrics of a traced run.  The lines before it give the same
figures under the names DESIGN.md uses, with units and sample counts, and
every result and span is also written under ``.bench_out/``.
"""

import os

# One BLAS thread per process; this must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COOPSIM_OUTPUT_DIR", None)  # outputs must land where the checks read them

import argparse
import importlib
import json
import math
import platform
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np

from spans import Tracer, merge, save_spans
from stats import Tally, median
from workloads import DESK, ONES, WORKLOADS, best, instrument, lp_problems, nproc, rates

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "missing"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "scipy": scipy_version,
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process, in MB.

    The figure is VmHWM, which belongs to this address space.  ru_maxrss
    would not do: Linux carries it over from the parent across exec, so a
    probe started by the benchmark process would report at least the
    benchmark's size.
    """
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s*(\d+) kB", status, re.M).group(1)) / 1024.0


def fresh_peak_rss_mb(args) -> float:
    """Peak RSS of set-up plus one operation, in a fresh process (see probe_peak_rss)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--peak-rss"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=150)
    return float(proc.stdout.split()[-1]) if proc.returncode == 0 else math.nan


def probe_peak_rss(args, tmp) -> int:
    """Set up once, run the seed's first operation unchecked, print the peak RSS in MB.

    Nothing of the harness runs here (no checks, no HiGHS reference, no
    parsed outputs, no scipy import), so the figure is the package's memory.
    """
    wl, _ = setup_body(import_package(), WORKLOADS[args.workload], args.seed, tmp)
    wl.bare(next(wl.params(np.random.default_rng(args.seed))))
    print(peak_rss_mb())
    return 0


# ---------------------------------------------------------------------------
# set-up


def import_package():
    """Import coopsim afresh from the checkout's src/, so set-up pays for it each time."""
    for name in [m for m in sys.modules if m == "coopsim" or m.startswith("coopsim.")]:
        del sys.modules[name]
    cs = importlib.import_module("coopsim")
    importlib.import_module("coopsim.cli")
    if not Path(cs.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench: imported coopsim from {cs.__file__}, not from {ROOT / 'src'}")
    return cs


def setup_body(cs, wl_cls, seed, tmp):
    cfg = cs.model.load_config(DESK)
    rho = cs.region.scale_witness(cfg, ONES)
    return wl_cls(cs, cfg, rho.value, seed, tmp), rho


def set_up(wl_cls, seed, tmp, tally, harness):
    """Set up SETUP_REPEATS times; returns the last workload and every set-up time."""
    times, seen = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cs = import_package()
        wl, rho = setup_body(cs, wl_cls, seed, tmp)
        times.append(time.perf_counter() - t0)
        seen.add((repr(rho.value), wl.setup_identity()))
    if len(seen) > 1:
        harness.append("repeated set-ups gave different results")
    lp = cs.region.build_scale_lp(wl.cfg, ONES)
    problems = lp_problems(cs, wl.cfg, rho, lp, tally, direction=np.asarray(ONES))
    tally.record("set-up rho*(1,1)", problems + wl.setup_problems())
    return wl, times


# ---------------------------------------------------------------------------
# operations


def attempt(wl, p, tally):
    """Run and check one operation.  A failure is counted, never fatal."""
    what = f"{wl.name} {p}"
    try:
        op = wl.run(p)
    except Exception as exc:  # the run goes on; the tally reports it
        tally.record(what, [f"raised {type(exc).__name__}: {exc}"])
        return None
    try:
        problems = wl.check(p, op, tally)
    except Exception as exc:  # an output the check cannot read is a failed operation
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(what, problems)
    op.output = None
    return op


def measure(wl, rng, seconds, tally, harness) -> list:
    """The fastest run of each input.

    A fixed number of inputs is drawn from the seed, and the first pass runs
    and checks each one.  Further passes run them all again in the same
    order while a whole pass still fits in ``seconds``, so an input's runs
    are spread over the measurement; every repeat must give the first run's
    output.  Every run with one seed thus attempts the same operations.
    """
    start = time.perf_counter()
    inputs = list(islice(wl.params(rng), wl.inputs))
    runs = []
    for p in inputs:
        op = attempt(wl, p, tally)
        runs.append([op] if op is not None else [])
    pass_s = time.perf_counter() - start
    while time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        for p, done in zip(inputs, runs):
            if not done:
                continue
            op = wl.run(p)
            op.output = None
            if op.identity != done[0].identity:
                harness.append(f"{wl.name} {p}: a repeated run gave another output")
            done.append(op)
        pass_s = time.perf_counter() - t0
    return [best(done) for done in runs if done]


def trace_rounds(wl, rng, tally, harness) -> list:
    """Pairs of untraced and traced runs of the same operation, for a fixed
    number of inputs."""
    rounds = []
    for p in islice(wl.params(rng), wl.trace_inputs):
        base = attempt(wl, p, tally)
        if base is None:
            continue
        tracer = Tracer()
        instrument(tracer, wl.cs)
        try:
            with tracer.span("op." + wl.name):
                traced = wl.run(p)
        finally:
            tracer.unwrap()
        if base.identity != traced.identity:
            harness.append(f"{wl.name} {p}: traced output differs from untraced")
        csv_bytes = len(traced.output.get("csv", b""))
        traced.output = None
        rounds.append({"base": base, "traced": traced, "tracer": tracer, "csv_bytes": csv_bytes})
    return rounds


# ---------------------------------------------------------------------------
# metrics


def end_to_end(wl, ops, setup_times, rss_mb) -> dict:
    return {
        "setup_s": median(setup_times),
        "op_s": median([op.seconds for op in ops]),
        "work_per_s": median(rates(ops)),
        "peak_rss_mb": rss_mb,
    }


def per_layer(wl, rounds, setup_tracer, tally) -> dict:
    tracers = [r["tracer"] for r in rounds]
    every = merge(t.aggregate() for t in tracers + [setup_tracer])
    in_ops = merge(t.aggregate() for t in tracers)
    counters = sum((t.counters for t in tracers + [setup_tracer]), Counter())
    maxima: dict = {}
    for t in tracers + [setup_tracer]:
        for key, value in t.maxima.items():
            maxima[key] = max(maxima.get(key, value), value)
    n = len(rounds)
    zero = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0}

    def per_call(name, scale=1e3):  # ns -> us by default
        row = every.get(name, zero)
        return row["total_ns"] / row["calls"] / scale if row["calls"] else 0.0

    def per_op(name):
        return in_ops.get(name, zero)["calls"] / n

    def per_unit(name, key, units):
        return every.get(name, zero)[key] / units / 1e3 if units else 0.0

    first = tracers[0].counters  # one operation, so these repeat exactly for a seed
    decides = sum(first[f"decide.{v}"] for v in ("first_hop", "second_hop", "idle"))

    def frac(variant):
        return first[f"decide.{variant}"] / decides if decides else 0.0

    traced_s = sum(r["traced"].seconds for r in rounds)
    untraced_s = sum(r["base"].seconds for r in rounds)
    return {
        "controller.decide_us": per_call("controller.decide"),
        "controller.lyapunov_us": per_call("controller.lyapunov"),
        "queueing.update_us": per_call("queueing.update"),
        "sim.loop_other_us_per_block": per_unit("sim.run", "self_ns", counters["sim.blocks"]),
        "sim.run_us_per_block": per_unit("sim.run", "total_ns", counters["sim.blocks"]),
        "controller.decide_calls": per_op("controller.decide"),
        "queueing.update_calls": per_op("queueing.update"),
        "controller.first_hop_frac": frac("first_hop"),
        "controller.second_hop_frac": frac("second_hop"),
        "controller.idle_frac": frac("idle"),
        "sim.csv_write_s": per_call("sim.write_metrics_csv", 1e9),
        "sim.csv_bytes": sum(r["csv_bytes"] for r in rounds) / n,
        "sim.verdict_ms": per_call("sim.stability_verdict", 1e6),
        "model.sample_fading_us": per_call("model.sample_fading"),
        "sim.generate_arrivals_us": per_call("sim.generate_arrivals"),
        "sim.drift_self_us_per_sample": per_unit("sim.drift_check", "self_ns", counters["sim.drift_samples"]),
        "region.build_scale_ms": per_call("region.build_scale", 1e6),
        "region.build_slack_ms": per_call("region.build_slack", 1e6),
        "region.solve_scale_ms": per_call("region.solve_scale", 1e6),
        "region.solve_slack_ms": per_call("region.solve_slack", 1e6),
        "region.lp_rows": maxima.get("region.lp_rows", 0),
        "region.lp_cols": maxima.get("region.lp_cols", 0),
        "region.replay_violation_max": tally.maxima.get("region.replay_violation_max", 0.0),
        "region.highs_abs_err_max": tally.maxima.get("region.highs_abs_err_max", 0.0),
        "model.load_config_ms": per_call("model.load_config", 1e6),
        "model.load_config_calls": per_op("model.load_config"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }


def named(wl, ops, setup_times, rss_mb, tally) -> list:
    """The figures under the names DESIGN.md uses: (name, value, unit, detail)."""
    rows = [("setup_s", median(setup_times), "s", f"median of {len(setup_times)} set-ups")]
    rows += wl.report(ops)
    rows.append(("peak_rss_mb", rss_mb, "MB", "high-water RSS of a fresh process doing set-up and one operation"))
    rows.append(("failed_frac", tally.failed_frac, "ratio", f"{tally.failed} of {tally.attempted} operations failed"))
    return rows


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--peak-rss", action="store_true",
                        help="only print the peak RSS of set-up plus one operation, in MB (used for peak_rss_mb)")
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/coopsim/__init__.py", DESK) if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {', '.join(missing)} not found; run from the root of a coopsim checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    if args.peak_rss:
        return probe_peak_rss(args, tmp)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    env = environment()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))

    tally, harness = Tally(), []
    wl_cls = WORKLOADS[args.workload]
    wl, setup_times = set_up(wl_cls, args.seed, tmp, tally, harness)
    rng = np.random.default_rng(args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env}

    if args.trace:
        rounds = trace_rounds(wl, rng, tally, harness)
        if not rounds:
            print("bench: every operation raised; nothing to trace", file=sys.stderr)
            return 1
        setup_tracer = Tracer()
        instrument(setup_tracer, wl.cs)
        try:
            with setup_tracer.span("setup"):
                setup_body(wl.cs, wl_cls, args.seed, tmp)
        finally:
            setup_tracer.unwrap()
        values = per_layer(wl, rounds, setup_tracer, tally)
        declared = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in declared}
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.npz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        save_spans(spans_path, [setup_tracer] + [r["tracer"] for r in rounds])
        result["spans"] = str(spans_path.relative_to(ROOT))
        result["not_wrapped"] = setup_tracer.missing
        result["traced_ops"] = len(rounds)
        for name, value in values.items():
            print(f"{name:32s} {value:14.6g} {units.get(name, '?')}")
        print(f"# {len(rounds)} traced operations; spans in {result['spans']}")
        if setup_tracer.missing:
            print(f"# not wrapped (absent from the package): {', '.join(setup_tracer.missing)}")
    else:
        ops = measure(wl, rng, args.seconds, tally, harness)
        if not ops:
            print("bench: every operation failed; nothing to report", file=sys.stderr)
            for problem in tally.problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        rss_mb = fresh_peak_rss_mb(args)
        values = end_to_end(wl, ops, setup_times, rss_mb)
        declared = spec["end_to_end"]
        rows = named(wl, ops, setup_times, rss_mb, tally)
        result["named"] = [{"name": n, "value": v, "unit": u, "detail": d} for n, v, u, d in rows]
        result["op_seconds"] = [op.runs for op in ops]  # every run of each input
        result["setup_seconds"] = setup_times
        for name, value, unit, detail in rows:
            print(f"{name:24s} {value:14.6g} {unit:10s} {detail}")

    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"bench: metrics {sorted(values)} do not match BENCHMARK.json")
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        print(f"bench: could not measure {', '.join(bad)}", file=sys.stderr)
        return 1
    for problem in tally.problems:
        print(f"# failed: {problem}")
    for problem in harness:
        print(f"# harness: {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    line = {"correct": not harness, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    result.update(line, problems=tally.problems, harness_problems=harness)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
