"""The three desk workloads: what one operation is, how its output is checked,
and which package calls the traced run records.

Every workload loads ``configs/desk.json`` and calls the package's public
functions (``coopsim.cli.main`` for the ``simulate`` command).  Operations draw
their inputs from the workload seed only.  See DESIGN.md for why each
workload exists and which metrics it is meant to move.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import time
from contextlib import redirect_stdout

import numpy as np

from highs import highs_value
from stats import median, tail

DESK = "configs/desk.json"
ONES = (1.0, 1.0)
# ROADMAP item 1: the in-repo simplex returns a wrong optimum on this direction.
PINNED_DIRECTION = (0.6263039869788208, 0.7430217329347985)
# Frozen output formats, written out here so that a change to them fails the checks.
METRICS_HEADER = "block,variant,m,g1,A,B,source_backlog,relay_backlog,relay_backlog_bits,lyapunov"
REPLAY_TOL = 1e-6
HIGHS_TOL = 1e-6  # relative to 1 + |HiGHS optimum|


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclasses.dataclass
class Op:
    seconds: float  # wall time of the whole user-facing operation
    work: float  # blocks, queries or samples done
    work_seconds: float  # wall time of the part that does that work
    identity: str  # digest of every output, compared between traced and untraced runs
    output: dict  # what the checks read; dropped once checked
    runs: list = None  # wall times of the runs of this input that ``seconds`` is the least of


def rates(ops) -> list:
    """Work per second of each operation that got as far as doing its work."""
    return [op.work / op.work_seconds for op in ops if op.work_seconds > 0]


def best(runs) -> Op:
    """The fastest of several runs of one input: the least wall time of the
    whole operation and, apart from it, the least time of its working part.

    Other work on a shared host only ever adds time, and much of it comes
    and goes within a run, so the least of several runs estimates the
    operation's own cost more steadily than any one run or their median.
    """
    return Op(min(op.seconds for op in runs), runs[0].work, min(op.work_seconds for op in runs),
              runs[0].identity, None, [op.seconds for op in runs])


def passes(ops) -> str:
    """How many runs each input had, as a number or a range."""
    low, high = min(len(op.runs) for op in ops), max(len(op.runs) for op in ops)
    return str(low) if low == high else f"{low}-{high}"


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def metrics_digest(metrics) -> str:
    parts = []
    for f in dataclasses.fields(metrics):
        value = getattr(metrics, f.name)
        if f.name == "final_state":
            parts += [f.name, value.source, value.relay]
        else:
            parts += [f.name, value]
    return digest(*parts)


def lp_problems(cs, cfg, witness, lp, tally, **target) -> list:
    """Replay a witness against its constraints and compare it with HiGHS."""
    if witness.status != "optimal":
        return [f"{witness.kind} LP ended {witness.status}"]
    problems = []
    violation = cs.region.witness_max_violation(cfg, witness, **target)
    tally.note_max("region.replay_violation_max", violation)
    if not violation <= REPLAY_TOL:
        problems.append(f"{witness.kind} witness breaks a constraint by {violation:.3g}")
    reference = highs_value(lp)
    err = abs(witness.value - reference)
    tally.note_max("region.highs_abs_err_max", err)
    if not err <= HIGHS_TOL * (1.0 + abs(reference)):
        problems.append(f"{witness.kind} optimum {witness.value!r}, HiGHS {reference!r}")
    return problems


def _command(cli, argv):
    """Run ``coopsim`` in-process; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue(), time.perf_counter() - t0


class Workload:
    name = ""
    # Inputs drawn from the seed when measuring and when tracing.  They are
    # fixed numbers, so that every run with one seed attempts the same
    # operations; the time left over buys repeats (see run.measure).
    inputs = 1
    trace_inputs = 1

    def __init__(self, cs, cfg, rho: float, seed: int, tmp):
        self.cs, self.cfg, self.rho, self.seed, self.tmp = cs, cfg, rho, seed, tmp

    def bare(self, p) -> None:
        """Run one operation and keep nothing of it: what the peak-RSS probe measures."""
        self.run(p)

    def setup_problems(self) -> list:
        return []

    def setup_identity(self) -> str:
        return ""


class DeskSimulate(Workload):
    """``coopsim simulate`` at 0.9 rho* (1,1), uniform-integer arrivals."""

    name = "desk-simulate"
    horizon = 50_000

    def __init__(self, *args):
        super().__init__(*args)
        self.lam = 0.9 * self.rho
        self.out = self.tmp / "simulate"

    def params(self, rng):
        while True:
            yield int(rng.integers(2**31))

    def argv(self, seed) -> list:
        return [
            "simulate", DESK, "--lambda", f"{self.lam!r},{self.lam!r}",
            "--horizon", str(self.horizon), "--seed", str(seed), "--out", str(self.out),
        ]

    def bare(self, seed) -> None:
        _command(self.cs.cli, self.argv(seed))

    def run(self, seed) -> Op:
        cli = self.cs.cli
        inner = cli.run
        box = {}

        def timed_run(*args, **kwargs):
            t0 = time.perf_counter()
            metrics = inner(*args, **kwargs)
            box["run_s"] = time.perf_counter() - t0
            box["metrics"] = metrics_digest(metrics)
            return metrics

        cli.run = timed_run
        try:
            rc, stdout, seconds = _command(cli, self.argv(seed))
        finally:
            cli.run = inner
        csv = summary = b""
        if rc == 0:
            csv = (self.out / "metrics.csv").read_bytes()
            summary = (self.out / "summary.json").read_bytes()
        out = {"rc": rc, "stdout": stdout, "csv": csv, "summary": summary}
        identity = digest(rc, stdout, csv, summary, box.get("metrics"))
        return Op(seconds, self.horizon, box.get("run_s", math.nan), identity, out)

    def report(self, ops) -> list:
        n = len(ops)
        return [
            ("simulate_s", median([op.seconds for op in ops]), "s", f"fastest of {passes(ops)} commands; median of {n} seed(s)"),
            ("sim_blocks_per_s", median(rates(ops)), "blocks/s", f"horizon / least wall time of run; median of {n} seed(s)"),
        ]

    def check(self, seed, op, tally) -> list:
        out = op.output
        if out["rc"] != 0:
            return [f"exit code {out['rc']}"]
        problems = []
        summary = json.loads(out["summary"])
        if json.loads(out["stdout"]) != summary:
            problems.append("stdout differs from summary.json")
        if summary["verdict"] != "stable":
            problems.append(f"verdict {summary['verdict']} (growth {summary['growth_rate']!r})")
        delivered, offered = summary["delivered_bits"], summary["offered_bits"]
        if any(d > o for d, o in zip(delivered, offered)):
            problems.append("delivered exceeds offered")
        numbers = delivered + offered + [v for v in summary.values() if isinstance(v, float)]
        if not all(math.isfinite(v) for v in numbers):
            problems.append("non-finite summary value")
        lines = out["csv"].decode().splitlines()
        if not lines or lines[0] != METRICS_HEADER:
            problems.append("metrics.csv header changed")
        if len(lines) - 1 != self.horizon:
            problems.append(f"metrics.csv has {len(lines) - 1} rows, want {self.horizon}")
        else:
            try:
                values = np.array([row.split(",")[4:] for row in lines[1:]], dtype=float)
            except ValueError as exc:
                problems.append(f"metrics.csv does not parse: {exc}")
            else:
                b = values[:, 1]  # B is -inf in blocks with nothing to drain
                if not (np.isfinite(np.delete(values, 1, axis=1)).all() and (np.isfinite(b) | (b == -np.inf)).all()):
                    problems.append("non-finite series value in metrics.csv")
        return problems


class DeskRegion(Workload):
    """Region queries as ``coopsim region`` makes them: scale LP, then slack LP at 0.9 rho*."""

    name = "desk-region"
    inputs = 16
    trace_inputs = 10

    def params(self, rng):
        """The pinned direction, then directions uniform on [0.2, 1]^2."""
        yield PINNED_DIRECTION
        while True:
            yield tuple(float(x) for x in rng.uniform(0.2, 1.0, size=2))

    def run(self, direction) -> Op:
        region = self.cs.region
        d = np.asarray(direction, dtype=float)
        t0 = time.perf_counter()
        scale = region.scale_witness(self.cfg, d)
        lam = 0.9 * scale.value * d
        slack = region.slack_witness(self.cfg, lam) if scale.status == "optimal" else None
        seconds = time.perf_counter() - t0
        identity = digest(scale.status, scale.value, scale.x, *(() if slack is None else (slack.value, slack.x)))
        return Op(seconds, 1, seconds, identity, {"d": d, "lam": lam, "scale": scale, "slack": slack})

    def report(self, ops) -> list:
        ms = [op.seconds * 1e3 for op in ops]
        rows = [("region_query_p50_ms", median(ms), "ms", f"median of {len(ms)} directions, fastest of {passes(ops)} queries each")]
        every = [t * 1e3 for op in ops for t in op.runs]  # slow directions and slow moments alike
        t = tail(every)
        if t is None:
            rows.append(("region_query_tail_ms", math.nan, "ms", f"needs 11 query runs, have {len(every)}"))
        else:
            value, pct, beyond = t
            rows.append(("region_query_tail_ms", value, "ms", f"p{pct:.1f} of {len(every)} query runs, {beyond} beyond"))
        return rows

    def check(self, direction, op, tally) -> list:
        out = op.output
        region = self.cs.region
        problems = lp_problems(self.cs, self.cfg, out["scale"], region.build_scale_lp(self.cfg, out["d"]),
                               tally, direction=out["d"])
        if out["slack"] is None:
            problems.append("no slack query: the scale LP was not optimal")
        else:
            problems += lp_problems(self.cs, self.cfg, out["slack"], region.build_slack_lp(self.cfg, out["lam"]),
                                    tally, lam=out["lam"])
        return problems


class DeskDrift(Workload):
    """``drift_check`` at the acceptance probes: 0.8 rho* with Qs = 5e4, and
    1.5 rho* from the final state of a warm-up run."""

    name = "desk-drift"
    samples = 2_000
    inputs = 4
    trace_inputs = 20
    warm_horizon = 20_000

    def __init__(self, *args):
        super().__init__(*args)
        cs, cfg = self.cs, self.cfg
        self.arr_in = cs.sim.ArrivalConfig(rates=(0.8 * self.rho,) * 2)
        self.arr_ex = cs.sim.ArrivalConfig(rates=(1.5 * self.rho,) * 2)
        self.probe_in = cs.queueing.QueueState.zeros(cfg)
        self.probe_in.source[:] = 5e4
        self.probe_ex = cs.sim.run(cfg, self.arr_ex, self.warm_horizon, self.seed).final_state

    def setup_problems(self) -> list:
        floor = 1e4 * self.cfg.shape.block_length
        return [f"{which} probe holds {p.source.sum():.0f} source bits, below {floor:.0f}"
                for which, p in (("interior", self.probe_in), ("exterior", self.probe_ex))
                if p.source.sum() < floor]

    def setup_identity(self) -> str:
        return digest(self.probe_ex.source, self.probe_ex.relay)

    def params(self, rng):
        while True:
            yield tuple(int(s) for s in rng.integers(2**31, size=2))

    def run(self, seeds) -> Op:
        sim = self.cs.sim
        t0 = time.perf_counter()
        est_in = sim.drift_check(self.cfg, self.arr_in, self.probe_in, self.samples, seeds[0])
        est_ex = sim.drift_check(self.cfg, self.arr_ex, self.probe_ex, self.samples, seeds[1])
        seconds = time.perf_counter() - t0
        return Op(seconds, 2 * self.samples, seconds, digest(est_in, est_ex), {"in": est_in, "ex": est_ex})

    def report(self, ops) -> list:
        return [
            ("drift_samples_per_s", median(rates(ops)), "samples/s", f"median of {len(ops)} seed pairs, fastest of {passes(ops)} probe pairs each"),
        ]

    def check(self, seeds, op, tally) -> list:
        est_in, est_ex = op.output["in"], op.output["ex"]
        problems = []
        if not est_in.mean < -3 * est_in.stderr:
            problems.append(f"interior drift {est_in.mean!r} not below -3 stderr ({est_in.stderr!r})")
        if not est_ex.mean > 3 * est_ex.stderr:
            problems.append(f"exterior drift {est_ex.mean!r} not above 3 stderr ({est_ex.stderr!r})")
        return problems


WORKLOADS = {wl.name: wl for wl in (DeskSimulate, DeskRegion, DeskDrift)}


def instrument(tracer, cs) -> None:
    """Wrap the module attributes the package calls through."""
    sim, region, cli, model = cs.sim, cs.region, cs.cli, cs.model

    def count_variant(tr, decision):
        tr.counters["decide." + decision.variant] += 1

    def count_blocks(tr, metrics):
        tr.counters["sim.blocks"] += metrics.horizon

    def count_samples(tr, estimate):
        tr.counters["sim.drift_samples"] += estimate.samples

    def lp_shape(tr, lp):
        rows, cols = np.shape(lp.matrix)
        tr.note_max("region.lp_rows", rows)
        tr.note_max("region.lp_cols", cols)

    tracer.wrap(sim, "decide", "controller.decide", on_result=count_variant)
    tracer.wrap(sim, "lyapunov", "controller.lyapunov")
    for attr in ("apply_first_hop", "apply_second_hop", "apply_idle"):
        tracer.wrap(sim, attr, "queueing.update")
    tracer.wrap(sim, "sample_fading", "model.sample_fading")
    tracer.wrap(sim, "generate_arrivals", "sim.generate_arrivals")
    tracer.wrap(sim, "run", "sim.run", on_result=count_blocks)
    tracer.wrap(sim, "drift_check", "sim.drift_check", on_result=count_samples)
    tracer.wrap(region, "build_scale_lp", "region.build_scale", on_result=lp_shape)
    tracer.wrap(region, "build_slack_lp", "region.build_slack", on_result=lp_shape)
    tracer.wrap(region, "solve_lp", lambda lp: f"region.solve_{lp.kind}")
    tracer.wrap(model, "load_config", "model.load_config")
    tracer.wrap(cli, "load_config", "model.load_config")
    tracer.wrap(cli, "run", "sim.run", on_result=count_blocks)
    tracer.wrap(cli, "stability_verdict", "sim.stability_verdict")
    tracer.wrap(cli, "write_metrics_csv", "sim.write_metrics_csv")
