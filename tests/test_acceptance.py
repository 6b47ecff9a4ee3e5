"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its wall time (run with ``pytest -s`` to see them all).
The desk-scale network is N=2 relays, K=2 destinations, 2 fading labels,
3 encoding schemes, T=10 symbols per block.
"""

import json
import time

import numpy as np
import pytest

import coopsim as cs
from coopsim.cli import main as cli_main
from conftest import CONFIG_DIR
from oracles import bruteforce_decide, scale_oracle, slack_oracle

DESK = str(CONFIG_DIR / "desk.json")
_shared = {}


def _report(name: str, ok: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: took {elapsed:.1f}s, limit {limit:.0f}s"


def test_queue_dynamics_exact(toy_single):
    t0 = time.time()
    doc = toy_single.to_document()

    def cfg_with(n=1, k=1, T=10, rates=((1.0,),)):
        d = json.loads(json.dumps(doc))
        d["shape"].update(N=n, K=k, T=T)
        d["fading"]["states"] = [{"f1": ["a"] * n, "f2": ["a"] * (n * k), "p": 1.0}]
        d["schemes"] = [{"id": i, "rates": list(r)} for i, r in enumerate(rates)]
        d["support"] = [{"m": 0, "g1": ["a"] * n, "g2": ["a"] * (n * k)}]
        return cs.validate_config(d)

    ok = True
    # first hop: drain, clamp, componentwise
    c = cfg_with(n=2, rates=((0.5,),))
    st = cs.QueueState.from_values(c, [8.0], np.zeros((1, 1)))
    out = cs.apply_first_hop(st, [3.0], 0, ("a", "a"))
    ok &= out.source.tolist() == [6.0] and out.relay.tolist() == [[10.0]]

    c = cfg_with(rates=((0.5,),))
    out = cs.apply_first_hop(cs.QueueState.from_values(c, [2.0], [[0.0]]), [0.0], 0, ("a",))
    ok &= out.source.tolist() == [0.0]

    c = cfg_with(k=2, T=4, rates=((1.0, 0.5),))
    out = cs.apply_first_hop(
        cs.QueueState.from_values(c, [10.0, 10.0], [[0.0]]), [1.0, 1.0], 0, ("a",)
    )
    ok &= out.source.tolist() == [7.0, 9.0]

    # second hop: drain, clamp, fixed point
    c = cfg_with(n=2)
    st = cs.QueueState.from_values(c, [1.0], np.full((1, 1), 10.0))
    out = cs.apply_second_hop(st, [2.0], 0, ("a", "a"))
    ok &= out.source.tolist() == [3.0] and out.relay.sum() == 0.0

    c = cfg_with()
    out = cs.apply_second_hop(cs.QueueState.from_values(c, [0.0], [[4.0]]), [0.0], 0, ("a",))
    ok &= out.relay[0, 0] == 0.0

    c = cfg_with(k=2, rates=((1.0, 1.0),))
    z = cs.QueueState.zeros(c)
    out = cs.apply_second_hop(z, [0.0, 0.0], 0, ("a",))
    ok &= out.source.sum() == 0.0 and out.relay.sum() == 0.0

    # idle accumulates arrivals only
    c = cfg_with()
    ok &= cs.apply_idle(cs.QueueState.from_values(c, [1.0], [[0.0]]), [2.0]).source.tolist() == [3.0]
    ok &= cs.apply_idle(cs.QueueState.zeros(c), [0.0]).source.tolist() == [0.0]
    c = cfg_with(k=2, rates=((1.0, 1.0),))
    ok &= cs.apply_idle(
        cs.QueueState.from_values(c, [0.0, 5.0], [[0.0]]), [1.0, 0.0]
    ).source.tolist() == [1.0, 5.0]

    _report("queue-dynamics-exact", bool(ok), time.time() - t0, 1.0)


def test_controller_matches_bruteforce(desk):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    states = desk.sorted_states
    mismatches = 0
    checked = 0
    probes = [(np.zeros(2), np.zeros((3, 4)))]  # all-zero tie case
    for _ in range(1000):
        probes.append(
            (rng.uniform(0, 500, size=2), rng.uniform(0, 300, size=(3, 4)))
        )
    for source, relay in probes:
        st = cs.QueueState.from_values(desk, source, relay)
        f = states[int(rng.integers(0, len(states)))]
        d = cs.decide(st, f)
        variant, m, g1, bf_a, bf_b = bruteforce_decide(st, f)
        checked += 1
        if (d.variant, d.m, d.g1, d.weight_first, d.weight_second) != (
            variant, m, g1, bf_a, bf_b,
        ):
            mismatches += 1
    _report(
        "controller-equals-bruteforce",
        mismatches == 0 and checked >= 1000,
        time.time() - t0,
        10.0,
        f"{checked} instances, {mismatches} mismatches",
    )


def test_region_matches_grid_oracle(toy_single, toy_goodbad):
    t0 = time.time()
    checks = []
    for cfg in (toy_single, toy_goodbad):
        rho = cs.boundary_scale(cfg, [1.0])
        oracle_rho = scale_oracle(cfg, [1.0])
        checks.append(abs(rho - 0.5) <= 1e-5)
        checks.append(abs(rho - oracle_rho) <= 1e-5)
    delta = cs.interior_slack(toy_single, [0.4])
    oracle_delta = slack_oracle(toy_single, [0.4])
    checks.append(abs(delta - 1.0 / 15.0) <= 1e-5)
    checks.append(abs(delta - oracle_delta) <= 1e-5)
    _report(
        "lp-grid-oracle-agreement",
        all(checks),
        time.time() - t0,
        30.0,
        f"rho*={rho!r} delta*={delta!r}",
    )


def test_interior_loads_stable(desk):
    t0 = time.time()
    rho = cs.boundary_scale(desk, [1.0, 1.0])
    _shared["rho"] = rho
    verdicts = []
    finals = []
    for load in (0.8, 0.9):
        lam = load * rho
        for seed in (1, 2, 3):
            m = cs.run(desk, cs.ArrivalConfig(rates=(lam, lam)), horizon=200_000, seed=seed)
            v = cs.stability_verdict(m)
            verdicts.append((load, seed, v.verdict, v.growth_rate))
            if load == 0.8:
                finals.append(float(m.total_backlog_bits()[-1]))
    _shared["final_08"] = max(finals)
    ok = all(v == "stable" for _, _, v, _ in verdicts)
    worst = max(g for _, _, _, g in verdicts)
    _report(
        "throughput-optimal-interior",
        ok,
        time.time() - t0,
        300.0,
        f"rho*={rho:.4f}, worst slope {worst:.4f} (threshold {0.01 * 10})",
    )


def test_exterior_load_unstable(desk):
    t0 = time.time()
    rho = _shared.get("rho") or cs.boundary_scale(desk, [1.0, 1.0])
    lam = 1.1 * rho
    verdicts = []
    finals = []
    for seed in (1, 2, 3):
        m = cs.run(desk, cs.ArrivalConfig(rates=(lam, lam)), horizon=200_000, seed=seed)
        v = cs.stability_verdict(m)
        verdicts.append(v.verdict)
        finals.append(float(m.total_backlog_bits()[-1]))
    base = _shared.get("final_08")
    if base is None:
        m = cs.run(desk, cs.ArrivalConfig(rates=(0.8 * rho, 0.8 * rho)), horizon=200_000, seed=1)
        base = float(m.total_backlog_bits()[-1])
    ratio = min(finals) / base
    ok = all(v == "unstable" for v in verdicts) and ratio >= 10.0
    _report(
        "instability-exterior",
        ok,
        time.time() - t0,
        120.0,
        f"verdicts={verdicts}, backlog ratio {ratio:.0f}x",
    )


def test_drift_sign(desk):
    t0 = time.time()
    rho = _shared.get("rho") or cs.boundary_scale(desk, [1.0, 1.0])
    T = desk.shape.block_length

    lam_in = 0.8 * rho
    probe = cs.QueueState.zeros(desk)
    probe.source[:] = 5e4  # total backlog 1e5 = 1e4 * T
    est_in = cs.drift_check(
        desk, cs.ArrivalConfig(rates=(lam_in, lam_in)), probe, samples=10_000, seed=41
    )

    lam_ex = 1.5 * rho
    arr_ex = cs.ArrivalConfig(rates=(lam_ex, lam_ex))
    warm = cs.run(desk, arr_ex, horizon=20_000, seed=42)
    probe_ex = warm.final_state
    est_ex = cs.drift_check(desk, arr_ex, probe_ex, samples=10_000, seed=43)

    ok = (
        probe.source.sum() >= 1e4 * T
        and est_in.mean < 0
        and est_in.mean < -3 * est_in.stderr
        and probe_ex.source.sum() >= 1e4 * T
        and est_ex.mean > 3 * est_ex.stderr
    )
    _report(
        "lyapunov-drift-sign",
        bool(ok),
        time.time() - t0,
        60.0,
        f"interior z={est_in.mean / est_in.stderr:.0f}, exterior z={est_ex.mean / est_ex.stderr:.0f}",
    )


def test_region_convexity(desk):
    t0 = time.time()
    rng = np.random.default_rng(7)
    dirs = [tuple(rng.uniform(0.2, 1.0, size=2)) for _ in range(8)]
    rho = {d: cs.boundary_scale(desk, d) for d in dirs}
    ok = True
    for _ in range(50):
        d1, d2 = dirs[int(rng.integers(0, 8))], dirs[int(rng.integers(0, 8))]
        lam1 = float(rng.uniform(0, 0.99)) * rho[d1] * np.asarray(d1)
        lam2 = float(rng.uniform(0, 0.99)) * rho[d2] * np.asarray(d2)
        ok &= cs.interior_slack(desk, lam1) >= -1e-9
        ok &= cs.interior_slack(desk, lam2) >= -1e-9
        mid = 0.5 * (lam1 + lam2)
        ok &= cs.interior_slack(desk, mid) >= -1e-9
    _report("region-convexity", bool(ok), time.time() - t0, 60.0, "50 pairs")


def test_queue_count_identities(desk):
    t0 = time.time()
    ok = cs.queue_count_encoding_based(desk) == 3 * 2**2
    ok &= cs.queue_count_state_based(4, 3, 2, 2) == 32768
    ok &= cs.queue_count_state_based(1, 1, 1, 1) == 1
    ok &= cs.queue_count_state_based(2, 2, 2, 1) == 64
    for levels, fsize, n, k in [(4, 2, 2, 1), (4, 2, 2, 5), (3, 5, 1, 2), (7, 2, 3, 3)]:
        a = cs.queue_count_state_based(levels, k, fsize, n)
        b = cs.queue_count_state_based(levels, k + 1, fsize, n)
        ok &= b == a * levels * fsize ** (n + 1)
    _report("queue-count-identities", bool(ok), time.time() - t0, 1.0)


def test_deterministic_outputs(tmp_path, capsys):
    t0 = time.time()
    args = ["simulate", DESK, "--lambda", "0.5,0.5", "--horizon", "10000", "--seed", "11"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    same_csv = (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()

    spec = {"direction": [1.0, 1.0], "load_factors": [0.8], "horizon": 10_000, "seeds": [1, 2]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli_main(["sweep", DESK, str(spec_path), "--jobs", "1"]) == 0
    sweep_one = capsys.readouterr().out
    assert cli_main(["sweep", DESK, str(spec_path), "--jobs", "2"]) == 0
    sweep_two = capsys.readouterr().out

    ok = same_csv and sweep_one == sweep_two and len(sweep_one.splitlines()) == 3
    with capsys.disabled():
        _report("deterministic-outputs", bool(ok), time.time() - t0, 60.0)
