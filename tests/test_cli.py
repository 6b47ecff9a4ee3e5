import dataclasses
import json
import warnings

import pytest

import coopsim as cs
from coopsim.cli import _witness_records, main
from coopsim.sim import DISTRIBUTIONS
from conftest import CONFIG_DIR, make_doc

TOY = str(CONFIG_DIR / "toy_single.json")
GOODBAD = str(CONFIG_DIR / "toy_goodbad.json")
DESK = str(CONFIG_DIR / "desk.json")


def test_region_toy(capsys):
    assert main(["region", TOY, "--direction", "1"]) == 0
    out = capsys.readouterr().out
    assert "rho_star,0.5" in out
    assert "status,optimal" in out


def test_region_missing_file(capsys):
    assert main(["region", "does/not/exist.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""


def test_region_zero_direction(capsys):
    assert main(["region", TOY, "--direction", "0"]) == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(shape=5),
        lambda d: d.update(fading=["a"]),
        lambda d: d["fading"].update(alphabet="a"),
        lambda d: d["fading"].update(states=5),
        lambda d: d["fading"]["states"].__setitem__(0, 5),
        lambda d: d.update(schemes=5),
        lambda d: d["schemes"].__setitem__(0, [1.0]),
        lambda d: d["schemes"][0].update(rates=5),
        lambda d: d.update(support=5),
        lambda d: d["support"].__setitem__(0, 5),
    ],
)
def test_region_wrong_container_type_exit_2(tmp_path, capsys, mutate):
    doc = make_doc()
    mutate(doc)
    with pytest.raises(cs.ConfigError) as exc:
        cs.validate_config(doc)
    assert exc.value.code == "wrong-type"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["region", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("coopsim: config error [wrong-type]: ") and captured.err.count("\n") == 1


def test_region_bad_config(tmp_path, capsys):
    doc = make_doc()
    doc["fading"]["states"][0]["p"] = 0.9
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["region", str(p)]) == 2
    assert "distribution-not-normalized" in capsys.readouterr().err


def test_region_witness_json(capsys):
    assert main(["region", GOODBAD, "--witness"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rho_star"] == pytest.approx(0.5, abs=1e-9)
    assert doc["a"] and doc["b"]
    assert doc["a"][0]["m"] == 0


def test_region_witness_reports_solver_stats(capsys):
    # --witness adds the scale LP's solver statistics; plain output has none
    assert main(["region", DESK, "--direction", "1,1", "--witness"]) == 0
    solver = json.loads(capsys.readouterr().out)["solver"]
    assert solver == dataclasses.asdict(cs.scale_witness(cs.load_config(DESK), [1.0, 1.0]).stats)
    assert solver["pivots"] > 0 and solver["refactorizations"] >= 1 and solver["min_pivot"] > 0.0
    assert 0.0 <= solver["primal_residual"] <= 1e-9 and 0.0 <= solver["dual_residual"] <= 1e-9
    assert main(["region", DESK, "--direction", "1,1"]) == 0
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()] == [
        "direction_1", "direction_2", "rho_star", "delta_star_at_rho(0.9)", "status"
    ]


def test_region_witness_records_balance_per_triple(capsys):
    # a-records are split across g2 by drain flow, so every (m, g1, g2)
    # triple's fill and drain still balance, and the split sums back
    desk = cs.load_config(DESK)
    assert main(["region", DESK, "--direction", "1,1", "--witness"]) == 0
    doc = json.loads(capsys.readouterr().out)
    wit = cs.scale_witness(desk, [1.0, 1.0])

    def key(rec, *fields):
        return tuple(tuple(rec[k]) if isinstance(rec[k], list) else rec[k] for k in fields)

    net, filled = {}, {}
    for sign, family in ((1.0, "a"), (-1.0, "b")):
        for rec in doc[family]:
            pi = desk.probability(key(rec, "f1", "f2"))
            triple = key(rec, "m", "g1", "g2")
            assert triple in desk.support
            net[triple] = net.get(triple, 0.0) + sign * pi * rec["value"]
            if family == "a":
                f_m_g1 = (key(rec, "f1", "f2"), rec["m"], tuple(rec["g1"]))
                filled[f_m_g1] = filled.get(f_m_g1, 0.0) + rec["value"]
    assert max(abs(v) for v in net.values()) <= 1e-9
    assert filled.keys() == wit.a.keys()
    assert all(filled[k] == pytest.approx(v, abs=1e-12) for k, v in wit.a.items())
    assert [key(r, "f1", "f2", "m", "g1", "g2") for r in doc["b"]] == sorted(
        (*f, m, g1, f[1]) for f, m, g1 in wit.b
    )


def test_witness_records_split_undrained_class_evenly(toy_goodbad):
    doc = toy_goodbad.to_document()
    doc["support"].append({"m": 0, "g1": ["G"], "g2": ["B"]})
    cfg = cs.validate_config(doc)
    good = (("G",), ("G",))
    wit = cs.RegionWitness("optimal", "slack", -0.1, a={(good, 0, ("G",)): 0.5})
    records = _witness_records(cfg, wit)
    assert [(r["g2"], r["value"]) for r in records["a"]] == [(["B"], 0.25), (["G"], 0.25)]
    assert records["b"] == []


def test_region_pinned_direction(capsys):
    rc = main(["region", DESK, "--direction", "0.6263039869788208,0.7430217329347985"])
    assert rc == 0
    out = dict(line.rsplit(",", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert abs(float(out["rho_star"]) - 1.7510870485311762) <= 1e-9
    assert out["status"] == "optimal"


@pytest.mark.parametrize("argv", [["region", DESK], ["sweep", DESK, "SPEC", "--jobs", "1"]])
def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch, argv):
    import coopsim.region as region

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"load_factors": [0.5], "horizon": 10, "seeds": [1]}))
    monkeypatch.setattr(region, "MAX_PIVOTS", 1)  # every desk solve hits the limit
    assert main([str(spec) if a == "SPEC" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coopsim: solver failure: simplex failed to converge within the pivot limit\n"


def test_region_non_optimal_scale_lp_exits_3(capsys, monkeypatch):
    import coopsim.cli as cli

    monkeypatch.setattr(cli, "scale_witness", lambda config, d: cs.RegionWitness("unbounded", "scale", float("nan")))
    assert main(["region", DESK]) == 3
    assert capsys.readouterr().err == "coopsim: solver failure: scale LP ended unbounded\n"


def test_simulate_writes_outputs(tmp_path, capsys):
    rc = main(
        ["simulate", TOY, "--lambda", "0.3", "--horizon", "5000", "--seed", "7",
         "--out", str(tmp_path), "--queues", "queues.csv"]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"] == "stable"
    assert summary["lambda"] == [0.3]
    stdout_doc = json.loads(capsys.readouterr().out)
    assert stdout_doc == summary
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("block,variant,m,g1,A,B")
    assert len(metrics) == 5001
    queues = (tmp_path / "queues.csv").read_text().splitlines()
    assert queues[0] == "block,Qs_1,Q_m0_a"
    assert len(queues) == 5001


@pytest.mark.parametrize("lam,expected", [("0.3", "stable"), ("0.6", "unstable")])
def test_simulate_toy_verdicts(tmp_path, capsys, lam, expected):
    rc = main(["simulate", TOY, "--lambda", lam, "--horizon", "100000", "--seed", "7",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"] == expected


def test_metrics_csv_marks_infeasible_second_hop(tmp_path, capsys):
    # good/bad toy: blocks with a bad second hop have no drainable queue
    rc = main(["simulate", GOODBAD, "--lambda", "0.3", "--horizon", "500", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    body = (tmp_path / "metrics.csv").read_text()
    assert ",-inf," in body


def test_region_direction_broadcast(capsys):
    assert main(["region", DESK, "--direction", "1"]) == 0
    out = dict(
        line.rsplit(",", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    desk = cs.load_config(DESK)
    assert float(out["rho_star"]) == pytest.approx(
        cs.boundary_scale(desk, [1.0, 1.0]), abs=1e-12
    )
    assert float(out["direction_2"]) == 1.0


def test_region_extreme_direction_scales(capsys):
    assert main(["region", DESK, "--direction", "1e155,1"]) == 0
    out = dict(line.rsplit(",", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["rho_star"]) == pytest.approx(1.5e-155, rel=1e-12)
    assert out["status"] == "optimal"
    # rho* = 1.213... * 2^1074 along the least subnormal does not fit a float
    assert main(["region", DESK, "--direction", "5e-324"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coopsim: error: rho* along this direction exceeds the float range\n"


def test_simulate_byte_identical(tmp_path, capsys):
    args = ["simulate", GOODBAD, "--lambda", "0.3", "--horizon", "2000", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    capsys.readouterr()
    one = (tmp_path / "one" / "metrics.csv").read_bytes()
    two = (tmp_path / "two" / "metrics.csv").read_bytes()
    assert one == two


def test_simulate_env_overrides_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COOPSIM_OUTPUT_DIR", str(tmp_path / "env"))
    assert main(["simulate", TOY, "--lambda", "0.2", "--horizon", "100",
                 "--out", str(tmp_path / "flag")]) == 0
    capsys.readouterr()
    assert (tmp_path / "env" / "summary.json").exists()
    assert not (tmp_path / "flag").exists()


def test_simulate_bad_lambda(capsys):
    assert main(["simulate", TOY, "--lambda", "-0.5", "--horizon", "10"]) == 2
    assert capsys.readouterr().err != ""


def test_simulate_non_finite_lambda(tmp_path, capsys):
    for lam in ("nan", "inf"):
        assert main(["simulate", TOY, "--lambda", lam, "--arrival", "constant", "--horizon", "10",
                     "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("arrival", DISTRIBUTIONS)
def test_simulate_overflowing_arrivals_exit_2(tmp_path, capsys, arrival):
    # 1e308 bits/symbol is finite, but 1e308 * T is not
    assert main(["simulate", TOY, "--lambda", "1e308", "--arrival", arrival, "--horizon", "10",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coopsim: error: ") and err.count("\n") == 1
    assert not (tmp_path / "metrics.csv").exists()


def test_sweep_rows_and_consistency(tmp_path, capsys):
    spec = {"direction": [1.0, 1.0], "load_factors": [0.5, 1.1], "horizon": 8000,
            "seeds": [1, 2]}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", DESK, str(spec_path), "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "load_factor,seed,growth_rate,verdict"
    assert len(lines) == 5
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["0.5", "0.5", "1.1", "1.1"]
    assert [r[3] for r in rows[:2]] == ["stable", "stable"]
    assert [r[3] for r in rows[2:]] == ["unstable", "unstable"]

    # single-cell sweep row matches a direct simulate run at the same rate
    desk = cs.load_config(DESK)
    rho = cs.boundary_scale(desk, [1.0, 1.0])
    lam = 0.5 * rho
    rc = main(["simulate", DESK, "--lambda", f"{lam!r},{lam!r}", "--horizon", "8000",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert repr(summary["growth_rate"]) == rows[0][2]


def test_sweep_jobs_identical_output(tmp_path, capsys):
    spec = {"direction": [1.0], "load_factors": [0.4, 0.8], "horizon": 2000, "seeds": [5, 6]}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", GOODBAD, str(spec_path), "--jobs", "1"]) == 0
    one = capsys.readouterr().out
    assert main(["sweep", GOODBAD, str(spec_path), "--jobs", "2"]) == 0
    two = capsys.readouterr().out
    assert one == two


def test_sweep_pool_no_larger_than_task_count(tmp_path, capsys, monkeypatch):
    import coopsim.cli as cli

    sizes = []

    class RecordingPool:  # records its size and maps inline: no process starts
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    spec_path = tmp_path / "sweep.json"
    outputs = []
    for seeds in ([5, 6], [5]):
        spec_path.write_text(json.dumps({"load_factors": [0.4], "horizon": 200, "seeds": seeds}))
        assert main(["sweep", GOODBAD, str(spec_path), "--jobs", "64"]) == 0
        outputs.append(capsys.readouterr().out)
    assert sizes == [2]  # two tasks get two workers, one task runs inline
    assert outputs[0].splitlines()[1] == outputs[1].splitlines()[1]

    for jobs in ("0", "-3"):
        assert main(["sweep", GOODBAD, str(spec_path), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"coopsim: error: --jobs must be at least 1, got {jobs}\n"
    assert sizes == [2]


def test_sweep_empty_load_factors(tmp_path, capsys):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"load_factors": [], "horizon": 10, "seeds": [1]}))
    assert main(["sweep", TOY, str(spec_path)]) == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize(
    "spec",
    [
        5,
        [],
        {"load_factors": 5, "horizon": 10, "seeds": [1]},
        {"load_factors": ["0.5"], "horizon": 10, "seeds": [1]},
        {"load_factors": [0.5], "horizon": 10, "seeds": 3},
        {"load_factors": [0.5], "horizon": 10, "seeds": [1.5]},
        {"load_factors": [0.5], "horizon": [10], "seeds": [1]},
        {"load_factors": [0.5], "horizon": True, "seeds": [1]},
        {"load_factors": [0.5], "horizon": 10, "seeds": [1], "direction": {"a": 1}},
        {"load_factors": [0.5], "horizon": 10, "seeds": [1], "allow_idle": "no"},
    ],
)
def test_sweep_wrong_spec_types_exit_2(tmp_path, capsys, spec):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", TOY, str(spec_path), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("coopsim: error: ") and captured.err.count("\n") == 1


def test_queue_count_formats(tmp_path, capsys):
    doc = make_doc(n=2, k=3, alphabet=("a", "b"),
                   rates=((1.0, 1.0, 1.0),) * 4, support=[])
    p = tmp_path / "m4.json"
    p.write_text(json.dumps(doc))
    assert main(["queue-count", str(p), "--state-based-levels", "4"]) == 0
    assert capsys.readouterr().out.strip() == "encoding=16 state_based=32768 ratio=2048"
    assert main(["queue-count", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "encoding=16"


def test_queue_count_overflow_exit_code(tmp_path, capsys):
    k = 50
    doc = {
        "shape": {"N": 1, "K": k, "T": 1},
        "fading": {"alphabet": ["a", "b"],
                   "states": [{"f1": ["a"], "f2": ["a"] * k, "p": 1.0}]},
        "schemes": [{"id": 0, "rates": [1.0] * k}],
        "support": [],
    }
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    assert main(["queue-count", str(p), "--state-based-levels", "10"]) == 4
    assert "overflow" in capsys.readouterr().err


def test_drift_check_cli(capsys):
    rc = main(["drift-check", TOY, "--lambda", "0.3", "--qs", "10000",
               "--samples", "2000", "--seed", "1"])
    assert rc == 0
    out = dict(line.split(",") for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["mean_dv"]) < 0
    assert float(out["stderr"]) > 0
    assert out["samples"] == "2000"


def test_drift_check_cli_relay_fill(capsys):
    # growth-ray probe at exterior load: positive drift
    rc = main(["drift-check", TOY, "--lambda", "0.75", "--qs", "10000",
               "--relay-fill", "4000", "--samples", "2000", "--seed", "1"])
    assert rc == 0
    out = dict(line.split(",") for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["mean_dv"]) > 0


@pytest.mark.parametrize("flags", [["--qs", "nan"], ["--relay-fill", "inf"], ["--qs", "-5"]])
def test_drift_check_rejects_bad_probe(capsys, flags):
    rc = main(["drift-check", TOY, "--lambda", "0.3", "--samples", "100", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite and non-negative" in captured.err


def test_drift_check_overflowing_probe_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any RuntimeWarning fails the test
        rc = main(["drift-check", TOY, "--lambda", "0.3", "--qs", "1e200", "--samples", "10"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coopsim: error: the probe's potential V overflows the float range\n"


@pytest.mark.parametrize("direction", ["nan,1", "1,inf", "1,-inf"])
def test_region_non_finite_direction(capsys, direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any RuntimeWarning fails the test
        rc = main(["region", DESK, "--direction", direction])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coopsim: error: direction entries must be finite\n"
