import dataclasses
import json
import math
import runpy
import sys
import warnings

import pytest

import coopsim as cs
from coopsim.cli import _witness_records, main
from coopsim.sim import DISTRIBUTIONS
from configs import CONFIG_DIR, make_doc, without_zero_rows, zero_gap_doc

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


@pytest.mark.parametrize(
    "field,code",
    [("N", "bad-shape"), ("T", "bad-shape"), ("rate", "non-finite-rate"), ("p", "non-finite-probability")],
)
def test_region_integer_beyond_float_range_exit_2(tmp_path, capsys, field, code):
    doc = make_doc()
    huge = 10**400
    if field in ("N", "T"):
        doc["shape"][field] = huge
    elif field == "rate":
        doc["schemes"][0]["rates"] = [huge]
    else:
        doc["fading"]["states"][0]["p"] = huge
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["region", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"coopsim: config error [{code}]: ") and captured.err.count("\n") == 1


def test_region_integer_of_5001_digits_exit_2(tmp_path, capsys):
    # beyond int()'s default 4300-digit limit: json reads it as inf, which
    # the field's own check refuses with its code
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(make_doc()).replace('"N": 1,', '"N": 1' + "0" * 5000 + ","))
    assert main(["region", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coopsim: config error [bad-shape]: shape N must be a finite number, got inf\n"


def test_simulate_refuses_a_label_with_a_comma(tmp_path, capsys):
    # the label would split a metrics.csv g1 cell and a --queues header cell
    p = tmp_path / "comma.json"
    p.write_text(json.dumps(make_doc(alphabet=("g,1", "b"))))
    out = tmp_path / "out"
    argv = ["simulate", str(p), "--lambda", "0.2", "--horizon", "10", "--out", str(out), "--queues", "q.csv"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("coopsim: config error [bad-alphabet]: ")
    assert not out.exists()


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
    wit = cs.RegionWitness("slack", -0.1, a={(good, 0, ("G",)): 0.5})
    records = _witness_records(cfg, wit)
    assert [(r["g2"], r["value"]) for r in records["a"]] == [(["B"], 0.25), (["G"], 0.25)]
    assert records["b"] == []


def test_witness_records_add_the_weights_in_order():
    # drain weights 0.1, 0.2, 0.3: added in order from 0.0 they make
    # 0.6000000000000001, while a compensated sum (math.fsum, or builtin sum()
    # from Python 3.12 on) makes 0.6; the split must use the sequential total
    f = [(("a",), (g,)) for g in "abc"]
    states = [{"f1": ["a"], "f2": [g], "p": p} for g, p in zip("abc", (0.1, 0.2, 0.3))]
    cfg = cs.validate_config(make_doc(alphabet=("a", "b", "c"), states=[*states, {"f1": ["b"], "f2": ["a"], "p": 0.4}]))
    weights = [cfg.probability(x) for x in f]
    total = ((0.0 + weights[0]) + weights[1]) + weights[2]
    assert total != math.fsum(weights)
    wit = cs.RegionWitness("slack", 0.0, a={(f[0], 0, ("a",)): 0.7}, b={(x, 0, ("a",)): 1.0 for x in f})
    records = _witness_records(cfg, wit)
    assert [r["value"] for r in records["a"]] == [0.7 * w / total for w in weights]
    assert [0.7 * w / total for w in weights] != [0.7 * w / math.fsum(weights) for w in weights]


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


def _unbounded_solves(monkeypatch):
    import coopsim.region as region

    monkeypatch.setattr(region, "_ratio_row", lambda column, x_b, basis, col: None)  # every entering column is a ray


def test_region_non_optimal_scale_lp_exits_3(capsys, monkeypatch):
    _unbounded_solves(monkeypatch)
    assert main(["region", DESK]) == 3
    assert capsys.readouterr().err == "coopsim: solver failure: scale LP ended unbounded\n"


def test_sweep_non_optimal_scale_lp_exits_3(tmp_path, capsys, monkeypatch):
    _unbounded_solves(monkeypatch)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"load_factors": [0.5], "horizon": 10, "seeds": [1]}))
    assert main(["sweep", DESK, str(spec), "--jobs", "1"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "coopsim: solver failure: scale LP ended unbounded\n")


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


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("horizon", [1, 2])
def test_short_runs_write_strict_json(tmp_path, capsys, horizon):
    # the trailing half holds one block, so no slope is fitted: growth_rate
    # is null, not NaN, which JSON does not have
    rc = main(["simulate", TOY, "--lambda", "0.3", "--horizon", str(horizon), "--out", str(tmp_path)])
    assert rc == 0
    summary = _strict_json(capsys.readouterr().out)
    assert summary == _strict_json((tmp_path / "summary.json").read_text())
    assert (summary["growth_rate"], summary["verdict"]) == (None, "inconclusive")


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
        cs.scale_witness(desk, [1.0, 1.0]).value, abs=1e-12
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


def test_simulate_empty_env_is_unset(tmp_path, capsys, monkeypatch):
    # Path("") is the working directory: an empty variable must not pick it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COOPSIM_OUTPUT_DIR", "")
    assert main(["simulate", TOY, "--lambda", "0.2", "--horizon", "100", "--out", "wanted"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wanted"]
    assert sorted(p.name for p in (tmp_path / "wanted").iterdir()) == ["metrics.csv", "summary.json"]


@pytest.mark.parametrize("name", ["metrics.csv", "summary.json"])
def test_simulate_queues_naming_an_output_exits_2(tmp_path, capsys, name):
    # the output written after the run would overwrite the snapshots
    for queues in (name, f"./{name}"):
        assert main(["simulate", TOY, "--lambda", "0.3", "--horizon", "10",
                     "--out", str(tmp_path), "--queues", queues]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"coopsim: error: --queues {queues} names the run's own {name}, which would overwrite it\n"
        )
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("queues", [".", "./", "..", "other"])
def test_simulate_queues_naming_a_directory_exits_2(tmp_path, capsys, monkeypatch, queues):
    # refused before the output directory is made: the working directory stays empty
    work, other = tmp_path / "work", tmp_path / "other"
    work.mkdir()
    other.mkdir()
    monkeypatch.chdir(work)
    queues = str(other) if queues == "other" else queues
    assert main(["simulate", TOY, "--lambda", "0.3", "--horizon", "10", "--out", "D", "--queues", queues]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"coopsim: error: --queues {queues} names a directory, not a file\n")
    assert list(work.iterdir()) == [] and list(other.iterdir()) == []


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
@pytest.mark.parametrize("via_env", [False, True], ids=["out", "env"])
def test_simulate_output_directory_naming_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch, via_env, below):
    import coopsim.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", no_run)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    target = taken / below
    if via_env:
        monkeypatch.setenv("COOPSIM_OUTPUT_DIR", str(target))
    else:
        monkeypatch.delenv("COOPSIM_OUTPUT_DIR", raising=False)
    out = str(tmp_path / "flag") if via_env else str(target)
    assert main(["simulate", TOY, "--lambda", "0.3", "--horizon", "10", "--out", out]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        f"coopsim: error: output directory {target} cannot be made: {taken} is not a directory\n",
    )
    assert taken.read_text() == "kept\n" and [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_simulate_bad_lambda(capsys):
    assert main(["simulate", TOY, "--lambda", "-0.5", "--horizon", "10"]) == 2
    assert capsys.readouterr().err == "coopsim: error: arrival rates must be finite and non-negative\n"


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
                 "--out", str(tmp_path), "--queues", "q.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coopsim: error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # neither metrics.csv nor the --queues file


@pytest.mark.parametrize(
    "config,lam,arrival,block",
    [(TOY, "1e160", "constant", 0), (TOY, "1e306", "constant", 0), (DESK, "1e153", "bernoulli-batch", 1)],
)
def test_simulate_overflowing_run_exits_2(tmp_path, capsys, config, lam, arrival, block):
    # finite arrivals whose queues or potential V leave the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        assert main(["simulate", config, "--lambda", lam, "--arrival", arrival, "--horizon", "1000",
                     "--out", str(tmp_path), "--queues", "q.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"coopsim: error: block {block}: a queue, the potential V or a weight A or B overflows the float range\n"
    )
    assert list(tmp_path.iterdir()) == []  # neither metrics.csv nor the --queues file


@pytest.mark.parametrize(
    "command",
    [["region"], ["drift-check", "--lambda", "1"], ["simulate", "--lambda", "1", "--horizon", "10"]],
)
def test_rate_whose_square_overflows_exits_2(tmp_path, capsys, command):
    # (1e200)^2 overflows: the config is refused before any LP, probe or block
    p = tmp_path / "huge_rate.json"
    p.write_text(json.dumps(make_doc(rates=((1e200,),))))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command[0], str(p), *command[1:], *(["--out", str(out)] if command[0] == "simulate" else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("coopsim: config error [rate-overflow]: scheme 0: ")
    assert captured.err.count("\n") == 1 and "RuntimeWarning" not in captured.err
    assert [w.category.__name__ for w in caught] == []
    assert not out.exists()


HUGE_MEAN_ERROR = (
    "coopsim: error: destination 0: uniform-integer mean 4.7e+18 bits per block (rate times T=10)"
    " must be below 2**62 = 4611686018427387904\n"
)


def test_simulate_huge_uniform_mean_exits_2(tmp_path, capsys):
    # 2 * floor(4.7e18) + 1 exceeds int64; 4.5e17 * T = 4.5e18 still runs (the limit is 4.6e18)
    assert main(["simulate", DESK, "--lambda", "4.7e17", "--horizon", "10", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", HUGE_MEAN_ERROR)
    assert list(tmp_path.iterdir()) == []
    assert main(["simulate", DESK, "--lambda", "4.5e17", "--horizon", "10", "--out", str(tmp_path)]) == 0


def test_drift_check_huge_uniform_mean_exits_2(capsys):
    assert main(["drift-check", DESK, "--lambda", "4.7e17"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", HUGE_MEAN_ERROR)


SEED_ERROR = "coopsim: error: the seed must be a non-negative integer, got -3\n"


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    # run checks the seed before it writes the --queues header, so no file is made
    assert main(["simulate", TOY, "--lambda", "0.3", "--horizon", "10", "--seed", "-3",
                 "--out", str(tmp_path), "--queues", "q.csv"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", SEED_ERROR)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--seed", "-3"],
    ["--seed", "-3", "--queues", "q.csv"],
    ["--horizon", "0"],
    ["--queues", "metrics.csv"],
    ["--queues", "sub/q.csv"],
])
def test_refused_simulate_leaves_no_out_path(tmp_path, capsys, flags):
    # the output directory is made at the first file opened, after the checks
    out = tmp_path / "D" / "deeper"
    assert main(["simulate", TOY, "--lambda", "0.3", "--horizon", "10", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("coopsim: error: ")
    assert list(tmp_path.iterdir()) == []


def test_zero_probability_rows_change_no_output(tmp_path, capsys):
    # zero_gap lists five p = 0 states: the outputs equal the ones of its
    # document without them, byte for byte
    outputs = []
    for name, doc in (("listed", zero_gap_doc()), ("left_out", without_zero_rows(zero_gap_doc()))):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--lambda", "0.2", "--horizon", "700", "--out", str(out),
                     "--queues", "queues.csv"]) == 0
        assert main(["region", str(path), "--witness"]) == 0
        assert main(["drift-check", str(path), "--lambda", "0.2", "--qs", "40", "--relay-fill", "20"]) == 0
        files = [(out / f).read_bytes() for f in ("metrics.csv", "queues.csv", "summary.json")]
        outputs.append((capsys.readouterr(), files))
    assert outputs[0] == outputs[1]


def test_sweep_negative_seed_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"load_factors": [0.5], "horizon": 10, "seeds": [1, -3]}))
    assert main(["sweep", TOY, str(spec_path), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", SEED_ERROR)


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
    rho = cs.scale_witness(desk, [1.0, 1.0]).value
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
    "spec,line",
    [
        (5, "[wrong-type]: sweep spec must be an object, got 5"),
        ([], "[wrong-type]: sweep spec must be an object, got []"),
        ({"load_factors": 5, "horizon": 10, "seeds": [1]}, "[wrong-type]: load_factors must be a list, got 5"),
        (
            {"load_factors": ["0.5"], "horizon": 10, "seeds": [1]},
            "[bad-sweep-spec]: load factor must be a finite number, got '0.5'",
        ),
        ({"load_factors": [0.5], "horizon": 10, "seeds": 3}, "[wrong-type]: seeds must be a list, got 3"),
        (
            {"load_factors": [0.5], "horizon": 10, "seeds": [1.5]},
            "[non-integral-value]: seed must be an integer, got 1.5",
        ),
        (
            {"load_factors": [0.5], "horizon": [10], "seeds": [1]},
            "[bad-sweep-spec]: horizon must be a finite number, got [10]",
        ),
        (
            {"load_factors": [0.5], "horizon": True, "seeds": [1]},
            "[boolean-value]: horizon must be a number, got True",
        ),
        (
            {"load_factors": [0.5], "horizon": 10, "seeds": [1], "direction": {"a": 1}},
            "[wrong-type]: direction must be a list, got {'a': 1}",
        ),
        (
            {"load_factors": [0.5], "horizon": 10, "seeds": [1], "allow_idle": "no"},
            "[wrong-type]: allow_idle must be true or false, got 'no'",
        ),
    ],
    ids=["5", *(f"spec{i}" for i in range(1, 10))],
)
def test_sweep_wrong_spec_types_exit_2(tmp_path, capsys, spec, line):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", TOY, str(spec_path), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"coopsim: config error {line}\n")


@pytest.mark.parametrize(
    "value,shown",
    [
        ("NaN", "nan"),
        ("Infinity", "inf"),
        ("1e309", "inf"),
        pytest.param("1" + "0" * 400, "inf", id="10**400"),
        pytest.param("-1" + "0" * 5000, "-inf", id="-10**5000"),  # beyond int()'s 4300-digit limit
    ],
)
@pytest.mark.parametrize("field,what", [("load_factors", "load factor"), ("direction", "direction entry")])
def test_sweep_non_finite_spec_number_exits_2(tmp_path, capsys, value, shown, field, what):
    # json reads the first three as floats and the last as an integer beyond
    # the float range; the error names the spec field
    entries = {"load_factors": "[0.5]", "direction": "[1.0]", field: f"[{value}]"}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(
        f'{{"load_factors": {entries["load_factors"]}, "direction": {entries["direction"]},'
        ' "horizon": 10, "seeds": [1]}'
    )
    assert main(["sweep", TOY, str(spec_path), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        f"coopsim: config error [bad-sweep-spec]: {what} must be a finite number, got {shown}\n",
    )


_SPEC = {"load_factors": [0.5], "horizon": 10, "seeds": [1]}


@pytest.mark.parametrize(
    "change,line",
    [
        pytest.param({"seeds": "1"}, "[wrong-type]: seeds must be a list, got '1'", id="wrong-type"),
        pytest.param({"seed": 1}, "[unknown-field]: unknown field(s) ['seed'] in sweep spec", id="unknown-field"),
        pytest.param({"seeds": [True]}, "[boolean-value]: seed must be a number, got True", id="boolean-value"),
        pytest.param(
            {"horizon": 10.5}, "[non-integral-value]: horizon must be an integer, got 10.5", id="non-integral-value"
        ),
        # a spec integer beyond the float range is refused, as it is in a config
        pytest.param(
            {"seeds": [10**399]}, "[bad-sweep-spec]: seed must be a finite number, got inf", id="400-digit-seed"
        ),
        pytest.param(
            {"load_factors": [0.5, 0.0]},
            "[bad-sweep-spec]: load_factors must be a non-empty list of positive numbers",
            id="zero-load-factor",
        ),
        pytest.param({"seeds": []}, "[bad-sweep-spec]: seeds must be a non-empty list", id="no-seeds"),
        pytest.param({"horizon": 0}, "[bad-sweep-spec]: horizon must be >= 1", id="zero-horizon"),
        pytest.param({"direction": [1.0, 1.0]}, "[bad-sweep-spec]: direction must have 1 entries", id="long-direction"),
        pytest.param(
            {"direction": [-1.0]},
            "[bad-sweep-spec]: direction must be non-negative with at least one positive entry",
            id="negative-direction",
        ),
        pytest.param(
            {"direction": [0.0]},
            "[bad-sweep-spec]: direction must be non-negative with at least one positive entry",
            id="zero-direction",
        ),
    ],
)
def test_sweep_spec_errors_carry_config_codes(tmp_path, capsys, change, line):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({**_SPEC, **change}))
    assert main(["sweep", TOY, str(spec_path), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"coopsim: config error {line}\n")


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
    rc = main(["drift-check", TOY, "--lambda", "0.3", "--qs", "10000"])
    assert rc == 0
    name, value = capsys.readouterr().out.split(",")  # one line
    assert name == "mean_dv" and value.endswith("\n") and float(value) < 0


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_drift_check_has_no_sampling_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["drift-check", TOY, "--lambda", "0.3", flag, "10"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err


def test_drift_check_cli_relay_fill(capsys):
    # growth-ray probe at exterior load: positive drift
    rc = main(["drift-check", TOY, "--lambda", "0.75", "--qs", "10000", "--relay-fill", "4000"])
    assert rc == 0
    out = dict(line.split(",") for line in capsys.readouterr().out.strip().splitlines())
    assert float(out["mean_dv"]) > 0


@pytest.mark.parametrize("flags", [["--qs", "nan"], ["--relay-fill", "inf"], ["--qs", "-5"]])
def test_drift_check_rejects_bad_probe(capsys, flags):
    rc = main(["drift-check", TOY, "--lambda", "0.3", *flags])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite and non-negative" in captured.err


def test_drift_check_overflowing_probe_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any RuntimeWarning fails the test
        rc = main(["drift-check", TOY, "--lambda", "0.3", "--qs", "1e200"])
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


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", DESK, "--lambda", "0.9,0.9", "--horizon", "1000000000000000"],
    ],
)
def test_unallocatable_length_exits_2(tmp_path, capsys, monkeypatch, argv):
    # numpy refuses the draws' first array outright, so nothing is allocated
    monkeypatch.setenv("COOPSIM_OUTPUT_DIR", str(tmp_path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("coopsim: error: Unable to allocate ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_python_m_coopsim(capsys, monkeypatch):
    assert main(["queue-count", DESK]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["coopsim", "queue-count", DESK])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("coopsim", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == expected
