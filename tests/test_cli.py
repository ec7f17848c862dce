import json
from pathlib import Path

import pytest

from conftest import brute_force_min_lambda, vacate_validate
from ratecraft import cli
from ratecraft.cli import main
from ratecraft.costs import consumer_stats
from ratecraft.ingest import (
    SynthSpec,
    align,
    load_meter_csv,
    load_price_csv,
    synth_population,
    write_meter_csv,
    write_price_csv,
)
from ratecraft.segmentation import StabilityReport, StabilityViolation
from ratecraft.types import ConsumerSeries, HourlyMatrix, PriceSeries

FIXTURES = Path(__file__).parent / "fixtures"
METER = str(FIXTURES / "meter_n12.csv")
PRICES = str(FIXTURES / "prices_n12.csv")


def _synth_args(out_dir, n=12, days=24, seed=42):
    return [
        "synth", "--n", str(n), "--days", str(days), "--seed", str(seed),
        "--out-dir", str(out_dir),
    ]


def test_synth_writes_files(tmp_path, capsys):
    assert main(_synth_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "consumers=12" in out
    assert (tmp_path / "meter.csv").exists()
    assert (tmp_path / "prices.csv").exists()


def test_synth_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_synth_args(a)) == 0
    assert main(_synth_args(b)) == 0
    assert (a / "meter.csv").read_bytes() == (b / "meter.csv").read_bytes()
    assert (a / "prices.csv").read_bytes() == (b / "prices.csv").read_bytes()


def test_synth_invalid_noise_is_usage_error(tmp_path, capsys):
    rc = main(_synth_args(tmp_path) + ["--noise-cv", "-1"])
    assert rc == 2
    assert "noise_cv must be >= 0" in capsys.readouterr().err


def test_synth_takes_no_gamma(tmp_path, capsys):
    assert main(_synth_args(tmp_path) + ["--gamma", "1e-6"]) == 2
    assert "--gamma" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["synth", "--bogus", "1"]) == 2


def test_solve_matches_committed_oracle_fixture(tmp_path, capsys):
    fixture = json.loads((FIXTURES / "solve_n12_m4.json").read_text())
    rc = main([
        "solve", "--meter", METER, "--prices", PRICES,
        "--m", str(fixture["m"]), "--split", str(fixture["split"]),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    lam_line = [l for l in out.splitlines() if l.startswith("lambda_star=")][0]
    lam = float(lam_line.split("=")[1].split()[0])
    assert lam == pytest.approx(fixture["lambda_star"], abs=2e-6)
    selection = (tmp_path / "selection.csv").read_text().splitlines()
    assert selection[0] == "consumer_id"
    assert selection[1:] == fixture["member_ids"]
    # guard against fixture drift: recompute the oracle live
    ds = align(load_meter_csv(METER), load_price_csv(PRICES), fixture["split"])
    oracle = brute_force_min_lambda(consumer_stats(ds), fixture["m"])
    assert oracle.lambda_star == pytest.approx(fixture["lambda_star"], rel=1e-12)


def test_solve_writes_past_a_stale_temp_path(tmp_path, capsys):
    # a fixed "<name>.tmp" temp path would collide with this directory
    (tmp_path / "selection.csv.tmp").mkdir()
    assert main(["solve", "--meter", METER, "--prices", PRICES, "--m", "3",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "selection.csv").read_text().splitlines()
    assert lines[0] == "consumer_id" and len(lines) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["selection.csv", "selection.csv.tmp"]


def test_solve_m1_returns_cheapest_consumer(tmp_path, capsys):
    assert main(["solve", "--meter", METER, "--prices", PRICES, "--m", "1",
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lam = float([l for l in out.splitlines() if l.startswith("lambda_star=")][0]
                .split("=")[1].split()[0])
    ds = align(load_meter_csv(METER), load_price_csv(PRICES), 0.75)
    stats = consumer_stats(ds)
    ratios = stats.t / stats.w
    cheapest = int(ratios.argmin())
    assert lam == pytest.approx(float(ratios.min()), abs=2e-6)
    selection = (tmp_path / "selection.csv").read_text().splitlines()
    assert selection[1:] == [ds.consumer_ids[cheapest]]


def test_solve_full_population_average(tmp_path, capsys):
    assert main(["solve", "--meter", METER, "--prices", PRICES, "--m", "12",
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lam = float([l for l in out.splitlines() if l.startswith("lambda_star=")][0]
                .split("=")[1].split()[0])
    ds = align(load_meter_csv(METER), load_price_csv(PRICES), 0.75)
    stats = consumer_stats(ds)
    assert lam == pytest.approx(float(stats.t.sum() / stats.w.sum()), abs=2e-6)


def test_solve_m_too_large_is_runtime_error(tmp_path, capsys):
    rc = main(["solve", "--meter", METER, "--prices", PRICES, "--m", "99",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "exceeds population size" in capsys.readouterr().err


def test_solve_requires_m(tmp_path, capsys):
    rc = main(["solve", "--meter", METER, "--prices", PRICES, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--m is required" in capsys.readouterr().err


def test_solve_requires_meter(tmp_path, capsys):
    rc = main(["solve", "--prices", PRICES, "--m", "3", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--meter is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curves", "segment", "simulate"])
def test_split_one_leaves_no_validate_window_and_is_usage_error(tmp_path, capsys, command):
    rc = main([command, "--meter", METER, "--prices", PRICES, "--split", "1.0",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "validate window would be empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, days, split, message", [
    ("segment", None, "0.99", "validate window is empty"),
    ("solve", None, "0.01", "split 0.01 leaves no training day in 24 days"),
    ("segment", None, "0.01", "split 0.01 leaves no training day in 24 days"),
    ("curves", 12, None, "training window too short: need at least 14 days"),
    ("segment", 12, None, "training window too short: need at least 14 days"),
    ("simulate", 12, None, "training window too short: need at least 14 days"),
])
def test_unusable_windows_after_loading_are_usage_errors(
    tmp_path, capsys, command, days, split, message
):
    meter, prices = METER, PRICES
    if days is not None:
        assert main(_synth_args(tmp_path / "data", days=days)) == 0
        meter, prices = str(tmp_path / "data" / "meter.csv"), str(tmp_path / "data" / "prices.csv")
    args = [command, "--meter", meter, "--prices", prices, "--out-dir", str(tmp_path / "out")]
    if split is not None:
        args += ["--split", split]
    if command == "solve":
        args += ["--m", "2"]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_disjoint_meter_and_price_dates_stay_a_runtime_error(tmp_path, capsys):
    # the fixture's prices a year later; the split would leave no training day either
    prices = load_price_csv(PRICES)
    later = prices.start_date.replace(year=prices.start_date.year + 1)
    shifted = PriceSeries(HourlyMatrix(prices.day_ahead.values, later),
                          HourlyMatrix(prices.real_time.values, later))
    write_price_csv(shifted, tmp_path / "prices.csv")
    rc = main(["solve", "--meter", METER, "--prices", str(tmp_path / "prices.csv"), "--m", "2",
               "--split", "0.01", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "no overlapping dates" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_days_limit_beyond_validate_window_is_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--meter", METER, "--prices", PRICES, "--days-limit", "99",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "--days-limit 99 exceeds the 6 validate days" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_curves_size_above_population_is_usage_error(tmp_path, capsys):
    rc = main(["curves", "--meter", METER, "--prices", PRICES, "--sizes", "1,99",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "largest size 99 exceeds population 12" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_missing_file_is_runtime_error(tmp_path, capsys):
    rc = main(["solve", "--meter", "nope.csv", "--prices", PRICES, "--m", "2",
               "--out-dir", str(tmp_path)])
    assert rc == 1


def test_curves_outputs_schema(tmp_path):
    rc = main([
        "curves", "--meter", METER, "--prices", PRICES,
        "--sizes", "1,4,12", "--trials", "4", "--seed", "3", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    lam_lines = (tmp_path / "lambda_curve.csv").read_text().splitlines()
    assert lam_lines[0] == "M,lambda_cents_per_kwh"
    assert len(lam_lines) == 4
    lams = [float(l.split(",")[1]) for l in lam_lines[1:]]
    assert lams == sorted(lams)
    cv_lines = (tmp_path / "cv_curve.csv").read_text().splitlines()
    assert cv_lines[0] == "M,kind,cv,ci_low,ci_high"
    kinds = {l.split(",")[1] for l in cv_lines[1:]}
    assert kinds == {"random", "optimal"}
    optimal_rows = [l for l in cv_lines[1:] if ",optimal," in l]
    assert all(l.endswith(",,") for l in optimal_rows)


def test_curves_rerun_is_byte_identical(tmp_path):
    args = ["curves", "--meter", METER, "--prices", PRICES,
            "--sizes", "2,6", "--trials", "3", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    for name in ("lambda_curve.csv", "cv_curve.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_segment_outputs(tmp_path, capsys):
    rc = main([
        "segment", "--meter", METER, "--prices", PRICES,
        "--cv-threshold", "50", "--size-grid", "3,6,12", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "segmentation.json").read_text())
    assert payload["cv_threshold"] == 50.0
    assert payload["stability_audit"]["violations"] == []
    sizes = sum(g["size"] for g in payload["groups"])
    assert sizes == 12  # aggregate policy covers everyone
    rounds = (tmp_path / "rounds.csv").read_text().splitlines()
    assert rounds[0] == "round,size,rate_cents_per_kwh,cv_percent,threshold_met"
    assert len(rounds) == len(payload["groups"]) + 1
    assigns = (tmp_path / "assignments.csv").read_text().splitlines()
    assert assigns[0] == "consumer_id,group_round,group_rate_cents_per_kwh"
    assert len(assigns) == 13
    out = capsys.readouterr().out
    assert "violations=0" in out


def test_segment_writes_the_audit_violations_in_field_order(tmp_path, capsys, monkeypatch):
    report = StabilityReport(pairs_checked=3, moves_checked=7, violations=(
        StabilityViolation("rate_order", 1, 2, None, 0.25),
        StabilityViolation("join_improves", 1, 3, 5, 1.5e-7),
    ))
    monkeypatch.setattr(cli, "stability_audit", lambda *args: report)
    assert main(["segment", "--meter", METER, "--prices", PRICES, "--cv-threshold", "50",
                 "--size-grid", "3,6,12", "--out-dir", str(tmp_path)]) == 0
    assert "audit: pairs=3 moves=7 violations=2" in capsys.readouterr().out
    audit = json.loads((tmp_path / "segmentation.json").read_text())["stability_audit"]
    assert list(audit) == ["pairs_checked", "moves_checked", "violations"]
    assert audit == {"pairs_checked": 3, "moves_checked": 7, "violations": [
        {"kind": "rate_order", "earlier_round": 1, "later_round": 2, "consumer_index": None,
         "magnitude": 0.25},
        {"kind": "join_improves", "earlier_round": 1, "later_round": 3, "consumer_index": 5,
         "magnitude": 1.5e-7},
    ]}
    fields = ["kind", "earlier_round", "later_round", "consumer_index", "magnitude"]
    assert all(list(v) == fields for v in audit["violations"])


def test_segment_rates_nondecreasing(tmp_path):
    rc = main([
        "segment", "--meter", METER, "--prices", PRICES,
        "--cv-threshold", "50", "--size-grid", "3,6,12", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "segmentation.json").read_text())
    met = [g for g in payload["groups"] if g["threshold_met"]]
    rates = [g["rate_cents_per_kwh"] for g in met]
    for a, b in zip(rates, rates[1:]):
        assert a <= b + 2e-6


def test_simulate_report_and_files(tmp_path, capsys):
    rc = main([
        "simulate", "--meter", METER, "--prices", PRICES,
        "--design", "two_sided", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "realized_rate=" in out
    assert "penalty_gap=" in out
    lines = (tmp_path / "settlement.csv").read_text().splitlines()
    assert lines[0] == "day_index,date,demand_kwh,purchased_kwh,cost_cents"
    assert len(lines) == 7  # 24 days, split 0.75 -> 6 validate days


def test_simulate_with_selection_file(tmp_path, capsys):
    solve_rc = main(["solve", "--meter", METER, "--prices", PRICES, "--m", "4",
                     "--out-dir", str(tmp_path)])
    assert solve_rc == 0
    rc = main([
        "simulate", "--meter", METER, "--prices", PRICES,
        "--selection", str(tmp_path / "selection.csv"), "--out-dir", str(tmp_path),
    ])
    assert rc == 0


def test_group_vacant_in_the_validate_window_is_named(tmp_path, capsys):
    ds = synth_population(SynthSpec(n_consumers=30, n_days=40, seed=3))
    cheapest = int(consumer_stats(ds).ratios.argmin())
    cid = ds.consumer_ids[cheapest]
    write_meter_csv(list(vacate_validate(ds, [cheapest]).consumers), tmp_path / "meter.csv")
    write_price_csv(ds.prices, tmp_path / "prices.csv")
    (tmp_path / "selection.csv").write_text(f"consumer_id\n{cid}\n")
    data = ["--meter", str(tmp_path / "meter.csv"), "--prices", str(tmp_path / "prices.csv"),
            "--out-dir", str(tmp_path)]
    assert main(["curves", "--sizes", "1,5", "--trials", "3", *data]) == 1
    assert capsys.readouterr().err == (
        f"error: the group of 1 consumer(s) has no usage in the validate window: {cid}\n"
    )
    assert main(["simulate", "--selection", str(tmp_path / "selection.csv"), *data]) == 1
    assert capsys.readouterr().err == (
        f"error: the group of 1 consumer(s) has no usage in the replayed days: {cid}\n"
    )


def test_simulate_takes_no_gamma(tmp_path, capsys):
    rc = main(["simulate", "--meter", METER, "--prices", PRICES, "--gamma", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--gamma" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("consumer_id\nghost-1\n", "selection ids not in dataset: ghost-1"),
    ("consumer_id\n", "no consumer ids"),
    ("consumer_id\nnight-00006\nnight-00007\nnight-00006\n",
     "duplicate consumer id night-00006"),
], ids=["unknown", "empty", "duplicate"])
def test_simulate_unknown_selection_ids(tmp_path, capsys, text, message):
    bad = tmp_path / "selection.csv"
    bad.write_text(text)
    rc = main([
        "simulate", "--meter", METER, "--prices", PRICES,
        "--selection", str(bad), "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert f"{bad}: {message}" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n": 5, "days": 20, "seed": 1, "noise_cv": 0.1}))
    out_a = tmp_path / "a"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
    assert "consumers=5" in capsys.readouterr().out
    out_b = tmp_path / "b"
    assert main(["synth", "--config", str(cfg), "--n", "7", "--out-dir", str(out_b)]) == 0
    assert "consumers=7" in capsys.readouterr().out


def test_config_file_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[1, 2]")
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.json"
    cfg.write_bytes(b'\xef\xbb\xbf{"n": 3, "days": 5}')
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert "consumers=3" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ('{"n": 3,', "Expecting property name enclosed in double quotes: line 1 column 9"),
    ("", "Expecting value: line 1 column 1"),
    ("[1, 2]", "config file must hold a JSON object"),
], ids=["truncated", "empty", "array"])
def test_config_file_errors_name_the_file(tmp_path, capsys, text, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {message}")


@pytest.mark.parametrize("command, config, key", [
    ("segment", {"cv-threshold": 1e-9}, "cv-threshold"),
    ("synth", {"n": 2.7}, "n"),
    ("synth", {"n": "abc"}, "n"),
    ("synth", {"n": True}, "n"),
    ("synth", {"config": "other.json", "n": 3, "days": 20}, "config"),
], ids=["unknown-key", "fractional-int", "not-a-number", "bool", "nested-config"])
def test_config_file_is_checked_before_use(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    if command == "synth":
        argv = ["synth", "--out-dir", str(tmp_path / "out")]
    else:
        argv = ["segment", "--meter", METER, "--prices", PRICES, "--out-dir", str(tmp_path)]
    assert main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: " in err
    assert f"config key {key!r}" in err


@pytest.mark.parametrize("command, config", [
    ("synth", {"out_dir": None}),
    ("solve", {"meter": 3}),
    ("segment", {"size_grid": {}}),
    ("segment", {"size_grid": [3, 2.5]}),
    ("segment", {"policy": ["drop"]}),
], ids=["null-path", "number-path", "object-size-list", "fractional-size", "list-choice"])
def test_config_paths_choices_and_size_lists_are_typed(tmp_path, capsys, command, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--out-dir", str(tmp_path / "out"), "--config", str(cfg)]
    if command != "synth":
        argv += ["--prices", PRICES] + ([] if "meter" in config else ["--meter", METER])
    if command == "solve":
        argv += ["--m", "2"]
    assert main(argv) == 2
    (key,) = config
    assert f"{cfg}: config key {key!r}: expected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_size_list_may_be_a_json_list(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"size_grid": [12, 3, 6], "cv_threshold": 50}))
    assert main(["segment", "--meter", METER, "--prices", PRICES, "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 0
    flag_dir = tmp_path / "flag"
    assert main(["segment", "--meter", METER, "--prices", PRICES, "--cv-threshold", "50",
                 "--size-grid", "3,6,12", "--out-dir", str(flag_dir)]) == 0
    assert (tmp_path / "rounds.csv").read_bytes() == (flag_dir / "rounds.csv").read_bytes()


_NOT_INTS = "error: expected a comma-separated list of integers, got {!r}\n"
_SPLIT_ONE = "error: split must be < 1: the validate window would be empty\n"
_ROUNDS_TO_ZERO = ("error: base_kwh_per_day={} with noise_cv={} rounds every reading of 3 "
                   "consumer(s) to 0 at 4 decimals, first peak-00000\n")


@pytest.mark.parametrize("argv, size_grid, err", [
    (["curves", "--sizes", "a,b"], None, _NOT_INTS.format("a,b")),
    (["curves", "--sizes", "0,2"], None, "error: sizes must be positive integers\n"),
    (["curves", "--sizes", ","], None, "error: sizes must be positive integers\n"),
    (["segment", "--size-grid", "x"], None, _NOT_INTS.format("x")),
    (["segment", "--size-grid", "0"], None, "error: size-grid must be positive integers\n"),
    (["segment"], {}, "error: {cfg}: config key 'size_grid': "
                      "expected a string or a list of integers, got {{}}\n"),
    (["segment"], [3, 2.5], "error: {cfg}: config key 'size_grid': "
                            "expected a string or a list of integers, got [3, 2.5]\n"),
    (["segment"], "a", "error: {cfg}: config key 'size_grid': "
                       "expected a comma-separated list of integers, got 'a'\n"),
    (["segment"], [0], "error: size-grid must be positive integers\n"),
    (["curves", "--split", "1.0"], None, _SPLIT_ONE),
    (["segment", "--split", "1.0"], None, _SPLIT_ONE),
    (["simulate", "--split", "1.0"], None, _SPLIT_ONE),
    (["curves", "--split", "1.0", "--sizes", "a"], None, _NOT_INTS.format("a")),
    (["synth", "--noise-cv", "-1"], None, "error: noise_cv must be >= 0\n"),
    (["synth", "--n", "0"], None, "error: n_consumers must be >= 1\n"),
    (["synth", "--seed", "-1"], None, "error: seed must be >= 0\n"),
    (["synth", "--base-kwh", "nan"], None, "error: base_kwh_per_day must be finite\n"),
    (["synth", "--base-kwh", "inf"], None, "error: base_kwh_per_day must be finite\n"),
    (["synth", "--noise-cv", "nan"], None, "error: noise_cv must be finite\n"),
    (["synth", "--noise-cv", "inf"], None, "error: noise_cv must be finite\n"),
    (["synth", "--noise-cv", "1e200"], None, "error: noise_cv must be <= 1e+100\n"),
    (["synth", "--base-kwh", "1e308"], None, "error: base_kwh_per_day must be <= 1e+100\n"),
    (["synth", "--n", "3", "--days", "5", "--base-kwh", "1e-9"], None,
     _ROUNDS_TO_ZERO.format("1e-09", "0.3")),
    (["synth", "--n", "3", "--days", "5", "--noise-cv", "1e100"], None,
     _ROUNDS_TO_ZERO.format("10", "1e+100")),
], ids=["sizes-letters", "sizes-zero", "sizes-empty", "grid-letter", "grid-zero",
        "config-object", "config-fraction", "config-letter", "config-zero",
        "split-curves", "split-segment", "split-simulate", "sizes-before-split",
        "synth-noise", "synth-n", "synth-seed", "synth-base-nan", "synth-base-inf",
        "synth-noise-nan", "synth-noise-inf", "synth-noise-huge", "synth-base-huge",
        "synth-base-rounds-to-zero", "synth-noise-rounds-to-zero"])
def test_parameter_errors_exit_2_with_exact_message(tmp_path, capsys, argv, size_grid, err):
    cfg = tmp_path / "config.json"
    if size_grid is not None:
        cfg.write_text(json.dumps({"size_grid": size_grid}))
        argv = argv + ["--config", str(cfg)]
    if argv[0] != "synth":
        argv = argv + ["--meter", METER, "--prices", PRICES]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == err.format(cfg=cfg)
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_synth_reports_consumers_and_days_only(tmp_path, capsys):
    assert main(_synth_args(tmp_path, n=12, days=24)) == 0
    assert capsys.readouterr().out.splitlines()[0] == "consumers=12 days=24"


def test_selection_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    assert main(["solve", "--meter", METER, "--prices", PRICES, "--m", "4",
                 "--out-dir", str(tmp_path)]) == 0
    plain = tmp_path / "selection.csv"
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
    for name, selection in (("plain", plain), ("bom", bom), ("crlf", crlf)):
        assert main(["simulate", "--meter", METER, "--prices", PRICES,
                     "--selection", str(selection), "--out-dir", str(tmp_path / name)]) == 0
    for name in ("bom", "crlf"):
        assert ((tmp_path / "plain" / "settlement.csv").read_bytes()
                == (tmp_path / name / "settlement.csv").read_bytes())


def test_selection_round_trip_keeps_ids_that_other_line_rules_split(tmp_path, capsys):
    """`solve` writes the ids it reads, and `simulate --selection` reads them back whole: a
    form feed, \\x1c, \\x85 or U+2028 inside an id is part of it, not a line end."""
    ds = synth_population(SynthSpec(n_consumers=20, n_days=24, seed=5))
    odd = ["a\x0cb", "c\x1cd", "e\x85f", "g\u2028h"]
    consumers = [ConsumerSeries(odd[i] if i < len(odd) else c.consumer_id, c.usage)
                 for i, c in enumerate(ds.consumers)]
    write_meter_csv(consumers, tmp_path / "meter.csv")
    write_price_csv(ds.prices, tmp_path / "prices.csv")
    data = ["--meter", str(tmp_path / "meter.csv"), "--prices", str(tmp_path / "prices.csv"),
            "--out-dir", str(tmp_path)]
    assert main(["solve", "--m", "20", *data]) == 0
    assert set(odd) <= set(cli._read_selection_ids(tmp_path / "selection.csv"))
    assert main(["simulate", "--selection", str(tmp_path / "selection.csv"), *data]) == 0
    lines = (tmp_path / "settlement.csv").read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines[1:-1]) == ds.validate_days == 6


def test_files_that_are_not_utf8_are_named_and_keep_their_exit_codes(tmp_path, capsys):
    selection = tmp_path / "selection.csv"
    selection.write_bytes("consumer_id\ncaf\xe9\n".encode("latin-1"))
    assert main(["simulate", "--meter", METER, "--prices", PRICES,
                 "--selection", str(selection), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {selection}: 'utf-8' codec can't decode "
                                              "byte 0xe9 at row 2: ")
    config = tmp_path / "config.json"
    config.write_bytes('{"out_dir": "caf\xe9"}'.encode("latin-1"))
    assert main(["synth", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: 'utf-8' codec can't decode "
                                              "byte 0xe9 at row 1: ")
