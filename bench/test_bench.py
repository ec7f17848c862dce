"""Tests of the benchmark itself, at the --smoke size.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import ratecraft  # noqa: E402
from ratecraft import cli, forecast, segmentation, solver  # noqa: E402
from ratecraft.types import Dataset  # noqa: E402

import run  # noqa: E402
from checks import OUTPUTS, Checker, CheckError, Params, corrupt_first_data_byte, self_test, sha256  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_contract_json(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] != 0, m["name"]
    if trace:  # every layer metric, in the JSON line or not, is printed by name
        printed = [name for name in run.UNITS if "." in name]
    else:
        printed = [m["name"] for m in wanted] + [f"{c}_s" for c in run.WORKLOADS[workload][1][1:]]
    for name in printed:
        assert f"metric {name} = " in done.stdout


def test_units_cover_benchmark_json():
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.UNITS[m["name"]] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "io_n2k", "--seed", "7", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every command's outputs on a tiny population, as bytes keyed by file name."""
    out = tmp_path_factory.mktemp("out")
    params = Params(n=60, trials=3)
    for name in ("synth", "solve", "simulate", "segment", "curves"):
        assert cli.main(run.command_argv(name, params, 5, out)) == 0
    return params, {f.name: f.read_bytes() for f in out.iterdir()}


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_checks_pass_and_catch_one_corrupt_byte(outputs, command):
    params, files = outputs
    digests = {name: sha256(files[name]) for names in OUTPUTS.values() for name in names}
    pinned = Checker(params, digests)
    pinned.check(command, files)
    Checker(params).check(command, files)
    for name in OUTPUTS[command]:
        with pytest.raises(CheckError):
            pinned.check(command, {**files, name: corrupt_first_data_byte(files[name])})
    assert self_test(pinned, command, files) == []


def test_solve_check_rejects_a_suboptimal_group(outputs):
    params, files = outputs
    ids = files["selection.csv"].decode().split("\n")[1:-1]
    others = [line.split(",", 1)[0] for line in files["meter.csv"].decode().split("\r\n")[1:-1:120]]
    swapped = ids[1:] + [next(c for c in others if c not in ids)]
    bad = ("consumer_id\n" + "".join(c + "\n" for c in swapped)).encode()
    with pytest.raises(CheckError, match="beats"):
        Checker(params).check("solve", {**files, "selection.csv": bad})


def test_wrappers_bind_import_sites_and_restore():
    originals = (cli.load_meter_csv, segmentation.backtest_cv, forecast.predict_day,
                 solver.feasibility_test, ratecraft.solve_min_lambda, Dataset.usage_stack,
                 Dataset.consumer_ids)
    tracer = Tracer()
    tracer.install()
    try:
        for site, name in ((cli, "load_meter_csv"), (cli, "segment_population"),
                           (segmentation, "solve_min_lambda"), (segmentation, "backtest_cv"),
                           (forecast, "solve_min_lambda"), (forecast, "backtest_cv"),
                           (forecast, "predict_day"), (solver, "feasibility_test"),
                           (solver, "lambda_curve")):
            assert getattr(site, name).__wrapped__ is not None, (site.__name__, name)
        assert segmentation.solve_min_lambda is solver.solve_min_lambda
    finally:
        tracer.uninstall()
    assert (cli.load_meter_csv, segmentation.backtest_cv, forecast.predict_day,
            solver.feasibility_test, ratecraft.solve_min_lambda, Dataset.usage_stack,
            Dataset.consumer_ids) == originals
