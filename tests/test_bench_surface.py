"""The package names the benchmark's tracer and half-population rerun depend on.

`bench/tracer.py` wraps public functions at their import sites and reads a few
attributes of their arguments, and `bench/run.py` rebuilds a `Dataset` from a
slice of another's consumers. A rename in `src/` would break the benchmark
without failing any other test here, so this runs the benchmark's commands
under its tracer, imported from `bench/` by path, and checks every per-layer
metric that BENCHMARK.json gates.
"""

import importlib.util
import json
from pathlib import Path

from ratecraft import cli
from ratecraft.ingest import SynthSpec, synth_population
from ratecraft.types import Dataset

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_fill_every_gated_layer_metric(tmp_path):
    tracer_module = _load_tracer()
    data = ["--meter", str(tmp_path / "meter.csv"), "--prices", str(tmp_path / "prices.csv"),
            "--out-dir", str(tmp_path)]
    commands = [
        ["synth", "--n", "40", "--days", "40", "--seed", "7", "--out-dir", str(tmp_path)],
        ["solve", "--m", "10", *data],
        ["segment", "--cv-threshold", "10", *data],
        ["simulate", "--design", "one_sided", "--selection", str(tmp_path / "selection.csv"),
         *data],
    ]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]

    summary = tracer_module.SpanSummary(tracer, len(tracer.spans))
    metrics = tracer_module.layer_metrics(summary)
    gated = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checked = [name for name in gated if name in metrics]
    assert "forecast.predict_day_calls" in checked and "solver.feasibility_tests" in checked
    for name in checked:
        assert metrics[name] is not None and metrics[name] != 0, name


def test_dataset_rebuilds_from_a_slice_of_consumers():
    ds = synth_population(SynthSpec(n_consumers=40, n_days=40, seed=7))
    k = ds.n_consumers // 2
    half = Dataset(ds.consumers[:k], ds.prices, ds.train_days, ds.validate_days)
    assert half.consumer_ids == ds.consumer_ids[:k]
    assert half.usage_stack.shape == (k, ds.n_days, 24)
