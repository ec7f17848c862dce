"""Span tracing of ratecraft's layers, installed from outside the package.

`Tracer.install` rebinds every public function of the traced modules on each
module that holds it: the defining module, every caller module that imported
the name (``cli.load_meter_csv``, ``segmentation.backtest_cv``,
``forecast.predict_day`` ...) and the package namespace. Calls that go through
a module global therefore pass through the wrapper; nothing under ``src/`` is
edited. The two `Dataset` properties that do data-sized work, `usage_stack`
(builds the stacked copy) and `consumer_ids` (builds the id tuple on every
access), are replaced by traced properties.

Each wrapper records one span ``[name, start, end, parent]`` in memory;
`write_trace` dumps them when the run ends. Some functions also have an
observer that reads a few facts from the call (group size, file size, RSS).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from pathlib import Path

LAYERS = ("ingest", "types", "costs", "solver", "forecast", "segmentation", "simulate", "cli")

MIB = 1024 * 1024
MB = 1e6


def rss_mib() -> float:
    """Current resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / MIB


def _arg(name, index):
    """Observer helper: the argument `name` (positional slot `index`) of a call."""
    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[index]
    return get


def _observers():
    meter_path = _arg("path", 0)
    written_path = _arg("path", 1)
    dataset = _arg("dataset", 0)
    group = _arg("u", 1)

    def load_meter(args, kwargs, result):
        return {"bytes": os.path.getsize(meter_path(args, kwargs)), "rss_mib": rss_mib()}

    def write_meter(args, kwargs, result):
        return {"bytes": os.path.getsize(written_path(args, kwargs))}

    def usage_stack(args, kwargs, result):
        return {"mib": result.nbytes / MIB, "rss_mib": rss_mib()}

    def backtest(args, kwargs, result):
        ds, u = dataset(args, kwargs), group(args, kwargs)
        return {"m": int(u.cardinality),
                "profile_bytes": ds.n_consumers * ds.n_days * 24 * 8}

    def segment(args, kwargs, result):
        return {"rounds": len(result.groups), "met": len(result.threshold_met_groups())}

    return {
        "ingest.load_meter_csv": load_meter,
        "ingest.write_meter_csv": write_meter,
        "types.Dataset.usage_stack": usage_stack,
        "solver.solve_min_lambda": lambda a, k, r: {"iterations": int(r.iterations)},
        "forecast.backtest_cv": backtest,
        "segmentation.segment_population": segment,
        "simulate.replay_validate": lambda a, k, r: {"days": int(r.n_days)},
    }


class Tracer:
    """In-memory span recorder with import-site wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.last_args: dict[str, tuple] = {}

    def wrap(self, name, fn, observe=None, keep_args=False):
        spans, stack, attrs, clock = self.spans, self._stack, self.attrs, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                attrs[idx] = observe(args, kwargs, result)
            if keep_args:
                self.last_args[name] = (args, kwargs)
            return result

        return traced

    def install(self):
        """Wrap every public function of LAYERS at each module that binds it."""
        package = importlib.import_module("ratecraft")
        modules = {layer: importlib.import_module(f"ratecraft.{layer}") for layer in LAYERS}
        sites = [package, *modules.values()]
        observers = _observers()
        for layer, module in modules.items():
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{fname}"
                wrapper = self.wrap(name, fn, observers.get(name),
                                    keep_args=name == "segmentation.segment_population")
                for site in sites:
                    if vars(site).get(fname) is fn:
                        self._restore.append((site, fname, fn))
                        setattr(site, fname, wrapper)

        dataset_cls = modules["types"].Dataset
        for attr in ("usage_stack", "consumer_ids"):
            original = vars(dataset_cls)[attr]
            name = f"types.Dataset.{attr}"
            if isinstance(original, functools.cached_property):
                traced = functools.cached_property(self.wrap(name, original.func, observers.get(name)))
                traced.__set_name__(dataset_cls, attr)
            else:
                traced = property(self.wrap(name, original.fget, observers.get(name)))
            self._restore.append((dataset_cls, attr, original))
            setattr(dataset_cls, attr, traced)

    def uninstall(self):
        while self._restore:
            site, fname, original = self._restore.pop()
            setattr(site, fname, original)

    def write_trace(self, path: Path, origin: float):
        """Write spans (times in seconds from `origin`) and observed facts as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "span_fields": ["name_index", "start_s", "end_s", "parent_index"],
            "names": names,
            "spans": [[index[n], round(s - origin, 7), round(e - origin, 7), p]
                      for n, s, e, p in self.spans],
            "attrs": {str(i): a for i, a in sorted(self.attrs.items())},
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


class SpanSummary:
    """Durations, self times and counts over spans [0, stop) of a tracer."""

    def __init__(self, tracer: Tracer, stop: int):
        self.spans = tracer.spans[:stop]
        self.attrs = tracer.attrs
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

        self._by_name: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            self._by_name.setdefault(span[0], []).append(i)

    def indices(self, name) -> list[int]:
        return self._by_name.get(name, [])

    def count(self, name) -> int:
        return len(self.indices(name))

    def seconds(self, name) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.indices(name))

    def layer_self(self, layer) -> float:
        prefix = layer + "."
        return sum(t for t, s in zip(self.self_time, self.spans) if s[0].startswith(prefix))

    def observed(self, name, key) -> list:
        return [self.attrs[i][key] for i in self.indices(name) if i in self.attrs]


def _ratio(num, den):
    return num / den if den else None


def _mean(values):
    return statistics.fmean(values) if values else None


def layer_metrics(summary: SpanSummary) -> dict[str, float | int | None]:
    """Per-layer metrics of one traced pass; None where the layer did not run."""
    s = summary
    write_s = s.seconds("ingest.write_meter_csv")
    load_s = s.seconds("ingest.load_meter_csv")
    solve_idx = s.indices("solver.solve_min_lambda")
    seg_idx = set(s.indices("segmentation.segment_population"))
    probes = sum(1 for i in solve_idx if s.spans[i][3] in seg_idx)
    met_rounds = sum(s.observed("segmentation.segment_population", "met"))
    backtests = s.count("forecast.backtest_cv")
    rounds = s.observed("segmentation.segment_population", "rounds")
    replay_days = s.observed("simulate.replay_validate", "days")
    stack_mib = s.observed("types.Dataset.usage_stack", "mib")
    load_rss = s.observed("ingest.load_meter_csv", "rss_mib")
    stack_rss = s.observed("types.Dataset.usage_stack", "rss_mib")
    segmented = bool(seg_idx)
    replayed = bool(replay_days)
    return {
        "ingest.synth_population_s": s.seconds("ingest.synth_population"),
        "ingest.write_meter_s": write_s,
        "ingest.write_meter_mb_per_s": _ratio(sum(s.observed("ingest.write_meter_csv", "bytes")) / MB, write_s),
        "ingest.load_meter_s": load_s,
        "ingest.load_meter_mb_per_s": _ratio(sum(s.observed("ingest.load_meter_csv", "bytes")) / MB, load_s),
        "ingest.load_price_s": s.seconds("ingest.load_price_csv"),
        "ingest.align_s": s.seconds("ingest.align"),
        "types.usage_stack_s": s.seconds("types.Dataset.usage_stack"),
        "types.usage_mib": max(stack_mib) if stack_mib else None,
        "types.rss_after_load_mib": max(load_rss) if load_rss else None,
        "types.rss_after_stack_mib": max(stack_rss) if stack_rss else None,
        "types.consumer_ids_s": s.seconds("types.Dataset.consumer_ids") if s.count("types.Dataset.consumer_ids") else None,
        "costs.consumer_stats_calls": s.count("costs.consumer_stats"),
        "costs.consumer_stats_s": s.seconds("costs.consumer_stats"),
        "solver.solve_calls": len(solve_idx),
        "solver.solve_s": s.seconds("solver.solve_min_lambda"),
        "solver.self_s": s.layer_self("solver"),
        "solver.feasibility_tests": s.count("solver.feasibility_test"),
        "solver.feasibility_s": s.seconds("solver.feasibility_test"),
        "solver.iterations_per_solve": _mean(s.observed("solver.solve_min_lambda", "iterations")),
        "forecast.self_s": s.layer_self("forecast"),
        "forecast.predict_day_calls": s.count("forecast.predict_day"),
        "forecast.backtests": backtests,
        "forecast.backtest_s": s.seconds("forecast.backtest_cv") if backtests else None,
        "forecast.mean_group_size": _mean(s.observed("forecast.backtest_cv", "m")),
        "forecast.cv_curve_s": s.seconds("forecast.cv_curve") if s.count("forecast.cv_curve") else None,
        "forecast.profile_bytes_computed": sum(s.observed("forecast.backtest_cv", "profile_bytes")),
        "segmentation.segment_population_s": s.seconds("segmentation.segment_population") if segmented else None,
        "segmentation.self_s": s.layer_self("segmentation") if segmented else None,
        "segmentation.rounds": sum(rounds),
        "segmentation.sizes_probed": probes,
        "segmentation.probe_yield": _ratio(met_rounds, probes),
        "segmentation.stability_audit_s": s.seconds("segmentation.stability_audit") if segmented else None,
        "simulate.replay_s": s.seconds("simulate.replay_validate") if replayed else None,
        "simulate.replay_days": sum(replay_days),
        "cli.self_s": s.layer_self("cli"),
    }


def command_coverage(summary: SpanSummary) -> list[float]:
    """Per command span (cli.main): share of its time covered by other layers' spans, in %."""
    out = []
    for i in summary.indices("cli.main"):
        _, start, end, _ = summary.spans[i]
        cli_self = sum(summary.self_time[j] for j in _descendants(summary, i)
                       if summary.spans[j][0].startswith("cli."))
        out.append(100.0 * (1.0 - cli_self / (end - start)))
    return out


def _descendants(summary: SpanSummary, root: int) -> list[int]:
    start, end = summary.spans[root][1], summary.spans[root][2]
    return [root] + [j for j in range(root + 1, len(summary.spans))
                     if summary.spans[j][1] >= start and summary.spans[j][2] <= end]
