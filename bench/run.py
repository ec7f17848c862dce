"""ratecraft benchmark: wall time of real CLI commands on synthetic populations.

    python3 bench/run.py --workload segment_n4k --seed 7 --seconds 55 --trace 0

A run is one fresh process and a closed loop with one client. It runs the
workload's command sequence (a *pass*: `synth`, then the commands that read
its CSVs) once through ``ratecraft.cli.main(argv)``, then fills the rest of
``--seconds`` with *steps*, back to back: a step is either `synth` alone or the
analysis commands together, reading the first pass's CSVs. The next step is
the kind with the least time spent so far, among those that would still end
within ``--seconds``, so `synth` gets as much of the run as the analysis and
both are sampled across the whole run. Every pass and step writes into its own
directory under ``.bench_work/``, which is removed at exit.

``--trace 0`` reports the end-to-end metrics of the untraced pass and steps.
``--trace 1`` runs one untraced pass and then the same pass with the layer
wrappers of `tracer.py` installed, and reports the per-layer metrics; the spans
go to ``.bench_out/<workload>-seed<seed>.spans.json``.

Every command's outputs are checked (see `checks.py`). A nonzero exit, a
crash or a failed check counts as one failed operation. The last line of
stdout is the JSON result; the lines above it print every metric, including
those that only some workloads exercise, with the machine and input record,
which also goes to ``.bench_out/<workload>-seed<seed>-trace<k>.json``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import OUTPUTS, Checker, CheckError, Params, self_test, sha256
from machine import MIB, machine_record
from tracer import SpanSummary, Tracer, command_coverage, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"

# name: (consumers, commands of one pass)
WORKLOADS = {
    "io_n2k": (2000, ("synth", "solve", "simulate")),
    "segment_n4k": (4000, ("synth", "segment")),
    "curves_n1k": (1000, ("synth", "curves")),
}
# --smoke: the same commands on tiny populations, for the benchmark's own tests.
SMOKE_CONSUMERS = {"io_n2k": 60, "segment_n4k": 80, "curves_n1k": 40}
SMOKE_TRIALS = 5

PINNED_SEED = 7  # outputs at this seed must match digests.json
SETUP_PROBES = 5

# Every metric the run can print, with its unit; BENCHMARK.json picks the ones in the JSON line.
UNITS = {
    "setup_s": "s", "synth_s": "s", "analysis_s": "s", "peak_rss_mib": "MiB",
    "solve_s": "s", "simulate_s": "s", "segment_s": "s", "curves_s": "s",
    "ingest.synth_population_s": "s", "ingest.write_meter_s": "s",
    "ingest.write_meter_mb_per_s": "MB/s", "ingest.load_meter_s": "s",
    "ingest.load_meter_mb_per_s": "MB/s", "ingest.load_price_s": "s", "ingest.align_s": "s",
    "types.usage_stack_s": "s", "types.usage_mib": "MiB",
    "types.rss_after_load_mib": "MiB", "types.rss_after_stack_mib": "MiB", "types.consumer_ids_s": "s",
    "costs.consumer_stats_calls": "count", "costs.consumer_stats_s": "s",
    "solver.solve_calls": "count", "solver.solve_s": "s", "solver.self_s": "s",
    "solver.feasibility_tests": "count", "solver.feasibility_s": "s",
    "solver.iterations_per_solve": "count",
    "forecast.self_s": "s", "forecast.predict_day_calls": "count",
    "forecast.backtests": "count", "forecast.backtest_s": "s",
    "forecast.mean_group_size": "consumers", "forecast.cv_curve_s": "s",
    "forecast.profile_bytes_computed": "B",
    "segmentation.segment_population_s": "s", "segmentation.self_s": "s",
    "segmentation.rounds": "count", "segmentation.sizes_probed": "count",
    "segmentation.probe_yield": "ratio", "segmentation.stability_audit_s": "s",
    "segmentation.growth_exponent": "1",
    "simulate.replay_s": "s", "simulate.replay_days": "count",
    "cli.self_s": "s", "trace.overhead_pct": "%", "trace.span_coverage_pct": "%",
}

# Cold set-up: a fresh interpreter imports the package and creates its workspace.
SETUP_PROBE = (
    "import sys, time, pathlib\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import ratecraft, ratecraft.cli\n"
    "pathlib.Path(sys.argv[2]).mkdir(parents=True)\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass
class Command:
    name: str
    code: int | None  # None: the command raised
    seconds: float
    log: str
    digests: dict[str, str] = field(default_factory=dict)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def import_cli():
    """Import ratecraft from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import ratecraft.cli

    if SRC.resolve() not in Path(ratecraft.__file__).resolve().parents:
        raise ImportError(f"ratecraft was imported from {ratecraft.__file__}, not from {SRC}")
    return ratecraft.cli


def command_argv(name: str, p: Params, seed: int, out: Path) -> list[str]:
    data = ["--meter", str(out / "meter.csv"), "--prices", str(out / "prices.csv"),
            "--out-dir", str(out), "--seed", str(seed)]
    if name == "synth":
        return ["synth", "--n", str(p.n), "--days", str(p.days), "--seed", str(seed),
                "--out-dir", str(out)]
    if name == "solve":
        return ["solve", "--m", str(p.m), *data]
    if name == "simulate":
        return ["simulate", "--design", "one_sided", "--selection", str(out / "selection.csv"), *data]
    if name == "segment":
        return ["segment", "--cv-threshold", str(p.cv_threshold), "--policy", "aggregate", *data]
    if name == "curves":
        return ["curves", "--trials", str(p.trials), *data]
    raise ValueError(f"unknown command {name}")


def run_pass(cli, commands, p: Params, seed: int, out: Path, inputs: Path | None = None
             ) -> list[Command]:
    """Run `commands` back to back in the new directory `out`.

    With `inputs`, the CSVs `synth` wrote there are hard-linked into `out` first,
    so the analysis commands of a step read the first pass's population.
    """
    out.mkdir(parents=True)
    if inputs is not None:
        for name in OUTPUTS["synth"]:
            if (inputs / name).exists():  # else the commands fail and count as failed
                os.link(inputs / name, out / name)
    done = []
    for name in commands:
        argv = command_argv(name, p, seed, out)
        gc.collect()
        log = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(argv)
        except Exception:  # a crash is one failed operation; the run goes on
            code = None
            log.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        written = {f: sha256((out / f).read_bytes()) for f in OUTPUTS[name] if (out / f).exists()}
        done.append(Command(name, code, seconds, log.getvalue(), written))
    return done


def check_passes(checker: Checker, first_dir: Path, passes: list[list[Command]]) -> dict:
    """Check the first pass's files, and that later passes and steps wrote identical bytes.

    Marks failed commands. The self-test corrupts one byte of each output that
    passed and lists in "missed" those whose corruption the checks let through.
    """
    files = {f.name: f.read_bytes() for f in first_dir.iterdir() if f.is_file()}
    tested, missed = [], []
    for cmd in passes[0]:
        if cmd.code != 0:
            cmd.error = f"exit code {cmd.code}"
            continue
        try:
            checker.check(cmd.name, files)
        except CheckError as exc:
            cmd.error = str(exc)
            continue
        tested += OUTPUTS[cmd.name]
        missed += self_test(checker, cmd.name, files)
    first = {cmd.name: cmd for cmd in passes[0]}
    for later in passes[1:]:
        for cmd in later:
            ref = first[cmd.name]
            if cmd.code != 0:
                cmd.error = f"exit code {cmd.code}"
            elif cmd.digests != ref.digests or ref.failed:
                cmd.error = "outputs differ from the checked first pass"
    return {"tested": tested, "missed": missed}


def setup_seconds(work: Path) -> list[float]:
    times = []
    for k in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(work / f"setup{k}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return times


def untraced_run(cli, commands, p, seed, seconds, work, checker):
    setup = setup_seconds(work)
    first = work / "pass0"
    synth, analysis = commands[:1], commands[1:]
    start = time.perf_counter()
    passes = [run_pass(cli, commands, p, seed, first)]
    # wall time of each step so far, by kind; the first pass counts as one of each
    walls = {"synth": [passes[0][0].seconds], "analysis": [sum(c.seconds for c in passes[0][1:])]}
    while True:
        elapsed = time.perf_counter() - start
        fits = [kind for kind in sorted(walls, key=lambda kind: sum(walls[kind]))
                if elapsed + statistics.median(walls[kind]) <= seconds]
        if not fits:
            break
        out = work / f"step{len(passes)}"
        began = time.perf_counter()
        if fits[0] == "synth":
            passes.append(run_pass(cli, synth, p, seed, out))
        else:
            passes.append(run_pass(cli, analysis, p, seed, out, inputs=first))
        shutil.rmtree(out)  # hashed; the first pass holds the checked files
        walls[fits[0]].append(time.perf_counter() - began)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    selftest = check_passes(checker, first, passes)

    def median_of(names):
        return statistics.median(sum(c.seconds for c in ps if c.name in names)
                                 for ps in passes if any(c.name in names for c in ps))

    metrics = {
        "setup_s": statistics.median(setup),
        "synth_s": median_of(set(synth)),
        "analysis_s": median_of(set(analysis)),
        "peak_rss_mib": peak_rss,
    }
    for name in analysis:
        metrics[f"{name}_s"] = median_of({name})
    return passes, selftest, metrics, {"setup_samples_s": setup}


def half_population_seconds(tracer: Tracer) -> float:
    """Traced time of segment_population on the first n/2 consumers of the traced call."""
    from ratecraft import segmentation
    from ratecraft.types import Dataset

    args, kwargs = tracer.last_args["segmentation.segment_population"]
    full = args[0]
    half = Dataset(full.consumers[: full.n_consumers // 2], full.prices,
                   full.train_days, full.validate_days)
    gc.collect()
    first = len(tracer.spans)
    segmentation.segment_population(half, *args[1:], **kwargs)
    return tracer.spans[first][2] - tracer.spans[first][1]


def traced_run(cli, commands, p, seed, work, checker, spans_path: Path):
    reference = run_pass(cli, commands, p, seed, work / "pass0")
    tracer = Tracer()
    tracer.install()
    try:
        origin = time.perf_counter()
        traced = run_pass(cli, commands, p, seed, work / "pass1")
        stop = len(tracer.spans)
        t_half = half_population_seconds(tracer) if "segment" in commands else None
    finally:
        tracer.uninstall()
    tracer.write_trace(spans_path, origin)
    passes = [reference, traced]
    selftest = check_passes(checker, work / "pass0", passes)

    summary = SpanSummary(tracer, stop)
    metrics = layer_metrics(summary)
    t_full = metrics["segmentation.segment_population_s"]
    metrics["segmentation.growth_exponent"] = math.log2(t_full / t_half) if t_half else None
    command_s = sum(c.seconds for c in traced)
    metrics["trace.overhead_pct"] = 100.0 * (command_s / sum(c.seconds for c in reference) - 1.0)
    metrics["trace.span_coverage_pct"] = 100.0 * (1.0 - metrics["cli.self_s"] / command_s)
    extra = {
        "coverage_pct_by_command": dict(zip(commands, command_coverage(summary))),
        "spans": stop,
        "half_population_segment_s": t_half,
    }
    return passes, selftest, metrics, extra


def files_record(first_dir: Path, first_pass: list[Command]) -> dict:
    """Size and SHA-256 of every file the first pass wrote; the data commands read some of them."""
    return {name: {"bytes": (first_dir / name).stat().st_size, "sha256": digest}
            for cmd in first_pass for name, digest in cmd.digests.items()}


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, record, metrics, passes, selftest, spec) -> dict:
    m = record["machine"]
    print(f"ratecraft benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"smoke={args.smoke} passes and steps={len(passes)}")
    print(f"machine: Python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"BLAS {m['blas']} with {m['blas_threads']} threads, nproc {m['nproc']}, "
          f"CPU {m['cpu_model']}, LLC {fmt(m['llc_mib'])} MiB")
    print("caches: " + ", ".join(f"L{c['level']} {c['type']} {c['bytes'] // 1024} KiB"
                                 for c in m["caches"]))
    for name in ("meter.csv", "prices.csv", "selection.csv"):
        if name in record["files"]:
            info = record["files"][name]
            print(f"input {name}: {info['bytes']} B sha256 {info['sha256']}")
    usage, llc = record["usage_mib"], m["llc_mib"]
    if llc:
        muted = ("fits in the last-level cache, so memory-bandwidth effects are muted"
                 if usage < llc else "exceeds the last-level cache")
        print(f"usage array: {usage:.1f} MiB per n x days x 24 float64 copy, "
              f"{usage / llc:.2f} x LLC ({llc:.0f} MiB): {muted}")
    for k, ps in enumerate(passes):
        label = "pass" if k == 0 else "traced pass" if args.trace else "step"
        print(f"{label} {k}: " + ", ".join(
            f"{c.name} {c.seconds:.3f} s" + (f" FAILED ({c.error})" if c.failed else "")
            for c in ps))
        for c in ps:
            if c.failed and c.log:
                print(f"  {c.name} output: " + c.log.strip().replace("\n", "\n  "))
    caught = [f for f in selftest["tested"] if f not in selftest["missed"]]
    print(f"self-test: one corrupted byte caught in {len(caught)} of "
          f"{len(selftest['tested'])} outputs" + "".join(f"; MISSED in {f}" for f in selftest["missed"]))
    for name, value in metrics.items():
        print(f"metric {name} = {fmt(value)} {UNITS[name]}")

    wanted = [e["name"] for e in spec["per_layer" if args.trace else "end_to_end"]]
    commands = [c for ps in passes for c in ps]
    failed = sum(c.failed for c in commands)
    return {
        "correct": failed == 0 and not selftest["missed"],
        "attempted": len(commands),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in wanted},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny populations (tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cli = import_cli()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    n, commands = WORKLOADS[args.workload]
    if args.smoke:
        params = Params(n=SMOKE_CONSUMERS[args.workload], trials=SMOKE_TRIALS)
    else:
        params = Params(n=n)
    digests = None  # property checks only
    if args.seed == PINNED_SEED and not args.smoke:
        digests = json.loads((BENCH / "digests.json").read_text())["workloads"].get(args.workload)
    unpinned = args.seed == PINNED_SEED and not args.smoke and digests is None
    checker = Checker(params, digests)

    stem = f"{args.workload}-seed{args.seed}"
    work = WORK / f"{stem}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    try:
        work.mkdir(parents=True)
        if args.trace:
            spans_path = RESULTS / f"{stem}.spans.json"
            passes, selftest, metrics, extra = traced_run(
                cli, commands, params, args.seed, work, checker, spans_path)
            extra["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            passes, selftest, metrics, extra = untraced_run(
                cli, commands, params, args.seed, args.seconds, work, checker)
        record = {
            "machine": machine_record(),
            "files": files_record(work / "pass0", passes[0]),
            "usage_mib": params.n * params.days * 24 * 8 / MIB,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = report(args, record, metrics, passes, selftest, spec)
    if unpinned:  # the result file's "files" hold the digests to pin
        print(f"error: digests.json pins no outputs of {args.workload} at seed {PINNED_SEED}")
        result["correct"] = False
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        **record, **extra, "result": result, "all_metrics": metrics,
        "commands": [[{"name": c.name, "seconds": c.seconds, "code": c.code, "error": c.error}
                      for c in ps] for ps in passes],
    }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
