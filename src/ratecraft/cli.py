"""Batch command-line front end.

Subcommands: synth, solve, curves, segment, simulate. Every parameter is one
row of the `_PARAMS` table, which gives its name, type, default, help text,
choices, range check and the subcommands that take its flag. The table builds
each subcommand's parser, and it resolves every value as CLI flag > JSON
config file (--config, keys mirror flag names with underscores) > built-in
default before checking it; the defaults are visible in each subcommand's
--help. An unknown config key, a `config` key, or a config value that its
parameter's type would reject or change (a path or choice must be a JSON
string, a size list a string of comma-separated integers or a list of ints),
is a usage error that names the file and key. `synth` reads no split. All
randomized procedures derive their streams from the single --seed. Output
files are written atomically (unique temp file + rename) with fixed numeric
formatting, so re-running a command with identical flags and seed yields
byte-identical files. Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

from . import __version__
from .costs import consumer_stats
from .forecast import MIN_TRAIN_DAYS, cv_curve
from .ingest import (
    DEFAULT_TRAIN_SPLIT,
    EmptyTrainWindow,
    SynthSpec,
    _decode,
    _text_lines,
    align,
    atomic_write,
    load_meter_csv,
    load_price_csv,
    synth_population,
    write_meter_csv,
    write_price_csv,
)
from .segmentation import default_size_grid, segment_population, stability_audit
from .simulate import replay_validate
from .solver import DEFAULT_GAMMA, lambda_curve, solve_min_lambda
from .types import Dataset, SelectionVector

_ALL = ("synth", "solve", "curves", "segment", "simulate")
_DATA = _ALL[1:]  # the commands that read a meter and a price CSV


@dataclass(frozen=True)
class _Param:
    """One parameter: flag --name with dashes, config and params key name."""

    name: str
    type: type  # int, float or str: converts a flag; a config value must be of this type
    default: object
    help: str
    commands: tuple[str, ...]  # the subcommands that take the flag
    choices: Optional[tuple[str, ...]] = None
    check: Optional[tuple[Callable, str]] = None  # (valid(value), message if not)
    required: bool = False
    parse: Optional[Callable] = None  # turns flag text or a config value into the value

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _size_list(value) -> list[int]:
    """The sorted distinct sizes in a comma-separated string or a list of ints."""
    if isinstance(value, list) and all(type(v) is int for v in value):
        return sorted(set(value))
    if not isinstance(value, str):
        raise ValueError(f"expected a string or a list of integers, got {value!r}")
    try:
        return sorted({int(tok) for tok in value.split(",") if tok.strip()})
    except ValueError:
        raise ValueError(f"expected a comma-separated list of integers, got {value!r}") from None


_PARAMS = (
    _Param("out_dir", str, ".", "output directory", _ALL),
    _Param("config", str, None, "JSON config file; flags override its keys", _ALL),
    _Param("gamma", float, DEFAULT_GAMMA, "solver tolerance in cents/kWh",
           ("solve", "curves", "segment"),
           check=(lambda v: v > 0, "gamma must be > 0")),
    _Param("seed", int, 0, "master random seed", _ALL,
           check=(lambda v: v >= 0, "seed must be >= 0")),
    _Param("meter", str, None, "meter CSV path", _DATA, required=True),
    _Param("prices", str, None, "price CSV path", _DATA, required=True),
    _Param("split", float, DEFAULT_TRAIN_SPLIT, "train fraction of days", _DATA,
           check=(lambda v: 0.0 < v <= 1.0, "split must be in (0, 1]")),
    _Param("n", int, 200, "number of consumers", ("synth",)),
    _Param("days", int, 90, "number of days", ("synth",)),
    _Param("fraction_peaky", float, 0.5, "share of evening-peaking consumers", ("synth",)),
    _Param("base_kwh", float, 10.0, "mean daily kWh per consumer", ("synth",)),
    _Param("noise_cv", float, 0.3, "day-to-day noise coefficient of variation", ("synth",)),
    _Param("m", int, None, "group size", ("solve",), required=True,
           check=(lambda v: v >= 1, "m must be >= 1")),
    _Param("sizes", str, None, "comma-separated group sizes (default: log-spaced grid)",
           ("curves",), parse=_size_list,
           check=(lambda v: bool(v) and v[0] >= 1, "sizes must be positive integers")),
    _Param("trials", int, 30, "random groups per size", ("curves",),
           check=(lambda v: v >= 1, "trials must be >= 1")),
    _Param("cv_threshold", float, 10.0, "forecast-error limit in percent", ("segment",),
           check=(lambda v: v > 0, "cv-threshold must be > 0")),
    _Param("policy", str, "aggregate", "leftover policy", ("segment",),
           choices=("aggregate", "drop")),
    _Param("size_grid", str, None, "comma-separated candidate sizes (default: log-spaced grid)",
           ("segment",), parse=_size_list,
           check=(lambda v: bool(v) and v[0] >= 1, "size-grid must be positive integers")),
    _Param("selection", str, None, "selection CSV of consumer ids (default: everyone)",
           ("simulate",)),
    _Param("design", str, "two_sided", "settlement design", ("simulate",),
           choices=("two_sided", "one_sided")),
    _Param("days_limit", int, None, "replay at most this many validate days", ("simulate",),
           check=(lambda v: v >= 1, "days-limit must be >= 1")),
)


def _help(param: _Param) -> str:
    if param.required:
        return f"{param.help} (required)"
    if param.default is None:
        return param.help
    return f"{param.help} (default {param.default})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratecraft",
        description="Aggregate electricity consumers into minimum-cost rate groups.",
    )
    parser.add_argument("--version", action="version", version=f"ratecraft {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for param in _PARAMS:
            if command in param.commands:
                p.add_argument(param.flag, type=param.type, choices=param.choices,
                               help=_help(param))
    return parser


def _load_config(path) -> dict:
    """The config file's values by parameter name, converted as their flags would be.

    The file is UTF-8 JSON, past one leading byte-order mark; every error names it.
    """
    if path is None:
        return {}
    try:
        cfg = json.loads(_decode(Path(path).read_bytes(), path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    params = {p.name: p for p in _PARAMS}
    for key, value in cfg.items():
        if key not in params:
            raise ValueError(f"{path}: unknown config key {key!r}")
        if key == "config":
            raise ValueError(f"{path}: config key 'config': a config file cannot name another")
        cfg[key] = _config_value(path, params[key], value)
    return cfg


def _config_value(path, param: _Param, value):
    """`value` as `param.type`, refused if it fails to convert or would change (a bool, 2.7 as int).

    A str parameter takes only a JSON string; a parameter with `parse` takes what that takes.
    """
    key, kind = param.name, param.type
    if param.parse is not None:
        try:
            return param.parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}: config key {key!r}: {exc}") from None
    if kind is str:
        if isinstance(value, str):
            return value
        raise ValueError(f"{path}: config key {key!r}: expected str, got {value!r}")
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or isinstance(value, bool) or (
            isinstance(value, float) and converted != value):
        raise ValueError(f"{path}: config key {key!r}: expected {kind.__name__}, got {value!r}")
    return converted


def _resolve(command: str, args, cfg: dict) -> dict:
    """Every parameter `command` reads, as flag > config > default, converted and checked."""
    params_of = [p for p in _PARAMS if command in p.commands]
    params = {}
    for p in params_of:
        value = getattr(args, p.name, None)
        if value is None:
            value = cfg.get(p.name, p.default)
        elif p.parse is not None:
            value = p.parse(value)
        params[p.name] = value
    for p in params_of:
        value = params[p.name]
        if value is None:
            if p.required:
                raise ValueError(f"{p.flag} is required")
        elif p.choices is not None and value not in p.choices:
            raise ValueError(f"{p.name} must be {' or '.join(p.choices)}")
        elif p.check is not None and not p.check[0](value):
            raise ValueError(p.check[1])
    return params


class _UsageError(ValueError):
    """A parameter found unusable once its command runs, mostly by its data (exit 2, not 1)."""


def _load_dataset(params) -> Dataset:
    consumers = load_meter_csv(params["meter"])
    prices = load_price_csv(params["prices"])
    return align(consumers, prices, params["split"])


def _load_split_dataset(params) -> Dataset:
    """Reject split 1.0 unloaded, then a split that leaves no validate day or too few train days."""
    if params["split"] == 1.0:
        raise _UsageError("split must be < 1: the validate window would be empty")
    dataset = _load_dataset(params)
    if dataset.validate_days < 1:
        raise _UsageError("validate window is empty")
    if dataset.train_days < MIN_TRAIN_DAYS:
        raise _UsageError(f"training window too short: need at least {MIN_TRAIN_DAYS} days")
    return dataset


def _out_dir(params) -> Path:
    out = Path(params["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_files(params, files: dict[str, str]) -> Path:
    """Write each text of `files` by its name into the output directory, and return that."""
    out = _out_dir(params)
    for name, text in files.items():
        atomic_write(out / name, [text.encode()])
    return out


def _csv(header: str, rows) -> str:
    return "".join(f"{line}\n" for line in [header, *rows])


# -- synth ------------------------------------------------------------------


def _run_synth(params):
    try:
        spec = SynthSpec(
            n_consumers=params["n"],
            n_days=params["days"],
            fraction_peaky=params["fraction_peaky"],
            base_kwh_per_day=params["base_kwh"],
            noise_cv=params["noise_cv"],
            seed=params["seed"],
        )
        dataset = synth_population(spec)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    out = _out_dir(params)
    write_meter_csv(list(dataset.consumers), out / "meter.csv")
    write_price_csv(dataset.prices, out / "prices.csv")
    n_peaky = sum(1 for c in dataset.consumers if c.consumer_id.startswith("peak"))
    print(f"consumers={dataset.n_consumers} days={dataset.n_days}")
    print(f"archetypes: peak={n_peaky} night={dataset.n_consumers - n_peaky}")
    print(f"wrote {out / 'meter.csv'} and {out / 'prices.csv'}")


# -- solve ------------------------------------------------------------------


def _run_solve(params):
    dataset = _load_dataset(params)
    if params["m"] > dataset.n_consumers:
        raise ValueError(f"m={params['m']} exceeds population size {dataset.n_consumers}")
    stats = consumer_stats(dataset)
    result = solve_min_lambda(stats, params["m"], params["gamma"])
    members = result.selection.indices
    certificate = float((stats.t - result.lambda_star * stats.w)[members].sum())
    consumer_ids = dataset.consumer_ids
    ids = [consumer_ids[i] for i in members]

    out = _write_files(params, {"selection.csv": _csv("consumer_id", ids)})
    print(f"lambda_star={result.lambda_star:.9f} cents/kWh")
    print(f"iterations={result.iterations}")
    print(f"certificate={certificate:.9e}")
    print(f"members={','.join(ids)}")
    print(f"wrote {out / 'selection.csv'}")


# -- curves -----------------------------------------------------------------


def _run_curves(params):
    dataset = _load_split_dataset(params)
    sizes = params["sizes"] or default_size_grid(dataset.n_consumers, smallest=1)
    if sizes[-1] > dataset.n_consumers:
        raise _UsageError(f"largest size {sizes[-1]} exceeds population {dataset.n_consumers}")
    stats = consumer_stats(dataset)

    lam_points = lambda_curve(stats, sizes, params["gamma"])
    lam_rows = [f"{m},{lam:.9f}" for m, lam in lam_points]

    curve = cv_curve(dataset, sizes, n_random_trials=params["trials"],
                     gamma=params["gamma"], seed=params["seed"])
    cv_rows = []
    for point in curve.points:
        if point.kind == "random":
            lo, hi = curve.random_ci[point.m]
            cv_rows.append(f"{point.m},random,{point.cv:.9f},{lo:.9f},{hi:.9f}")
        else:
            cv_rows.append(f"{point.m},optimal,{point.cv:.9f},,")

    out = _write_files(params, {"lambda_curve.csv": _csv("M,lambda_cents_per_kwh", lam_rows),
                                "cv_curve.csv": _csv("M,kind,cv,ci_low,ci_high", cv_rows)})
    print(f"sizes={','.join(str(m) for m in sizes)}")
    print(f"wrote {out / 'lambda_curve.csv'} and {out / 'cv_curve.csv'}")


# -- segment ----------------------------------------------------------------


def _run_segment(params):
    dataset = _load_split_dataset(params)
    result = segment_population(
        dataset,
        cv_threshold=params["cv_threshold"],
        size_grid=params["size_grid"],
        gamma=params["gamma"],
        leftover_policy=params["policy"],
    )
    stats = consumer_stats(dataset)
    audit = stability_audit(result, stats, params["gamma"])
    consumer_ids = dataset.consumer_ids

    payload = {
        "cv_threshold": params["cv_threshold"],
        "leftover_policy": params["policy"],
        "gamma": params["gamma"],
        "groups": [
            {
                "round": g.round,
                "size": g.size,
                "rate_cents_per_kwh": g.rate,
                "cv_percent": g.cv,
                "threshold_met": g.threshold_met,
                "member_ids": [consumer_ids[i] for i in g.members.indices],
            }
            for g in result.groups
        ],
        "stability_audit": asdict(audit),
    }

    rounds_rows = [
        f"{g.round},{g.size},{g.rate:.9f},{g.cv:.9f},{str(g.threshold_met).lower()}"
        for g in result.groups
    ]
    assign_rows = []
    for g in result.groups:
        for i in g.members.indices:
            assign_rows.append(f"{consumer_ids[i]},{g.round},{g.rate:.9f}")

    out = _write_files(params, {
        "segmentation.json": json.dumps(payload, indent=2) + "\n",
        "rounds.csv": _csv("round,size,rate_cents_per_kwh,cv_percent,threshold_met", rounds_rows),
        "assignments.csv": _csv("consumer_id,group_round,group_rate_cents_per_kwh", assign_rows),
    })
    print(f"groups={len(result.groups)} assigned={result.n_assigned} of {dataset.n_consumers}")
    print(f"audit: pairs={audit.pairs_checked} moves={audit.moves_checked} "
          f"violations={len(audit.violations)}")
    print(f"wrote {out / 'segmentation.json'}, {out / 'rounds.csv'}, {out / 'assignments.csv'}")


# -- simulate ---------------------------------------------------------------


def _read_selection_ids(path) -> list[str]:
    lines = _text_lines(path)
    if lines[0] != "consumer_id":
        raise ValueError(f"{path}: expected a selection CSV with header consumer_id")
    ids = [line for line in lines[1:] if line]
    if not ids:
        raise ValueError(f"{path}: no consumer ids")
    first = {}  # each id's first index
    for i, cid in enumerate(ids):
        if first.setdefault(cid, i) != i:
            raise ValueError(f"{path}: duplicate consumer id {cid}")
    return ids


def _run_simulate(params):
    dataset = _load_split_dataset(params)
    selection = None
    if params["selection"] is not None:
        ids = _read_selection_ids(params["selection"])
        index = {cid: i for i, cid in enumerate(dataset.consumer_ids)}
        missing = [cid for cid in ids if cid not in index]
        if missing:
            raise ValueError(f"{params['selection']}: selection ids not in dataset: "
                             f"{', '.join(missing[:5])}")
        selection = SelectionVector(dataset.n_consumers, [index[c] for c in ids])
    limit = params["days_limit"]
    if limit is not None and limit > dataset.validate_days:
        raise _UsageError(f"--days-limit {limit} exceeds the {dataset.validate_days} validate days")
    report = replay_validate(dataset, selection=selection, design=params["design"], n_days=limit)

    rows = []
    for s in report.settlements:
        rows.append(
            f"{s.day_index},{dataset.date_of_row(s.day_index).isoformat()},"
            f"{float(s.consumed.sum()):.4f},{float(s.purchased.sum()):.4f},{s.cost:.6f}"
        )
    out = _write_files(params, {
        "settlement.csv": _csv("day_index,date,demand_kwh,purchased_kwh,cost_cents", rows)})
    print(f"design={report.design} days={report.n_days} demand_kwh={report.demand_kwh:.4f}")
    print(f"realized_rate={report.realized_rate:.9f} cents/kWh")
    print(f"lambda={report.lambda_rate:.9f} cents/kWh")
    print(f"penalty_gap={report.penalty_gap:.9f} expected_gap={report.expected_gap:.9f}")
    print(f"wrote {out / 'settlement.csv'}")


_COMMANDS = {  # name: (help, run)
    "synth": ("write a synthetic meter and price CSV pair", _run_synth),
    "solve": ("find the minimum-rate group of a given size", _run_solve),
    "curves": ("rate and forecast-error curves over group sizes", _run_curves),
    "segment": ("partition the population into rate groups", _run_segment),
    "simulate": ("replay the validate window under realized prices", _run_simulate),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    _, execute = _COMMANDS[args.command]
    try:
        params = _resolve(args.command, args, _load_config(args.config))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        execute(params)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (_UsageError, EmptyTrainWindow)) else 1
    return 0


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
