"""Output checks for the benchmark's CLI commands, in plain numpy.

A check reads the files a command wrote (as bytes, keyed by file name, next
to the files earlier commands of the same pass wrote) and raises CheckError
at the first problem. At the pinned seed the SHA-256 of every output is also
compared with `digests.json`; the property checks run at every seed.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

OUTPUTS = {
    "synth": ("meter.csv", "prices.csv"),
    "solve": ("selection.csv",),
    "simulate": ("settlement.csv",),
    "segment": ("segmentation.json", "rounds.csv", "assignments.csv"),
    "curves": ("lambda_curve.csv", "cv_curve.csv"),
}

HOUR_COLS = ",".join(f"h{h:02d}" for h in range(24))
METER_HEADER = "consumer_id,date," + HOUR_COLS
PRICE_HEADER = "date,market," + HOUR_COLS

# Values in the CSVs carry 9 decimals, so a rate read back may be off by half of 1e-9.
FORMAT_SLACK = 1e-9


class CheckError(Exception):
    """An output file is wrong."""


@dataclass(frozen=True)
class Params:
    """The command parameters the checks depend on (CLI defaults for gamma and split)."""

    n: int
    days: int = 120
    m: int = 50
    cv_threshold: float = 10.0
    trials: int = 200
    gamma: float = 1e-6
    split: float = 0.75

    @property
    def train_days(self) -> int:
        return int(self.split * self.days + 0.5)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _lines(data: bytes, name: str, header: str, newline: str = "\n") -> list[str]:
    """Data lines of a text output after checking its header; csv-module files end in CRLF."""
    text = data.decode("ascii")
    _require(text.endswith(newline), f"{name}: lines do not end in {newline!r}")
    lines = text[: -len(newline)].split(newline)
    _require(lines[0] == header, f"{name}: header {lines[0][:40]!r}")
    return lines[1:]


def _loadtxt(data: bytes, skiprows: int, rows: int, name: str) -> np.ndarray:
    try:
        values = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=skiprows,
                            usecols=range(2, 26), ndmin=2)
    except ValueError as exc:
        raise CheckError(f"{name}: {exc}") from None
    _require(values.shape == (rows, 24), f"{name}: value shape {values.shape}")
    _require(bool(np.all(np.isfinite(values)) and np.all(values >= 0)), f"{name}: bad values")
    scaled = values * 1e4
    _require(float(np.abs(scaled - np.round(scaled)).max()) < 1e-6, f"{name}: not 4 decimals")
    return values


class Population:
    """Meter and price CSVs parsed with numpy, plus per-consumer t and w."""

    def __init__(self, meter: bytes, prices: bytes, p: Params):
        n, days = p.n, p.days
        unit, _, table = prices.partition(b"\n")
        _require(unit == b"#unit=cents_per_kwh", f"prices.csv: unit line {unit[:40]!r}")
        price_rows = _lines(table, "prices.csv", PRICE_HEADER, "\r\n")
        keys = [line.split(",", 2)[:2] for line in _lines(meter, "meter.csv", METER_HEADER, "\r\n")]
        _require(len(keys) == n * days, f"meter.csv: {len(keys)} rows, expected {n * days}")
        self.ids = [k[0] for k in keys[::days]]
        _require(len(set(self.ids)) == n, "meter.csv: consumer ids are not distinct")
        _require([k[0] for k in keys] == [c for c in self.ids for _ in range(days)],
                 "meter.csv: rows are not grouped by consumer")
        self.dates = [k[1] for k in keys[:days]]
        first = dt.date.fromisoformat(self.dates[0])
        _require(self.dates == [(first + dt.timedelta(d)).isoformat() for d in range(days)],
                 "meter.csv: dates are not consecutive")
        _require([k[1] for k in keys] == self.dates * n, "meter.csv: consumers cover other dates")
        self.usage = _loadtxt(meter, 1, n * days, "meter.csv").reshape(n, days, 24)
        _require(bool(np.all(self.usage.sum(axis=(1, 2)) > 0)), "meter.csv: a consumer uses nothing")

        labels = [line.split(",", 2)[:2] for line in price_rows]
        _require(labels == [[d, mk] for mk in ("DA", "RT") for d in self.dates],
                 "prices.csv: dates or markets do not match the meter file")
        self.day_ahead = _loadtxt(prices, 2, 2 * days, "prices.csv")[:days]

        train = p.train_days
        self.t = np.einsum("idh,dh->i", self.usage[:, :train], self.day_ahead[:train])
        self.w = self.usage[:, :train].sum(axis=(1, 2))
        self.index = {cid: i for i, cid in enumerate(self.ids)}

    def indices(self, ids, name) -> np.ndarray:
        missing = [c for c in ids if c not in self.index]
        _require(not missing, f"{name}: ids not in meter.csv: {missing[:3]}")
        return np.array([self.index[c] for c in ids], dtype=np.intp)

    def rate(self, idx) -> float:
        return float(self.t[idx].sum() / self.w[idx].sum())


def curve_sizes(n: int) -> list[int]:
    """The CLI's default `curves` grid: 20 log-spaced sizes from 1 to n."""
    return sorted({int(round(g)) for g in np.logspace(0, np.log10(n), 20)})


class Checker:
    """Checks a workload's outputs; `digests` maps file names to pinned SHA-256 digests."""

    def __init__(self, params: Params, digests: dict[str, str] | None = None):
        self.p = params
        self.digests = digests
        self._population: dict[tuple[str, str], Population] = {}

    def check(self, command: str, files: dict[str, bytes]):
        """Raise CheckError unless the outputs of `command` in `files` are correct."""
        for name in OUTPUTS[command]:
            _require(name in files, f"{name}: not written")
            if self.digests is not None:
                _require(sha256(files[name]) == self.digests[name], f"{name}: digest differs")
        try:
            getattr(self, "_" + command)(files)
        except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
            raise CheckError(f"{command}: unreadable output ({type(exc).__name__}: {exc})") from None

    def without_digests(self) -> "Checker":
        """A checker of the properties alone, sharing this one's parsed inputs."""
        other = Checker(self.p)
        other._population = self._population
        return other

    def population(self, files) -> Population:
        key = (sha256(files["meter.csv"]), sha256(files["prices.csv"]))
        if key not in self._population:
            self._population[key] = Population(files["meter.csv"], files["prices.csv"], self.p)
        return self._population[key]

    def _synth(self, files):
        self.population(files)

    def _solve(self, files):
        pop = self.population(files)
        ids = _lines(files["selection.csv"], "selection.csv", "consumer_id")
        _require(len(ids) == self.p.m and len(set(ids)) == self.p.m,
                 f"selection.csv: {len(ids)} ids, {len(set(ids))} unique, expected {self.p.m}")
        lam = pop.rate(pop.indices(ids, "selection.csv"))
        # No M-group has rate <= lam - gamma iff the M smallest of t - (lam - gamma) w sum > 0.
        v = pop.t - (lam - self.p.gamma) * pop.w
        _require(float(np.partition(v, self.p.m - 1)[: self.p.m].sum()) > 0,
                 f"selection.csv: a group beats rate {lam:.9f} by more than gamma")

    def _simulate(self, files):
        pop = self.population(files)
        members = pop.indices(_lines(files["selection.csv"], "selection.csv", "consumer_id"),
                              "selection.csv")
        rows = _lines(files["settlement.csv"], "settlement.csv",
                      "day_index,date,demand_kwh,purchased_kwh,cost_cents")
        train = self.p.train_days
        _require(len(rows) == self.p.days - train, f"settlement.csv: {len(rows)} days")
        demand = pop.usage[members].sum(axis=(0, 2))
        for k, row in enumerate(rows):
            day, date, used, bought, cost = row.split(",")
            d = train + k
            _require(int(day) == d and date == pop.dates[d], f"settlement.csv: row {k + 1} day")
            _require(abs(float(used) - demand[d]) <= 1.5e-4, f"settlement.csv: day {d} demand")
            _require(float(bought) >= 0 and math.isfinite(float(cost)) and float(cost) >= 0,
                     f"settlement.csv: day {d} purchase or cost")

    def _segment(self, files):
        pop = self.population(files)
        payload = json.loads(files["segmentation.json"])
        p = self.p
        _require(payload["cv_threshold"] == p.cv_threshold
                 and payload["leftover_policy"] == "aggregate", "segmentation.json: parameters")
        groups = payload["groups"]
        _require([g["round"] for g in groups] == list(range(1, len(groups) + 1)),
                 "segmentation.json: rounds are not numbered 1..G")
        met = [g["threshold_met"] for g in groups]
        _require(all(met[:-1]), "segmentation.json: only the last group may miss the threshold")
        every = [c for g in groups for c in g["member_ids"]]
        _require(len(every) == p.n and sorted(every) == sorted(pop.ids),
                 "segmentation.json: groups are not an exact partition")
        for g in groups:
            idx = pop.indices(g["member_ids"], "segmentation.json")
            _require(g["size"] == len(idx), f"segmentation.json: round {g['round']} size")
            _require(not g["threshold_met"] or g["cv_percent"] <= p.cv_threshold,
                     f"segmentation.json: round {g['round']} CV above threshold")
            _require(math.isclose(g["rate_cents_per_kwh"], pop.rate(idx), rel_tol=1e-9),
                     f"segmentation.json: round {g['round']} rate")
        _require(payload["stability_audit"]["violations"] == [], "segmentation.json: audit violations")
        rounds = _lines(files["rounds.csv"], "rounds.csv",
                        "round,size,rate_cents_per_kwh,cv_percent,threshold_met")
        _require(rounds == [f"{g['round']},{g['size']},{g['rate_cents_per_kwh']:.9f},"
                            f"{g['cv_percent']:.9f},{str(g['threshold_met']).lower()}"
                            for g in groups], "rounds.csv: differs from segmentation.json")
        assigned = _lines(files["assignments.csv"], "assignments.csv",
                          "consumer_id,group_round,group_rate_cents_per_kwh")
        _require(assigned == [f"{c},{g['round']},{g['rate_cents_per_kwh']:.9f}"
                              for g in groups for c in g["member_ids"]],
                 "assignments.csv: differs from segmentation.json")

    def _curves(self, files):
        pop = self.population(files)
        sizes = curve_sizes(self.p.n)
        slack = self.p.gamma + FORMAT_SLACK
        rows = [r.split(",") for r in _lines(files["lambda_curve.csv"], "lambda_curve.csv",
                                             "M,lambda_cents_per_kwh")]
        _require([int(m) for m, _ in rows] == sizes, "lambda_curve.csv: sizes are not the default grid")
        lam = [float(v) for _, v in rows]
        _require(all(b >= a - slack for a, b in zip(lam, lam[1:])),
                 "lambda_curve.csv: lambda decreases in M by more than gamma")
        ratios = pop.t / pop.w
        _require(abs(lam[0] - float(ratios.min())) <= slack, "lambda_curve.csv: lambda(1)")
        _require(abs(lam[-1] - float(pop.t.sum() / pop.w.sum())) <= slack,
                 "lambda_curve.csv: lambda(n) is not the population rate")
        cv_rows = [r.split(",") for r in _lines(files["cv_curve.csv"], "cv_curve.csv",
                                                "M,kind,cv,ci_low,ci_high")]
        _require([(int(r[0]), r[1]) for r in cv_rows]
                 == [(m, kind) for m in sizes for kind in ("random", "optimal")],
                 "cv_curve.csv: rows are not one random and one optimal point per size")
        for m, kind, cv, lo, hi in cv_rows:
            cv = float(cv)
            _require(math.isfinite(cv) and cv > 0, f"cv_curve.csv: M={m} {kind} cv")
            if kind == "random":
                _require(0 <= float(lo) <= cv <= float(hi), f"cv_curve.csv: M={m} band")
            else:
                _require(lo == hi == "", f"cv_curve.csv: M={m} optimal row has a band")


def corrupt_first_data_byte(data: bytes) -> bytes:
    """Change the first byte of the second line (the first data row of most outputs)."""
    pos = data.index(b"\n") + 1
    old = chr(data[pos])
    new = str((int(old) + 5) % 10) if old.isdigit() else ("y" if old == "x" else "x")
    return data[:pos] + new.encode() + data[pos + 1:]


def self_test(checker: Checker, command: str, files: dict[str, bytes]) -> list[str]:
    """Corrupt one byte of each output of `command`; return the files whose corruption passed.

    Digests would catch any corruption, so only the property checks are tested.
    """
    checker = checker.without_digests()
    missed = []
    for name in OUTPUTS[command]:
        try:
            checker.check(command, {**files, name: corrupt_first_data_byte(files[name])})
        except CheckError:
            continue
        missed.append(name)
    return missed
