import codecs
import csv
import datetime as dt
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ratecraft import ingest
from ratecraft.costs import consumer_stats
from ratecraft.ingest import (
    METER_HEADER,
    PRICE_HEADER,
    SynthSpec,
    _archetype_shape,
    align,
    atomic_write,
    load_meter_csv,
    load_price_csv,
    synth_population,
    write_meter_csv,
    write_price_csv,
)
from ratecraft.types import ConsumerSeries, Dataset, HourlyMatrix, PriceSeries

START = dt.date(2021, 1, 4)


def _meter_lines(rows):
    header = "consumer_id,date," + ",".join(f"h{h:02d}" for h in range(24))
    return "\n".join([header] + rows) + "\n"


def _price_lines(rows, unit="cents_per_kwh"):
    header = "date,market," + ",".join(f"h{h:02d}" for h in range(24))
    return "\n".join([f"#unit={unit}", header] + rows) + "\n"


def _day_cells(value):
    return ",".join(f"{value:.4f}" for _ in range(24))


def _strict_meter_rows(path):
    """The row-by-row reference of the meter rules. Each row is checked in one order: a double
    quote or a carriage return, the field count, an empty id, the date, then each reading by
    the one rule (the text np.loadtxt takes, finite, >= 0). Then each consumer's dates are
    checked, in order of first appearance, and only then are the consumers built."""
    path = str(path)
    with open(path, "rb") as fh:
        lines = fh.read().removeprefix(codecs.BOM_UTF8).decode("utf-8").split("\n")
    if lines[0].removesuffix("\r") != ",".join(METER_HEADER):
        raise ValueError(f"{path}: expected meter header consumer_id,date,h00,...")
    days_of = {}
    for row, text in enumerate(lines[1:], start=2):
        text = text.removesuffix("\r")
        if not text:
            continue
        fields = text.split(",")
        cid = fields[0]
        if '"' in text or "\r" in text:
            if '"' in cid or "\r" in cid:
                raise ValueError(f"{path}: consumer id {cid!r} at row {row} contains a comma, "
                                 "quote or line break")
            raise ValueError(f"{path}: double quote or carriage return at row {row}")
        if len(fields) != 26:
            raise ValueError(f"{path}: wrong column count at row {row}")
        if not cid:
            raise ValueError(f"{path}: empty consumer id at row {row}")
        try:
            if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", fields[1], re.ASCII):
                raise ValueError
            date = dt.date.fromisoformat(fields[1])
        except ValueError:
            raise ValueError(f"{path}: bad date {fields[1]!r} at row {row}") from None
        values = []
        for cell in fields[2:]:
            try:
                (value,) = np.loadtxt([f"0,{cell}"], delimiter=",", usecols=[1], comments=None,
                                      ndmin=1)
            except ValueError:
                raise ValueError(f"{path}: non-numeric reading at row {row}") from None
            values.append(value)
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: non-finite reading at row {row}")
        if (np.array(values) < 0).any():
            raise ValueError(f"{path}: negative reading at row {row}")
        days_of.setdefault(cid, []).append((date, values))
    if not days_of:
        raise ValueError(f"{path}: no meter rows")
    for cid, days in days_of.items():
        for (prev, _), (cur, _) in zip(days, days[1:]):
            if cur == prev:
                raise ValueError(f"{path}: consumer {cid}: duplicate date {cur.isoformat()}")
            if cur < prev:
                raise ValueError(f"{path}: consumer {cid}: dates out of order at {cur.isoformat()}")
            if cur > prev + dt.timedelta(days=1):
                gap = prev + dt.timedelta(days=1)
                raise ValueError(f"{path}: consumer {cid}: gap at {gap.isoformat()}")
    return [ConsumerSeries(cid, HourlyMatrix(np.array([v for _, v in days]), days[0][0]))
            for cid, days in days_of.items()]


def test_meter_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    consumers = [
        ConsumerSeries("a", HourlyMatrix(np.round(rng.uniform(0, 2, (3, 24)), 4), START)),
        ConsumerSeries("b", HourlyMatrix(np.round(rng.uniform(0, 2, (3, 24)), 4), START)),
    ]
    path = tmp_path / "meter.csv"
    write_meter_csv(consumers, path)
    loaded = load_meter_csv(path)
    assert [c.consumer_id for c in loaded] == ["a", "b"]
    for orig, back in zip(consumers, loaded):
        assert np.array_equal(orig.usage.values, back.usage.values)
        assert back.usage.start_date == START


def test_meter_negative_reading(tmp_path):
    rows = [
        "a,2021-01-04," + _day_cells(1.0),
        "a,2021-01-05," + ",".join(["-0.2000" if h == 5 else "1.0000" for h in range(24)]),
    ]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows))
    with pytest.raises(ValueError, match="negative reading at row 3"):
        load_meter_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_meter_non_finite_reading(tmp_path, cell):
    rows = [
        "a,2021-01-04," + _day_cells(1.0),
        "a,2021-01-05," + ",".join([cell if h == 7 else "1.0000" for h in range(24)]),
    ]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows))
    with pytest.raises(ValueError, match=f"{path}: non-finite reading at row 3"):
        load_meter_csv(path)


def test_price_non_finite_reading(tmp_path):
    cells = ",".join(["nan" if h == 18 else "2.0000" for h in range(24)])
    path = tmp_path / "prices.csv"
    path.write_text(_price_lines(["2021-01-04,DA," + cells, "2021-01-04,RT," + _day_cells(2.0)]))
    with pytest.raises(ValueError, match="non-finite reading at row 3"):
        load_price_csv(path)


def test_atomic_write_removes_temp_file_on_error(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def failing():
        yield b"partial"
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        atomic_write(target, failing())
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "old\n"


def test_atomic_write_gives_default_file_mode(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    target = tmp_path / "out.csv"
    atomic_write(target, [b"a\n"])
    assert target.read_text() == "a\n"
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("cid", ['peak,00000', 'say "hi"', "a\rb", "a\nb"])
def test_meter_rejects_ids_that_break_csv_output(tmp_path, cid):
    quoted = '"' + cid.replace('"', '""') + '"'
    rows = [
        "b,2021-01-04," + _day_cells(1.0),
        quoted + ",2021-01-04," + _day_cells(1.0),
    ]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows), newline="")
    with pytest.raises(ValueError, match=f"{path}: consumer id .* at row 3 contains a comma"):
        load_meter_csv(path)


def test_meter_gap(tmp_path):
    # every date break names the file, then the consumer, as the price loader names its market
    path = tmp_path / "meter.csv"
    for dates, fault in [
        (["2021-01-01", "2021-01-03"], "gap at 2021-01-02"),
        (["2021-01-01", "2021-01-01"], "duplicate date 2021-01-01"),
        (["2021-01-02", "2021-01-01"], "dates out of order at 2021-01-01"),
    ]:
        path.write_text(_meter_lines([f"a,{d}," + _day_cells(1.0) for d in dates]))
        for load in (load_meter_csv, _strict_meter_rows):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: consumer a: {fault}')}$"):
                load(path)


def test_meter_zero_consumer(tmp_path):
    rows = [
        "a,2021-01-04," + _day_cells(0.0),
        "b,2021-01-04," + _day_cells(1.0),
    ]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows))
    with pytest.raises(ValueError, match="consumer a has zero total usage"):
        load_meter_csv(path)


def test_meter_bad_header(tmp_path):
    """A header line ends in LF or CRLF only: one more CR before them is part of the header."""
    path = tmp_path / "meter.csv"
    for text in ("consumer,date,h00\n", _meter_lines([]).replace("\n", "\r\r\n")):
        path.write_text(text, newline="")
        with pytest.raises(ValueError, match="meter header"):
            load_meter_csv(path)


def test_price_bad_header(tmp_path):
    path = tmp_path / "prices.csv"
    rows = ["2021-01-04,DA," + _day_cells(1.0), "2021-01-04,RT," + _day_cells(1.0)]
    header = "date,market," + ",".join(f"h{h:02d}" for h in range(24))
    for bad in ("date,market,h00", header + "\r\r"):  # then LF: a CR CR LF line end
        path.write_text(_price_lines(rows).replace(header, bad), newline="")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected price header "):
            load_price_csv(path)


def test_price_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    da = np.round(rng.uniform(1, 5, (3, 24)), 4)
    rt = np.round(rng.uniform(1, 5, (3, 24)), 4)
    prices = PriceSeries(HourlyMatrix(da, START), HourlyMatrix(rt, START))
    path = tmp_path / "prices.csv"
    write_price_csv(prices, path)
    loaded = load_price_csv(path)
    assert np.array_equal(loaded.day_ahead.values, da)
    assert np.array_equal(loaded.real_time.values, rt)
    assert loaded.start_date == START


def test_price_usd_per_mwh_conversion(tmp_path):
    rows = [
        "2021-01-04,DA," + _day_cells(30.0),
        "2021-01-04,RT," + _day_cells(40.0),
    ]
    path = tmp_path / "prices.csv"
    path.write_text(_price_lines(rows, unit="usd_per_mwh"))
    loaded = load_price_csv(path)
    assert np.allclose(loaded.day_ahead.values, 3.0)  # 1 $/MWh = 0.1 cents/kWh
    assert np.allclose(loaded.real_time.values, 4.0)


def test_price_date_mismatch(tmp_path):
    rows = [
        "2021-01-04,DA," + _day_cells(3.0),
        "2021-01-05,DA," + _day_cells(3.0),
        "2021-01-04,RT," + _day_cells(3.0),
    ]
    path = tmp_path / "prices.csv"
    path.write_text(_price_lines(rows))
    with pytest.raises(ValueError, match="market date ranges differ"):
        load_price_csv(path)


def test_price_unknown_unit(tmp_path):
    """An unknown unit is echoed, cut to 40 characters: a unit line with no line end runs to
    the end of the file. The unit line is compared as exactly as the header: a space or tab
    after the unit makes it unknown, and one before `#unit=` leaves no unit line."""
    path = tmp_path / "prices.csv"
    rows = ["2021-01-04,DA," + _day_cells(3.0), "2021-01-04,RT," + _day_cells(3.0)]
    for text, message in (
        (_price_lines(rows[:1], unit="eur_per_mwh"), "unknown price unit 'eur_per_mwh'"),
        ("#unit=" + "x" * 100_000, f"unknown price unit {'x' * 40!r}"),
        (_price_lines(rows, unit="cents_per_kwh "), "unknown price unit 'cents_per_kwh '"),
        (_price_lines(rows, unit="cents_per_kwh\t"), "unknown price unit 'cents_per_kwh\\t'"),
        (_price_lines(rows, unit="usd_per_mwh" + " " * 40),
         f"unknown price unit {'usd_per_mwh' + ' ' * 29!r}"),
        (" " + _price_lines(rows), "missing #unit= metadata line"),
        ("\t" + _price_lines(rows), "missing #unit= metadata line"),
    ):
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ValueError) as exc:
            load_price_csv(path)
        assert str(exc.value) == f"{path}: {message}"
    path.write_text(_price_lines(rows), encoding="utf-8", newline="")
    assert load_price_csv(path).day_ahead.values[0, 0] == 3.0


@pytest.mark.parametrize("text, message", [
    (_price_lines(["2021-01-04,DA," + _day_cells(3.0)]).split("\n", 1)[1],
     "missing #unit= metadata line"),
    (_price_lines(["2021-01-04,DA," + _day_cells(3.0)[:-7]]), "wrong column count at row 3"),
    (_price_lines(["2021-01-04,DA," + _day_cells(3.0)]), "no RT rows"),
], ids=["no-unit-line", "columns", "no-rt-rows"])
def test_price_file_faults_name_the_file(tmp_path, text, message):
    path = tmp_path / "prices.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ValueError) as exc:
        load_price_csv(path)
    assert str(exc.value) == f"{path}: {message}"


def test_price_unknown_market(tmp_path):
    rows = ["2021-01-04,XX," + _day_cells(3.0)]
    path = tmp_path / "prices.csv"
    path.write_text(_price_lines(rows))
    with pytest.raises(ValueError, match="unknown market"):
        load_price_csv(path)


@pytest.mark.parametrize("market", ["DA", "RT"])
@pytest.mark.parametrize("dates, fault", [
    (["2021-01-04", "2021-01-06"], "gap at 2021-01-05"),
    (["2021-01-04", "2021-01-04"], "duplicate date 2021-01-04"),
    (["2021-01-05", "2021-01-04"], "dates out of order at 2021-01-04"),
])
def test_price_date_breaks_name_the_file_and_the_market(tmp_path, market, dates, fault):
    other = {"DA": "RT", "RT": "DA"}[market]
    rows = [f"{d},{other}," + _day_cells(3.0) for d in ("2021-01-04", "2021-01-05")]
    rows += [f"{d},{market}," + _day_cells(3.0) for d in dates]
    path = tmp_path / "prices.csv"
    path.write_text(_price_lines(rows), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {market} market: {fault}')}$"):
        load_price_csv(path)


def _series(start, days, value=1.0):
    return HourlyMatrix(np.full((days, 24), value), start)


def test_align_intersection():
    consumers = [ConsumerSeries("a", _series(dt.date(2021, 1, 1), 10))]
    prices = PriceSeries(_series(dt.date(2021, 1, 5), 11, 3.0), _series(dt.date(2021, 1, 5), 11, 3.0))
    ds = align(consumers, prices, split=0.5)
    assert ds.start_date == dt.date(2021, 1, 5)
    assert ds.n_days == 6  # Jan 5 through Jan 10
    assert ds.prices.day_ahead.end_date == dt.date(2021, 1, 10)


def test_align_shares_series_that_span_the_common_range():
    start = dt.date(2021, 1, 1)
    consumers = [ConsumerSeries("a", _series(start, 6)), ConsumerSeries("b", _series(start, 6))]
    prices = PriceSeries(_series(start, 6, 3.0), _series(start, 6, 3.0))
    ds = align(consumers, prices, split=0.5)
    for before, after in zip(consumers, ds.consumers):
        assert after is before
    assert ds.prices.day_ahead.values is prices.day_ahead.values

    longer = ConsumerSeries("c", _series(dt.date(2020, 12, 30), 9, 2.0))
    ds = align(consumers + [longer], prices, split=0.5)
    assert ds.consumers[2] is not longer
    cut = ds.consumers[2].usage
    assert (cut.start_date, cut.n_days) == (start, 6)
    assert cut.values is not longer.usage.values
    assert np.array_equal(cut.values, longer.usage.values[2:8])
    assert ds.consumers[0] is consumers[0]


def test_align_split_rounding():
    consumers = [ConsumerSeries("a", _series(dt.date(2021, 1, 1), 12))]
    prices = PriceSeries(_series(dt.date(2021, 1, 1), 12, 3.0), _series(dt.date(2021, 1, 1), 12, 3.0))
    ds = align(consumers, prices, split=0.75)
    assert ds.train_days == 9
    assert ds.validate_days == 3


def test_split_out_of_range_is_rejected():
    consumers = [ConsumerSeries("a", _series(dt.date(2021, 1, 1), 4))]
    prices = PriceSeries(_series(dt.date(2021, 1, 1), 4, 3.0), _series(dt.date(2021, 1, 1), 4, 3.0))
    for split in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"split must be in \(0, 1\]"):
            align(consumers, prices, split=split)


def test_align_disjoint():
    consumers = [ConsumerSeries("a", _series(dt.date(2021, 1, 1), 3))]
    prices = PriceSeries(_series(dt.date(2021, 2, 1), 3, 3.0), _series(dt.date(2021, 2, 1), 3, 3.0))
    with pytest.raises(ValueError, match="no overlapping dates"):
        align(consumers, prices, split=0.5)

    def refusal(spans, price_span):
        consumers = [ConsumerSeries(cid, _series(first, days)) for cid, first, days in spans]
        series = _series(*price_span, 3.0)
        with pytest.raises(ValueError) as exc:
            align(consumers, PriceSeries(series, series), split=0.5)
        return str(exc.value)

    jan1, feb1 = dt.date(2021, 1, 1), dt.date(2021, 2, 1)
    assert refusal([("a", jan1, 3)], (feb1, 3)) == (  # prices after the meters
        "no overlapping dates: the latest start is 2021-02-01 (prices) "
        "and the earliest end is 2021-01-03 (consumer a)")
    assert refusal([("a", feb1, 3)], (jan1, 3)) == (  # prices before them
        "no overlapping dates: the latest start is 2021-02-01 (consumer a) "
        "and the earliest end is 2021-01-03 (prices)")
    assert refusal([("a", jan1, 3), ("b", dt.date(2021, 1, 10), 3), ("c", jan1, 31)],
                   (jan1, 31)) == (  # two consumers that do not overlap each other
        "no overlapping dates: the latest start is 2021-01-10 (consumer b) "
        "and the earliest end is 2021-01-03 (consumer a)")
    with pytest.raises(ValueError, match="^no consumers to align$"):
        align([], prices, split=0.5)


def test_synth_zero_noise_is_deterministic():
    ds = synth_population(SynthSpec(n_consumers=2, n_days=2, fraction_peaky=0.0, noise_cv=0.0))
    u0, u1 = ds.consumers[0].usage.values, ds.consumers[1].usage.values
    assert np.array_equal(u0, u1)  # same archetype, no noise
    assert np.array_equal(u0[0], u0[1])  # day 1 equals day 2


def test_synth_zero_noise_no_day_variance():
    ds = synth_population(SynthSpec(n_consumers=5, n_days=10, noise_cv=0.0, seed=4))
    for c in ds.consumers:
        assert np.allclose(c.usage.values.std(axis=0), 0.0)


def test_synth_seeded_determinism():
    a = synth_population(SynthSpec(n_consumers=7, n_days=9, seed=7))
    b = synth_population(SynthSpec(n_consumers=7, n_days=9, seed=7))
    assert np.array_equal(a.usage_stack, b.usage_stack)
    assert np.array_equal(a.prices.day_ahead.values, b.prices.day_ahead.values)
    assert np.array_equal(a.prices.real_time.values, b.prices.real_time.values)
    c = synth_population(SynthSpec(n_consumers=7, n_days=9, seed=8))
    assert not np.array_equal(a.usage_stack, c.usage_stack)


def test_synth_peaky_archetype_costs_more():
    ds = synth_population(SynthSpec(n_consumers=1000, n_days=30, fraction_peaky=0.5, seed=6))
    # direct evaluation: per-consumer rate = price-weighted usage over total usage
    prices = ds.prices.day_ahead.values
    peak_rates, night_rates = [], []
    for c in ds.consumers:
        rate = float((prices * c.usage.values).sum() / c.usage.values.sum())
        (peak_rates if c.consumer_id.startswith("peak") else night_rates).append(rate)
    assert len(peak_rates) == 500
    assert np.mean(peak_rates) > np.mean(night_rates)


def test_synth_archetype_split_count():
    ds = synth_population(SynthSpec(n_consumers=10, n_days=5, fraction_peaky=0.3, seed=1))
    n_peak = sum(1 for c in ds.consumers if c.consumer_id.startswith("peak"))
    assert n_peak == 3


def test_synth_csv_roundtrip_exact(tmp_path):
    ds = synth_population(SynthSpec(n_consumers=6, n_days=8, seed=12))
    write_meter_csv(list(ds.consumers), tmp_path / "meter.csv")
    write_price_csv(ds.prices, tmp_path / "prices.csv")
    consumers = load_meter_csv(tmp_path / "meter.csv")
    prices = load_price_csv(tmp_path / "prices.csv")
    back = align(consumers, prices, split=0.75)
    assert np.array_equal(back.usage_stack, ds.usage_stack)
    assert np.array_equal(back.prices.day_ahead.values, ds.prices.day_ahead.values)
    assert np.array_equal(back.prices.real_time.values, ds.prices.real_time.values)


def _assert_usage_stack(ds, shared):
    """usage_stack equals np.stack of the consumers bit for bit, and is or is not their memory."""
    stack = ds.usage_stack
    assert stack.tobytes() == np.stack([c.usage.values for c in ds.consumers]).tobytes()
    assert not stack.flags.writeable
    assert [np.shares_memory(stack[k], c.usage.values) for k, c in enumerate(ds.consumers)] \
        == [shared] * ds.n_consumers


def test_synth_usage_is_one_shared_block():
    ds = synth_population(SynthSpec(n_consumers=9, n_days=6, seed=2))
    _assert_usage_stack(ds, shared=True)
    assert all(c.usage.values.base is ds.usage_stack.base for c in ds.consumers)


def _written(tmp_path, ds):
    write_meter_csv(list(ds.consumers), tmp_path / "meter.csv")
    write_price_csv(ds.prices, tmp_path / "prices.csv")
    return tmp_path / "meter.csv", load_price_csv(tmp_path / "prices.csv")


def test_bulk_loaded_usage_is_one_shared_block(tmp_path):
    ds = synth_population(SynthSpec(n_consumers=9, n_days=6, seed=2))
    meter, prices = _written(tmp_path, ds)
    back = align(load_meter_csv(meter), prices, split=0.75)
    _assert_usage_stack(back, shared=True)
    assert back.usage_stack.tobytes() == ds.usage_stack.tobytes()

    half = Dataset(back.consumers[:4], back.prices, back.train_days, back.validate_days)
    _assert_usage_stack(half, shared=True)  # a leading run of the block is a view too
    tail = Dataset(back.consumers[::-1], back.prices, back.train_days, back.validate_days)
    _assert_usage_stack(tail, shared=False)


def test_interleaved_file_is_grouped_into_one_shared_block(tmp_path):
    rows = [f"c{i},{(START + dt.timedelta(days=d)).isoformat()}," + _day_cells(1 + d + i / 10)
            for d in range(4) for i in range(3)]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows))
    consumers = load_meter_csv(path)
    prices = PriceSeries(_series(START, 4, 3.0), _series(START, 4, 3.0))
    ds = align(consumers, prices, split=0.5)
    _assert_usage_stack(ds, shared=True)
    assert ds.usage_stack[:, :, 0].tolist() == [[1 + d + i / 10 for d in range(4)] for i in range(3)]


def test_align_that_trims_days_stacks_a_copy(tmp_path):
    ds = synth_population(SynthSpec(n_consumers=5, n_days=8, seed=4))
    meter, prices = _written(tmp_path, ds)
    short = PriceSeries(HourlyMatrix(prices.day_ahead.values[1:7], START + dt.timedelta(days=1)),
                        HourlyMatrix(prices.real_time.values[1:7], START + dt.timedelta(days=1)))
    trimmed = align(load_meter_csv(meter), short, split=0.5)
    assert trimmed.n_days == 6
    _assert_usage_stack(trimmed, shared=False)
    assert trimmed.usage_stack.tobytes() == np.ascontiguousarray(ds.usage_stack[:, 1:7]).tobytes()


@pytest.mark.parametrize("cell, message", [("nan", "non-finite reading at row 4"),
                                           ("-0.5000", "negative reading at row 4")])
def test_bulk_reader_refuses_bad_readings_and_the_row_parser_names_them(tmp_path, cell, message):
    rows = ["a,2021-01-04," + _day_cells(1.0), "b,2021-01-04," + _day_cells(1.0),
            "b,2021-01-05," + ",".join([cell if h == 9 else "1.0000" for h in range(24)])]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_meter_csv(path)


def _synth_usage_by_loop(spec):
    """synth_population's usage as it was built before: one consumer at a time."""
    rng = np.random.default_rng(spec.seed)
    n, days = spec.n_consumers, spec.n_days
    if spec.noise_cv > 0:
        log_sd = float(np.sqrt(np.log1p(spec.noise_cv**2)))
        multipliers = rng.lognormal(mean=-0.5 * log_sd**2, sigma=log_sd, size=(n, days))
    else:
        multipliers = np.ones((n, days))
    n_peaky = int(round(spec.fraction_peaky * n))
    shapes = {True: _archetype_shape(True), False: _archetype_shape(False)}
    out = []
    for i in range(n):
        peaky = i < n_peaky
        usage = np.round(spec.base_kwh_per_day * np.outer(multipliers[i], shapes[peaky]), 4)
        out.append((f"{'peak' if peaky else 'night'}-{i:05d}", usage.tobytes()))
    return out


@settings(max_examples=80)
@given(
    n=st.integers(1, 40),
    days=st.integers(2, 12),
    fraction_peaky=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    noise_cv=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    base=st.one_of(st.just(10.0), st.floats(0.01, 1e4)),
    seed=st.integers(0, 2**32),
)
@example(n=1, days=2, fraction_peaky=0.0, noise_cv=0.0, base=10.0, seed=0)
@example(n=1, days=3, fraction_peaky=1.0, noise_cv=0.3, base=10.0, seed=1)
@example(n=7, days=5, fraction_peaky=0.5, noise_cv=0.0, base=3.5, seed=2)
@example(n=6, days=4, fraction_peaky=0.5, noise_cv=0.3, base=10.0, seed=7)
def test_synth_usage_equals_the_per_consumer_loop(n, days, fraction_peaky, noise_cv, base, seed):
    spec = SynthSpec(n, days, fraction_peaky=fraction_peaky, base_kwh_per_day=base,
                     noise_cv=noise_cv, seed=seed)
    ds = synth_population(spec)
    assert [(c.consumer_id, c.usage.values.tobytes()) for c in ds.consumers] \
        == _synth_usage_by_loop(spec)


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="n_consumers"):
        SynthSpec(n_consumers=0, n_days=5)
    with pytest.raises(ValueError, match="n_days"):
        SynthSpec(n_consumers=1, n_days=1)
    with pytest.raises(ValueError, match="fraction_peaky"):
        SynthSpec(n_consumers=1, n_days=2, fraction_peaky=1.5)
    with pytest.raises(ValueError, match="noise_cv must be >= 0"):
        SynthSpec(n_consumers=1, n_days=2, noise_cv=-1.0)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        SynthSpec(n_consumers=1, n_days=2, seed=-1)
    with pytest.raises(ValueError, match="base_kwh_per_day"):
        SynthSpec(n_consumers=1, n_days=2, base_kwh_per_day=0.0)
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="base_kwh_per_day must be finite"):
            SynthSpec(n_consumers=1, n_days=2, base_kwh_per_day=value)
        with pytest.raises(ValueError, match="noise_cv must be finite"):
            SynthSpec(n_consumers=1, n_days=2, noise_cv=value)
    # finite, but too large for the numerics: noise_cv**2 overflows, and so would the kWh
    with pytest.raises(ValueError, match=r"noise_cv must be <= 1e\+100"):
        SynthSpec(n_consumers=1, n_days=2, noise_cv=1e200)
    with pytest.raises(ValueError, match=r"base_kwh_per_day must be <= 1e\+100"):
        SynthSpec(n_consumers=1, n_days=2, base_kwh_per_day=1e308)


def test_synth_refuses_draws_that_round_a_consumer_to_zero():
    # at 1e-3 kWh a day, consumers 4 and 5 draw day multipliers that round every reading to 0
    spec = SynthSpec(n_consumers=6, n_days=2, base_kwh_per_day=1e-3, noise_cv=3.0)
    with pytest.raises(ValueError, match=r"^base_kwh_per_day=0\.001 with noise_cv=3 rounds every "
                                         r"reading of 2 consumer\(s\) to 0 at 4 decimals, "
                                         r"first night-00004$"):
        synth_population(spec)


def test_synth_prices_nonnegative_with_peak():
    ds = synth_population(SynthSpec(n_consumers=2, n_days=30, seed=9))
    da = ds.prices.day_ahead.values
    assert np.all(da >= 0)
    assert np.all(ds.prices.real_time.values >= 0)
    # afternoon peak: hour 18 beats the overnight trough on every day
    assert np.all(da[:, 18] > da[:, 3])


def _csv_writer_reference(path, first_line, header, rows):
    """The writers as they were, through csv.writer: the byte-for-byte reference."""
    with open(path, "w", newline="") as fh:
        fh.write(first_line)
        writer = csv.writer(fh)
        writer.writerow(header)
        for text_a, text_b, values in rows:
            writer.writerow([text_a, text_b] + [f"{v:.4f}" for v in values])


def test_writers_match_csv_writer_bytes(tmp_path):
    edge = [0.0, 1e-5, 0.00005, 12345.6789, -0.0] * 4 + [0.00015, 2.5, 0.99995, 3.0]
    usage = HourlyMatrix(np.array([edge, edge[::-1]]), START)
    consumers = [ConsumerSeries("peak-00000", usage), ConsumerSeries("a b#;'\t", usage)]
    write_meter_csv(consumers, tmp_path / "meter.csv")
    rows = [(c.consumer_id, usage.date_of_row(r).isoformat(), usage.values[r])
            for c in consumers for r in range(usage.n_days)]
    _csv_writer_reference(tmp_path / "ref_meter.csv", "", METER_HEADER, rows)
    assert (tmp_path / "meter.csv").read_bytes() == (tmp_path / "ref_meter.csv").read_bytes()
    assert b"-0.0000," in (tmp_path / "meter.csv").read_bytes()

    prices = PriceSeries(usage, HourlyMatrix(usage.values[::-1], START))
    write_price_csv(prices, tmp_path / "prices.csv")
    rows = [(usage.date_of_row(r).isoformat(), market, matrix.values[r])
            for market, matrix in (("DA", prices.day_ahead), ("RT", prices.real_time))
            for r in range(matrix.n_days)]
    _csv_writer_reference(tmp_path / "ref_prices.csv", "#unit=cents_per_kwh\n", PRICE_HEADER, rows)
    assert (tmp_path / "prices.csv").read_bytes() == (tmp_path / "ref_prices.csv").read_bytes()


@pytest.mark.parametrize("cid", ['peak,00000', 'say "hi"', "a\rb", "a\nb"])
def test_meter_writer_refuses_ids_it_cannot_write(tmp_path, cid):
    usage = _series(START, 2)
    consumers = [ConsumerSeries("ok", usage), ConsumerSeries(cid, usage)]
    with pytest.raises(ValueError, match=f"{tmp_path / 'meter.csv'}: cannot write consumer id"):
        write_meter_csv(consumers, tmp_path / "meter.csv")
    assert list(tmp_path.iterdir()) == []


def test_meter_ids_with_other_punctuation_round_trip(tmp_path):
    ids = ["a b", "a\tb", "#c", "d;e", "f'g"]
    consumers = [ConsumerSeries(cid, _series(START, 2, 1.5)) for cid in ids]
    write_meter_csv(consumers, tmp_path / "meter.csv")
    assert [c.consumer_id for c in load_meter_csv(tmp_path / "meter.csv")] == ids


@pytest.mark.parametrize("days_later", [2, 0], ids=["would load as one", "would not load"])
def test_meter_writer_refuses_an_id_given_twice(tmp_path, days_later):
    consumers = [ConsumerSeries("a", _series(START, 2)), ConsumerSeries("b", _series(START, 2)),
                 ConsumerSeries("a", _series(START + dt.timedelta(days=days_later), 2))]
    path = tmp_path / "meter.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: cannot write consumer id 'a' "
                                         "twice$"):
        write_meter_csv(consumers, path)
    assert list(tmp_path.iterdir()) == []


def test_meter_writer_refuses_no_consumers(tmp_path):
    """A header-only file is one the loader refuses (no meter rows), so it is not written."""
    path = tmp_path / "meter.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: cannot write a meter file "
                                         "of no consumers$"):
        write_meter_csv([], path)
    assert list(tmp_path.iterdir()) == []
    path.write_text(_meter_lines([]), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no meter rows$"):
        load_meter_csv(path)


def test_meter_writer_refuses_an_id_that_is_not_utf8_text(tmp_path):
    path = tmp_path / "meter.csv"
    consumers = [ConsumerSeries("ok", _series(START, 2)),
                 ConsumerSeries("a\ud800", _series(START, 2))]
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: cannot write consumer id "
                                         r"'a\\ud800': it is not UTF-8 text$"):
        write_meter_csv(consumers, path)
    assert list(tmp_path.iterdir()) == []


_REFERENCE_ROW = "%s,%s," + ",".join(["%.4f"] * 24) + "\r\n"


def _reference_meter_bytes(consumers):
    """The meter writer as it was, one `%` format a row: the byte-for-byte reference."""
    lines = [",".join(METER_HEADER) + "\r\n"]
    for c in consumers:
        dates = [c.usage.date_of_row(r).isoformat() for r in range(c.usage.n_days)]
        lines += [_REFERENCE_ROW % (c.consumer_id, date, *cells)
                  for date, cells in zip(dates, c.usage.values.tolist())]
    return "".join(lines).encode("utf-8")


# Readings the byte pass leaves to %.4f: -0.0, values off the 4-decimal grid, and values of
# 10**4 or more, up to the 1e99 that `synth --base-kwh 1e100` can give.
_NOT_IN_WRITER_FORM = [-0.0, 0.00005, 1 / 3, 1e4, 12345.6789, 99999999.9999, 1e8, 1e8 + 0.5,
                       1e20, 1e99]


@st.composite
def _writer_form_reading(draw):
    """m / 10**4 for an m of 1 to 4 integer digits, often at the edge of a power of ten."""
    low, high = _widths(draw(st.integers(1, 4)))
    return draw(st.one_of(st.sampled_from([low, low + 1, high - 1, high]),
                          st.integers(low, high))) / 10**4


@st.composite
def _consumers_to_write(draw):
    """Consumers over different dates and day counts, with ids of any length and script, and
    a chunk size for the writer: one line, at least three lines, or the default."""
    ids = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters=',"\r\n'),
                                min_size=1, max_size=120), min_size=1, max_size=4, unique=True))
    consumers = []
    for cid in ids:
        days = draw(st.integers(1, 3))
        values = np.array(draw(st.lists(_writer_form_reading(), min_size=days * 24,
                                        max_size=days * 24)))
        for i, x in draw(st.lists(st.tuples(st.integers(0, days * 24 - 1),
                                            st.sampled_from(_NOT_IN_WRITER_FORM)), max_size=2)):
            values[i] = x
        if not values.sum() > 0:
            values[-1] = 1.0
        start = START + dt.timedelta(days=draw(st.integers(-800, 800)))
        consumers.append(ConsumerSeries(cid, HourlyMatrix(values.reshape(days, 24), start)))
    longest = max(len(cid.encode("utf-8")) for cid in ids)
    chunk = draw(st.sampled_from([1, 3 * (longest + ingest._LINE_TAIL), ingest._WRITE_CHUNK]))
    return consumers, chunk


@pytest.mark.depth
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_consumers_to_write())
def test_meter_writer_bytes_equal_the_row_format(tmp_path, case):
    """Every byte is the `%.4f` row format's, however the lines fall into chunks."""
    consumers, chunk = case
    path = tmp_path / "meter.csv"
    with mock.patch.object(ingest, "_WRITE_CHUNK", chunk):
        write_meter_csv(consumers, path)
    assert path.read_bytes() == _reference_meter_bytes(consumers)


@st.composite
def _consumers_to_chunk(draw):
    """Consumers of 1 to 40 days with ids of 1 to 60 characters of any script, and a chunk
    budget from less than one line to many consumers, often exactly the first k consumers'."""
    ids = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters=',"\r\n'),
                                min_size=1, max_size=60), min_size=1, max_size=12, unique=True))
    consumers = [ConsumerSeries(cid, _series(START, draw(st.integers(1, 40)))) for cid in ids]
    k = draw(st.integers(1, len(ids)))
    exact = (sum(c.usage.n_days for c in consumers[:k])
             * (max(len(cid.encode("utf-8")) for cid in ids[:k]) + ingest._LINE_TAIL))
    budget = st.one_of(st.just(exact), st.integers(1, 60 * (240 + ingest._LINE_TAIL)))
    return consumers, draw(budget)


@pytest.mark.depth
@given(case=_consumers_to_chunk())
def test_meter_writer_chunks_whole_consumers_within_the_budget(case):
    """Every consumer is in one chunk, in order; a chunk of more than one consumer holds at
    most `_WRITE_CHUNK` bytes counted at its widest line, and ends only where the next
    consumer would not fit."""
    consumers, budget = case
    ids = {c.consumer_id: c.consumer_id.encode("utf-8") for c in consumers}
    with mock.patch.object(ingest, "_WRITE_CHUNK", budget):
        chunks = list(ingest._write_chunks(consumers, ids))
    written = [c for chunk in chunks for c in chunk]
    assert len(written) == len(consumers) and all(a is b for a, b in zip(written, consumers))

    def size(chunk):
        widest = max(len(ids[c.consumer_id]) for c in chunk) + ingest._LINE_TAIL
        return sum(c.usage.n_days for c in chunk) * widest

    for chunk, after in zip(chunks, chunks[1:] + [None]):
        assert len(chunk) == 1 or size(chunk) <= budget
        if after is not None:
            assert size(chunk + after[:1]) > budget


@pytest.mark.parametrize("seed", [7, 11])
def test_synth_writes_the_row_format_bytes_in_a_fresh_process(tmp_path, seed):
    """The CLI path end to end: `ratecraft synth` in a child writes the reference bytes."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-m", "ratecraft", "synth", "--n", "200",
                            "--days", "120", "--seed", str(seed), "--out-dir", str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    ds = synth_population(SynthSpec(n_consumers=200, n_days=120, seed=seed))
    assert (tmp_path / "meter.csv").read_bytes() == _reference_meter_bytes(ds.consumers)


def _loaded(load, path):
    """What a meter loader gives: ids, start dates and value bits in order, or its error text."""
    try:
        consumers = load(path)
    except ValueError as exc:
        return str(exc)
    return [(c.consumer_id, c.usage.start_date, c.usage.values.tobytes()) for c in consumers]


def test_bulk_meter_reader_takes_well_formed_files(tmp_path):
    """The meter reader takes LF and CRLF files, blank lines, interleaved consumers."""
    rows = [
        "#c,2021-01-05," + _day_cells(2.0),
        "b,2021-01-04," + _day_cells(1.0),
        "",
        "#c,2021-01-06," + ",".join([" 1.0", "-0", "1e-400", "+1.5"] + ["3.25"] * 20),
        "b,2021-01-05," + _day_cells(0.5),
    ]
    for eol in ("\n", "\r\n"):
        path = tmp_path / "meter.csv"
        path.write_text(_meter_lines(rows).replace("\n", eol), newline="")
        assert _loaded(load_meter_csv, path) == _loaded(_strict_meter_rows, path)
        assert [c.consumer_id for c in load_meter_csv(path)] == ["#c", "b"]


def test_bulk_meter_reader_takes_chunks_that_hold_only_blank_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK", 4)
    rows = ["a,2021-01-04," + _day_cells(1.0)] + [""] * 9 + ["a,2021-01-05," + _day_cells(2.0)]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows) + "\n" * 9, encoding="utf-8")
    assert _loaded(load_meter_csv, path) == _loaded(_strict_meter_rows, path)


def test_bulk_meter_reader_keeps_file_order_within_each_consumer(tmp_path):
    """Round-robin rows of many consumers: grouping them must be a stable sort."""
    rows = [f"c{i:02d},{(START + dt.timedelta(days=d)).isoformat()}," + _day_cells(1 + d + i / 100)
            for d in range(30) for i in range(40)]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows))
    bulk = load_meter_csv(path)
    assert _loaded(lambda p: bulk, path) == _loaded(_strict_meter_rows, path)
    assert bulk[7].usage.values[:, 0].tolist() == [1 + d + 0.07 for d in range(30)]


_HEADERS = [",".join(METER_HEADER)] * 6 + ['"consumer_id",' + ",".join(METER_HEADER[1:])]
# Ids short and long, up to 81 bytes ("é" * 40 + "i"): the reader takes any byte length.
_IDS = ["a", "b", "#c", "x y", "ночь-1", "é" * 26, "i" * 53, "é" * 40 + "i"]
_ODD_IDS = ['"a"', '"p,q"', "", "a\rb"]
_DATES = ['"2021-01-05"', "2021-13-01", "20210105", ""]
_CELLS = ["1_0", "\u0661", " 1.0", "nan", "Infinity", "-0", "-1.5", '"2.5"', "", "1e-400",
          "1.5", "1e-3", " 2.0", "12345678.0000", "123456789.0000", "007.5000"]


def _reading(m):
    """The writer's text of m / 10**4: the integer part, '.', then 4 digits."""
    return f"{m // 10**4}.{m % 10**4:04d}"


def _widths(width):
    """The m whose reading has `width` integer digits."""
    return (0 if width == 1 else 10 ** (width + 3), 10 ** (width + 4) - 1)


@st.composite
def _meter_texts(draw):
    """Small meter files, mostly well formed, with the cases where the two parsers could part."""
    rows = []
    for cid in draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=3, unique=True)):
        if draw(st.integers(0, 19)) == 0:
            cid = draw(st.sampled_from(_ODD_IDS))
        first = draw(st.integers(0, 3))
        offsets = draw(st.one_of(
            st.integers(1, 4).map(lambda k: list(range(first, first + k))),
            st.lists(st.integers(0, 5), min_size=1, max_size=4),
        ))
        for offset in offsets:
            date = (START + dt.timedelta(days=offset)).isoformat()
            if draw(st.integers(0, 19)) == 0:
                date = draw(st.sampled_from(_DATES))
            low, high = _widths(draw(st.integers(1, 9)))
            level = draw(st.integers(low, high - 23))
            cells = [_reading(level + h) for h in range(24)]
            if draw(st.integers(0, 4)) == 0:  # a line that mixes widths
                cells[draw(st.integers(0, 23))] = _reading(draw(st.integers(0, 10**13 - 1)))
            if draw(st.integers(0, 9)) == 0:
                cells[draw(st.integers(0, 23))] = draw(st.sampled_from(_CELLS))
            width = draw(st.sampled_from([24] * 38 + [23, 25]))  # 26 fields, or 25 or 27
            rows.append(",".join([cid, date] + (cells + ["1.0"])[:width]))
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", "", " "])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([draw(st.sampled_from(_HEADERS))] + rows) + draw(st.sampled_from([eol, ""]))


@pytest.mark.depth
@settings(max_examples=max(400, settings.default.max_examples),
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(text=_meter_texts())
def test_meter_loader_equals_row_parser(tmp_path, text):
    path = tmp_path / "meter.csv"
    path.write_text(text, newline="")
    assert _loaded(load_meter_csv, path) == _loaded(_strict_meter_rows, path)


@st.composite
def _written_files(draw):
    """Consumers as `write_meter_csv` takes them, and a chunk size for the meter reader."""
    ids = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters=',"\r\n\x00'),
                                min_size=1, max_size=40), min_size=1, max_size=4, unique=True))
    days = draw(st.integers(1, 4))
    consumers = []
    for cid in ids:
        low, high = _widths(draw(st.integers(1, 9)))
        m = np.array(draw(st.lists(st.integers(low, high), min_size=days * 24,
                                   max_size=days * 24)), dtype=np.int64)
        if draw(st.booleans()):  # a line that mixes widths
            m[draw(st.integers(0, m.size - 1))] = draw(st.integers(0, 10**13 - 1))
        values = (m / 10**4).reshape(days, 24)
        if draw(st.booleans()):  # written as -0.0000
            values[0, draw(st.integers(0, 23))] = -0.0
        if not values.any():
            values[-1, -1] = 1.0
        start = START + dt.timedelta(days=draw(st.integers(-800, 800)))
        consumers.append(ConsumerSeries(cid, HourlyMatrix(values, start)))
    return consumers, draw(st.sampled_from([1, 7, 300, 1 << 19]))


@pytest.mark.depth
@settings(max_examples=max(150, settings.default.max_examples),
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=_written_files())
def test_bulk_reader_equals_row_parser_on_every_written_file(tmp_path, case):
    """Every file the writer writes, whatever the byte length of its ids, loads to the same bytes."""
    consumers, chunk = case
    path = tmp_path / "meter.csv"
    write_meter_csv(consumers, path)
    expected = _loaded(_strict_meter_rows, path)
    assert expected == [(c.consumer_id, c.usage.start_date, c.usage.values.tobytes())
                        for c in consumers]
    with mock.patch.object(ingest, "_CHUNK", chunk):
        assert _loaded(load_meter_csv, path) == expected


def test_bulk_reader_splits_prefix_ids_and_outgrows_its_row_estimate(tmp_path, monkeypatch):
    """An id that is a prefix of the one before starts a new run, at any length (the reader
    looks for the id comma in the first 16 bytes of a line, then past them); and lines that
    shorten after the first chunk hold more rows than the reader first estimates from it."""
    monkeypatch.setattr(ingest, "_CHUNK", 1000)
    consumers = [ConsumerSeries(cid, _series(START, 3, 12345678.0625))
                 for cid in ["l" * 70, "l" * 69, "q" * 16, "q" * 15, "q" * 17, "q" * 16 + "r"]]
    consumers += [ConsumerSeries(cid, _series(START, 50, k + 0.5))
                  for k, cid in enumerate(["ab", "a", "abc"])]
    path = tmp_path / "meter.csv"
    write_meter_csv(consumers, path)
    expected = [(c.consumer_id, START, c.usage.values.tobytes()) for c in consumers]
    assert _loaded(load_meter_csv, path) == expected == _loaded(_strict_meter_rows, path)


def test_four_decimals_are_m_over_ten_thousand_for_every_m_below_a_million():
    """The meter reader's arithmetic, m / 10**4, gives the double float() reads from the text."""
    m = np.arange(10**6)
    assert (m / 10**4).tobytes() == np.array([float(_reading(k)) for k in range(10**6)]).tobytes()


@pytest.mark.depth
@settings(max_examples=max(200, settings.default.max_examples),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.tuples(st.integers(1, 8), st.integers(0, 3), st.data()),
                      min_size=1, max_size=6))
def test_bulk_reader_decodes_readings_to_the_double_float_reads(tmp_path, lines):
    """Lines of one integer width w <= 8 each, so m < 10**12, some with leading zeros."""
    texts = []
    for width, zeros, data in lines:
        low, high = _widths(width)
        ms = data.draw(st.lists(st.integers(low, high), min_size=24, max_size=24))
        texts.append(["0" * zeros + _reading(m) for m in ms])
    rows = [f"a,{(START + dt.timedelta(days=d)).isoformat()}," + ",".join(cells)
            for d, cells in enumerate(texts)]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows), encoding="utf-8")
    expected = np.array([[float(t) for t in cells] for cells in texts])
    if expected.any():
        (consumer,) = load_meter_csv(path)
        assert consumer.usage.values.tobytes() == expected.tobytes()


def test_bulk_reader_checks_utf8_in_every_chunk(tmp_path, monkeypatch):
    """A bad byte lines past the first chunk is named with its file row; good non-ASCII ids
    before it are not."""
    monkeypatch.setattr(ingest, "_CHUNK", 300)
    rows = [f"ночь-{i},2021-01-04," + _day_cells(1.0) for i in range(8)]
    path = tmp_path / "meter.csv"
    path.write_bytes(_meter_lines(rows).encode("utf-8")
                     + ("caf\xe9,2021-01-04," + _day_cells(1.0) + "\n").encode("latin-1"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"
                                         " byte 0xe9 at row 10: invalid continuation byte$"):
        load_meter_csv(path)
    path.write_text(_meter_lines(rows), encoding="utf-8")
    assert [c.consumer_id for c in load_meter_csv(path)] == [f"ночь-{i}" for i in range(8)]


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    meter = os.path.join(fixtures, "meter_n12.csv")
    prices = os.path.join(fixtures, "prices_n12.csv")
    bom_meter, bom_prices = tmp_path / "meter.csv", tmp_path / "prices.csv"
    for src, dst in ((meter, bom_meter), (prices, bom_prices)):
        with open(src, "rb") as fh:
            dst.write_bytes(b"\xef\xbb\xbf" + fh.read())
    expected = _loaded(load_meter_csv, meter)
    assert isinstance(expected, list)
    assert _loaded(load_meter_csv, bom_meter) == expected
    assert _loaded(_strict_meter_rows, bom_meter) == expected
    a, b = load_price_csv(prices), load_price_csv(bom_prices)
    assert a.start_date == b.start_date
    assert np.array_equal(a.day_ahead.values, b.day_ahead.values)
    assert np.array_equal(a.real_time.values, b.real_time.values)


# -- encoding and dates ---------------------------------------------------------------


_REWRITE_CODE = (
    "import sys\n"
    "from ratecraft.ingest import load_meter_csv, write_meter_csv\n"
    "write_meter_csv(load_meter_csv(sys.argv[1]), sys.argv[2])\n"
    "print(__import__('locale').getpreferredencoding(False))\n"
)


def test_non_ascii_ids_round_trip_under_the_posix_locale(tmp_path):
    """The files are UTF-8 whatever the locale: a child under LC_ALL=POSIX reads and rewrites them."""
    ids = ["nuét-00002", "ночь-1", "b"]
    source, copy = tmp_path / "meter.csv", tmp_path / "copy.csv"
    write_meter_csv([ConsumerSeries(cid, _series(START, 3, 1.5)) for cid in ids], source)
    assert "nuét-00002".encode("utf-8") in source.read_bytes()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, LC_ALL="POSIX", PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUTF8", None)
    child = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", _REWRITE_CODE, str(source), str(copy)],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip().lower() != "utf-8"  # the child's locale encoding is not UTF-8
    assert copy.read_bytes() == source.read_bytes()
    assert [c.consumer_id for c in load_meter_csv(copy)] == ids


def test_files_that_are_not_utf8_are_named(tmp_path):
    meter = tmp_path / "meter.csv"
    meter.write_bytes(_meter_lines(["caf\xe9," + "2021-01-04," + _day_cells(1.0)]).encode("latin-1"))
    prices = tmp_path / "prices.csv"
    prices.write_bytes(_price_lines(["2021-01-04,DA," + _day_cells(1.0),
                                     "2021-01-04,RT," + _day_cells(1.0)])
                       .replace("#unit=", "#unit=\xb0").encode("latin-1"))
    for load, path in ((load_meter_csv, meter), (load_price_csv, prices)):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
            load(path)
    prices.write_bytes(_price_lines(["2021-01-04,DA," + _day_cells(1.0),
                                     "2021-01-04,RT," + _day_cells(1.0) + ",caf\xe9"])
                       .encode("latin-1"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(prices))}: 'utf-8' codec can't decode"
                                         " byte 0xe9 at row 4: invalid continuation byte$"):
        load_price_csv(prices)


_LOOSE_DATES = ["20210105", "2021-W01-2", "2021-01-5", "2021-01-05T00", "٢021-01-05"]


@pytest.mark.parametrize("date", _LOOSE_DATES)
def test_meter_dates_must_be_exactly_yyyy_mm_dd(tmp_path, date):
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(["a,2021-01-04," + _day_cells(1.0),
                                  f"a,{date}," + _day_cells(1.0)]), encoding="utf-8")
    message = f"{path}: bad date {date!r} at row 3"
    for load in (load_meter_csv, _strict_meter_rows):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load(path)


@pytest.mark.parametrize("date", _LOOSE_DATES)
def test_price_dates_must_be_exactly_yyyy_mm_dd(tmp_path, date):
    path = tmp_path / "prices.csv"
    path.write_text(_price_lines([f"{date},DA," + _day_cells(1.0),
                                  "2021-01-05,RT," + _day_cells(1.0)]), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: bad date {date!r} at row 3')}$"):
        load_price_csv(path)


# -- the one rule for a reading, and the faults the meter reader names -------------------


_READING_RULE = [(" 1.0", 1.0), ("+1.5", 1.5), ("-0", -0.0), ("1e-400", 0.0),
                 ("nan", "non-finite"), ("Infinity", "non-finite"),
                 ("1_0", "non-numeric"), ("\u0661\u0662", "non-numeric"), ("", "non-numeric"),
                 ("0x10", "non-numeric")]


@pytest.mark.parametrize("cell, expected", _READING_RULE)
def test_one_reading_rule_for_meter_and_price_files(tmp_path, cell, expected):
    """A reading is the text np.loadtxt takes, finite and >= 0, in either file."""
    cells = ",".join([cell if h == 5 else "1.0000" for h in range(24)])
    meter, prices = tmp_path / "meter.csv", tmp_path / "prices.csv"
    meter.write_text(_meter_lines(["a,2021-01-04," + _day_cells(1.0), "a,2021-01-05," + cells]),
                     encoding="utf-8")
    prices.write_text(_price_lines(["2021-01-04,DA," + cells, "2021-01-04,RT," + _day_cells(1.0)]),
                      encoding="utf-8")
    if isinstance(expected, float):
        value = np.float64(expected).tobytes()
        assert load_meter_csv(meter)[0].usage.values[1, 5].tobytes() == value
        assert load_price_csv(prices).day_ahead.values[0, 5].tobytes() == value
        assert _loaded(_strict_meter_rows, meter) == _loaded(load_meter_csv, meter)
    else:
        for load, path in ((load_meter_csv, meter), (_strict_meter_rows, meter),
                           (load_price_csv, prices)):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {expected} reading at row 3')}$"):
                load(path)


_ROW_FAULTS = [
    (",2021-01-04," + _day_cells(1.0), "empty consumer id at row 3"),
    ("a,2021-01-05," + _day_cells(1.0)[:-7], "wrong column count at row 3"),
    ('a,2021-01-05,"2.5",' + _day_cells(1.0)[7:], "double quote or carriage return at row 3"),
    ("a,2021-01-05,1.0\r," + _day_cells(1.0)[7:], "double quote or carriage return at row 3"),
    ('"a",2021-01-05,1_0,' + _day_cells(1.0)[7:],
     "consumer id '\"a\"' at row 3 contains a comma, quote or line break"),
    ("a,2021-01-05,nan," + _day_cells(-1.0)[8:], "non-finite reading at row 3"),
]


@pytest.mark.parametrize("line, message", _ROW_FAULTS)
def test_meter_reader_names_the_row_of_each_fault(tmp_path, line, message):
    """Each fault of a row, the first in the reference's order, with the path and the row; a
    later row's fault is not reached, in the same chunk or in a later one."""
    path = tmp_path / "meter.csv"
    rows = ["a,2021-01-04," + _day_cells(1.0), line, "a,2021-01-06,1_0," + _day_cells(1.0)[7:]]
    path.write_bytes(_meter_lines(rows).encode("utf-8"))
    for chunk in (1, 1 << 19):
        with mock.patch.object(ingest, "_CHUNK", chunk):
            for load in (load_meter_csv, _strict_meter_rows):
                with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
                    load(path)


_FAULTS = {"date": "bad date '2021-02-30'", "id": "empty consumer id",
           "reading": "non-numeric reading", "quote": "double quote or carriage return",
           "cr": "double quote or carriage return"}
# Faults marked on their own line (or on the lines of the np.loadtxt call that refuses them),
# against faults that make every line of their chunk suspect
_FAULT_PAIRS = [(a, b) for a in ("date", "id", "reading") for b in ("quote", "cr")]


def _meter_row(day, fault=None):
    """Consumer a's row `day` days after START: readings np.loadtxt reads on even days, in the
    writer's form on odd days; with one fault of kind `fault`, if given."""
    cid, date = "a", (START + dt.timedelta(days=day)).isoformat()
    cells = ["1.5" if day % 2 == 0 else "1.0000"] * 24
    if fault == "date":
        date = "2021-02-30"
    elif fault == "id":
        cid = ""
    elif fault == "reading":
        cells[5] = "x"
    elif fault == "quote":
        cells[3] = f'"{cells[3]}"'
    elif fault == "cr":
        cells[7] += "\r"
    return ",".join([cid, date] + cells)


@pytest.mark.parametrize("chunk", [1000, 1 << 19])
@pytest.mark.parametrize("first, second", _FAULT_PAIRS + [(b, a) for a, b in _FAULT_PAIRS])
def test_meter_reader_names_the_first_of_two_faults_of_two_kinds(tmp_path, first, second, chunk):
    """Valid rows with faults of two kinds at rows 5 and 27, one marked on its own line and one
    that makes its chunk suspect, in either order: row 5 is named, whether both faults lie in
    one chunk or in two."""
    rows = [_meter_row(day) for day in range(30)]
    rows[3], rows[25] = _meter_row(3, first), _meter_row(25, second)
    path = tmp_path / "meter.csv"
    path.write_bytes(_meter_lines(rows).encode("utf-8"))
    expected = f"{path}: {_FAULTS[first]} at row 5"
    assert _loaded(_strict_meter_rows, path) == expected
    with mock.patch.object(ingest, "_CHUNK", chunk):
        with open(path, "rb") as fh:
            fh.readline()
            ends = np.cumsum([c.count(b"\n") for c in ingest._line_chunks(fh)])
        assert ends[0] > 3  # valid rows come before row 5 in its chunk
        chunk_of = np.searchsorted(ends, [3, 25], "right")
        assert (chunk_of[0] < chunk_of[1]) == (chunk == 1000)
        assert _loaded(load_meter_csv, path) == expected


def test_meter_reader_names_the_consumer_of_the_first_date_break(tmp_path):
    """Row faults anywhere come first; then the first consumer to appear with a break."""
    day = [(START + dt.timedelta(days=d)).isoformat() for d in range(4)]
    rows = [f"a,{day[0]}," + _day_cells(1.0), f"b,{day[0]}," + _day_cells(1.0),
            f"b,{day[2]}," + _day_cells(1.0), f"a,{day[1]}," + _day_cells(1.0),
            f"a,{day[1]}," + _day_cells(1.0)]
    path = tmp_path / "meter.csv"
    path.write_text(_meter_lines(rows), encoding="utf-8")
    for load in (load_meter_csv, _strict_meter_rows):
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: consumer a: duplicate date {day[1]}$"):
            load(path)
    path.write_text(_meter_lines(rows + [f"c,{day[3]},1_0," + _day_cells(1.0)[7:]]),
                    encoding="utf-8")
    with pytest.raises(ValueError, match="non-numeric reading at row 7"):
        load_meter_csv(path)


def test_price_rows_refuse_a_double_quote(tmp_path):
    """A double quote in a row is refused, and so is a CR that is not part of a line end: a
    line ending in a lone CR, or in CR CR LF, is refused as the meter reader refuses it. The
    unit line is held to the same rule."""
    path = tmp_path / "prices.csv"
    write_price_csv(synth_population(SynthSpec(n_consumers=2, n_days=20, seed=7)).prices, path)
    lone_cr = path.read_text(encoding="utf-8").replace("\r\n", "\r").replace("\n", "\r")
    da, rt = "2021-01-04,DA," + _day_cells(1.0), "2021-01-04,RT," + _day_cells(1.0)
    for text, row in ((_price_lines(['2021-01-04,"DA",' + _day_cells(1.0), rt]), 3),
                      (_price_lines([da + "\r" + rt]), 3),
                      (_price_lines([da + "\r\r", rt + "\r\r"]), 3),
                      (lone_cr, 1),
                      ("#unit=cents_per_kwh\r\r\n" + _price_lines([da, rt]).split("\n", 1)[1], 1),
                      ('#unit="cents_per_kwh"\n', 1)):
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: double quote or "
                                             f"carriage return at row {row}$"):
            load_price_csv(path)
