"""Loading, writing and synthesizing meter and price data.

File formats
------------
Meter CSV: header ``consumer_id,date,h00,...,h23``, one row per consumer-day,
dates ``YYYY-MM-DD`` and consecutive per consumer, values in kWh written with
exactly 4 fractional digits. A consumer id may not hold a comma, a double
quote or a line break, so that it is always one plain CSV field.

One rule holds for a reading in a meter or a price file: its text is one
``np.loadtxt`` takes, and its value is finite and nonnegative. A double
quote or a CR anywhere in a row is refused; no field is ever quoted.

Files are UTF-8, and one that does not decode is refused with its path and
the file row of its first bad byte; one leading byte-order mark is skipped.
A CSV line ends at LF, one CR just before that LF belongs to the line end,
and any other CR is part of the line: the meter reader's byte pass and
`_text_lines` keep this one rule. Written lines end in CRLF, but the price
file's ``#unit=`` line in LF. The meter file is read by one reader, in one
vectorized pass over its bytes, in chunks of whole lines. Readings in the
writer's form (digits, '.', 4 digits) are decoded exactly by digit arithmetic;
the lines with other readings go through ``np.loadtxt``. The reader names every
fault itself, a malformed row by its path and file row and a date break by its
path and consumer, by one row check over the rows its masks mark. Its value
block, grouped by consumer, is marked read-only and becomes the dataset's usage:
each consumer's matrix is a view of its rows, and `Dataset.usage_stack` returns
the block itself, so the usage is held once.
`synth_population` builds its usage the same way.
The meter file is written in one vectorized pass as well, in chunks of whole
consumers of about 256 KiB of lines. A chunk whose readings are all in the
writer's form is built as bytes by digit arithmetic; a chunk holding a -0.0, a
value off the 4-decimal grid, or a value of 10**4 or more is written whole by
``%.4f``. Either way every byte is that format's.
Every file is written by `atomic_write`, as chunks of bytes that the writers
encode themselves, to a binary temp file that is then renamed into place.

Price CSV: a metadata first line ``#unit=cents_per_kwh`` or
``#unit=usd_per_mwh``, then header ``date,market,h00,...,h23`` with market
``DA`` or ``RT``. Values are converted to cents/kWh on load
(1 $/MWh = 0.1 cents/kWh).

Timezone/DST handling is out of scope: every day must already have exactly
24 slots.
"""

from __future__ import annotations

import codecs
import datetime as dt
import functools
import math
import os
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import HOURS, ConsumerSeries, Dataset, HourlyMatrix, PriceSeries, _count

_HOUR_COLS = [f"h{h:02d}" for h in range(HOURS)]
METER_HEADER = ["consumer_id", "date"] + _HOUR_COLS
PRICE_HEADER = ["date", "market"] + _HOUR_COLS
_METER_HEADER_LINE = ",".join(METER_HEADER)
# One written row: two text fields, then 24 values with 4 fractional digits.
_ROW = "%s,%s," + ",".join(["%.4f"] * HOURS) + "\r\n"

_UNIT_SCALE = {"cents_per_kwh": 1.0, "usd_per_mwh": 0.1}
# The one date form: date.fromisoformat also takes "20210105" from Python 3.11 on.
_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)

# The meter reader takes the file in chunks of whole lines of about this many bytes.
# Larger chunks raise the peak RSS by their temporaries; smaller ones pay numpy's fixed
# cost per call more often.
_CHUNK = 1 << 19
# The meter reader looks for a line's id comma in its first _HEAD bytes, and compares ids
# shorter than that there; a longer id is found by bytes.find and not compared.
_HEAD = 16
# Where a date's 8 digits lie in YYYY-MM-DD, and their place values in its key YYYYMMDD.
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]
_DATE_PLACES = 10 ** np.arange(7, -1, -1, dtype=np.int64)
# The writer's form of a line's 24 readings, by integer width w: w digits, '.', 4 digits,
# then a comma, or the line end after the last. Subtracting `form` from a line's bytes
# leaves each byte below its `limit` exactly when the line is in that form.
_READING_FORMS = {
    w: (np.tile(np.frombuffer(b"0" * w + b".0000,", np.uint8), HOURS),
        np.tile(np.array([10] * w + [1] + [10] * 4 + [1], np.uint8), HOURS)[:-1])
    for w in range(1, 9)
}

# The meter writer builds lines about this many bytes at a time, each line counted at its
# widest: its id, then _LINE_TAIL bytes; one consumer's lines may be more. Its numeric
# temporaries are a few times that. Chunks of 1 MiB wrote no faster, and a process that
# went on to load meter files peaked about 1 MiB higher.
_WRITE_CHUNK = 1 << 18
# The widest line of readings below 10**8, which %.4f writes, counted without its id
_LINE_TAIL = 12 + HOURS * (8 + 6) + 1
# The byte the meter writer pads its lines with before one mask drops every pad: '"', which
# no written line holds.
_PAD = 34
# 10**4's bits as a uint64: the writer's digits cover readings below it
_BITS_1E4 = np.float64(10**4).view(np.uint64)


@functools.cache
def _digit_groups() -> np.ndarray:
    """Four ASCII digits an entry, read as one uint32: k < 10**4 at entry k with its leading
    zeros, and at entry 10**4 + k with them as pad bytes, save the last digit. Built at the
    first meter write, so that importing the module costs nothing more."""
    k = np.arange(10**4, dtype=np.uint16)[:, None]
    digits = (k // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8)
    padded = np.where(k < [1000, 100, 10, 0], np.uint8(_PAD), digits)
    table = np.concatenate([digits, padded])
    return table.view(np.uint32).ravel()


# Default chronological split: three quarters of the days are history.
DEFAULT_TRAIN_SPLIT = 0.75
# Cap on SynthSpec's base_kwh_per_day and noise_cv. synth squares noise_cv, and the
# forecast error squares hourly group sums of the synthesized kWh, so values near
# float64's 1.8e308, or its square root, overflow; 1e100 leaves room for both.
_SYNTH_MAX = 1e100


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for an archetype-based synthetic population."""

    n_consumers: int
    n_days: int
    fraction_peaky: float = 0.5
    base_kwh_per_day: float = 10.0
    noise_cv: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name in ("n_consumers", "n_days", "seed"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if self.n_consumers < 1:
            raise ValueError("n_consumers must be >= 1")
        if self.n_days < 2:
            raise ValueError("n_days must be >= 2")
        if not (0.0 <= self.fraction_peaky <= 1.0):
            raise ValueError("fraction_peaky must be in [0, 1]")
        for name in ("base_kwh_per_day", "noise_cv"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value > _SYNTH_MAX:
                raise ValueError(f"{name} must be <= {_SYNTH_MAX:g}")
        if self.base_kwh_per_day <= 0:
            raise ValueError("base_kwh_per_day must be > 0")
        if self.noise_cv < 0:
            raise ValueError("noise_cv must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _decode(data: bytes, path, row: int = 1) -> str:
    """`data`, file rows from `row` on, as UTF-8 text past one leading byte-order mark.

    A byte that is not UTF-8 is a ValueError naming `path` and the file row that holds it.
    """
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        row += data.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}: 'utf-8' codec can't decode byte 0x{data[exc.start]:02x} "
                         f"at row {row}: {exc.reason}") from None


def _text_lines(path) -> list[str]:
    """Text file `path` decoded by `_decode`, split at each LF, one CR just before it dropped."""
    with open(path, "rb") as fh:
        return [line.removesuffix("\r") for line in _decode(fh.read(), path).split("\n")]


def _parse_date(text: str, lineno: int, path: str) -> dt.date:
    """`text` as a date if it is exactly YYYY-MM-DD, the one date rule of every file."""
    if _DATE.fullmatch(text):
        try:
            return dt.date.fromisoformat(text)
        except ValueError:  # a month or a day out of range
            pass
    raise ValueError(f"{path}: bad date {text!r} at row {lineno}")


def _readings(lines: list[str]) -> np.ndarray:
    """Fields 2-25 of `lines` as (lines, 24) readings: a reading is the text np.loadtxt takes.

    Raises ValueError if a line has not 26 fields or np.loadtxt refuses a reading.
    """
    if any(line.count(",") != HOURS + 1 for line in lines):
        raise ValueError("a line without 26 fields")
    return np.loadtxt(lines, delimiter=",", usecols=range(2, 2 + HOURS), comments=None, ndmin=2)


def _parse_hours(line: str, lineno: int, path: str) -> np.ndarray:
    """The 24 readings of 26-field row `line` by the one rule for a reading."""
    try:
        (values,) = _readings([line])
    except ValueError:
        raise ValueError(f"{path}: non-numeric reading at row {lineno}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: non-finite reading at row {lineno}")
    if values.min() < 0:
        raise ValueError(f"{path}: negative reading at row {lineno}")
    return values


def _breaks_csv(cid: str) -> bool:
    """True if `cid` holds a comma, a double quote or a line break."""
    return any(c in cid for c in ',"\r\n')


def _check_meter_row(text: str, lineno: int, path: str):
    """Raise the first fault of meter row `text`, checked in this order: a double quote or a
    carriage return, the field count, an empty id, the date, then the readings."""
    fields = text.split(",")
    if '"' in text or "\r" in text:
        if _breaks_csv(fields[0]):
            raise ValueError(f"{path}: consumer id {fields[0]!r} at row {lineno} contains a comma, "
                             "quote or line break")
        raise ValueError(f"{path}: double quote or carriage return at row {lineno}")
    if len(fields) != len(METER_HEADER):
        raise ValueError(f"{path}: wrong column count at row {lineno}")
    if not fields[0]:
        raise ValueError(f"{path}: empty consumer id at row {lineno}")
    _parse_date(fields[1], lineno, path)
    _parse_hours(text, lineno, path)


def _check_consecutive(dates: list[dt.date], label: str):
    for prev, cur in zip(dates, dates[1:]):
        expected = prev + dt.timedelta(days=1)
        if cur == prev:
            raise ValueError(f"{label}: duplicate date {cur.isoformat()}")
        if cur < expected:
            raise ValueError(f"{label}: dates out of order at {cur.isoformat()}")
        if cur > expected:
            raise ValueError(f"{label}: gap at {expected.isoformat()}")


def load_meter_csv(path) -> list[ConsumerSeries]:
    """Load one ConsumerSeries per distinct consumer_id from a meter CSV.

    Consumers come in order of first appearance, each with its rows in file
    order. The file is read in one pass over its bytes, a chunk of whole lines
    at a time, by the one meter reader, which names every fault itself: the
    first malformed row by the path and its file row (see `_meter_chunk`),
    then the first date break, in the first consumer to appear in the file
    that has one, as ``{path}: consumer <id>: ...``.
    """
    path = str(path)
    index: dict[str, int] = {}  # consumer id -> consumer number, in first-appearance order
    ordinal_of: dict[int, int] = {}  # date key YYYYMMDD -> date ordinal, 0 for no such date
    # Rows [0, rows) of the file so far: readings, consumer numbers and date ordinals. Each
    # array is grown, rarely, to the rows the file holds at the bytes per row read so far.
    values = np.empty((0, HOURS))
    consumer, ordinal = np.empty(0, np.int32), np.empty(0, np.int32)
    rows, lineno = 0, 2
    with open(path, "rb") as fh:
        header = fh.readline().removeprefix(codecs.BOM_UTF8)
        if header.removesuffix(b"\n").removesuffix(b"\r") != _METER_HEADER_LINE.encode():
            raise ValueError(f"{path}: expected meter header {','.join(METER_HEADER[:3])},...")
        size = os.fstat(fh.fileno()).st_size
        for buf in _line_chunks(fh):
            n_lines, ids, run_lengths, ordinals, chunk = _meter_chunk(buf, lineno, path, ordinal_of)
            need = rows + len(chunk)
            if need > len(values):
                done = fh.tell()
                capacity = need * max(size, done) // done * 21 // 20 + len(chunk)
                values, consumer, ordinal = (_grown(x, rows, capacity)
                                             for x in (values, consumer, ordinal))
            values[rows:need] = chunk
            consumer[rows:need] = np.repeat([index.setdefault(cid, len(index)) for cid in ids],
                                            run_lengths)
            ordinal[rows:need] = ordinals
            rows = need
            lineno += n_lines
    if not rows:
        raise ValueError(f"{path}: no meter rows")
    values.resize((rows, HOURS), refcheck=False)  # trimmed in place: no view of it exists yet
    consumer, ordinal = consumer[:rows], ordinal[:rows]

    if (np.diff(consumer) < 0).any():  # interleaved consumers: group rows, keeping file order
        order = np.argsort(consumer, kind="stable")
        consumer, ordinal, values = consumer[order], ordinal[order], values[order]
    values.setflags(write=False)  # the consumers' matrices are views of this one block
    breaks = np.flatnonzero((np.diff(ordinal) != 1) & (consumer[1:] == consumer[:-1]))
    if breaks.size:  # the first consumer in file order with a break, at its first bad row
        r = breaks[0]
        _check_consecutive([dt.date.fromordinal(d) for d in ordinal[r:r + 2].tolist()],
                           f"{path}: consumer {list(index)[consumer[r]]}")
    counts = np.bincount(consumer)
    stops = np.cumsum(counts)
    starts = stops - counts
    return [
        ConsumerSeries(cid, HourlyMatrix(values[a:b], dt.date.fromordinal(int(ordinal[a]))))
        for cid, a, b in zip(index, starts.tolist(), stops.tolist())
    ]


def _grown(arr: np.ndarray, rows: int, capacity: int) -> np.ndarray:
    """`arr` with room for `capacity` rows: its first `rows` copied, the rest not yet touched."""
    grown = np.empty((capacity, *arr.shape[1:]), arr.dtype)
    grown[:rows] = arr[:rows]
    return grown


def _line_chunks(fh):
    """The rest of binary file `fh` as chunks of whole lines, each followed by _HEAD commas.

    A chunk holds about `_CHUNK` bytes of lines, or one longer line, and each
    line ends in a line feed: an unended last line gets one. The commas let a
    line's first _HEAD bytes be read as one window wherever the line lies, and
    give every line a comma at or after its start, with 11 bytes after it.
    """
    rest = b""
    while data := fh.read(_CHUNK):
        cut = data.rfind(b"\n") + 1
        if cut:
            chunk = b"".join((rest, memoryview(data)[:cut], b"," * _HEAD))
            rest = data[cut:]
            del data  # one copy of the chunk's bytes is alive while it is parsed
            yield chunk
        else:
            rest += data
    if rest:
        yield rest + b"\n" + b"," * _HEAD


def _meter_chunk(buf: bytes, lineno: int, path: str, ordinal_of: dict[int, int]):
    """Parse the meter lines of a `_line_chunks` chunk, file lines from `lineno` on.

    Returns the number of lines; the id of each run of nonblank lines with one
    id (a run may be split), and the run's length; and each nonblank line's
    date ordinal and (24,) readings. `ordinal_of` maps the date keys YYYYMMDD seen
    so far to their ordinals.

    A line whose readings are all in the writer's form, w digits, '.' and 4
    digits, is decoded by digit arithmetic: m / 10**4, for the integer m of its
    digits, is the double nearest the decimal, as np.loadtxt reads it, since
    m < 2**53 for w <= 8. np.loadtxt reads the other lines.

    Names every fault itself. A byte that is not UTF-8 is refused with `path`
    and its file row. Masks mark suspect lines, every faulty line among them;
    a refused `_readings` call, or a chunk with a double quote or an inner
    carriage return, makes all of its lines suspect. `_check_meter_row`, the
    one authority, checks the suspects in file order and raises the error of
    the first faulty row, naming `path` and its file row.
    """
    a = np.frombuffer(buf, np.uint8)
    if not buf.isascii():
        _decode(buf, path, lineno)
    ends = np.flatnonzero(a == 10)
    cr = a[ends - 1] == 13
    starts = np.concatenate(([0], ends[:-1] + 1))
    stops = ends - cr
    line = np.flatnonzero(stops > starts)
    starts, stops = starts[line], stops[line]

    head = sliding_window_view(a, _HEAD)[starts]
    id_end = starts + (head == 44).argmax(axis=1)  # each line's first comma: the id comma
    far = np.flatnonzero(a[id_end] != 44)  # no comma in the head: ids of _HEAD bytes or more
    id_end[far] = [buf.find(b",", s) for s in starts[far].tolist()]
    comma = id_end - starts  # the id's length in bytes
    # So far an empty id, or every line of a chunk with a quote or a carriage return inside a line
    suspect = (comma == 0) | (b'"' in buf or buf.count(b"\r") != np.count_nonzero(cr))
    date = sliding_window_view(a, 11)[id_end + 1]  # YYYY-MM-DD and a comma
    digits = date[:, _DATE_DIGITS] - 48
    plain = (digits < 10).all(axis=1) & (date[:, [4, 7]] == 45).all(axis=1) & (date[:, 10] == 44)
    keys, inverse = np.unique(np.where(plain, digits.astype(np.int64) @ _DATE_PLACES, 0),
                              return_inverse=True)
    for key in keys.tolist():
        if key not in ordinal_of:
            try:
                ordinal_of[key] = dt.date(key // 10**4, key // 100 % 100, key % 100).toordinal()
            except ValueError:  # no such day, or key 0 of a date not in the YYYY-MM-DD form
                ordinal_of[key] = 0
    ordinals = np.array([ordinal_of[k] for k in keys.tolist()], np.int32)[inverse]
    suspect |= ordinals == 0

    out = np.empty((len(starts), HOURS))
    begin = id_end + 12  # the first reading
    span = stops + 1 - begin  # 24 readings of w + 5 bytes, each with the byte after it
    width = span // HOURS - 6
    fast = (span % HOURS == 0) & (width >= 1) & (width <= max(_READING_FORMS))
    for w in np.unique(width[fast]).tolist():
        at = np.flatnonzero(fast & (width == w))
        form, limit = _READING_FORMS[w]
        rec = sliding_window_view(a, HOURS * (w + 6))[begin[at]]
        rec -= form  # digits to 0-9, and the form's '.' and ',' to 0
        ok = (rec[:, :-1] < limit).all(axis=1)  # the last byte ends the line
        rec = rec.reshape(-1, HOURS, w + 6)
        m = rec[:, :, 0].astype(np.float64)
        for j in [*range(1, w), *range(w + 1, w + 5)]:  # exact: m is an integer below 10**12
            m *= 10
            m += rec[:, :, j]
        m /= 10**4
        out[at] = m  # rows not ok are read again below
        fast[at[~ok]] = False
    other = np.flatnonzero(~fast & ~suspect)
    if other.size:
        texts = [buf[s:e].decode("utf-8") for s, e in zip(starts[other].tolist(),
                                                           stops[other].tolist())]
        try:
            out[other] = _readings(texts)
        except ValueError:  # every line of the call is suspect
            suspect[other] = True
        else:
            checked = out[other]
            suspect[other] = ~np.isfinite(checked).all(axis=1) | (checked < 0).any(axis=1)
    for r in np.flatnonzero(suspect).tolist():  # in file order: the first faulty row raises
        _check_meter_row(buf[starts[r]:stops[r]].decode("utf-8"), lineno + int(line[r]), path)
    if suspect.any():
        raise AssertionError(f"{path}: the suspect rows from row {lineno} on pass the row check")

    # The lines that start a run: an id of another length or other bytes than the last line's,
    # or one of _HEAD bytes or more. A run split in two still maps to one consumer, by its id.
    new_id = np.ones(len(starts), dtype=bool)
    new_id[1:] = (comma[1:] != comma[:-1]) | ((head[1:] != head[:-1])
                                              & (np.arange(_HEAD) < comma[1:, None])).any(axis=1)
    new_id[far] = True
    first = np.flatnonzero(new_id)
    ids = [buf[s:s + n].decode("utf-8") for s, n in zip(starts[first].tolist(),
                                                         comma[first].tolist())]
    return len(ends), ids, np.diff(np.append(first, len(starts))), ordinals, out


def load_price_csv(path) -> PriceSeries:
    """Load aligned DA/RT prices from the lines of `_text_lines`, in cents/kWh per the unit line."""
    lines = _text_lines(path)
    if '"' in lines[0] or "\r" in lines[0]:
        raise ValueError(f"{path}: double quote or carriage return at row 1")
    if not lines[0].startswith("#unit="):  # compared as exactly as the header
        raise ValueError(f"{path}: missing #unit= metadata line")
    unit = lines[0][len("#unit="):]
    if unit not in _UNIT_SCALE:
        raise ValueError(f"{path}: unknown price unit {unit[:40]!r}")
    if lines[1:2] != [",".join(PRICE_HEADER)]:
        raise ValueError(f"{path}: expected price header {','.join(PRICE_HEADER[:3])},...")
    markets: dict[str, list[tuple[dt.date, np.ndarray]]] = {"DA": [], "RT": []}
    for lineno, text in enumerate(lines[2:], start=3):
        if not text:
            continue
        if '"' in text or "\r" in text:
            raise ValueError(f"{path}: double quote or carriage return at row {lineno}")
        row = text.split(",")
        if len(row) != len(PRICE_HEADER):
            raise ValueError(f"{path}: wrong column count at row {lineno}")
        date = _parse_date(row[0], lineno, path)
        market = row[1]
        if market not in markets:
            raise ValueError(f"{path}: unknown market {market!r} at row {lineno}")
        markets[market].append((date, _parse_hours(text, lineno, path) * _UNIT_SCALE[unit]))

    for name, rows in markets.items():
        if not rows:
            raise ValueError(f"{path}: no {name} rows")
        _check_consecutive([d for d, _ in rows], f"{path}: {name} market")
    da_dates = [d for d, _ in markets["DA"]]
    rt_dates = [d for d, _ in markets["RT"]]
    if da_dates != rt_dates:
        raise ValueError(f"{path}: market date ranges differ")
    da = np.vstack([v for _, v in markets["DA"]])
    rt = np.vstack([v for _, v in markets["RT"]])
    return PriceSeries(HourlyMatrix(da, da_dates[0]), HourlyMatrix(rt, rt_dates[0]))


def atomic_write(path, chunks):
    """Write the byte strings `chunks` to `path` by a binary temp file and a rename, so readers
    never see partial output. The temp file gets a unique name in the target directory, so
    nothing already there can collide with it, and it is removed if writing fails.
    """
    path = str(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_meter_csv(consumers: list[ConsumerSeries], path):
    """Write a meter CSV that loads back as `consumers`, in one byte pass a chunk at a time.

    Refused with a ValueError naming `path`, before any file is made: no consumers, an id
    that holds a comma, a double quote or a line break, an id that is not UTF-8 text (a
    lone surrogate), and an id given twice.

    The lines go out in chunks of whole consumers (`_write_chunks`). A chunk whose readings
    are all in the writer's form is built as bytes: each reading x gives m = rint(x * 10**4),
    in the form when m / 10**4 is x, x is not -0.0 and m has at most 8 digits (4 before
    the point), for then m's digits are what ``%.4f`` writes of x. Any other chunk (one
    with a -0.0, an off-grid value such as 0.00005, or a value of 10**4 or more) is written
    line by line by ``%.4f``, so every byte is the `_ROW` format's.
    """
    if not consumers:
        raise ValueError(f"{path}: cannot write a meter file of no consumers")
    ids: dict[str, bytes] = {}
    for c in consumers:
        cid = c.consumer_id
        if _breaks_csv(cid):
            raise ValueError(f"{path}: cannot write consumer id {cid!r}: it contains "
                             "a comma, quote or line break")
        if cid in ids:
            raise ValueError(f"{path}: cannot write consumer id {cid!r} twice")
        try:
            ids[cid] = cid.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{path}: cannot write consumer id {cid!r}: it is not "
                             "UTF-8 text") from None

    def _chunks():
        yield _METER_HEADER_LINE.encode() + b"\r\n"
        dates_of = {}  # (start date, days) -> (days, 10) date bytes, shared over one range
        for c in consumers:
            span = (c.usage.start_date, c.usage.n_days)
            if span not in dates_of:
                dates_of[span] = np.frombuffer("".join(_iso_dates(c.usage)).encode(),
                                               np.uint8).reshape(-1, 10)
        for chunk in _write_chunks(consumers, ids):
            buf = _padded_lines([(ids[c.consumer_id], c.usage.values,
                                  dates_of[c.usage.start_date, c.usage.n_days]) for c in chunk])
            if buf is None:
                yield "".join([_ROW % (c.consumer_id, date, *cells) for c in chunk
                               for date, cells in zip(_iso_dates(c.usage),
                                                      c.usage.values.tolist())]).encode()
            else:
                keep = buf != _PAD
                yield buf.reshape(-1) if keep.all() else buf[keep]

    atomic_write(path, _chunks())


def _write_chunks(consumers, ids):
    """`consumers` as runs of whole consumers, in file order.

    A chunk holds at most `_WRITE_CHUNK` bytes of lines, each counted at the chunk's widest
    (its longest id, then `_LINE_TAIL`), or exactly one consumer.
    """
    chunk, rows, widest = [], 0, 0
    for c in consumers:
        wide = len(ids[c.consumer_id]) + _LINE_TAIL
        if chunk and (rows + c.usage.n_days) * max(widest, wide) > _WRITE_CHUNK:
            yield chunk
            chunk, rows, widest = [], 0, 0
        chunk.append(c)
        rows += c.usage.n_days
        widest = max(widest, wide)
    yield chunk


def _padded_lines(pieces):
    """The lines of `pieces`, each (id bytes, (rows, 24) readings, (rows, 10) dates), one a row,
    laid out at the widest line and padded with `_PAD`; or None if any reading is not in the
    writer's form, for then the chunk is written by %.4f.

    Each line is the id right-aligned in the longest id, ",YYYY-MM-DD,", then 24 readings
    of as many integer digits as the widest reading has (at most 4), '.', 4 digits and ',',
    where the last ',' is CR and LF follows. Pads lie in front of an id and of the integer digits.
    """
    values = np.concatenate([v for _, v, _ in pieces]) if len(pieces) > 1 else pieces[0][1]
    with np.errstate(over="ignore"):  # a reading near float64's top: not in the form
        m = values * 10**4
    np.rint(m, out=m)
    # 0 <= x < 10**4, -0.0 not included, as one compare: read as a uint64, the bits of such
    # an x lie below those of 10**4, and the sign bit puts those of -0.0 above them
    if not ((m / 10**4 == values) & (values.view(np.uint64) < _BITS_1E4)).all():
        return None
    r = m.astype(np.int64)  # less 10**4 q below: the 4 fraction digits
    del m  # one chunk's temporaries are at most about five of its (rows, 24) arrays
    q = r // 10**4  # the integer part; np.divmod is several times slower than // here
    r -= q * 10**4
    width = len(str(int(q.max())))  # at most 4

    p = max(len(cid) for cid, _, _ in pieces)
    slot = width + 6
    form = np.full(p + 12 + HOURS * slot + 1, _PAD, np.uint8)
    form[[p, p + 11]] = 44
    form[p + 12:-1].reshape(HOURS, slot)[:, [width, -1]] = 46, 44
    form[-2:] = 13, 10
    buf = np.empty((len(values), len(form)), np.uint8)
    buf[:] = form
    top = 0
    for cid, v, dates in pieces:
        bottom = top + len(v)
        buf[top:bottom, p - len(cid):p] = np.frombuffer(cid, np.uint8)
        buf[top:bottom, p + 1:p + 11] = dates
        top = bottom
    ints = buf[:, p + 12:-1].reshape(len(values), HOURS, slot)[:, :, :width]
    q += 10**4  # the entries with pads for leading zeros
    ints[:] = np.take(_digit_groups(), q).view(np.uint8).reshape(*q.shape, 4)[:, :, 4 - width:]
    # the 4 fraction digits of a reading as one uint32, in place: a view that is unaligned
    fraction = np.ndarray((len(values), HOURS), np.uint32, buf, offset=p + 13 + width,
                          strides=(len(form), slot))
    fraction[:] = np.take(_digit_groups(), r)
    return buf


def write_price_csv(prices: PriceSeries, path):
    lines = ["#unit=cents_per_kwh\n", ",".join(PRICE_HEADER) + "\r\n"]
    for market, matrix in (("DA", prices.day_ahead), ("RT", prices.real_time)):
        lines += [_ROW % (date, market, *cells)
                  for date, cells in zip(_iso_dates(matrix), matrix.values.tolist())]
    atomic_write(path, ["".join(lines).encode()])


def _iso_dates(matrix: HourlyMatrix) -> list[str]:
    return [matrix.date_of_row(row).isoformat() for row in range(matrix.n_days)]


def _archetype_shape(peaky: bool) -> np.ndarray:
    """Normalized daily load shape: an evening or a night bump over a flat floor."""
    hours = np.arange(HOURS, dtype=np.float64)
    center = 18.0 if peaky else 3.0
    shape = 0.15 + np.exp(-((hours - center) ** 2) / 6.0)
    return shape / shape.sum()


def _price_peak() -> np.ndarray:
    hours = np.arange(HOURS, dtype=np.float64)
    return np.exp(-((hours - 18.0) ** 2) / 8.0)


class EmptyTrainWindow(ValueError):
    """A split that rounds to no training day of the days it splits."""


def _train_days(split: float, total_days: int) -> int:
    """round(split * total_days), halves up: the leading days that form the training window."""
    if not (0.0 < split <= 1.0):
        raise ValueError("split must be in (0, 1]")
    train = int(split * total_days + 0.5)
    if train < 1:
        raise EmptyTrainWindow(f"split {split} leaves no training day in {total_days} days")
    return train


def synth_population(spec: SynthSpec) -> Dataset:
    """Generate a deterministic archetype population with aligned prices.

    The first round(fraction_peaky * n) consumers use an evening load shape
    aligned with the afternoon price peak; the rest use a night shape. Each
    consumer-day gets an independent multiplicative log-normal factor with
    mean 1 and coefficient of variation ``noise_cv``. The day-ahead price is
    2 + 4*exp(-(h-18)^2/8) cents/kWh with a mildly day-varying peak
    amplitude; the real-time price adds zero-mean Gaussian noise truncated
    at 0. All values are quantized to 4 decimals, matching the CSV encoding,
    so a write/load round trip is exact; a spec whose draws round all of a
    consumer's readings to 0 raises, naming the first such consumer.

    Draws from the seeded generator happen in a fixed order (day multipliers,
    price amplitudes, real-time noise), so equal specs yield byte-identical
    datasets. Days split by DEFAULT_TRAIN_SPLIT; ``align`` re-splits them without copying.
    """
    rng = np.random.default_rng(spec.seed)
    n, days = spec.n_consumers, spec.n_days
    train = _train_days(DEFAULT_TRAIN_SPLIT, days)

    if spec.noise_cv > 0:
        log_sd = float(np.sqrt(np.log1p(spec.noise_cv**2)))
        multipliers = rng.lognormal(mean=-0.5 * log_sd**2, sigma=log_sd, size=(n, days))
    else:
        multipliers = np.ones((n, days))
    amplitude = np.maximum(1.0 + 0.15 * rng.standard_normal(days), 0.2)
    rt_noise = rng.normal(0.0, 0.5, size=(days, HOURS))

    start = dt.date(2021, 1, 4)  # a Monday, so weekday shapes line up simply
    n_peaky = int(round(spec.fraction_peaky * n))
    peaky = np.arange(n) < n_peaky
    shape = np.where(peaky[:, None], _archetype_shape(True), _archetype_shape(False))

    # One (n, days, 24) block, each consumer's matrix a view of it; the same
    # products, in the same order, as base * outer(multipliers[i], shape[i]).
    usage = multipliers[:, :, None] * shape[:, None, :]
    np.multiply(spec.base_kwh_per_day, usage, out=usage)
    np.round(usage, 4, out=usage)
    usage.setflags(write=False)
    ids = [f"{'peak' if p else 'night'}-{i:05d}" for i, p in enumerate(peaky.tolist())]
    blank = np.flatnonzero(~usage.any(axis=(1, 2)))
    if blank.size:
        raise ValueError(
            f"base_kwh_per_day={spec.base_kwh_per_day:g} with noise_cv={spec.noise_cv:g} rounds "
            f"every reading of {blank.size} consumer(s) to 0 at 4 decimals, first {ids[blank[0]]}"
        )
    consumers = tuple(ConsumerSeries(c, HourlyMatrix(usage[i], start)) for i, c in enumerate(ids))

    da = np.round(2.0 + 4.0 * np.outer(amplitude, _price_peak()), 4)
    rt = np.round(np.maximum(da + rt_noise, 0.0), 4)
    prices = PriceSeries(HourlyMatrix(da, start), HourlyMatrix(rt, start))

    return Dataset(consumers, prices, train_days=train, validate_days=days - train)


def align(consumers: list[ConsumerSeries], prices: PriceSeries, split: float) -> Dataset:
    """Truncate all series to the common date range and split chronologically.

    ``train_days`` is round(split * total); the leading days form the
    training window (no shuffling). With no common date, the refusal names the
    latest start and the earliest end, each with what sets it: the prices if
    they do, else the first consumer that does.
    """
    if not consumers:
        raise ValueError("no consumers to align")
    start = max([c.usage.start_date for c in consumers] + [prices.start_date])
    end = min([c.usage.end_date for c in consumers] + [prices.day_ahead.end_date])
    if start > end:
        spans = [("prices", prices.start_date, prices.day_ahead.end_date)] + [
            (f"consumer {c.consumer_id}", c.usage.start_date, c.usage.end_date) for c in consumers]
        starts = next(name for name, first, _ in spans if first == start)
        ends = next(name for name, _, last in spans if last == end)
        raise ValueError(f"no overlapping dates: the latest start is {start} ({starts}) "
                         f"and the earliest end is {end} ({ends})")
    total = (end - start).days + 1

    def cut(matrix: HourlyMatrix) -> HourlyMatrix:
        first = matrix.row_of_date(start)
        return matrix.slice_days(first, first + total)

    cut_consumers = tuple(c if (usage := cut(c.usage)) is c.usage  # kept whole: no second sum
                          else ConsumerSeries(c.consumer_id, usage) for c in consumers)
    cut_prices = PriceSeries(cut(prices.day_ahead), cut(prices.real_time))
    train = _train_days(split, total)
    return Dataset(cut_consumers, cut_prices, train_days=train, validate_days=total - train)
