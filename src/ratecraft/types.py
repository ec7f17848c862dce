"""Core domain types shared across the toolkit.

Conventions: energy is kWh, prices are cents/kWh, and every time series is a
(days x 24) matrix over consecutive calendar days. A group of consumers is a
SelectionVector, which holds its members' indices. Constructors validate their
invariants and raise ValueError instead of silently repairing bad input.

Instances are immutable, so they are safe to share across threads: every value
type (`HourlyMatrix`, `CostStats`, `ForecastErrorModel`, `GroupForecaster`,
`PurchasePlan`, `DailySettlement`) and the purchase rule take float arrays
through one rule, `_readonly`: finite, of the field's shape, nonnegative unless
signed. It keeps the caller's array only when nothing can write it and
otherwise copies, so it never freezes the caller's array nor shows the
caller's later writes. The loader and `synth_population` fill one read-only
(consumers, days, 24) block, each consumer's matrix a view of its rows;
`Dataset.usage_stack` returns that block when the rows tile it in order, and
stacks a copy for any other population (days trimmed by `align`, consumers
reordered, built by hand).
"""

from __future__ import annotations

import datetime as dt
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

HOURS = 24


def _frozen(arr: np.ndarray) -> bool:
    """True if `arr` and every array it views are read-only, down to the memory's owner."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _readonly(values, name: str, shape: tuple, nonnegative: bool = True) -> np.ndarray:
    """`values` as a finite read-only float64 array of `shape`: itself if unwritable, else a copy.

    `shape` gives each axis as an exact length, or as a name ("days") for any
    length >= 1. Checks finite, then shape, then sign unless not `nonnegative`.
    """
    arr = values
    if not (type(arr) is np.ndarray and arr.dtype == np.float64
            and arr.flags.c_contiguous and _frozen(arr)):
        arr = np.array(arr, dtype=np.float64)
        arr.setflags(write=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if arr.ndim != len(shape) or not all(
            n >= 1 if isinstance(want, str) else n == want for n, want in zip(arr.shape, shape)):
        named = " and ".join(f"{axis} >= 1" for axis in shape if isinstance(axis, str))
        expected = str(tuple(shape)).replace("'", "") + (f" with {named}" if named else "")
        raise ValueError(f"{name} must have shape {expected}, got {arr.shape}")
    if nonnegative and (arr < 0).any():
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _count(value, name: str) -> int:
    """`value` as an int when it is one to `operator.index`, else a ValueError naming `name`.

    Floats, numpy floats and strings are refused, not truncated or parsed, and so is a bool.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def _shared_block(rows: list[np.ndarray]) -> np.ndarray | None:
    """`rows` as one (len(rows), days, 24) view, if they lie back to back in one owner, in order.

    The rows are C-contiguous `HourlyMatrix` values of one shape (`Dataset` checks
    it); None if they are not so laid out.
    """
    owner = rows[0].base
    if not (isinstance(owner, np.ndarray) and owner.flags.c_contiguous):
        return None
    first, size = _address(rows[0]), rows[0].nbytes
    for k, row in enumerate(rows):
        if row.base is not owner or _address(row) != first + k * size:
            return None
    return np.ndarray((len(rows), *rows[0].shape), np.float64, buffer=owner,
                      offset=first - _address(owner))


@dataclass(frozen=True)
class HourlyMatrix:
    """Nonnegative hourly values, one row per consecutive day.

    `values` is stored by the module's one rule (`_readonly`): a finite,
    nonnegative (days, 24) array, kept if nothing can write it, else copied.
    """

    values: np.ndarray
    start_date: dt.date

    def __post_init__(self):
        # exactly a date: a datetime (a date subclass) or a string breaks the day arithmetic
        if type(self.start_date) is not dt.date:
            raise ValueError(f"start_date must be a datetime.date, got {self.start_date!r}")
        object.__setattr__(self, "values", _readonly(self.values, "values", ("days", HOURS)))

    @property
    def n_days(self) -> int:
        return self.values.shape[0]

    @property
    def end_date(self) -> dt.date:
        """Last covered date (inclusive)."""
        return self.start_date + dt.timedelta(days=self.n_days - 1)

    def date_of_row(self, row: int) -> dt.date:
        return self.start_date + dt.timedelta(days=int(row))

    def row_of_date(self, date: dt.date) -> int:
        return (date - self.start_date).days

    def slice_days(self, start: int, stop: int) -> "HourlyMatrix":
        """Rows [start, stop) as a matrix; the whole range is this (immutable) matrix."""
        if not (0 <= start < stop <= self.n_days):
            raise ValueError(f"invalid day slice [{start}, {stop}) for {self.n_days} days")
        if start == 0 and stop == self.n_days:
            return self
        return HourlyMatrix(self.values[start:stop], self.date_of_row(start))


@dataclass(frozen=True)
class ConsumerSeries:
    """One consumer's hourly kWh usage over a date range."""

    consumer_id: str
    usage: HourlyMatrix

    def __post_init__(self):
        if not self.consumer_id:
            raise ValueError("consumer_id must be nonempty")
        if float(self.usage.values.sum()) <= 0.0:
            raise ValueError(f"consumer {self.consumer_id} has zero total usage")


@dataclass(frozen=True)
class PriceSeries:
    """Aligned day-ahead and real-time hourly prices in cents/kWh."""

    day_ahead: HourlyMatrix
    real_time: HourlyMatrix

    def __post_init__(self):
        if self.day_ahead.values.shape != self.real_time.values.shape:
            raise ValueError("day-ahead and real-time matrices must have the same shape")
        if self.day_ahead.start_date != self.real_time.start_date:
            raise ValueError("day-ahead and real-time series must start on the same date")

    @property
    def n_days(self) -> int:
        return self.day_ahead.n_days

    @property
    def start_date(self) -> dt.date:
        return self.day_ahead.start_date


@dataclass(frozen=True)
class Dataset:
    """Consumers and prices over one common date range, split chronologically.

    The first ``train_days`` rows form the historical window used for fitting
    and recruitment; the remaining ``validate_days`` rows are held out for
    backtesting.
    """

    consumers: tuple[ConsumerSeries, ...]
    prices: PriceSeries
    train_days: int
    validate_days: int

    def __post_init__(self):
        for name in ("train_days", "validate_days"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        object.__setattr__(self, "consumers", tuple(self.consumers))
        if len(self.consumers) == 0:
            raise ValueError("dataset needs at least one consumer")
        shape = self.prices.day_ahead.values.shape
        start = self.prices.start_date
        for c in self.consumers:
            if c.usage.values.shape != shape:
                raise ValueError(
                    f"consumer {c.consumer_id} shape {c.usage.values.shape} "
                    f"does not match prices shape {shape}"
                )
            if c.usage.start_date != start:
                raise ValueError(
                    f"consumer {c.consumer_id} starts {c.usage.start_date}, prices start {start}"
                )
        ids = [c.consumer_id for c in self.consumers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate consumer ids in dataset")
        if self.train_days < 1:
            raise ValueError("train window must contain at least one day")
        if self.validate_days < 0:
            raise ValueError("validate_days must be nonnegative")
        if self.train_days + self.validate_days != self.prices.n_days:
            raise ValueError(
                f"train_days + validate_days must equal {self.prices.n_days} total days"
            )

    @property
    def n_consumers(self) -> int:
        return len(self.consumers)

    @property
    def n_days(self) -> int:
        return self.prices.n_days

    @property
    def start_date(self) -> dt.date:
        return self.prices.start_date

    @property
    def start_weekday(self) -> int:
        """Weekday of the first row, Monday = 0."""
        return self.start_date.weekday()

    @property
    def consumer_ids(self) -> tuple[str, ...]:
        return tuple(c.consumer_id for c in self.consumers)

    @cached_property
    def usage_stack(self) -> np.ndarray:
        """All usage as one read-only (n_consumers, n_days, 24) array.

        A view of the consumers' shared block where they tile it, else a stacked copy.
        """
        rows = [c.usage.values for c in self.consumers]
        stack = _shared_block(rows)
        if stack is None:
            stack = np.stack(rows)
        stack.setflags(write=False)
        return stack

    def date_of_row(self, row: int) -> dt.date:
        return self.prices.day_ahead.date_of_row(row)


@dataclass(frozen=True, eq=False)
class SelectionVector:
    """A nonempty group out of n consumers: the selection vector u in {0,1}^n.

    `indices` holds the members: read-only, ascending, distinct intp. They are given as a
    1-d sequence of integers; a mask, floats or a 2-d array are refused, not cast.
    Two selections are equal, and hash alike, when they have the same n and members.
    """

    n: int
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n"))
        given = np.asarray(self.indices if isinstance(self.indices, np.ndarray)
                           else list(self.indices))
        if given.size and (given.ndim != 1 or given.dtype.kind not in "iu"):
            raise ValueError("selection indices must be a 1-d sequence of integers, got "
                             f"{given.dtype} of shape {given.shape}")
        idx = np.sort(given.astype(np.intp, copy=False))
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
            raise ValueError(f"selection indices out of range for population of {self.n}")
        if np.count_nonzero(idx[1:] == idx[:-1]):
            raise ValueError("selection indices must be unique")
        if idx.size < 1:
            raise ValueError(f"cardinality must be in [1, {self.n}], got {idx.size}")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __eq__(self, other):
        if not isinstance(other, SelectionVector):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.indices, other.indices)

    def __hash__(self):
        return hash((self.n, self.indices.tobytes()))

    @property
    def cardinality(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class CostStats:
    """Per-consumer price-weighted usage t (cents) and total usage w (kWh)."""

    t: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        t = _readonly(self.t, "t", ("consumers",))
        w = _readonly(self.w, "w", t.shape, nonnegative=False)
        if np.any(w <= 0):
            raise ValueError("every consumer must have positive total usage w")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return int(self.t.size)

    @property
    def ratios(self) -> np.ndarray:
        """Per-consumer rate t_i / w_i in cents/kWh."""
        return self.t / self.w


@dataclass(frozen=True)
class ForecastErrorModel:
    """Zero-mean Gaussian hourly forecast error, one standard deviation per hour."""

    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", _readonly(self.sigma, "sigma", (HOURS,)))
