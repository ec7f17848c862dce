"""Day-ahead group forecasting and forecast-error evaluation.

The forecaster is deliberately simple: an autoregressive model over the
group's daily totals plus a per-weekday mean normalized load shape. The
predicted day is the predicted total times the shape, so the hourly forecast
sums exactly to the total prediction. It sits behind a small surface
(fit_profile / predict_rows) so a richer model can be swapped in.

A backtest and a replay are each one forecast walk (`_walk`): the group's
profile, the fit on its training window, and the one-step forecasts of a run
of rows. predict_rows forecasts the whole run in one predict_day call, over
the rows' histories stacked as sliding windows of the daily totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .costs import consumer_stats
from .solver import DEFAULT_GAMMA, solve_min_lambda
from .types import HOURS, Dataset, SelectionVector, _count, _readonly

DEFAULT_AR_ORDER = 7  # one week of lags
MIN_TRAIN_DAYS = 14  # every weekday seen at least twice

_SHAPE_TOL = 1e-12


@dataclass(frozen=True)
class GroupForecaster:
    """AR coefficients over daily totals plus per-weekday normalized shapes."""

    intercept: float
    coeffs: np.ndarray  # (order,), coeffs[j] multiplies the total j+1 days back
    shapes: np.ndarray  # (7, 24) rows normalized to sum 1

    def __post_init__(self):
        if not np.isfinite(self.intercept):
            raise ValueError("intercept must be finite")
        coeffs = _readonly(self.coeffs, "coeffs", ("order",), nonnegative=False)
        shapes = _readonly(self.shapes, "shapes", (7, HOURS))
        if np.any(np.abs(shapes.sum(axis=1) - 1.0) > _SHAPE_TOL):
            raise ValueError("every load shape must sum to 1")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "shapes", shapes)

    @property
    def order(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class CvPoint:
    m: int
    kind: str  # "random" or "optimal"
    cv: float

    def __post_init__(self):
        object.__setattr__(self, "m", _count(self.m, "m"))
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.kind not in ("random", "optimal"):
            raise ValueError(f"unknown point kind {self.kind!r}")
        if not self.cv >= 0:  # also refuses NaN
            raise ValueError("cv must be nonnegative")


@dataclass(frozen=True)
class CvCurve:
    """Forecast error versus group size, for random and optimal groups."""

    points: tuple[CvPoint, ...]
    random_ci: dict[int, tuple[float, float]]


def fit_ar(series: Sequence[float], order: int) -> tuple[float, np.ndarray]:
    """Least-squares AR(order) fit with intercept on a 1-D finite series."""
    order = _count(order, "order")
    if order < 1:
        raise ValueError("AR order must be >= 1")
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("series must be 1-D")
    if not np.isfinite(y).all():  # else LAPACK prints a warning to stdout, then lstsq raises
        raise ValueError("series must be finite")
    n = y.size
    if n < order + 1:
        raise ValueError(f"need at least {order + 1} points to fit AR({order})")
    # row r: 1, then y[r + order - 1], ..., y[r], the lags most recent first
    design = np.column_stack((np.ones(n - order), sliding_window_view(y[:-1], order)[:, ::-1]))
    coef, *_ = np.linalg.lstsq(design, y[order:], rcond=None)
    return float(coef[0]), coef[1:]


def group_profile(dataset: Dataset, u: SelectionVector) -> np.ndarray:
    """Summed hourly consumption of the group, as a (days, 24) matrix.

    Reads only the k member rows, so it costs O(k * days * 24) whatever the
    population size. The rows are added in one fixed order: consumers fall
    into consecutive blocks of four (`i >> 2`), except that when n % 4 == 3
    the last three form the blocks {n-3, n-2} and {n-1}. A block's members
    are added in index order, ((r0 + r1) + r2) + r3, and the block sums are
    added in block order to a zero row. That is the order of OpenBLAS's
    SkylakeX `dgemv` for the dense 0/1 product of u and the usage, where an
    absent member adds an exact zero, so profiles keep the bytes it gave.
    """
    n = dataset.n_consumers
    if u.n != n:
        raise ValueError("selection length does not match dataset")
    flat = dataset.usage_stack.reshape(n, -1)
    blocks = u.indices >> 2
    if n % 4 == 3 and u.indices[-1] == n - 1:
        blocks[-1] += 1  # the last consumer is a block of its own
    members = u.indices.tolist()
    cuts = (np.flatnonzero(np.diff(blocks)) + 1).tolist()
    total = np.zeros(flat.shape[1])
    part = np.empty_like(total)
    for start, stop in zip([0, *cuts], [*cuts, len(members)]):
        rows = members[start:stop]
        if len(rows) == 1:
            total += flat[rows[0]]
            continue
        np.add(flat[rows[0]], flat[rows[1]], out=part)
        for i in rows[2:]:
            part += flat[i]
        total += part
    return total.reshape(dataset.n_days, HOURS)


def fit_profile(profile: np.ndarray, train_days: int, start_weekday: int) -> GroupForecaster:
    """Fit the AR(DEFAULT_AR_ORDER) group forecaster on the first train_days rows of a profile.

    Each weekday's shape is the mean of its active days' normalized rows, and a weekday with no
    active day gets the mean of all of them. One bincount adds the rows in day order, as mean does.
    """
    if train_days < MIN_TRAIN_DAYS:
        raise ValueError(f"training window too short: need at least {MIN_TRAIN_DAYS} days")
    train = profile[:train_days]
    totals = train.sum(axis=1)
    active = totals > 0
    if not np.any(active):
        raise ValueError("group has no usage in the training window")
    intercept, coeffs = fit_ar(totals, DEFAULT_AR_ORDER)

    normalized = train[active] / totals[active, None]
    weekday_of_active = ((start_weekday + np.arange(train_days)) % 7)[active]
    cells = (weekday_of_active[:, None] * HOURS + np.arange(HOURS)).ravel()
    sums = np.bincount(cells, weights=normalized.ravel(), minlength=7 * HOURS)
    counts = np.bincount(weekday_of_active, minlength=7)
    shapes = sums.reshape(7, HOURS) / np.maximum(counts, 1)[:, None]
    if not counts.all():
        shapes[counts == 0] = normalized.mean(axis=0)
    return GroupForecaster(intercept, coeffs, shapes / shapes.sum(axis=1, keepdims=True))


def predict_day(
    model: GroupForecaster, history: Sequence[float], day_of_week: int
) -> np.ndarray:
    """Forecast the next day's 24 hours from the daily-total history.

    The predicted total (floored at 0) is spread over the weekday shape, so
    the hourly forecast sums back to the total exactly. A history whose last
    `model.order` days give a non-finite total is refused. Histories may be
    stacked on leading axes, each with its own weekday in `day_of_week`; the
    forecasts are then stacked the same way, each as one history alone gives it.
    """
    h = np.atleast_1d(np.asarray(history, dtype=np.float64))
    if h.shape[-1] < model.order:
        raise ValueError(f"need at least {model.order} days of history, got {h.shape[-1]}")
    weekdays = np.asarray(day_of_week)
    if weekdays.dtype.kind not in "iu":  # _count's check: no float, bool or string
        raise ValueError(f"day_of_week must be an integer, got {day_of_week!r}")
    if np.any((weekdays < 0) | (weekdays > 6)):
        raise ValueError("day_of_week must be in [0, 6]")
    # The lag products are added to 0 yesterday first, as `coeffs @ lags` adds them for
    # one history, so a stacked forecast is bit-identical to its history's alone.
    total = np.zeros(h.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total is refused below
        for j, c in enumerate(model.coeffs):
            total += c * h[..., -1 - j]
        total += model.intercept
    bad = total[~np.isfinite(total)]
    if bad.size:  # np.maximum(nan, 0.0) is nan
        raise ValueError(f"history gives a non-finite predicted total ({bad[0]})")
    return np.maximum(total, 0.0)[..., None] * model.shapes[weekdays]


def predict_rows(
    model: GroupForecaster, totals: np.ndarray, start: int, stop: int, start_weekday: int
) -> np.ndarray:
    """Forecast rows [start, stop) one step ahead, as a (stop - start, 24) block.

    Row k is predicted from the `model.order` actual daily totals before it and
    the weekday of row k. The rows' histories go to predict_day stacked, in one call.
    """
    if not (model.order <= start <= stop <= len(totals)):
        raise ValueError(
            f"rows [{start}, {stop}) need {model.order} days of history within {len(totals)} days"
        )
    histories = sliding_window_view(totals[start - model.order : stop], model.order)[:-1]
    return predict_day(model, histories, (start_weekday + np.arange(start, stop)) % 7)


def cv(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of variation of forecast error, in percent.

    100 * RMSE(actual, predicted) / mean(actual), of finite series.
    """
    a = np.asarray(actual, dtype=np.float64).ravel()
    f = np.asarray(predicted, dtype=np.float64).ravel()
    if a.shape != f.shape:
        raise ValueError("actual and predicted must have equal length")
    if a.size == 0:
        raise ValueError("cannot evaluate cv on empty series")
    for name, values in (("actual", a), ("predicted", f)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    mean = float(a.mean())
    if mean <= 0:
        raise ValueError("mean actual consumption must be positive")
    rmse = float(np.sqrt(np.mean((a - f) ** 2)))
    return 100.0 * rmse / mean


def _walk(dataset: Dataset, u: SelectionVector, start: int, stop: int, window: str):
    """The group's forecast walk: its profile, daily totals and forecasts of rows [start, stop).

    The forecaster is fit on the training window. A group with no usage in rows
    [train_days, stop), named `window`, or in the training window raises, naming its
    first few members.
    """
    profile = group_profile(dataset, u)
    train_days = dataset.train_days
    for rows, name in ((profile[train_days:stop], window),
                       (profile[:train_days], "training window")):
        if not rows.any():
            named = ", ".join(dataset.consumer_ids[i] for i in u.indices[:5])
            raise ValueError(
                f"the group of {u.cardinality} consumer(s) has no usage in the {name}: {named}"
            )
    model = fit_profile(profile, train_days, dataset.start_weekday)
    totals = profile.sum(axis=1)
    return profile, totals, predict_rows(model, totals, start, stop, dataset.start_weekday)


def backtest_cv(dataset: Dataset, u: SelectionVector) -> float:
    """Fit on the training window, evaluate CV over the whole validate window.

    A group with no usage in the validate window has no CV, and one with none in the
    training window has no forecaster, so both raise, naming its members.
    """
    if dataset.validate_days < 1:
        raise ValueError("validate window is empty")
    train_days, n_days = dataset.train_days, dataset.n_days
    profile, _, preds = _walk(dataset, u, train_days, n_days, "validate window")
    return cv(profile[train_days:].ravel(), preds.ravel())


def cv_curve(
    dataset: Dataset,
    sizes: Sequence[int],
    n_random_trials: int = 30,
    gamma: float = DEFAULT_GAMMA,
    seed: int = 0,
) -> CvCurve:
    """Forecast-error curve over group sizes, for random and optimal groups.

    Per size M: the mean CV of n_random_trials uniformly random M-groups with
    a 95% band (mean +/- 1.96 sample standard deviations), plus the CV of the
    minimum-rate group of size M solved on the training window. Trial k at
    size index s draws from default_rng([seed, s, k]), so results are
    reproducible and independent of evaluation order. Sizes must be distinct,
    since each has one band.
    """
    sizes = [_count(m, "each of sizes") for m in sizes]
    n_random_trials = _count(n_random_trials, "n_random_trials")
    if dataset.validate_days < 1:
        raise ValueError("validate window is empty")
    if n_random_trials < 1:
        raise ValueError("n_random_trials must be >= 1")
    if len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be distinct")
    if not gamma > 0:  # before any backtest; also refuses NaN
        raise ValueError("gamma must be > 0")
    n = dataset.n_consumers
    for m in sizes:  # every size before the first backtest
        if not (1 <= m <= n):
            raise ValueError(f"group size must be in [1, {n}], got {m}")
    stats = consumer_stats(dataset)
    points: list[CvPoint] = []
    bands: dict[int, tuple[float, float]] = {}
    for s_idx, m in enumerate(sizes):
        trial_cvs = np.empty(n_random_trials)
        for trial in range(n_random_trials):
            rng = np.random.default_rng([seed, s_idx, trial])
            members = rng.choice(n, size=m, replace=False)
            selection = SelectionVector(n, members)
            trial_cvs[trial] = backtest_cv(dataset, selection)
        mean_cv = float(trial_cvs.mean())
        spread = float(trial_cvs.std(ddof=1)) if n_random_trials > 1 else 0.0
        bands[m] = (max(mean_cv - 1.96 * spread, 0.0), mean_cv + 1.96 * spread)
        points.append(CvPoint(m=m, kind="random", cv=mean_cv))

        optimal = solve_min_lambda(stats, m, gamma).selection
        points.append(CvPoint(m=m, kind="optimal", cv=backtest_cv(dataset, optimal)))
    return CvCurve(points=tuple(points), random_ci=bands)
