"""Day-ahead group forecasting and forecast-error evaluation.

The forecaster is deliberately simple: an autoregressive model over the
group's daily totals plus a per-weekday mean normalized load shape. The
predicted day is the predicted total times the shape, so the hourly forecast
sums exactly to the total prediction. It sits behind a small surface
(fit_profile / predict_rows) so a richer model can be swapped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    rows = n - order
    design = np.empty((rows, order + 1))
    design[:, 0] = 1.0
    for j in range(1, order + 1):
        design[:, j] = y[order - j : n - j]
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


def _require_usage(dataset: Dataset, u: SelectionVector, rows: np.ndarray, window: str):
    """Refuse a group whose profile `rows` hold no usage, naming its first few members."""
    if not rows.any():
        ids = dataset.consumer_ids
        named = ", ".join(ids[i] for i in u.indices[:5])
        raise ValueError(
            f"the group of {u.cardinality} consumer(s) has no usage in the {window}: {named}"
        )


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
    `model.order` days give a non-finite total is refused.
    """
    h = np.asarray(history, dtype=np.float64)
    if h.size < model.order:
        raise ValueError(f"need at least {model.order} days of history, got {h.size}")
    day_of_week = _count(day_of_week, "day_of_week")
    if not (0 <= day_of_week <= 6):
        raise ValueError("day_of_week must be in [0, 6]")
    lags = h[-1 : -model.order - 1 : -1]  # most recent first, matching coeffs
    total = model.intercept + float(model.coeffs @ lags)
    if not math.isfinite(total):  # max(nan, 0.0) is nan
        raise ValueError(f"history gives a non-finite predicted total ({total})")
    total = max(total, 0.0)
    return total * model.shapes[day_of_week]


def predict_rows(
    model: GroupForecaster, totals: np.ndarray, start: int, stop: int, start_weekday: int
) -> np.ndarray:
    """Forecast rows [start, stop) one step ahead, as a (stop - start, 24) block.

    Row k is predicted by predict_day from the actual daily totals before it
    and the weekday of row k. This is the one walk-forward loop: the
    backtest and the replay call it; the replay's first rows give its error model.
    """
    if not (model.order <= start <= stop <= len(totals)):
        raise ValueError(
            f"rows [{start}, {stop}) need {model.order} days of history within {len(totals)} days"
        )
    preds = np.empty((stop - start, HOURS))
    for k in range(start, stop):
        preds[k - start] = predict_day(model, totals[:k], (start_weekday + k) % 7)
    return preds


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


def backtest_cv(dataset: Dataset, u: SelectionVector) -> float:
    """Fit on the training window, evaluate CV over the whole validate window.

    A group with no usage in the validate window has no CV, and one with none in the
    training window has no forecaster, so both raise, naming its members.
    """
    if dataset.validate_days < 1:
        raise ValueError("validate window is empty")
    profile = group_profile(dataset, u)
    _require_usage(dataset, u, profile[dataset.train_days :], "validate window")
    _require_usage(dataset, u, profile[: dataset.train_days], "training window")
    model = fit_profile(profile, dataset.train_days, dataset.start_weekday)
    preds = predict_rows(
        model, profile.sum(axis=1), dataset.train_days, dataset.n_days, dataset.start_weekday
    )
    actual = profile[dataset.train_days :]
    return cv(actual.ravel(), preds.ravel())


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
