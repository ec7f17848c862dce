"""Market cost model: cost-to-serve rates, settlement, and optimal purchasing.

An hourly day-ahead purchase is settled against actual consumption either
two-sided (surplus sold back at the real-time price) or one-sided (surplus
forfeited, shortfall bought at the real-time price). Under the one-sided
design the cost-minimizing purchase adjustment is a per-hour quantile of the
forecast-error distribution, the classic critical-fractile rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Literal, Sequence

import numpy as np

from .types import (
    HOURS, CostStats, Dataset, ForecastErrorModel, SelectionVector, _count, _readonly,
)

SettlementDesign = Literal["two_sided", "one_sided"]

# Keeps the quantile finite when p/q leaves (0, 1); documented degradation.
RHO_MIN = 1e-6

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# The standard normal: inv_cdf is Wichura's AS 241 quantile, and cdf is
# 0.5 * (1 + erf(x / sqrt 2)).
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class PurchasePlan:
    """Day-ahead purchase: max(forecast + adjustment, 0), where the adjustment may be negative."""

    adjustment: np.ndarray
    purchase: np.ndarray

    def __post_init__(self):
        adjustment = _readonly(self.adjustment, "adjustment", (HOURS,), nonnegative=False)
        object.__setattr__(self, "adjustment", adjustment)
        object.__setattr__(self, "purchase", _readonly(self.purchase, "purchase", (HOURS,)))


@dataclass(frozen=True)
class DailySettlement:
    """One settled day: what was bought, what was used, what it cost."""

    day_index: int
    purchased: np.ndarray  # kWh per hour
    consumed: np.ndarray  # kWh per hour
    cost: float  # cents

    def __post_init__(self):
        object.__setattr__(self, "day_index", _count(self.day_index, "day_index"))
        if self.day_index < 0:
            raise ValueError("day_index must be nonnegative")
        if not math.isfinite(self.cost):
            raise ValueError("cost must be finite")
        for name in ("purchased", "consumed"):
            object.__setattr__(self, name, _readonly(getattr(self, name), name, (HOURS,)))


def consumer_stats(dataset: Dataset) -> CostStats:
    """Per-consumer price-weighted usage t_i (cents) and total usage w_i (kWh).

    t_i sums day-ahead price times consumption over every training-window hour;
    w_i is the consumer's total kWh over the same hours. A consumer with no
    usage there has no rate, so that raises, naming the first few.
    """
    prices = dataset.prices.day_ahead.values[: dataset.train_days].ravel()
    flat = dataset.usage_stack[:, : dataset.train_days].reshape(dataset.n_consumers, -1)
    t = flat @ prices
    w = flat.sum(axis=1)
    idle = np.flatnonzero(w <= 0)
    if idle.size:
        ids = dataset.consumer_ids
        named = ", ".join(ids[i] for i in idle[:5])
        raise ValueError(f"{idle.size} consumer(s) have no usage in the train window: {named}")
    return CostStats(t=t, w=w)


def group_lambda(stats: CostStats, u: SelectionVector) -> float:
    """Per-unit cost of serving the selected group: (u.t) / (u.w).

    Equals the kWh-weighted mean of the members' individual rates, so it
    always lies between their minimum and maximum.
    """
    if u.n != stats.n:
        raise ValueError("selection length does not match stats")
    idx = u.indices
    return float(stats.t[idx].sum() / stats.w[idx].sum())


def realized_cost(
    p: Sequence[float],
    q: Sequence[float],
    purchased: Sequence[float],
    consumed: Sequence[float],
    design: SettlementDesign = "two_sided",
) -> float:
    """Settle one day: day-ahead purchase at p, deviation at realized q.

    two_sided:  p.purchased + q.(consumed - purchased)
    one_sided:  p.purchased + q.max(consumed - purchased, 0)

    The four vectors are finite, nonnegative and of one length.
    """
    p = _readonly(p, "p", ("hours",))
    q = _readonly(q, "q", ("hours",))
    tilde = _readonly(purchased, "purchased", ("hours",))
    d = _readonly(consumed, "consumed", ("hours",))
    if not (p.shape == q.shape == tilde.shape == d.shape):
        raise ValueError("price and quantity vectors must have equal shapes")
    gap = d - tilde
    if design == "two_sided":
        return float(p @ tilde + q @ gap)
    if design == "one_sided":
        return float(p @ tilde + q @ np.maximum(gap, 0.0))
    raise ValueError(f"unknown settlement design {design!r}")


def realized_rate(costs: Sequence[float], demands: Sequence[float]) -> float:
    """Average per-unit cost over a run of days: sum(costs) / sum(kWh).

    Both are finite vectors of one length; the costs may be negative, the kWh may not.
    """
    costs = _readonly(costs, "costs", ("days",), nonnegative=False)
    demands = _readonly(demands, "demands", ("days",))
    if costs.shape != demands.shape:
        raise ValueError("costs and demands must have equal length")
    total = float(demands.sum())
    if total <= 0:
        raise ValueError("zero total demand")
    return float(costs.sum() / total)


def _optimal_adjustment(sigma: np.ndarray, p: np.ndarray, q_mean: np.ndarray) -> np.ndarray:
    rho = np.clip(p / q_mean, RHO_MIN, 1.0 - RHO_MIN)
    return sigma * np.array([_STANDARD_NORMAL.inv_cdf(x) for x in 1.0 - rho])


def _validate_price_inputs(p, q_mean):
    p = _readonly(p, "day-ahead prices", (HOURS,))
    q_mean = _readonly(q_mean, "expected real-time price", (HOURS,), nonnegative=False)
    if np.any(q_mean <= 0):
        raise ValueError("expected real-time price must be positive in every hour")
    return p, q_mean


def newsvendor_purchase(
    forecast: Sequence[float],
    error_model: ForecastErrorModel,
    p: Sequence[float],
    q_mean: Sequence[float],
) -> PurchasePlan:
    """Cost-minimizing one-sided purchase given Gaussian hourly forecast errors.

    At the optimum the probability of under-purchasing in hour h equals
    p_h / E[q_h], so the adjustment is delta_h = sigma_h * z(1 - rho_h) with
    rho_h clamped to [RHO_MIN, 1 - RHO_MIN] to keep the quantile finite when
    p_h exceeds the expected real-time price. Purchases are floored at zero;
    with sigma_h = 0 the purchase is exactly the forecast.
    """
    p, q_mean = _validate_price_inputs(p, q_mean)
    forecast = _readonly(forecast, "forecast", (HOURS,), nonnegative=False)
    delta = _optimal_adjustment(error_model.sigma, p, q_mean)
    purchase = np.maximum(forecast + delta, 0.0)
    return PurchasePlan(adjustment=delta, purchase=purchase)


def expected_penalty(
    error_model: ForecastErrorModel,
    p: Sequence[float],
    q_mean: Sequence[float],
) -> float:
    """Expected extra cost (cents) of one-sided settlement at the optimal purchase.

    Per hour: p_h * delta_h plus E[q_h] times the expected uncovered shortfall
    E[(-eps_h - delta_h)+]. For X ~ N(0, sigma^2) the closed form is
    E[(X - a)+] = sigma * phi(a / sigma) - a * (1 - Phi(a / sigma)).
    Zero when sigma is zero everywhere.
    """
    p, q_mean = _validate_price_inputs(p, q_mean)
    sigma = error_model.sigma
    delta = _optimal_adjustment(sigma, p, q_mean)
    tail = np.zeros(HOURS)
    pos = sigma > 0
    if np.any(pos):
        z = delta[pos] / sigma[pos]
        phi = np.exp(-0.5 * z * z) / _SQRT_2PI
        cdf = np.array([_STANDARD_NORMAL.cdf(x) for x in z])
        tail[pos] = sigma[pos] * phi - delta[pos] * (1.0 - cdf)
    return float(np.sum(p * delta + q_mean * tail))


def mean_real_time_price(dataset: Dataset) -> np.ndarray:
    """Per-hour mean of real-time prices over the training window, the E[q] estimate."""
    return dataset.prices.real_time.values[: dataset.train_days].mean(axis=0)
