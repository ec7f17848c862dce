"""Replay of the validate window under realized prices.

Each held-out day is forecast from the history so far, covered with the
quantile-optimal day-ahead purchase, and settled at that day's realized
prices. The report compares the realized per-unit cost against the group's
per-unit cost over the same window; the gap between them is the price paid
for forecast uncertainty, and the closed-form expectation of that gap is
included for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, get_args

import numpy as np

from .costs import (
    DailySettlement,
    SettlementDesign,
    expected_penalty,
    mean_real_time_price,
    newsvendor_purchase,
    realized_cost,
    realized_rate,
)
from .forecast import DEFAULT_AR_ORDER, _walk
from .types import Dataset, ForecastErrorModel, SelectionVector, _count


@dataclass(frozen=True)
class ReplayReport:
    design: SettlementDesign
    settlements: tuple[DailySettlement, ...]
    demand_kwh: float
    cost_cents: float
    realized_rate: float  # cents/kWh over the replayed days
    lambda_rate: float  # per-unit cost at day-ahead prices over the same days
    expected_gap: float  # closed-form expected penalty per kWh

    @property
    def n_days(self) -> int:
        return len(self.settlements)

    @property
    def penalty_gap(self) -> float:
        return self.realized_rate - self.lambda_rate


def replay_validate(
    dataset: Dataset,
    selection: Optional[SelectionVector] = None,
    design: SettlementDesign = "two_sided",
    n_days: Optional[int] = None,
) -> ReplayReport:
    """Forecast, purchase and settle each validate day for the selected group.

    One forecast walk covers rows [order, train_days + days): its training rows'
    one-step residuals give the error model feeding the purchase rule, and its
    later rows are the replayed forecasts. The expected real-time price is the
    training window's per-hour mean. History fed to the forecaster uses
    actual totals (day-ahead operation always knows yesterday's meter data).
    A selection with no usage in the replayed days or in the training window
    raises, naming its members.
    """
    if design not in get_args(SettlementDesign):  # before any fit or forecast
        raise ValueError(f"unknown settlement design {design!r}")
    if selection is None:
        selection = SelectionVector(dataset.n_consumers, np.arange(dataset.n_consumers))
    if dataset.validate_days < 1:
        raise ValueError("validate window is empty")
    total_days = dataset.validate_days if n_days is None else _count(n_days, "n_days")
    if not (1 <= total_days <= dataset.validate_days):
        raise ValueError(f"n_days must be in [1, {dataset.validate_days}]")

    train_days = dataset.train_days
    stop = train_days + total_days
    profile, totals, preds = _walk(dataset, selection, DEFAULT_AR_ORDER, stop, "replayed days")
    fitted = train_days - DEFAULT_AR_ORDER
    residuals = profile[DEFAULT_AR_ORDER:train_days] - preds[:fitted]
    error_model = ForecastErrorModel(sigma=residuals.std(axis=0, ddof=1))
    q_mean = mean_real_time_price(dataset)

    p_all = dataset.prices.day_ahead.values
    q_all = dataset.prices.real_time.values

    settlements: list[DailySettlement] = []
    da_value = 0.0  # sum of p . d over replayed days
    expected_total = 0.0
    for k, forecast in zip(range(train_days, stop), preds[fitted:]):
        plan = newsvendor_purchase(forecast, error_model, p_all[k], q_mean)
        cost = realized_cost(p_all[k], q_all[k], plan.purchase, profile[k], design)
        settlements.append(
            DailySettlement(day_index=k, purchased=plan.purchase, consumed=profile[k], cost=cost)
        )
        da_value += float(p_all[k] @ profile[k])
        expected_total += expected_penalty(error_model, p_all[k], q_mean)

    day_costs = np.array([s.cost for s in settlements])
    day_demand = totals[train_days:stop]
    demand = float(day_demand.sum())
    return ReplayReport(
        design=design,
        settlements=tuple(settlements),
        demand_kwh=demand,
        cost_cents=float(day_costs.sum()),
        realized_rate=realized_rate(day_costs, day_demand),
        lambda_rate=da_value / demand,
        expected_gap=expected_total / demand,
    )
