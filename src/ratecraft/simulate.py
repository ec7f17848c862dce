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
from .forecast import _require_usage, fit_profile, group_profile, predict_rows, residual_sigma
from .types import Dataset, SelectionVector, _count


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

    The error model feeding the purchase rule is estimated from one-step
    residuals inside the training window; the expected real-time price is the
    training window's per-hour mean. History fed to the forecaster uses
    actual totals (day-ahead operation always knows yesterday's meter data).
    A selection with no usage in the replayed days raises, naming its members.
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

    train_days, start_weekday = dataset.train_days, dataset.start_weekday
    profile = group_profile(dataset, selection)
    _require_usage(
        dataset, selection, profile[train_days : train_days + total_days], "replayed days"
    )
    model = fit_profile(profile, train_days, start_weekday)
    error_model = residual_sigma(profile, model, model.order, train_days, start_weekday)
    q_mean = mean_real_time_price(dataset)
    totals = profile.sum(axis=1)
    forecasts = predict_rows(model, totals, train_days, train_days + total_days, start_weekday)

    p_all = dataset.prices.day_ahead.values
    q_all = dataset.prices.real_time.values

    settlements: list[DailySettlement] = []
    day_costs = np.empty(total_days)
    day_demand = np.empty(total_days)
    da_value = 0.0  # sum of p . d over replayed days
    expected_total = 0.0
    for step in range(total_days):
        k = train_days + step
        plan = newsvendor_purchase(forecasts[step], error_model, p_all[k], q_mean)
        cost = realized_cost(p_all[k], q_all[k], plan.purchase, profile[k], design)
        settlements.append(
            DailySettlement(day_index=k, purchased=plan.purchase, consumed=profile[k], cost=cost)
        )
        day_costs[step] = cost
        day_demand[step] = totals[k]
        da_value += float(p_all[k] @ profile[k])
        expected_total += expected_penalty(error_model, p_all[k], q_mean)

    rate = realized_rate(day_costs, day_demand)
    demand = float(day_demand.sum())
    lam = da_value / demand
    return ReplayReport(
        design=design,
        settlements=tuple(settlements),
        demand_kwh=demand,
        cost_cents=float(day_costs.sum()),
        realized_rate=rate,
        lambda_rate=lam,
        expected_gap=expected_total / demand,
    )
