import numpy as np
import pytest

from conftest import vacate_validate
from ratecraft import simulate
from ratecraft.costs import expected_penalty, mean_real_time_price
from ratecraft.forecast import DEFAULT_AR_ORDER, fit_profile, group_profile, residual_sigma
from ratecraft.ingest import SynthSpec, align, synth_population
from ratecraft.simulate import replay_validate
from ratecraft.types import Dataset, HourlyMatrix, PriceSeries, SelectionVector


def _premium_dataset(n=60, days=800, premium=1.25, seed=21):
    """Synthetic usage with a real-time price markup over day-ahead.

    Keeps the purchase rule in its interior regime (shortfall probability
    below 1 in every hour), so the uncertainty premium is strictly positive.
    """
    base = synth_population(SynthSpec(n_consumers=n, n_days=days, noise_cv=0.35, seed=seed))
    rng = np.random.default_rng(77)
    da = base.prices.day_ahead.values
    rt = np.round(np.maximum(premium * da + rng.normal(0, 0.5, da.shape), 0.0), 4)
    prices = PriceSeries(base.prices.day_ahead, HourlyMatrix(rt, base.prices.start_date))
    return Dataset(base.consumers, prices, base.train_days, base.validate_days)


def test_replay_perfect_forecast_matches_lambda():
    ds = synth_population(SynthSpec(n_consumers=30, n_days=60, noise_cv=0.0, seed=2))
    for design in ("two_sided", "one_sided"):
        report = replay_validate(ds, design=design)
        assert report.realized_rate == pytest.approx(report.lambda_rate, rel=1e-9)
        assert report.penalty_gap == pytest.approx(0.0, abs=1e-9 * report.lambda_rate)


def test_replay_one_sided_rate_at_least_lambda():
    ds = _premium_dataset(n=40, days=200)
    sel = SelectionVector(40, range(30))
    report = replay_validate(ds, sel, design="one_sided")
    assert report.realized_rate >= report.lambda_rate
    assert report.expected_gap > 0


def test_replay_penalty_gap_matches_expectation():
    # empirical mean per-day penalty within 3 standard errors of the closed form
    ds = _premium_dataset()
    sel = SelectionVector(60, range(40))
    report = replay_validate(ds, sel, design="one_sided", n_days=200)
    assert report.n_days == 200
    p = ds.prices.day_ahead.values
    penalties = np.array(
        [s.cost - float(p[s.day_index] @ s.consumed) for s in report.settlements]
    )
    demand = np.array([float(s.consumed.sum()) for s in report.settlements])
    empirical_gap = penalties.sum() / demand.sum()
    se = penalties.std(ddof=1) / np.sqrt(len(penalties)) / demand.mean()
    assert report.penalty_gap == pytest.approx(empirical_gap, rel=1e-9)
    assert abs(empirical_gap - report.expected_gap) <= 3 * se


def test_replay_error_model_comes_from_the_training_window():
    # sigma is fitted on one-step residuals of rows [order, train_days); held-out days never enter
    ds = synth_population(SynthSpec(n_consumers=20, n_days=40, noise_cv=0.3, seed=5))
    sel = SelectionVector(20, range(0, 20, 2))
    report = replay_validate(ds, sel, design="one_sided")
    train, start_weekday = ds.train_days, ds.start_weekday
    profile = group_profile(ds, sel)
    model = fit_profile(profile, train, start_weekday)
    error_model = residual_sigma(profile, model, DEFAULT_AR_ORDER, train, start_weekday)
    q_mean = mean_real_time_price(ds)
    expected_total = 0.0
    for k in range(train, ds.n_days):
        expected_total += expected_penalty(error_model, ds.prices.day_ahead.values[k], q_mean)
    demand = float(profile.sum(axis=1)[train:].sum())
    assert report.expected_gap > 0
    assert report.expected_gap == expected_total / demand


def test_replay_accounting_consistency():
    ds = _premium_dataset(n=20, days=60)
    report = replay_validate(ds, design="two_sided")
    assert report.n_days == ds.validate_days
    assert report.demand_kwh == pytest.approx(
        sum(float(s.consumed.sum()) for s in report.settlements)
    )
    assert report.cost_cents == pytest.approx(sum(s.cost for s in report.settlements))
    assert report.realized_rate == pytest.approx(report.cost_cents / report.demand_kwh)
    assert report.penalty_gap == pytest.approx(report.realized_rate - report.lambda_rate)


def test_replay_day_limit_and_validation():
    ds = synth_population(SynthSpec(n_consumers=10, n_days=40, seed=5))
    report = replay_validate(ds, n_days=3)
    assert report.n_days == 3
    with pytest.raises(ValueError, match="n_days"):
        replay_validate(ds, n_days=0)
    with pytest.raises(ValueError, match="n_days"):
        replay_validate(ds, n_days=ds.validate_days + 1)


def test_replay_refuses_a_selection_vacant_in_the_replayed_days():
    ds = synth_population(SynthSpec(n_consumers=30, n_days=40, seed=3))
    sel = SelectionVector(30, [4])
    late_start = vacate_validate(ds, [4], days=2)  # usage again from the third validate day
    message = f"the group of 1 consumer(s) has no usage in the replayed days: {ds.consumer_ids[4]}"
    for vacant, n_days in ((vacate_validate(ds, [4]), None), (late_start, 2)):
        with pytest.raises(ValueError) as exc:
            replay_validate(vacant, sel, design="one_sided", n_days=n_days)
        assert str(exc.value) == message
    assert replay_validate(late_start, sel, design="one_sided", n_days=3).demand_kwh > 0


def test_replay_refuses_an_unknown_design_before_any_work(monkeypatch):
    ds = synth_population(SynthSpec(n_consumers=10, n_days=40, seed=5))
    profiles = []
    monkeypatch.setattr(simulate, "group_profile",
                        lambda *args: profiles.append(args) or group_profile(*args))
    with pytest.raises(ValueError, match="unknown settlement design 'bogus'"):
        replay_validate(ds, design="bogus")
    assert profiles == []
    replay_validate(ds, design="one_sided", n_days=1)
    assert len(profiles) == 1


def test_replay_requires_validate_window():
    base = synth_population(SynthSpec(n_consumers=4, n_days=20, seed=5))
    ds = align(base.consumers, base.prices, split=1.0)
    with pytest.raises(ValueError, match="validate window is empty"):
        replay_validate(ds)
