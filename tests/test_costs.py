import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from conftest import make_dataset
from ratecraft.costs import (
    RHO_MIN,
    _optimal_adjustment,
    consumer_stats,
    expected_penalty,
    group_lambda,
    mean_real_time_price,
    newsvendor_purchase,
    realized_cost,
    realized_rate,
)
from ratecraft.types import CostStats, ForecastErrorModel, SelectionVector

HOURS = 24


def normal_quantile_oracle(prob: float) -> float:
    """Independent standard-normal quantile via bisection on erf."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _flat_sigma(value, hour=0):
    sigma = np.zeros(HOURS)
    sigma[hour] = value
    return ForecastErrorModel(sigma=sigma)


# -- consumer_stats / lambdas -------------------------------------------------


def test_consumer_stats_flat_price():
    usage = np.full((1, 24), 10.0 / 24.0)
    ds = make_dataset([usage], da=np.full(24, 3.0))
    stats = consumer_stats(ds)
    assert stats.t[0] == pytest.approx(30.0, rel=1e-12)
    assert stats.w[0] == pytest.approx(10.0, rel=1e-12)
    assert stats.ratios[0] == pytest.approx(3.0, rel=1e-12)


def test_consumer_stats_peak_vs_trough():
    price = np.full(24, 2.0)
    price[18] = 6.0
    peak_user = np.zeros((2, 24))
    peak_user[:, 18] = 5.0
    trough_user = np.zeros((2, 24))
    trough_user[:, 3] = 5.0
    ds = make_dataset([peak_user, trough_user], da=price)
    stats = consumer_stats(ds)
    assert stats.t[0] / stats.t[1] == pytest.approx(3.0, rel=1e-12)
    assert stats.w[0] == stats.w[1]


def test_consumer_stats_matches_naive_summation():
    rng = np.random.default_rng(5)
    usages = [rng.uniform(0.0, 2.0, (5, 24)) for _ in range(4)]
    da = rng.uniform(1.0, 6.0, (5, 24))
    ds = make_dataset(usages, da=da, train_days=5)
    stats = consumer_stats(ds)
    for i, usage in enumerate(usages):
        t_naive = 0.0
        w_naive = 0.0
        for d in range(5):
            for h in range(24):
                t_naive += da[d, h] * usage[d, h]
                w_naive += usage[d, h]
        assert abs(stats.t[i] - t_naive) <= 1e-9 * t_naive
        assert abs(stats.w[i] - w_naive) <= 1e-9 * w_naive


def test_consumer_stats_window_selection():
    usage = np.ones((4, 24))
    da = np.ones((4, 24))
    da[2:] = 5.0
    ds = make_dataset([usage], da=da, train_days=2)
    assert consumer_stats(ds).t[0] == pytest.approx(48.0)


def test_consumer_stats_names_consumers_idle_in_window():
    busy = np.ones((20, 24))
    idle_in_train = np.ones((20, 24))
    idle_in_train[:15] = 0.0  # usage only after the training window
    ds = make_dataset(
        [busy, idle_in_train, idle_in_train], da=np.ones(24), train_days=15,
        ids=["busy", "late-1", "late-2"],
    )
    with pytest.raises(ValueError, match="2 consumer.*no usage in the train window: late-1, late-2"):
        consumer_stats(ds)


def test_individual_lambda_flat_price_identity():
    rng = np.random.default_rng(8)
    usage = rng.uniform(0.0, 3.0, (3, 24))
    ds = make_dataset([usage], da=np.full(24, 4.25))
    stats = consumer_stats(ds)
    assert stats.ratios[0] == pytest.approx(4.25, rel=1e-12)


def test_group_lambda_singleton_reduction():
    stats = CostStats(t=[30.0, 8.0], w=[10.0, 2.0])
    sel = SelectionVector(2, [1])
    assert group_lambda(stats, sel) == stats.ratios[1]


def test_group_lambda_weighted_mean():
    # rates 2 (w=1) and 4 (w=3) blend to 3.5
    stats = CostStats(t=[2.0, 12.0], w=[1.0, 3.0])
    sel = SelectionVector(2, [0, 1])
    assert group_lambda(stats, sel) == pytest.approx(3.5, rel=1e-12)


def test_group_lambda_whole_population_oracle(synth_small):
    stats = consumer_stats(synth_small)
    sel = SelectionVector(stats.n, range(stats.n))
    prices = synth_small.prices.day_ahead.values[: synth_small.train_days]
    total_cost = 0.0
    total_kwh = 0.0
    for c in synth_small.consumers:
        usage = c.usage.values[: synth_small.train_days]
        total_cost += float((prices * usage).sum())
        total_kwh += float(usage.sum())
    assert group_lambda(stats, sel) == pytest.approx(total_cost / total_kwh, rel=1e-9)


@given(
    t=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8),
    w=st.lists(st.floats(0.1, 50.0), min_size=8, max_size=8),
    data=st.data(),
)
def test_group_lambda_within_member_bounds(t, w, data):
    n = min(len(t), len(w))
    stats = CostStats(t=t[:n], w=w[:n])
    m = data.draw(st.integers(1, n))
    members = data.draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True)
    )
    sel = SelectionVector(n, members)
    lam = group_lambda(stats, sel)
    member_rates = stats.ratios[sel.bits]
    assert member_rates.min() - 1e-9 <= lam <= member_rates.max() + 1e-9


# -- settlement ----------------------------------------------------------------


def test_realized_cost_perfect_forecast():
    p = np.full(24, 3.0)
    q = np.full(24, 5.0)
    d = np.linspace(0, 2, 24)
    for design in ("two_sided", "one_sided"):
        assert realized_cost(p, q, d, d, design) == pytest.approx(float(p @ d), rel=1e-12)


def test_realized_cost_shortfall_and_surplus():
    p = np.zeros(24)
    q = np.zeros(24)
    tilde = np.zeros(24)
    p[0], q[0], tilde[0] = 3.0, 5.0, 10.0
    short = np.zeros(24)
    short[0] = 12.0
    assert realized_cost(p, q, tilde, short, "two_sided") == pytest.approx(40.0)
    assert realized_cost(p, q, tilde, short, "one_sided") == pytest.approx(40.0)
    surplus = np.zeros(24)
    surplus[0] = 8.0
    assert realized_cost(p, q, tilde, surplus, "two_sided") == pytest.approx(20.0)
    assert realized_cost(p, q, tilde, surplus, "one_sided") == pytest.approx(30.0)


def test_realized_cost_unknown_design():
    v = np.ones(24)
    with pytest.raises(ValueError, match="unknown settlement design"):
        realized_cost(v, v, v, v, "three_sided")


@given(
    data=st.data(),
)
def test_one_sided_dominates_two_sided(data):
    hours = 6
    draw = lambda lo, hi: np.array(
        data.draw(st.lists(st.floats(lo, hi), min_size=hours, max_size=hours))
    )
    p = draw(0.0, 10.0)
    q = draw(0.1, 10.0)  # strictly positive so equality is exact
    tilde = draw(0.0, 20.0)
    d = draw(0.0, 20.0)
    two = realized_cost(p, q, tilde, d, "two_sided")
    one = realized_cost(p, q, tilde, d, "one_sided")
    assert one >= two - 1e-9
    if np.all(d >= tilde):
        assert one == pytest.approx(two, abs=1e-9)
    else:
        assert one > two - 1e-9  # surplus hours are forfeited, never refunded


@pytest.mark.parametrize("k, name", enumerate(["p", "q", "purchased", "consumed"]))
def test_realized_cost_refuses_non_finite_and_negative_vectors(k, name):
    for bad, rule in ((np.nan, "finite"), (np.inf, "finite"), (-1.0, "nonnegative")):
        args = [np.ones(3) for _ in range(4)]
        args[k] = np.array([1.0, bad, 1.0])
        with pytest.raises(ValueError, match=f"^{name} must be {rule}$"):
            realized_cost(*args)
    args = [np.ones(3) for _ in range(4)]
    args[k] = np.ones((1, 3))
    with pytest.raises(ValueError, match=rf"^{name} must have shape \(hours,\) with hours >= 1"):
        realized_cost(*args)


def test_realized_rate_refuses_non_finite_values_and_negative_demand():
    with pytest.raises(ValueError, match="^costs must be finite$"):
        realized_rate([np.inf], [1.0])
    with pytest.raises(ValueError, match="^demands must be finite$"):
        realized_rate([1.0], [np.nan])
    with pytest.raises(ValueError, match="^demands must be nonnegative$"):
        realized_rate([1.0, 1.0], [2.0, -1.0])
    # a day's cost is negative when two-sided settlement sells a large surplus back
    assert realized_rate([-4.0, 10.0], [1.0, 2.0]) == pytest.approx(2.0)


def test_realized_rate_basic():
    assert realized_rate([40.0, 20.0], [12.0, 8.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="zero total demand"):
        realized_rate([1.0], [0.0])
    with pytest.raises(ValueError, match="equal length"):
        realized_rate([1.0, 2.0], [1.0])


def test_realized_rate_equals_lambda_under_perfect_purchase():
    rng = np.random.default_rng(3)
    days = 6
    p = rng.uniform(1, 5, (days, 24))
    q = rng.uniform(1, 5, (days, 24))
    d = rng.uniform(0, 2, (days, 24))
    costs = [realized_cost(p[k], q[k], d[k], d[k], "two_sided") for k in range(days)]
    demands = [float(d[k].sum()) for k in range(days)]
    lam = sum(float(p[k] @ d[k]) for k in range(days)) / sum(demands)
    assert realized_rate(costs, demands) == pytest.approx(lam, rel=1e-12)


def test_two_sided_mean_cost_matches_day_ahead_value():
    # purchases fixed at an unbiased forecast, E[q] = p: the per-day cost
    # averages out to the day-ahead value of actual consumption.
    rng = np.random.default_rng(123)
    days = 10_000
    p = np.full(24, 3.0)
    d_hat = np.full(24, 5.0)
    diffs = np.empty(days)
    for k in range(days):
        d = np.maximum(d_hat + rng.normal(0, 1.0, 24), 0.0)
        q = np.maximum(p + rng.normal(0, 0.5, 24), 0.0)
        diffs[k] = realized_cost(p, q, d_hat, d, "two_sided") - float(p @ d)
    se = diffs.std(ddof=1) / np.sqrt(days)
    assert abs(diffs.mean()) <= 3 * se


# -- newsvendor purchase --------------------------------------------------------


def test_newsvendor_balanced_fractile_keeps_forecast():
    # shortfall probability p/q = 0.5 puts the optimal adjustment at zero
    forecast = np.full(24, 7.0)
    plan = newsvendor_purchase(forecast, _flat_sigma(2.0), np.full(24, 1.5), np.full(24, 3.0))
    assert np.allclose(plan.adjustment, 0.0, atol=1e-12)
    assert np.allclose(plan.purchase, forecast)


def test_newsvendor_tail_quantile_value():
    # p/q = 0.159: buy up to the 84.1th percentile of the error distribution
    p = np.full(24, 0.159 * 3.0)
    q = np.full(24, 3.0)
    plan = newsvendor_purchase(np.zeros(24), _flat_sigma(10.0), p, q)
    expected = 10.0 * normal_quantile_oracle(1.0 - 0.159)
    assert expected == pytest.approx(9.9859, abs=5e-4)
    assert plan.adjustment[0] == pytest.approx(expected, abs=1e-6)
    assert np.allclose(plan.adjustment[1:], 0.0)
    # purchase floored at zero even though forecast is zero in other hours
    assert np.all(plan.purchase >= 0)


def test_newsvendor_zero_sigma_returns_forecast():
    rng = np.random.default_rng(4)
    forecast = rng.uniform(0, 5, 24)
    p = rng.uniform(0.5, 9.0, 24)
    q = rng.uniform(0.5, 9.0, 24)
    plan = newsvendor_purchase(forecast, ForecastErrorModel(sigma=np.zeros(24)), p, q)
    assert np.array_equal(plan.purchase, forecast)


def test_newsvendor_rejects_nonpositive_rt_price():
    q = np.full(24, 3.0)
    q[5] = 0.0
    with pytest.raises(ValueError, match="real-time price must be positive"):
        newsvendor_purchase(np.zeros(24), _flat_sigma(1.0), np.full(24, 1.0), q)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name, label", [
    ("forecast", "forecast"),
    ("p", "day-ahead prices"),
    ("q_mean", "expected real-time price"),
])
def test_purchase_rejects_non_finite_inputs(name, label, value):
    inputs = {"forecast": np.full(24, 2.0), "p": np.full(24, 3.0), "q_mean": np.full(24, 5.0)}
    inputs[name][7] = value
    model = _flat_sigma(1.0, hour=7)
    with pytest.raises(ValueError, match=f"{label} must be finite"):
        newsvendor_purchase(inputs["forecast"], model, inputs["p"], inputs["q_mean"])
    if name != "forecast":
        with pytest.raises(ValueError, match=f"{label} must be finite"):
            expected_penalty(model, inputs["p"], inputs["q_mean"])


@pytest.mark.parametrize("name, label", [
    ("forecast", "forecast"),
    ("p", "day-ahead prices"),
    ("q_mean", "expected real-time price"),
])
def test_purchase_inputs_must_be_24_vectors(name, label):
    model = _flat_sigma(1.0)
    for wrong in (np.full(23, 2.0), np.full((1, 24), 2.0), 2.0):
        inputs = {"forecast": np.full(24, 2.0), "p": np.full(24, 3.0), "q_mean": np.full(24, 5.0)}
        inputs[name] = wrong
        message = rf"^{label} must have shape \(24,\), got {re.escape(str(np.shape(wrong)))}$"
        with pytest.raises(ValueError, match=message):
            newsvendor_purchase(inputs["forecast"], model, inputs["p"], inputs["q_mean"])
        if name != "forecast":
            with pytest.raises(ValueError, match=message):
                expected_penalty(model, inputs["p"], inputs["q_mean"])


def test_purchase_refuses_negative_prices_and_keeps_a_negative_forecast():
    p = np.full(24, 3.0)
    p[2] = -0.1
    with pytest.raises(ValueError, match="^day-ahead prices must be nonnegative$"):
        newsvendor_purchase(np.ones(24), _flat_sigma(1.0), p, np.full(24, 5.0))
    forecast = np.full(24, -1.0)
    plan = newsvendor_purchase(forecast, _flat_sigma(0.0), np.full(24, 3.0), np.full(24, 5.0))
    assert np.array_equal(plan.purchase, np.zeros(24))
    assert forecast.flags.writeable


@given(p1=st.floats(0.1, 10.0), p2=st.floats(0.1, 10.0))
def test_newsvendor_monotone_in_day_ahead_price(p1, p2):
    lo, hi = sorted([p1, p2])
    q = np.full(24, 5.0)
    forecast = np.full(24, 3.0)
    sigma = _flat_sigma(2.0)
    buy_lo = newsvendor_purchase(forecast, sigma, np.full(24, lo), q).purchase[0]
    buy_hi = newsvendor_purchase(forecast, sigma, np.full(24, hi), q).purchase[0]
    assert buy_hi <= buy_lo + 1e-12


# -- expected penalty -----------------------------------------------------------


def test_expected_penalty_zero_sigma():
    em = ForecastErrorModel(sigma=np.zeros(24))
    assert expected_penalty(em, np.full(24, 3.0), np.full(24, 4.0)) == 0.0


def test_expected_penalty_balanced_fractile_value():
    # adjustment 0, so the premium is q * E[(-eps)+] = q * sigma / sqrt(2*pi)
    value = expected_penalty(_flat_sigma(1.0), np.full(24, 1.5), np.full(24, 3.0))
    assert value == pytest.approx(3.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
    assert value == pytest.approx(1.1968268412042981, rel=1e-12)


def test_expected_penalty_matches_monte_carlo():
    rng = np.random.default_rng(7)
    for k in range(5):
        sigma_h = float(rng.uniform(0.5, 20.0))
        q = float(rng.uniform(2.0, 8.0))
        p = q * float(rng.uniform(0.2, 0.95))
        em = _flat_sigma(sigma_h)
        pv, qv = np.full(24, p), np.full(24, q)
        closed = expected_penalty(em, pv, qv)
        plan = newsvendor_purchase(np.zeros(24), em, pv, qv)
        delta = plan.adjustment[0]
        eps = np.random.default_rng(100 + k).normal(0.0, sigma_h, 1_000_000)
        mc = float(np.mean(p * delta + q * np.maximum(-eps - delta, 0.0)))
        assert closed == pytest.approx(mc, rel=5e-3)


def test_expected_penalty_nonnegative_in_interior_regime():
    # an interior optimum exists when p < E[q]; there the premium is a cost
    rng = np.random.default_rng(11)
    for _ in range(20):
        sigma = ForecastErrorModel(sigma=rng.uniform(0.0, 5.0, 24))
        q = rng.uniform(1.0, 9.0, 24)
        p = q * rng.uniform(0.05, 0.999, 24)
        assert expected_penalty(sigma, p, q) >= 0.0


def test_expected_penalty_beats_naive_plan():
    # closed-form one-sided cost at the optimal adjustment never exceeds delta=0
    rng = np.random.default_rng(13)
    for _ in range(20):
        sigma_h = float(rng.uniform(0.1, 10.0))
        q = float(rng.uniform(1.0, 9.0))
        p = float(rng.uniform(0.1, 1.5)) * q
        pv, qv = np.full(24, p), np.full(24, q)
        at_optimum = expected_penalty(_flat_sigma(sigma_h), pv, qv)
        naive = q * sigma_h / math.sqrt(2.0 * math.pi)  # p*0 + q*E[(-eps)+]
        assert at_optimum <= naive + 1e-12


def test_normal_quantile_and_cdf_match_scipy_reference():
    # the standard-library quantile and CDF against scipy.special's ndtri and ndtr,
    # over both clipped ends of p/E[q], the interior and hours with sigma 0
    rng = np.random.default_rng(2013)
    for _ in range(1000):
        sigma = rng.uniform(0.0, 20.0, 24) * (rng.random(24) > 0.1)
        q = rng.uniform(0.5, 20.0, 24)
        p = q * rng.uniform(0.0, 1.2, 24) * (rng.random(24) > 0.05)
        ref_delta = sigma * ndtri(1.0 - np.clip(p / q, RHO_MIN, 1.0 - RHO_MIN))
        delta = _optimal_adjustment(sigma, p, q)
        assert np.all(np.abs(delta - ref_delta) <= 1e-14 * sigma)

        pos = sigma > 0
        z = ref_delta[pos] / sigma[pos]
        tail = np.zeros(24)
        tail[pos] = (sigma[pos] * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
                     - ref_delta[pos] * (1.0 - ndtr(z)))
        ref_penalty = float(np.sum(p * ref_delta + q * tail))
        penalty = expected_penalty(ForecastErrorModel(sigma=sigma), p, q)
        assert penalty == pytest.approx(ref_penalty, rel=1e-12)


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import ratecraft, ratecraft.cli; print('scipy' in sys.modules)")
    probe = subprocess.run([sys.executable, "-c", code, str(src)],
                           capture_output=True, text=True, check=True, timeout=60)
    assert probe.stdout.strip() == "False"


def test_mean_real_time_price():
    rt = np.vstack([np.full(24, 2.0), np.full(24, 4.0), np.full(24, 9.0)])
    ds = make_dataset([np.ones((3, 24))], da=np.ones((3, 24)), rt=rt, train_days=2)
    assert np.allclose(mean_real_time_price(ds), 3.0)
