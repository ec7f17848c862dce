import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import make_dataset, mask, one_step_sigma, vacate_rows, vacate_validate
from ratecraft import forecast
from ratecraft.forecast import (
    DEFAULT_AR_ORDER,
    CvPoint,
    GroupForecaster,
    backtest_cv,
    cv,
    cv_curve,
    fit_ar,
    fit_profile,
    group_profile,
    predict_day,
    predict_rows,
)
from ratecraft.ingest import SynthSpec, synth_population
from ratecraft.types import SelectionVector


def _everyone(ds):
    return SelectionVector(ds.n_consumers, range(ds.n_consumers))


def _fit(ds, u):
    """The group forecaster for selection u, fitted on ds's training window."""
    return fit_profile(group_profile(ds, u), ds.train_days, ds.start_weekday)


# -- fit_ar ---------------------------------------------------------------------


def test_fit_ar_recovers_known_coefficient():
    rng = np.random.default_rng(6)
    y = np.empty(200)
    y[0] = 5.0
    for k in range(1, 200):
        y[k] = 2.0 + 0.6 * y[k - 1] + rng.normal(0, 0.1)
    intercept, coeffs = fit_ar(y, order=1)
    assert coeffs[0] == pytest.approx(0.6, abs=0.1)
    assert intercept == pytest.approx(2.0, abs=0.6)


def test_fit_ar_constant_series_predicts_constant():
    intercept, coeffs = fit_ar(np.full(30, 8.0), order=7)
    pred = intercept + float(coeffs @ np.full(7, 8.0))
    assert pred == pytest.approx(8.0, rel=1e-9)


def test_fit_ar_input_validation():
    with pytest.raises(ValueError, match="at least 4 points"):
        fit_ar([1.0, 2.0, 3.0], order=3)
    with pytest.raises(ValueError, match="order"):
        fit_ar([1.0, 2.0], order=0)
    with pytest.raises(ValueError, match="^series must be 1-D$"):
        fit_ar(np.ones((10, 2)), order=2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_fit_ar_and_cv_refuse_non_finite_input_before_the_numerics(bad, capfd):
    """A NaN or infinity is refused by name; LAPACK never sees it, so prints nothing."""
    with pytest.raises(ValueError, match="^series must be finite$"):
        fit_ar([1.0, 2.0, bad, 4.0, 5.0, 6.0], 2)
    with pytest.raises(ValueError, match="^actual must be finite$"):
        cv([1.0, 2.0, bad], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^predicted must be finite$"):
        cv([1.0, 2.0, 3.0], [1.0, bad, 3.0])
    assert capfd.readouterr() == ("", "")


# -- group_profile ------------------------------------------------------------------


def _block_order_reference(usage, members):
    """group_profile's order, written out as the dense sum of all n rows with 0/1 weights.

    Rows fall into blocks of four, except that the last three of an n % 4 == 3
    population form {n-3, n-2} and {n-1}. Each block's weighted rows are added
    in index order, and the block sums are added in block order to a zero row.
    """
    n = len(usage)
    weight = np.zeros(n)
    weight[list(members)] = 1.0
    blocks = [range(start, min(start + 4, n)) for start in range(0, n, 4)]
    if n % 4 == 3:
        blocks[-1:] = [range(n - 3, n - 1), range(n - 1, n)]
    total = np.zeros(usage[0].shape)
    for block in blocks:
        part = weight[block[0]] * usage[block[0]]
        for i in block[1:]:
            part = part + weight[i] * usage[i]
        total = total + part
    return total


@pytest.mark.parametrize("residue", range(4))
@given(n_blocks=st.integers(0, 9), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_group_profile_adds_member_rows_in_block_order(residue, n_blocks, seed, data):
    n = 4 * n_blocks + residue
    assume(n >= 1)
    tail = data.draw(st.sets(st.integers(max(n - 3, 0), n - 1), min_size=1))
    rest = data.draw(st.one_of(st.just(set(range(n))), st.sets(st.integers(0, n - 1))))
    members = sorted(tail | rest)
    rng = np.random.default_rng(seed)
    # magnitudes spread over four decades, so a change of order shows in the last bits
    usage = np.round(rng.gamma(2.0, 0.5, (n, 3, 24)) * 10.0 ** rng.uniform(-2, 2, (n, 1, 1)), 4)
    ds = make_dataset(list(usage), da=np.ones(24))
    assert not np.shares_memory(ds.usage_stack, ds.consumers[0].usage.values)  # a stacked copy
    profile = group_profile(ds, SelectionVector(n, members))
    assert profile.tobytes() == _block_order_reference(usage, members).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 37, 38, 39, 40])
def test_group_profile_of_one_member_and_of_everyone(n):
    ds = synth_population(SynthSpec(n_consumers=n, n_days=20, noise_cv=0.5, seed=n))
    usage = ds.usage_stack
    for i in {0, n // 2, n - 1}:
        assert group_profile(ds, SelectionVector(n, [i])).tobytes() == usage[i].tobytes()
    everyone = group_profile(ds, _everyone(ds))
    assert everyone.tobytes() == _block_order_reference(usage, range(n)).tobytes()


def _openblas_core():
    """Core name of the OpenBLAS numpy loaded, read through its C API; None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs, key=lambda p: ("numpy" not in p, p)):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 37, 38, 39, 1001, 1002, 1003, 1004])
def test_group_profile_equals_the_dense_product_on_skylakex(n):
    # the order was taken from OpenBLAS's SkylakeX dgemv; other kernels add in other orders
    core = _openblas_core()
    if core != "SkylakeX":
        pytest.skip(f"the pinned order is OpenBLAS's SkylakeX dgemv; numpy's core is {core}")
    ds = synth_population(SynthSpec(n_consumers=n, n_days=30, noise_cv=0.5, seed=n))
    flat = ds.usage_stack.reshape(n, -1)
    rng = np.random.default_rng(n)
    for k in sorted({1, max(n // 3, 1), max(n - 1, 1), n}):
        sel = SelectionVector(n, rng.choice(n, size=k, replace=False))
        dense = (mask(sel).astype(np.float64) @ flat).reshape(ds.n_days, 24)
        assert group_profile(ds, sel).tobytes() == dense.tobytes()


_PROFILE_CODE = (
    "import numpy as np\n"
    "from ratecraft.forecast import group_profile\n"
    "from ratecraft.ingest import SynthSpec, synth_population\n"
    "from ratecraft.types import SelectionVector\n"
    "ds = synth_population(SynthSpec(n_consumers=1003, n_days=30, noise_cv=0.5, seed=4))\n"
    "members = np.random.default_rng(4).choice(1003, size=600, replace=False)\n"
    "profile = group_profile(ds, SelectionVector(1003, members))\n"
)


def test_group_profile_bytes_do_not_depend_on_the_blas_kernel():
    src = str(Path(forecast.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _PROFILE_CODE + "print(profile.tobytes().hex())"],
                           env=env, capture_output=True, text=True, check=True, timeout=120)
    here = {}
    exec(_PROFILE_CODE, here)
    assert child.stdout.strip() == here["profile"].tobytes().hex()


# -- fit / predict_day ------------------------------------------------------------


def test_fit_constant_consumption():
    usage = np.tile(np.linspace(0.1, 2.0, 24), (20, 1))
    ds = make_dataset([usage], da=np.ones(24), train_days=20)
    model = _fit(ds, _everyone(ds))
    total = float(usage[0].sum())
    pred = predict_day(model, np.full(10, total), day_of_week=2)
    assert np.allclose(pred, usage[0], rtol=1e-8)


def test_fit_requires_two_weeks():
    ds = make_dataset([np.ones((13, 24))], da=np.ones(24), train_days=13)
    with pytest.raises(ValueError, match="too short"):
        _fit(ds, _everyone(ds))


def test_fit_skips_zero_usage_days():
    usage = np.ones((20, 24))
    usage[4] = 0.0  # one dead day must not poison the shape average
    ds = make_dataset([usage], da=np.ones(24), train_days=20)
    model = _fit(ds, _everyone(ds))
    assert np.allclose(model.shapes.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(model.shapes))


def _weekday_shapes_by_masks(profile, train_days, start_weekday):
    """The weekday shapes as fit_profile took them before: each weekday's rows divided anew."""
    train = profile[:train_days]
    totals = train.sum(axis=1)
    active = totals > 0
    overall = (train[active] / totals[active, None]).mean(axis=0)
    overall = overall / overall.sum()
    weekdays = (start_weekday + np.arange(train_days)) % 7
    shapes = np.empty((7, 24))
    for dow in range(7):
        rows = active & (weekdays == dow)
        if np.any(rows):
            s = (train[rows] / totals[rows, None]).mean(axis=0)
            shapes[dow] = s / s.sum()
        else:
            shapes[dow] = overall
    return shapes


@pytest.mark.depth
@given(seed=st.integers(0, 2**32 - 1), days=st.integers(14, 60), extra=st.integers(0, 10),
       start_weekday=st.integers(0, 6), vacancy=st.floats(0.0, 0.95),
       scale=st.floats(-3.0, 3.0))
# 8 active training days on 5 weekdays: two weekdays take the mean of all active days
@example(seed=0, days=21, extra=3, start_weekday=2, vacancy=0.7, scale=0.0)
# exactly one active training day: six weekdays take that day's shape
@example(seed=0, days=14, extra=2, start_weekday=5, vacancy=0.95, scale=1.0)
def test_fit_profile_weekday_shapes_equal_the_masked_loop(
        seed, days, extra, start_weekday, vacancy, scale):
    rng = np.random.default_rng(seed)
    profile = rng.uniform(0.0, 10.0 ** scale, (days + extra, 24))
    profile[rng.random(days + extra) < vacancy] = 0.0  # vacant days, some weekdays all vacant
    profile[rng.integers(days)] += 1.0  # at least one active training day
    model = fit_profile(profile, days, start_weekday)
    assert model.shapes.tobytes() == _weekday_shapes_by_masks(profile, days, start_weekday).tobytes()


@pytest.mark.parametrize("vacant_weekdays", [(0, 4), (0, 1, 2, 3, 4, 6)])
def test_fit_profile_weekdays_without_an_active_day_take_the_all_days_shape(vacant_weekdays):
    """Built so the property's edge cases hold whatever a random stream draws: some weekdays
    have no active training day, and in the second case exactly one day is active."""
    days, start_weekday = 21, 2
    weekdays = (start_weekday + np.arange(days + 3)) % 7
    profile = np.random.default_rng(0).uniform(0.5, 2.0, (days + 3, 24))
    profile[:days][np.isin(weekdays[:days], vacant_weekdays)] = 0.0
    if len(vacant_weekdays) == 6:
        profile[:days][weekdays[:days] == 5] = 0.0
        profile[10] = np.arange(1.0, 25.0)  # the one active training day
        assert weekdays[10] == 5
    active = profile[:days].sum(axis=1) > 0
    assert set(weekdays[:days][active]) == set(range(7)) - set(vacant_weekdays)
    model = fit_profile(profile, days, start_weekday)
    assert model.shapes.tobytes() == _weekday_shapes_by_masks(profile, days, start_weekday).tobytes()
    rows = profile[:days][active] / profile[:days][active].sum(axis=1, keepdims=True)
    overall = rows.mean(axis=0)
    for dow in vacant_weekdays:
        np.testing.assert_allclose(model.shapes[dow], overall / overall.sum(), rtol=1e-12)


def test_fit_size_independence(synth_medium):
    one = SelectionVector(synth_medium.n_consumers, [0])
    many = _everyone(synth_medium)
    assert _fit(synth_medium, one).shapes.shape == (7, 24)
    assert _fit(synth_medium, many).shapes.shape == (7, 24)


def test_fit_shapes_normalized(synth_medium):
    model = _fit(synth_medium, _everyone(synth_medium))
    assert np.all(model.shapes >= 0)
    assert np.allclose(model.shapes.sum(axis=1), 1.0, atol=1e-12)


def test_predict_day_uniform_shape():
    model = GroupForecaster(
        intercept=24.0, coeffs=np.zeros(1), shapes=np.full((7, 24), 1.0 / 24.0)
    )
    pred = predict_day(model, [5.0], day_of_week=0)
    assert np.allclose(pred, 1.0)


def test_predict_day_total_floor_and_history_check():
    model = GroupForecaster(
        intercept=-50.0, coeffs=np.zeros(2), shapes=np.full((7, 24), 1.0 / 24.0)
    )
    assert np.allclose(predict_day(model, [1.0, 2.0], 0), 0.0)
    with pytest.raises(ValueError, match="history"):
        predict_day(model, [1.0], 0)
    with pytest.raises(ValueError, match="day_of_week"):
        predict_day(model, [1.0, 2.0], 7)
    with pytest.raises(ValueError, match="day_of_week must be an integer, got 1.5"):
        predict_day(model, [1.0, 2.0], 1.5)
    with pytest.raises(ValueError, match=r"day_of_week must be in \[0, 6\]"):
        predict_day(model, [1.0, 2.0], -1)
    lagged = GroupForecaster(intercept=1.0, coeffs=np.ones(2), shapes=np.full((7, 24), 1 / 24))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="history gives a non-finite predicted total"):
            predict_day(lagged, [1.0] * 9 + [bad], 0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite predicted"):
        predict_day(lagged, [1e308, 1e308], 0)  # finite lags whose sum overflows
    assert np.allclose(predict_day(lagged, [float("nan"), 1.0, 2.0], 0), 4.0 / 24)


@given(
    total=st.floats(0.0, 500.0),
    raw=st.lists(st.floats(0.01, 1.0), min_size=24, max_size=24),
)
def test_predict_day_sums_to_total(total, raw):
    shape = np.asarray(raw)
    shape = shape / shape.sum()
    model = GroupForecaster(
        intercept=total, coeffs=np.zeros(1), shapes=np.tile(shape, (7, 1))
    )
    pred = predict_day(model, [0.0], day_of_week=3)
    assert float(pred.sum()) == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_ar_lag_ordering():
    # coeffs[0] must multiply yesterday, not the oldest lag
    model = GroupForecaster(
        intercept=0.0,
        coeffs=np.array([1.0, 0.0]),
        shapes=np.full((7, 24), 1.0 / 24.0),
    )
    pred = predict_day(model, [3.0, 11.0], day_of_week=0)
    assert float(pred.sum()) == pytest.approx(11.0)


def _scalar_predict_day(model, history, day_of_week):
    """The one-history forecast as predict_day made it before it took stacked histories,
    kept as the reference of the stacked kernel: the lags' dot product `coeffs @ lags`, the
    intercept added to it, and the total floored at 0 and spread over the weekday shape."""
    h = np.asarray(history, dtype=np.float64)
    assert h.size >= model.order and 0 <= day_of_week <= 6
    lags = h[-1 : -model.order - 1 : -1]  # most recent first, matching coeffs
    total = model.intercept + float(model.coeffs @ lags)
    assert math.isfinite(total)
    return max(total, 0.0) * model.shapes[day_of_week]


@pytest.mark.depth
@given(
    members=st.sets(st.integers(0, 199), min_size=1, max_size=200),
    order=st.integers(1, 20),
    floor_shift=st.floats(-1.0, 0.0),
)
def test_predict_rows_equals_predict_day_loop(synth_medium, members, order, floor_shift):
    # the one stacked predict_day call must reproduce the scalar forecast, day by day, exactly
    ds = synth_medium
    sel = SelectionVector(ds.n_consumers, sorted(members))
    profile = group_profile(ds, sel)
    totals = profile.sum(axis=1)
    intercept, coeffs = fit_ar(totals[: ds.train_days], order)
    # lowering the intercept makes some predicted totals hit the floor at 0
    model = GroupForecaster(
        intercept=intercept + floor_shift * float(totals.mean()),
        coeffs=coeffs,
        shapes=_fit(ds, sel).shapes,
    )
    for start, stop in ((order, ds.train_days), (ds.train_days, ds.n_days)):
        block = predict_rows(model, totals, start, stop, ds.start_weekday)
        reference = np.array([
            _scalar_predict_day(model, totals[:k], ds.date_of_row(k).weekday())
            for k in range(start, stop)
        ])
        assert np.array_equal(block, reference)


@pytest.mark.depth
@given(
    lead=st.lists(st.integers(0, 3), max_size=3),
    order=st.integers(1, 8),
    extra_days=st.integers(0, 3),
    intercept=st.floats(-50.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_predict_day_of_stacked_histories_equals_one_call_per_history(lead, order, extra_days,
                                                                       intercept, seed):
    # histories stacked on leading axes, each with its own weekday, forecast as one at a time
    rng = np.random.default_rng(seed)
    histories = rng.gamma(2.0, 10.0, size=(*lead, order + extra_days))
    histories[rng.random(histories.shape) < 0.2] = 0.0
    weekdays = rng.integers(0, 7, size=lead)
    shapes = rng.random((7, 24)) + 0.01
    model = GroupForecaster(intercept, rng.normal(0.0, 0.5, order),
                            shapes / shapes.sum(axis=1, keepdims=True))
    stacked = predict_day(model, histories, weekdays)
    assert stacked.shape == (*lead, 24)
    for index in np.ndindex(*lead):
        alone = predict_day(model, histories[index], int(weekdays[index]))
        assert stacked[index].tobytes() == alone.tobytes()


def test_predict_rows_makes_one_predict_day_call(monkeypatch, synth_small):
    calls = []
    monkeypatch.setattr(forecast, "predict_day",
                        lambda *args: calls.append(args) or predict_day(*args))
    model = _fit(synth_small, _everyone(synth_small))
    totals = group_profile(synth_small, _everyone(synth_small)).sum(axis=1)
    for start, stop in ((model.order, model.order), (model.order, synth_small.n_days)):
        calls.clear()
        preds = predict_rows(model, totals, start, stop, synth_small.start_weekday)
        assert len(calls) == 1 and preds.shape == (stop - start, 24)
    calls.clear()
    backtest_cv(synth_small, _everyone(synth_small))
    assert len(calls) == 1


@pytest.mark.parametrize("order", [1, 3, DEFAULT_AR_ORDER])
def test_forecaster_order_is_the_number_of_coefficients(order):
    shapes = np.full((7, 24), 1.0 / 24.0)
    assert GroupForecaster(0.0, np.zeros(order), shapes).order == order
    for coeffs in (np.zeros(0), np.zeros((order, 1)), 0.5):
        with pytest.raises(ValueError, match=r"^coeffs must have shape \(order,\).*, got "):
            GroupForecaster(0.0, coeffs, shapes)


@pytest.mark.parametrize("call, message", [
    (lambda ds: GroupForecaster(0.0, np.zeros(3), np.full((7, 24), 1.0 / 12.0)),
     "every load shape must sum to 1"),
    (lambda ds: group_profile(ds, SelectionVector(ds.n_consumers + 1, [0])),
     "selection length does not match dataset"),
], ids=["shapes", "selection-length"])
def test_forecast_inputs_of_the_wrong_form_are_refused(synth_small, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(synth_small)


def test_predict_rows_rejects_rows_without_history():
    model = GroupForecaster(
        intercept=1.0, coeffs=np.zeros(3), shapes=np.full((7, 24), 1.0 / 24.0)
    )
    totals = np.ones(10)
    assert predict_rows(model, totals, 5, 5, 0).shape == (0, 24)
    with pytest.raises(ValueError, match="history"):
        predict_rows(model, totals, 2, 5, 0)
    with pytest.raises(ValueError, match="history"):
        predict_rows(model, totals, 5, 11, 0)


# -- cv ---------------------------------------------------------------------------


def test_cv_zero_for_perfect_forecast():
    x = np.linspace(1, 5, 48)
    assert cv(x, x) == 0.0


def test_cv_constant_offset():
    assert cv(np.full(10, 10.0), np.full(10, 11.0)) == pytest.approx(10.0)


def test_cv_matches_direct_formula():
    rng = np.random.default_rng(15)
    actual = rng.uniform(0.5, 4.0, 240)
    predicted = rng.uniform(0.5, 4.0, 240)
    got = cv(actual, predicted)
    T = len(actual)
    rmse = (sum((a - f) ** 2 for a, f in zip(actual, predicted)) / T) ** 0.5
    want = 100.0 * rmse / (sum(actual) / T)
    assert got == pytest.approx(want, rel=1e-9)


def test_cv_input_validation():
    with pytest.raises(ValueError, match="equal length"):
        cv([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        cv([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="^cannot evaluate cv on empty series$"):
        cv([], [])


# -- backtests --------------------------------------------------------------------


def test_backtest_exact_on_noiseless_data():
    ds = synth_population(SynthSpec(n_consumers=5, n_days=30, noise_cv=0.0, seed=2))
    assert backtest_cv(ds, _everyone(ds)) <= 1e-9


def test_backtest_requires_validate_days():
    ds = make_dataset([np.ones((20, 24))], da=np.ones(24), train_days=20)
    with pytest.raises(ValueError, match="^validate window is empty$"):
        backtest_cv(ds, _everyone(ds))
    with pytest.raises(ValueError, match="^validate window is empty$"):
        cv_curve(ds, [1])


def test_backtest_refuses_a_group_vacant_in_the_validate_window():
    ds = synth_population(SynthSpec(n_consumers=30, n_days=40, seed=3))
    vacant = vacate_validate(ds, range(7))
    ids = ds.consumer_ids
    with pytest.raises(ValueError) as one:
        backtest_cv(vacant, SelectionVector(30, [4]))
    assert str(one.value) == (
        f"the group of 1 consumer(s) has no usage in the validate window: {ids[4]}"
    )
    with pytest.raises(ValueError) as seven:
        backtest_cv(vacant, SelectionVector(30, range(7)))
    assert str(seven.value) == (
        "the group of 7 consumer(s) has no usage in the validate window: " + ", ".join(ids[:5])
    )
    backtest_cv(vacant, SelectionVector(30, [4, 20]))  # one active member suffices


def test_backtest_refuses_a_group_vacant_in_the_training_window():
    ds = synth_population(SynthSpec(n_consumers=30, n_days=40, seed=3))
    vacant = vacate_rows(ds, [4, 9], 0, ds.train_days)
    with pytest.raises(ValueError) as exc:
        backtest_cv(vacant, SelectionVector(30, [4, 9]))
    assert str(exc.value) == (
        "the group of 2 consumer(s) has no usage in the training window: "
        f"{ds.consumer_ids[4]}, {ds.consumer_ids[9]}"
    )
    backtest_cv(vacant, SelectionVector(30, [4, 20]))  # one active member suffices


def test_forecaster_roughly_unbiased(synth_medium):
    # mean signed error of daily totals over the validate window within 2 SE of 0
    sel = _everyone(synth_medium)
    model = _fit(synth_medium, sel)
    stack = synth_medium.usage_stack
    profile = stack.sum(axis=0)
    totals = profile.sum(axis=1)
    errors = []
    for k in range(synth_medium.train_days, synth_medium.n_days):
        pred = predict_day(model, totals[:k], synth_medium.date_of_row(k).weekday())
        errors.append(float(pred.sum() - totals[k]))
    errors = np.asarray(errors)
    se = errors.std(ddof=1) / np.sqrt(errors.size)
    assert abs(errors.mean()) <= 2 * se


def test_predict_rows_residual_sigma_zero_noise():
    ds = synth_population(SynthSpec(n_consumers=4, n_days=30, noise_cv=0.0, seed=3))
    sel = _everyone(ds)
    em = one_step_sigma(
        group_profile(ds, sel), _fit(ds, sel), DEFAULT_AR_ORDER, ds.train_days, ds.start_weekday
    )
    assert np.all(em.sigma <= 1e-9)


def test_predict_rows_residual_sigma_windows(synth_medium):
    sel = _everyone(synth_medium)
    profile, model = group_profile(synth_medium, sel), _fit(synth_medium, sel)
    train_sigma = one_step_sigma(
        profile, model, DEFAULT_AR_ORDER, synth_medium.train_days, synth_medium.start_weekday
    )
    val_sigma = one_step_sigma(
        profile, model, synth_medium.train_days, synth_medium.n_days, synth_medium.start_weekday
    )
    assert train_sigma.sigma.shape == (24,)
    assert np.all(train_sigma.sigma >= 0)
    # both windows see the same noise process, so scales agree loosely
    assert val_sigma.sigma.sum() == pytest.approx(train_sigma.sigma.sum(), rel=0.5)


# -- cv_curve ---------------------------------------------------------------------


def test_cv_curve_full_population_coincides(synth_medium):
    n = synth_medium.n_consumers
    curve = cv_curve(synth_medium, [n], n_random_trials=3, seed=1)
    rand = [p for p in curve.points if p.kind == "random"]
    opt = [p for p in curve.points if p.kind == "optimal"]
    assert rand[0].cv == pytest.approx(opt[0].cv, rel=1e-12)
    lo, hi = curve.random_ci[n]
    assert lo == pytest.approx(hi)  # all trials see the same group


def test_cv_curve_mean_decreasing(synth_medium):
    curve = cv_curve(synth_medium, [5, 20, 80], n_random_trials=8, seed=2)
    rand = {p.m: p.cv for p in curve.points if p.kind == "random"}
    assert rand[5] > rand[20] > rand[80]
    for m, (lo, hi) in curve.random_ci.items():
        assert 0.0 <= lo <= rand[m] <= hi


def test_cv_curve_deterministic(synth_medium):
    a = cv_curve(synth_medium, [10, 40], n_random_trials=5, seed=9)
    b = cv_curve(synth_medium, [10, 40], n_random_trials=5, seed=9)
    assert a == b


def test_cv_curve_validates_sizes(synth_medium):
    with pytest.raises(ValueError, match="group size"):
        cv_curve(synth_medium, [0], n_random_trials=2)
    with pytest.raises(ValueError, match="n_random_trials"):
        cv_curve(synth_medium, [5], n_random_trials=0)


def test_cv_point_validation():
    with pytest.raises(ValueError, match="kind"):
        CvPoint(m=1, kind="best", cv=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        CvPoint(m=1, kind="random", cv=-0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        CvPoint(m=1, kind="random", cv=float("nan"))
    with pytest.raises(ValueError, match="m must be an integer, got 1.5"):
        CvPoint(m=1.5, kind="random", cv=1.0)
    for m in (0, -3):
        with pytest.raises(ValueError, match="m must be >= 1"):
            CvPoint(m=m, kind="random", cv=1.0)
    assert type(CvPoint(m=np.int64(4), kind="optimal", cv=0.0).m) is int


def test_cv_curve_refuses_a_bad_gamma_before_any_backtest(synth_medium, monkeypatch):
    backtests = []
    monkeypatch.setattr(forecast, "backtest_cv", lambda *args: backtests.append(args) or 1.0)
    for gamma in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="gamma must be > 0"):
            cv_curve(synth_medium, [10, 50], n_random_trials=30, gamma=gamma)
    n = synth_medium.n_consumers
    for sizes in ([5, n + 1], [5, 0]):
        with pytest.raises(ValueError, match=rf"group size must be in \[1, {n}\]"):
            cv_curve(synth_medium, sizes, n_random_trials=50)
    assert backtests == []


def test_cv_curve_refuses_duplicate_sizes(synth_medium):
    with pytest.raises(ValueError, match="sizes must be distinct"):
        cv_curve(synth_medium, [5, 5], n_random_trials=2)
