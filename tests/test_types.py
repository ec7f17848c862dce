import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratecraft.costs import DailySettlement, PurchasePlan, consumer_stats
from ratecraft.forecast import GroupForecaster, cv_curve, fit_ar
from ratecraft.ingest import SynthSpec
from ratecraft.segmentation import (
    SegmentationResult,
    SegmentGroup,
    default_size_grid,
    segment_population,
)
from ratecraft.simulate import replay_validate
from ratecraft.solver import SolveResult, feasibility_test, lambda_curve, solve_min_lambda
from ratecraft.types import (
    ConsumerSeries,
    CostStats,
    Dataset,
    ForecastErrorModel,
    HourlyMatrix,
    PriceSeries,
    SelectionVector,
)

START = dt.date(2021, 1, 4)


def test_hourly_matrix_valid():
    m = HourlyMatrix(np.ones((3, 24)), START)
    assert m.n_days == 3
    assert m.end_date == dt.date(2021, 1, 6)
    assert m.date_of_row(2) == dt.date(2021, 1, 6)
    assert m.row_of_date(dt.date(2021, 1, 5)) == 1


def test_hourly_matrix_rejects_negative():
    bad = np.ones((2, 24))
    bad[1, 5] = -0.2
    with pytest.raises(ValueError, match="nonnegative"):
        HourlyMatrix(bad, START)


def test_hourly_matrix_rejects_wrong_columns():
    with pytest.raises(ValueError, match=r"^values must have shape \(days, 24\).*, got \(2, 23\)$"):
        HourlyMatrix(np.ones((2, 23)), START)


def test_hourly_matrix_rejects_empty():
    with pytest.raises(ValueError, match=r"^values must have shape \(days, 24\).*, got \(0, 24\)$"):
        HourlyMatrix(np.ones((0, 24)), START)


def test_hourly_matrix_rejects_nan():
    bad = np.ones((1, 24))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        HourlyMatrix(bad, START)


def test_hourly_matrix_values_read_only():
    m = HourlyMatrix(np.ones((1, 24)), START)
    with pytest.raises(ValueError):
        m.values[0, 0] = 2.0


def _frozen_block(shape, value=1.0):
    block = np.full(shape, value)
    block.setflags(write=False)
    return block


def test_hourly_matrix_copies_a_writable_input():
    arr = np.ones((2, 24))
    m = HourlyMatrix(arr, START)
    arr[0, 0] = 5.0
    assert m.values[0, 0] == 1.0
    assert not np.shares_memory(m.values, arr)
    assert arr.flags.writeable and not m.values.flags.writeable


def test_hourly_matrix_copies_a_read_only_view_of_a_writable_base():
    base = np.ones((3, 24))
    view = base[1:]
    view.setflags(write=False)
    m = HourlyMatrix(view, START)
    base[1, 0] = 7.0
    assert m.values[0, 0] == 1.0
    assert not np.shares_memory(m.values, base)


@pytest.mark.parametrize("make", [
    lambda: _frozen_block((2, 24)).astype(np.float32),  # another dtype
    lambda: np.frombuffer(bytearray(8 * 48), dtype=np.float64).reshape(2, 24),  # writable buffer
    lambda: _frozen_block((2, 24)).view(np.matrix),  # an ndarray subclass
    lambda: _frozen_block((24, 2)).T,  # not C-contiguous
])
def test_hourly_matrix_copies_other_read_only_inputs(make):
    arr = make()
    arr.setflags(write=False)
    m = HourlyMatrix(arr, START)
    assert type(m.values) is np.ndarray and m.values.dtype == np.float64
    assert m.values.strides == np.array(arr, dtype=np.float64).strides
    assert not np.shares_memory(m.values, arr)
    assert np.array_equal(m.values, arr)


def test_hourly_matrix_keeps_a_read_only_chain():
    block = _frozen_block((3, 24))
    whole = HourlyMatrix(block, START)
    assert whole.values is block
    rows = block[1:]
    assert HourlyMatrix(rows, START).values is rows
    assert whole.slice_days(1, 3).values.base is block
    with pytest.raises(ValueError):
        whole.values[0, 0] = 2.0


@pytest.mark.parametrize("cell, message", [(np.nan, "finite"), (np.inf, "finite"),
                                           (-0.5, "nonnegative")])
def test_hourly_matrix_validates_a_kept_array(cell, message):
    block = np.ones((4, 24))
    block[3, 5] = cell
    block.setflags(write=False)
    HourlyMatrix(block[:3], START)
    with pytest.raises(ValueError, match=message):
        HourlyMatrix(block[2:], START)


@pytest.mark.parametrize("start", [dt.datetime(2021, 1, 4), "2021-01-04", None],
                         ids=["datetime", "str", "None"])
def test_hourly_matrix_refuses_a_start_date_that_is_not_a_date(start):
    """Exactly a datetime.date: a datetime is a date subclass whose day arithmetic keeps
    the time, and a string has none."""
    with pytest.raises(ValueError, match=r"^start_date must be a datetime\.date, got "):
        HourlyMatrix(np.ones((2, 24)), start)


def test_hourly_matrix_slice_days():
    m = HourlyMatrix(np.arange(72, dtype=float).reshape(3, 24), START)
    s = m.slice_days(1, 3)
    assert s.n_days == 2
    assert s.start_date == dt.date(2021, 1, 5)
    assert np.array_equal(s.values, m.values[1:3])
    with pytest.raises(ValueError):
        m.slice_days(2, 2)


def test_consumer_series_rejects_zero_usage():
    with pytest.raises(ValueError, match="c1 has zero total usage"):
        ConsumerSeries("c1", HourlyMatrix(np.zeros((2, 24)), START))


def test_price_series_requires_alignment():
    da = HourlyMatrix(np.ones((2, 24)), START)
    rt_short = HourlyMatrix(np.ones((1, 24)), START)
    with pytest.raises(ValueError, match="same shape"):
        PriceSeries(da, rt_short)
    rt_shifted = HourlyMatrix(np.ones((2, 24)), START + dt.timedelta(days=1))
    with pytest.raises(ValueError, match="same date"):
        PriceSeries(da, rt_shifted)


def _tiny_dataset(train=2, validate=1):
    days = train + validate
    usage = HourlyMatrix(np.ones((days, 24)), START)
    prices = PriceSeries(
        HourlyMatrix(np.full((days, 24), 3.0), START),
        HourlyMatrix(np.full((days, 24), 3.0), START),
    )
    return Dataset((ConsumerSeries("a", usage),), prices, train, validate)


def test_dataset_row_weekdays():
    ds = _tiny_dataset(train=2, validate=1)
    assert ds.start_weekday == 0  # Monday


def test_dataset_rejects_shape_mismatch():
    usage = HourlyMatrix(np.ones((2, 24)), START)
    prices = PriceSeries(
        HourlyMatrix(np.ones((3, 24)), START), HourlyMatrix(np.ones((3, 24)), START)
    )
    with pytest.raises(ValueError, match="does not match prices"):
        Dataset((ConsumerSeries("a", usage),), prices, 2, 1)


def test_dataset_rejects_bad_split():
    usage = HourlyMatrix(np.ones((3, 24)), START)
    prices = PriceSeries(
        HourlyMatrix(np.ones((3, 24)), START), HourlyMatrix(np.ones((3, 24)), START)
    )
    consumers = (ConsumerSeries("a", usage),)
    with pytest.raises(ValueError, match="train_days \\+ validate_days"):
        Dataset(consumers, prices, 1, 1)
    with pytest.raises(ValueError, match="at least one day"):
        Dataset(consumers, prices, 0, 3)


def test_dataset_rejects_duplicate_ids():
    usage = HourlyMatrix(np.ones((2, 24)), START)
    prices = PriceSeries(
        HourlyMatrix(np.ones((2, 24)), START), HourlyMatrix(np.ones((2, 24)), START)
    )
    consumers = (ConsumerSeries("a", usage), ConsumerSeries("a", usage))
    with pytest.raises(ValueError, match="duplicate"):
        Dataset(consumers, prices, 2, 0)


def test_dataset_usage_stack():
    ds = _tiny_dataset()
    assert ds.usage_stack.shape == (1, 3, 24)
    with pytest.raises(ValueError):
        ds.usage_stack[0, 0, 0] = 5.0


def _dataset_of(rows):
    """A Dataset whose consumers hold `rows` as given, with flat prices."""
    days = rows[0].shape[0]
    prices = PriceSeries(HourlyMatrix(np.full((days, 24), 3.0), START),
                         HourlyMatrix(np.full((days, 24), 3.0), START))
    consumers = [ConsumerSeries(f"c{k}", HourlyMatrix(r, START)) for k, r in enumerate(rows)]
    return Dataset(consumers, prices, days, 0)


def _check_stack(ds, shared):
    stack = ds.usage_stack
    reference = np.stack([c.usage.values for c in ds.consumers])
    assert stack.dtype == reference.dtype and stack.shape == reference.shape
    assert stack.tobytes() == reference.tobytes()
    assert not stack.flags.writeable
    for k, c in enumerate(ds.consumers):
        assert np.shares_memory(stack[k], c.usage.values) == shared
    assert ds.usage_stack is stack


def test_usage_stack_views_consumer_rows_that_tile_one_block():
    block = np.arange(5 * 3 * 24, dtype=np.float64).reshape(5, 3, 24).copy()
    block.setflags(write=False)
    rows = list(block)
    _check_stack(_dataset_of(rows), shared=True)
    assert _dataset_of(rows).usage_stack.base is block
    _check_stack(_dataset_of(rows[:3]), shared=True)  # a leading run
    _check_stack(_dataset_of(rows[1:4]), shared=True)  # a run inside the block
    _check_stack(_dataset_of(rows[4:]), shared=True)


@pytest.mark.parametrize("pick", [
    lambda rows: rows[::-1],  # out of order
    lambda rows: rows[::2],  # gaps between rows
    lambda rows: [rows[0], rows[0][:]],  # the same rows twice (ids differ)
    lambda rows: [r[:2] for r in rows],  # days cut off each consumer
    lambda rows: [r.copy() for r in rows],  # each consumer its own array
])
def test_usage_stack_stacks_a_copy_otherwise(pick):
    block = np.arange(4 * 3 * 24, dtype=np.float64).reshape(4, 3, 24).copy()
    block.setflags(write=False)
    _check_stack(_dataset_of(pick(list(block))), shared=False)


def test_usage_stack_of_a_hand_built_dataset_is_a_copy():
    ds = _dataset_of([np.ones((3, 24)), np.full((3, 24), 2.0)])
    _check_stack(ds, shared=False)


def test_selection_vector_roundtrip():
    sel = SelectionVector(5, [3, 1])
    assert sel.cardinality == 2
    assert sel.n == 5
    assert list(sel.indices) == [1, 3]


def test_selection_vector_rejects_empty():
    with pytest.raises(ValueError, match="cardinality must be in"):
        SelectionVector(3, [])


def test_selection_vector_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        SelectionVector(3, [5])
    with pytest.raises(ValueError, match="unique"):
        SelectionVector(3, [1, 1])


@pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "int64",
                                   "uint8", "uint16", "uint32", "uint64"])
def test_selection_from_integer_ndarray(dtype):
    sel = SelectionVector(6, np.array([4, 0, 2], dtype=dtype))
    assert sel.cardinality == 3
    assert sel.indices.tolist() == [0, 2, 4]


def test_selection_from_python_iterables():
    for indices in ([4, 0, 2], (4, 0, 2), range(0, 6, 2), (i for i in [4, 0, 2])):
        sel = SelectionVector(6, indices)
        assert sel.cardinality == 3
        assert sel.indices.tolist() == [0, 2, 4]


@pytest.mark.parametrize(
    "indices, message",
    [
        ([-1], "out of range"),
        (np.array([0, -3], dtype=np.int64), "out of range"),  # -3 must not wrap onto 0
        (np.array([3], dtype=np.uint8), "out of range"),
        ([1, 1], "must be unique"),
        (np.array([2, 0, 2], dtype=np.int16), "must be unique"),
        ([5, 5], "out of range"),  # the range is checked first
        (np.array([False, True]), "1-d sequence of integers"),  # a mask, not indices
        ([True], "1-d sequence of integers"),
        ([1.9], "1-d sequence of integers"),  # not truncated to 1
        (np.array([1.0, 2.0]), "1-d sequence of integers"),
        (np.array([[0, 1], [2, 0]]), "1-d sequence of integers"),  # not flattened
        (np.array(1), "1-d sequence of integers"),
        (np.array([], dtype=float), r"^cardinality must be in \[1, 3\], got 0$"),
        (np.zeros((0, 2), dtype=bool), r"^cardinality must be in \[1, 3\], got 0$"),
    ],
)
def test_selection_from_indices_errors(indices, message):
    with pytest.raises(ValueError, match=message):
        SelectionVector(3, indices)


@pytest.mark.parametrize("call, message", [
    (lambda ds: Dataset(ds.consumers, ds.prices, ds.train_days + 0.5, ds.validate_days - 0.5),
     r"train_days must be an integer, got \d+\.5"),
    (lambda ds: Dataset(ds.consumers, ds.prices, ds.train_days, np.float64(ds.validate_days)),
     r"validate_days must be an integer, got "),
    (lambda ds: feasibility_test(consumer_stats(ds), 1.0, 2.0),
     "group size m must be an integer, got 2.0"),
    (lambda ds: solve_min_lambda(consumer_stats(ds), 2.0),
     "group size m must be an integer, got 2.0"),
    (lambda ds: solve_min_lambda(consumer_stats(ds), True),
     "group size m must be an integer, got True"),
    (lambda ds: lambda_curve(consumer_stats(ds), [2, 3.0]),
     "group size m must be an integer, got 3.0"),
    (lambda ds: cv_curve(ds, [np.float64(3.0)]), r"each of sizes must be an integer, got "),
    (lambda ds: cv_curve(ds, [3], n_random_trials=2.5),
     "n_random_trials must be an integer, got 2.5"),
    (lambda ds: segment_population(ds, 10.0, size_grid=[1.7, 3.2]),
     "each of size_grid must be an integer, got 1.7"),
    (lambda ds: segment_population(ds, 10.0, size_grid=[2, "5"]),
     "each of size_grid must be an integer, got '5'"),
    (lambda ds: replay_validate(ds, n_days=1.9), "n_days must be an integer, got 1.9"),
    (lambda ds: SelectionVector(3.0, [1]), "n must be an integer, got 3.0"),
    (lambda ds: SynthSpec(3.5, 10), "n_consumers must be an integer, got 3.5"),
    (lambda ds: SynthSpec(3, 10.5), "n_days must be an integer, got 10.5"),
    (lambda ds: SynthSpec(3, 10, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda ds: SynthSpec(n_consumers=True, n_days=30, seed=True),
     "n_consumers must be an integer, got True"),
    (lambda ds: SynthSpec(3, 30, seed=True), "seed must be an integer, got True"),
    (lambda ds: default_size_grid(10.5), "n must be an integer, got 10.5"),
    (lambda ds: default_size_grid(True), "n must be an integer, got True"),
    (lambda ds: default_size_grid(40, smallest=2.5), "smallest must be an integer, got 2.5"),
    (lambda ds: SegmentGroup(1.5, SelectionVector(3, [1]), 2.0, 5.0, True),
     "round must be an integer, got 1.5"),
    (lambda ds: DailySettlement(1.5, np.ones(24), np.ones(24), 1.0),
     "day_index must be an integer, got 1.5"),
    (lambda ds: fit_ar(np.arange(10.0), 2.5), "order must be an integer, got 2.5"),
], ids=["train_days", "validate_days", "feasibility_test", "solve_min_lambda",
        "solve_min_lambda bool", "lambda_curve", "cv_curve sizes", "cv_curve trials",
        "size_grid floats", "size_grid str", "replay n_days", "selection n", "synth n_consumers",
        "synth n_days", "synth seed", "synth bool n_consumers", "synth bool seed", "size grid n",
        "size grid bool n", "size grid smallest", "group round", "settlement day_index",
        "ar order"])
def test_counts_refuse_non_integers(synth_small, call, message):
    """A count is an integer by operator.index: a float, a string or a bool is refused with the
    argument's name before any work, not truncated, parsed, taken as 1 or failed on deep inside
    numpy."""
    with pytest.raises(ValueError, match=f"^{message}"):
        call(synth_small)


INTEGER_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"]


def _mask_rules(n, indices):
    """The rules of a selection stored as a 0/1 mask: range first, then uniqueness, then size."""
    if not isinstance(indices, np.ndarray):
        indices = list(indices)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"selection indices out of range for population of {n}")
    bits = np.zeros(n, dtype=bool)
    bits[idx] = True
    if np.count_nonzero(bits) != idx.size:
        raise ValueError("selection indices must be unique")
    if not (1 <= idx.size <= n):
        raise ValueError(f"cardinality must be in [1, {n}], got {idx.size}")
    return bits


@settings(max_examples=300)
@given(
    n=st.integers(0, 12),
    values=st.lists(st.integers(-3, 15), max_size=14),
    form=st.sampled_from(INTEGER_DTYPES + ["list", "tuple", "generator"]),
)
def test_selection_vector_matches_mask_rules(n, values, form):
    if form.startswith("uint"):
        values = [abs(v) for v in values]

    def indices():
        if form == "list":
            return list(values)
        if form == "tuple":
            return tuple(values)
        if form == "generator":
            return (v for v in values)
        return np.array(values, dtype=form)

    try:
        want = _mask_rules(n, indices())
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            SelectionVector(n, indices())
        assert str(got.value) == str(exc)
        return
    for sel in (SelectionVector(n, indices()), SelectionVector(n, indices())):
        assert sel.n == n
        assert sel.indices.dtype == np.intp
        assert np.array_equal(sel.indices, np.flatnonzero(want))
        assert sel.cardinality == np.count_nonzero(want)
        assert not sel.indices.flags.writeable


def test_cost_stats_validation():
    stats = CostStats(t=[1.0, 2.0], w=[1.0, 4.0])
    assert stats.n == 2
    assert np.allclose(stats.ratios, [1.0, 0.5])
    with pytest.raises(ValueError, match="positive total usage"):
        CostStats(t=[1.0], w=[0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        CostStats(t=[-1.0], w=[1.0])
    with pytest.raises(ValueError, match=r"^w must have shape \(2,\), got \(1,\)$"):
        CostStats(t=[1.0, 2.0], w=[1.0])


def test_forecast_error_model_validation():
    em = ForecastErrorModel(sigma=np.zeros(24))
    assert em.sigma.shape == (24,)
    with pytest.raises(ValueError, match="shape"):
        ForecastErrorModel(sigma=np.zeros(23))
    bad = np.zeros(24)
    bad[3] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        ForecastErrorModel(sigma=bad)


_UNIFORM_SHAPES = np.full((7, 24), 1.0 / 24.0)

# Each value type: how to build it from its array fields (and its one scalar field, if any),
# a valid array for each of those fields, and the name of that scalar field.
_VALUE_TYPES = {
    "HourlyMatrix": (lambda **a: HourlyMatrix(start_date=START, **a),
                     {"values": np.ones((2, 24))}, None),
    "CostStats": (CostStats, {"t": np.ones(3), "w": np.full(3, 2.0)}, None),
    "ForecastErrorModel": (ForecastErrorModel, {"sigma": np.ones(24)}, None),
    "GroupForecaster": (lambda intercept=1.0, **a: GroupForecaster(intercept, **a),
                        {"coeffs": np.zeros(7), "shapes": _UNIFORM_SHAPES}, "intercept"),
    "PurchasePlan": (PurchasePlan, {"adjustment": np.zeros(24), "purchase": np.ones(24)}, None),
    "DailySettlement": (lambda cost=1.0, **a: DailySettlement(day_index=0, cost=cost, **a),
                        {"purchased": np.ones(24), "consumed": np.full(24, 2.0)}, "cost"),
}


@pytest.mark.parametrize("kind", list(_VALUE_TYPES))
def test_value_types_store_arrays_by_one_rule(kind):
    build, fields, scalar = _VALUE_TYPES[kind]

    # a writable array, or a read-only view of one, is copied and left as the caller made it
    for writable in (True, False):
        owners = {name: arr.copy() for name, arr in fields.items()}
        given = {name: owner[...] for name, owner in owners.items()}
        for view in given.values():
            view.setflags(write=writable)
        value = build(**given)
        for name, owner in owners.items():
            stored = getattr(value, name)
            assert not stored.flags.writeable and not np.shares_memory(stored, owner)
            assert given[name].flags.writeable == writable
            owner += 1.0
            assert np.array_equal(stored, fields[name])

    # an array that nothing can write is kept as the same object
    frozen = {name: arr.copy() for name, arr in fields.items()}
    for arr in frozen.values():
        arr.setflags(write=False)
    value = build(**frozen)
    assert all(getattr(value, name) is arr for name, arr in frozen.items())

    # NaN and inf are refused, naming the field
    for bad in (np.nan, np.inf, -np.inf):
        for name, arr in fields.items():
            cell = arr.copy()
            cell.flat[-1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                build(**{**fields, name: cell})
        if scalar is not None:
            with pytest.raises(ValueError, match=f"^{scalar} must be finite$"):
                build(**{scalar: bad}, **fields)


# Each value type of _VALUE_TYPES: a wrongly shaped array for each field with the shape its
# error names, and the message that refuses a negative entry in each unsigned field.
_MALFORMED = {
    "HourlyMatrix": ({"values": (np.ones((0, 24)), "(days, 24) with days >= 1")},
                     {"values": "values must be nonnegative"}),
    "CostStats": ({"t": (np.ones((3, 1)), "(consumers,) with consumers >= 1"),
                   "w": (np.full(2, 2.0), "(3,)")},
                  {"t": "t must be nonnegative",
                   "w": "every consumer must have positive total usage w"}),
    "ForecastErrorModel": ({"sigma": (np.ones(23), "(24,)")},
                           {"sigma": "sigma must be nonnegative"}),
    "GroupForecaster": ({"coeffs": (np.zeros((7, 1)), "(order,) with order >= 1"),
                         "shapes": (_UNIFORM_SHAPES[:6], "(7, 24)")},
                        {"shapes": "shapes must be nonnegative"}),
    "PurchasePlan": ({"adjustment": (np.zeros(3), "(24,)"), "purchase": (np.ones(25), "(24,)")},
                     {"purchase": "purchase must be nonnegative"}),
    "DailySettlement": ({"purchased": (np.ones(2), "(24,)"),
                         "consumed": (np.ones((3, 4)), "(24,)")},
                        {"purchased": "purchased must be nonnegative",
                         "consumed": "consumed must be nonnegative"}),
}


@pytest.mark.parametrize("kind", list(_VALUE_TYPES))
def test_value_types_check_shape_and_sign_by_one_rule(kind):
    build, fields, _ = _VALUE_TYPES[kind]
    wrong_shapes, unsigned = _MALFORMED[kind]
    assert set(wrong_shapes) == set(fields) and set(unsigned) <= set(fields)

    for name, (arr, shape) in wrong_shapes.items():
        message = f"{name} must have shape {shape}, got {arr.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(**{**fields, name: arr})

    # one negative entry is refused in an unsigned field and kept in a signed one
    for name, arr in fields.items():
        negative = arr.copy()
        negative.flat[0] = -negative.flat[0] - 0.5
        if name in unsigned:
            with pytest.raises(ValueError, match=f"^{unsigned[name]}$"):
                build(**{**fields, name: negative})
        else:
            assert getattr(build(**{**fields, name: negative}), name)[0] == negative[0]


def test_malformed_purchase_plan_and_settlement_are_refused():
    with pytest.raises(ValueError, match=r"^adjustment must have shape \(24,\), got \(3,\)$"):
        PurchasePlan(np.zeros(3), np.ones(24))
    with pytest.raises(ValueError, match="^day_index must be nonnegative$"):
        DailySettlement(-5, np.ones(2), np.ones((3, 4)), 1.0)
    with pytest.raises(ValueError, match="^day_index must be nonnegative$"):
        DailySettlement(-1, np.ones(24), np.ones(24), 1.0)
    assert DailySettlement(0, np.ones(24), np.ones(24), 1.0).day_index == 0


def test_types_are_frozen():
    m = HourlyMatrix(np.ones((1, 24)), START)
    with pytest.raises(AttributeError):
        m.start_date = START


def test_selection_vectors_compare_and_hash_by_members():
    a = SelectionVector(5, [3, 1])
    assert a == SelectionVector(5, np.array([1, 3], dtype=np.int64))
    assert hash(a) == hash(SelectionVector(5, [1, 3]))
    assert a != SelectionVector(6, [1, 3])
    assert a != SelectionVector(5, [1, 4])
    assert a != SelectionVector(5, [1, 3, 4])
    assert a != (5, [1, 3])
    assert a in {SelectionVector(5, [1, 3])}
    assert SelectionVector(5, [1, 4]) not in {a}


def test_types_holding_a_selection_compare_and_hash():
    def group(members):
        u = SelectionVector(4, members)
        return SegmentGroup(round=1, members=u, rate=2.0, cv=1.0,
                            threshold_met=True)

    assert group([0, 2]) == group([2, 0]) and group([0, 2]) != group([0, 3])
    assert len({group([0, 2]), group([2, 0]), group([1])}) == 2
    result = SegmentationResult(groups=(group([0, 2]),), cv_threshold=5.0, leftover_policy="drop")
    assert result == SegmentationResult((group([0, 2]),), 5.0, "drop")
    assert hash(result) == hash(SegmentationResult((group([0, 2]),), 5.0, "drop"))
    solved = SolveResult(2.0, SelectionVector(4, [1]), 3, (1.5, 2.0))
    assert solved == SolveResult(2.0, SelectionVector(4, [1]), 3, (1.5, 2.0))
    assert solved != SolveResult(2.0, SelectionVector(4, [2]), 3, (1.5, 2.0))
    assert len({solved, SolveResult(2.0, SelectionVector(4, [1]), 3, (1.5, 2.0))}) == 1
