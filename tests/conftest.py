import ctypes
import datetime as dt
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ratecraft.forecast import predict_rows
from ratecraft.ingest import SynthSpec, synth_population
from ratecraft.solver import SolveResult, _check_m
from ratecraft.types import (
    ConsumerSeries, Dataset, ForecastErrorModel, HourlyMatrix, PriceSeries, SelectionVector,
)

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI runs the tests marked depth again under --hypothesis-profile=ci, which replaces "det".
# A property that pins its own max_examples takes the larger of its count and the profile's.
settings.register_profile("ci", settings.get_profile("det"), max_examples=2000)
settings.load_profile("det")

START = dt.date(2021, 1, 4)  # a Monday

BRUTE_FORCE_LIMIT = 1_000_000


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


def brute_force_min_lambda(stats, m: int) -> SolveResult:
    """Exact minimizer by enumerating every M-subset; oracle for the bisection.

    Guarded: refuses instances with more than BRUTE_FORCE_LIMIT combinations.
    """
    _check_m(stats, m)
    count = math.comb(stats.n, m)
    if count > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"C({stats.n}, {m}) = {count} subsets exceeds the limit of {BRUTE_FORCE_LIMIT}"
        )
    t = stats.t.tolist()
    w = stats.w.tolist()
    best_ratio = math.inf
    best_subset: tuple[int, ...] = ()
    for subset in itertools.combinations(range(stats.n), m):
        num = sum(t[i] for i in subset)
        den = sum(w[i] for i in subset)
        ratio = num / den
        if ratio < best_ratio:
            best_ratio = ratio
            best_subset = subset
    selection = SelectionVector(stats.n, best_subset)
    return SolveResult(
        lambda_star=best_ratio,
        selection=selection,
        iterations=count,
        bracket=(best_ratio, best_ratio),
    )


def one_step_sigma(profile, model, start, stop, start_weekday) -> ForecastErrorModel:
    """Per-hour standard deviation of the one-step residuals of rows [start, stop)."""
    preds = predict_rows(model, profile.sum(axis=1), start, stop, start_weekday)
    return ForecastErrorModel(sigma=(profile[start:stop] - preds).std(axis=0, ddof=1))


def mask(selection: SelectionVector) -> np.ndarray:
    """The selection as a boolean mask over its n consumers."""
    bits = np.zeros(selection.n, dtype=bool)
    bits[selection.indices] = True
    return bits


def make_dataset(usages, da, rt=None, train_days=None, ids=None, start=START):
    """Assemble a Dataset from raw arrays; 1-D prices are tiled across days."""
    usages = [np.atleast_2d(np.asarray(u, dtype=float)) for u in usages]
    days = usages[0].shape[0]
    da = np.asarray(da, dtype=float)
    if da.ndim == 1:
        da = np.tile(da, (days, 1))
    if rt is None:
        rt = da
    else:
        rt = np.asarray(rt, dtype=float)
        if rt.ndim == 1:
            rt = np.tile(rt, (days, 1))
    prices = PriceSeries(HourlyMatrix(da, start), HourlyMatrix(rt, start))
    if ids is None:
        ids = [f"c{i:03d}" for i in range(len(usages))]
    consumers = tuple(
        ConsumerSeries(cid, HourlyMatrix(u, start)) for cid, u in zip(ids, usages)
    )
    if train_days is None:
        train_days = days
    return Dataset(consumers, prices, train_days=train_days, validate_days=days - train_days)


def vacate_validate(ds, members, days=None):
    """ds where `members` use nothing on the first `days` validate days (default: all)."""
    stop = ds.n_days if days is None else ds.train_days + days
    return vacate_rows(ds, members, ds.train_days, stop)


def vacate_rows(ds, members, start, stop):
    """ds where `members` use nothing on rows [start, stop)."""
    consumers = list(ds.consumers)
    for i in members:
        usage = consumers[i].usage.values.copy()
        usage[start:stop] = 0.0
        consumers[i] = ConsumerSeries(consumers[i].consumer_id, HourlyMatrix(usage, ds.start_date))
    return Dataset(consumers, ds.prices, ds.train_days, ds.validate_days)


@pytest.fixture(scope="session")
def synth_small():
    return synth_population(SynthSpec(n_consumers=40, n_days=40, seed=3))


@pytest.fixture(scope="session")
def synth_medium():
    return synth_population(
        SynthSpec(n_consumers=200, n_days=60, fraction_peaky=0.5, noise_cv=0.35, seed=17)
    )
