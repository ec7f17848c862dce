import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import brute_force_min_lambda, mask
from ratecraft import segmentation, solver
from ratecraft.costs import group_lambda
from ratecraft.ingest import SynthSpec, synth_population
from ratecraft.segmentation import segment_population
from ratecraft.solver import (
    feasibility_test,
    SolveResult,
    lambda_curve,
    solve_min_lambda,
)
from ratecraft.types import CostStats, SelectionVector

GAMMA = 1e-6
pytestmark = pytest.mark.depth


def _random_stats(rng, n):
    return CostStats(t=rng.uniform(0.1, 10.0, n), w=rng.uniform(0.1, 10.0, n))


def test_feasibility_hand_example():
    stats = CostStats(t=[2.0, 6.0], w=[1.0, 1.0])
    sel = feasibility_test(stats, 3.0, 1)
    assert sel is not None
    assert list(sel.indices) == [0]  # v = (-1, 3)
    assert feasibility_test(stats, 1.5, 1) is None  # v = (0.5, 4.5)


def test_feasibility_at_max_ratio_always_passes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        stats = _random_stats(rng, int(rng.integers(2, 12)))
        lam = float(stats.ratios.max())
        for m in range(1, stats.n + 1):
            assert feasibility_test(stats, lam, m) is not None


def test_feasibility_tie_break_lower_index():
    stats = CostStats(t=[2.0, 2.0, 2.0], w=[1.0, 1.0, 1.0])
    sel = feasibility_test(stats, 2.0, 2)
    assert list(sel.indices) == [0, 1]


def test_feasibility_validates_inputs():
    stats = CostStats(t=[1.0], w=[1.0])
    with pytest.raises(ValueError, match="group size"):
        feasibility_test(stats, 1.0, 2)
    with pytest.raises(ValueError, match="finite"):
        feasibility_test(stats, math.inf, 1)


def _stable_sort_feasibility_test(stats, lam, m):
    """Reference kernel: rank all of t - lam*w with a stable sort, take the first M."""
    v = stats.t - lam * stats.w
    chosen = np.argsort(v, kind="stable")[:m]
    if float(v[chosen].sum()) <= 0.0:
        return SelectionVector(stats.n, chosen)
    return None


@given(
    tw=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), min_size=1, max_size=12),
    data=st.data(),
)
def test_feasibility_matches_stable_sort_reference(tw, data):
    # small integers make equal entries of t - lam*w common
    t, w = zip(*tw)
    stats = CostStats(t=t, w=w)
    ratios = sorted(set(stats.ratios.tolist()))
    midpoints = [0.5 * (a + b) for a, b in zip(ratios, ratios[1:])]
    lam = data.draw(st.sampled_from(ratios + midpoints))
    for m in range(1, stats.n + 1):
        got = feasibility_test(stats, lam, m)
        want = _stable_sort_feasibility_test(stats, lam, m)
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want


def test_solve_is_bit_equal_with_stable_sort_reference(monkeypatch):
    # the stable-sort kernel judges the tested midpoints: those in the band, and the last
    rng = np.random.default_rng(31)
    cases = [(_random_stats(rng, n), m) for n, m in [(1, 1), (9, 4), (40, 1), (40, 17), (40, 40)]]
    tied = CostStats(t=rng.integers(0, 5, 30).astype(float), w=rng.integers(1, 3, 30).astype(float))
    cases += [(tied, m) for m in (1, 7, 15, 30)]
    fast = [solve_min_lambda(stats, m, GAMMA) for stats, m in cases]
    monkeypatch.setattr(solver, "feasibility_test", _stable_sort_feasibility_test)
    slow = [solve_min_lambda(stats, m, GAMMA) for stats, m in cases]
    for a, b in zip(fast, slow):
        assert a.lambda_star == b.lambda_star
        assert a.bracket == b.bracket
        assert a.iterations == b.iterations
        assert a.selection == b.selection


def _reference_bisection(stats, m, gamma):
    """The bisection as it once was: tests the max ratio first and carries the last selection."""
    ratios = stats.ratios
    lo, hi = float(ratios.min()), float(ratios.max())
    best, best_lam, iterations = solver.feasibility_test(stats, hi, m), hi, 0
    while hi - lo > gamma:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        candidate = solver.feasibility_test(stats, mid, m)
        if candidate is None:
            lo = mid
        else:
            hi = mid
            best, best_lam = candidate, mid
        iterations += 1
    return SolveResult(best_lam, best, iterations, (lo, hi))


def _stepped(x, ulps):
    """x moved by `ulps` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _near_tie_rates(draw):
    """Consumers whose rates lie a few ulps apart, so groups' rates do too, and one far above."""
    rate = draw(st.floats(0.5, 10.0))
    w = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=11))
    ulps = draw(st.lists(st.integers(-4, 4), min_size=len(w), max_size=len(w)))
    far = draw(st.floats(1e-3, 1e3))
    return [(_stepped(rate * wi, k), wi) for wi, k in zip(w, ulps)] + [(2.0 * rate * far, far)]


@given(
    tw=st.one_of(
        # small integers: ties, and lam* landing exactly on a midpoint
        st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), min_size=2, max_size=12),
        # floats with w across six decades and some t = 0, so lam* can be 0
        st.lists(
            st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), st.floats(1e-3, 1e3)),
            min_size=2,
            max_size=12,
        ),
        _near_tie_rates(),
    ),
    # the smallest gammas bisect down to float resolution, where the band is narrowest
    gamma=st.one_of(st.sampled_from([5e-324, 1e-15, 1e-9, 1e-6, 1e-3, 0.5]), st.floats(1e-9, 0.5)),
    m=st.one_of(st.sampled_from([1, 12]), st.integers(1, 12)),  # capped at n below
)
@example(tw=[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)], gamma=1e-9, m=2)  # lam* = 0.5, a midpoint
def test_solve_equals_the_reference_bisection_with_no_more_tests(tw, gamma, m):
    t, w = zip(*tw)
    stats = CostStats(t=t, w=w)
    assume(float(stats.ratios.max() - stats.ratios.min()) > gamma)
    m = min(m, stats.n)
    calls = []
    test = solver.feasibility_test
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "feasibility_test", lambda *a: calls.append(a) or test(*a))
        got = solve_min_lambda(stats, m, gamma)
        tested = len(calls)
    # the midpoints outside the band around Dinkelbach's rate are decided without a test
    assert tested <= got.iterations + 1
    assert got == _reference_bisection(stats, m, gamma)


def test_solve_equals_the_reference_bisection_on_seeded_instances():
    # a wider sweep than the derandomized examples above: groups other than the M lowest rates
    rng = np.random.default_rng(20)
    for k in range(400):
        n = int(rng.integers(2, 40))
        if k % 4 == 0:
            t, w = rng.integers(0, 7, n), rng.integers(1, 5, n)
        elif k % 4 == 1:
            t, w = rng.uniform(0.0, 1e3, n) * (rng.random(n) < 0.8), 10.0 ** rng.uniform(-3, 3, n)
        elif k % 4 == 2:
            w = rng.uniform(1e-3, 1e3, n)
            t = [_stepped(3.0 * wi, int(d)) for wi, d in zip(w, rng.integers(-4, 5, n))]
            t[0] *= 2.0
        else:
            t, w = rng.uniform(1.0, 2.0, n), rng.uniform(0.5, 2.0, n)
        stats = CostStats(t=t, w=w)
        m = int(rng.choice([1, n, rng.integers(1, n + 1)]))
        gamma = float(rng.choice([5e-324, 1e-15, 1e-9, 1e-6, 1e-3, 0.5]))
        if float(stats.ratios.max() - stats.ratios.min()) > gamma:
            assert solve_min_lambda(stats, m, gamma) == _reference_bisection(stats, m, gamma)


def test_segmentation_is_bit_equal_with_stable_sort_reference(monkeypatch, synth_medium):
    # the stable-sort kernel judges the tested midpoints: those in the band, and the last
    kw = dict(cv_threshold=8.0, size_grid=[10, 25, 50, 100, 200])
    fast = segment_population(synth_medium, **kw)
    monkeypatch.setattr(solver, "feasibility_test", _stable_sort_feasibility_test)
    slow = segment_population(synth_medium, **kw)
    assert len(fast.groups) == len(slow.groups)
    for a, b in zip(fast.groups, slow.groups):
        assert a.members == b.members
        assert a.rate == b.rate
        assert a.cv == b.cv


def test_segmentation_is_bit_equal_with_the_reference_bisection(monkeypatch, synth_medium):
    kw = dict(cv_threshold=8.0, size_grid=[10, 25, 50, 100, 200])
    fast = segment_population(synth_medium, **kw)
    monkeypatch.setattr(segmentation, "solve_min_lambda", _reference_bisection)
    slow = segment_population(synth_medium, **kw)
    assert len(fast.groups) == len(slow.groups)
    for a, b in zip(fast.groups, slow.groups):
        assert a.members == b.members
        assert a.rate.hex() == b.rate.hex()
        assert a.cv.hex() == b.cv.hex()


def test_segmentation_makes_about_one_feasibility_test_a_solve(monkeypatch):
    ds = synth_population(SynthSpec(n_consumers=400, n_days=60, seed=7))
    solves, tests = [], []
    solve, test = segmentation.solve_min_lambda, solver.feasibility_test
    monkeypatch.setattr(segmentation, "solve_min_lambda", lambda *a: solves.append(a) or solve(*a))
    monkeypatch.setattr(solver, "feasibility_test", lambda *a: tests.append(a) or test(*a))
    segment_population(ds, cv_threshold=10.0)
    assert len(solves) > 50
    # one test per midpoint would be about 20 a solve
    assert len(tests) <= 1.2 * len(solves)


def test_solve_singleton_is_min_ratio():
    stats = CostStats(t=[6.0, 2.0, 9.0], w=[2.0, 1.0, 2.0])
    res = solve_min_lambda(stats, 1, GAMMA)
    assert res.lambda_star == pytest.approx(2.0, abs=GAMMA)
    assert list(res.selection.indices) == [1]


def test_solve_full_population_is_average():
    stats = CostStats(t=[6.0, 2.0, 9.0], w=[2.0, 1.0, 2.0])
    res = solve_min_lambda(stats, 3, GAMMA)
    assert res.lambda_star == pytest.approx(17.0 / 5.0, abs=GAMMA)
    assert res.selection.cardinality == 3


def test_solve_rejects_bad_gamma():
    stats = CostStats(t=[1.0, 2.0], w=[1.0, 1.0])
    with pytest.raises(ValueError, match="gamma"):
        solve_min_lambda(stats, 1, 0.0)
    with pytest.raises(ValueError, match="gamma must be > 0"):
        solve_min_lambda(stats, 1, float("nan"))


def test_solve_degenerate_equal_ratios():
    stats = CostStats(t=[3.0, 6.0, 9.0], w=[1.0, 2.0, 3.0])  # all ratios 3.0
    res = solve_min_lambda(stats, 2, GAMMA)
    assert res.lambda_star == pytest.approx(3.0)
    assert list(res.selection.indices) == [0, 1]
    assert res.iterations == 0


def test_brute_force_hand_enumeration():
    stats = CostStats(t=[2.0, 6.0, 4.0], w=[1.0, 1.0, 2.0])
    res = brute_force_min_lambda(stats, 2)
    assert res.lambda_star == pytest.approx(2.0)
    assert list(res.selection.indices) == [0, 2]
    full = brute_force_min_lambda(stats, 3)
    assert full.lambda_star == pytest.approx(12.0 / 4.0)


def test_brute_force_combinatorial_guard():
    rng = np.random.default_rng(0)
    stats = _random_stats(rng, 40)
    with pytest.raises(ValueError, match="exceeds the limit"):
        brute_force_min_lambda(stats, 20)


def test_solver_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, n + 1))
        stats = _random_stats(rng, n)
        bis = solve_min_lambda(stats, m, GAMMA)
        exact = brute_force_min_lambda(stats, m)
        assert abs(bis.lambda_star - exact.lambda_star) <= 2 * GAMMA
        # the certificate group is itself optimal up to tolerance
        assert group_lambda(stats, bis.selection) <= exact.lambda_star + 2 * GAMMA


def test_solver_certificate_and_bracket():
    rng = np.random.default_rng(9)
    for _ in range(30):
        stats = _random_stats(rng, int(rng.integers(2, 20)))
        m = int(rng.integers(1, stats.n + 1))
        res = solve_min_lambda(stats, m, GAMMA)
        v = stats.t - res.lambda_star * stats.w
        assert float(v[res.selection.indices].sum()) <= 1e-12
        lo, hi = res.bracket
        assert hi - lo <= GAMMA
        assert res.selection.cardinality == m


def test_solver_iteration_bound():
    rng = np.random.default_rng(10)
    for _ in range(30):
        stats = _random_stats(rng, int(rng.integers(2, 20)))
        m = int(rng.integers(1, stats.n + 1))
        res = solve_min_lambda(stats, m, GAMMA)
        spread = float(stats.ratios.max() - stats.ratios.min())
        if spread > GAMMA:
            assert res.iterations <= math.ceil(math.log2(spread / GAMMA)) + 1


def test_solver_transition_point():
    rng = np.random.default_rng(11)
    for _ in range(30):
        stats = _random_stats(rng, int(rng.integers(2, 16)))
        m = int(rng.integers(1, stats.n + 1))
        res = solve_min_lambda(stats, m, GAMMA)
        assert feasibility_test(stats, res.lambda_star + 2 * GAMMA, m) is not None
        assert feasibility_test(stats, res.lambda_star - 2 * GAMMA, m) is None


def test_solver_exclusion_order():
    # every consumer left out ranks no better than the worst selected one
    rng = np.random.default_rng(12)
    for _ in range(20):
        stats = _random_stats(rng, 15)
        res = solve_min_lambda(stats, 6, GAMMA)
        v = stats.t - res.lambda_star * stats.w
        inside = v[res.selection.indices]
        outside = v[~mask(res.selection)]
        assert outside.min() >= inside.max()


def test_solver_scale_invariance():
    rng = np.random.default_rng(13)
    stats = _random_stats(rng, 12)
    base = solve_min_lambda(stats, 4, GAMMA)
    # power-of-two scaling with a matching tolerance replays the bisection exactly
    scaled_stats = CostStats(t=4.0 * stats.t, w=stats.w)
    scaled = solve_min_lambda(scaled_stats, 4, 4.0 * GAMMA)
    assert scaled.lambda_star == pytest.approx(4.0 * base.lambda_star, rel=1e-12)
    assert scaled.selection == base.selection
    # generic positive scaling agrees within tolerances
    scaled3 = solve_min_lambda(CostStats(t=3.0 * stats.t, w=stats.w), 4, GAMMA)
    assert scaled3.lambda_star == pytest.approx(3.0 * base.lambda_star, abs=4 * GAMMA)


@given(
    t=st.lists(st.floats(0.1, 20.0), min_size=3, max_size=10),
    w=st.lists(st.floats(0.1, 20.0), min_size=10, max_size=10),
    data=st.data(),
)
def test_feasible_set_is_upward_closed(t, w, data):
    n = min(len(t), len(w))
    stats = CostStats(t=t[:n], w=w[:n])
    m = data.draw(st.integers(1, n))
    lam = data.draw(st.floats(0.0, 25.0))
    step = data.draw(st.floats(0.001, 5.0))
    if feasibility_test(stats, lam, m) is not None:
        assert feasibility_test(stats, lam + step, m) is not None
    else:
        assert feasibility_test(stats, lam - step, m) is None


def test_lambda_curve_endpoints_and_monotonicity():
    rng = np.random.default_rng(14)
    stats = _random_stats(rng, 30)
    sizes = list(range(1, 31))
    curve = lambda_curve(stats, sizes, GAMMA)
    lams = [lam for _, lam in curve]
    assert lams[0] == pytest.approx(float(stats.ratios.min()), abs=2 * GAMMA)
    assert lams[-1] == pytest.approx(float(stats.t.sum() / stats.w.sum()), abs=2 * GAMMA)
    for a, b in zip(lams, lams[1:]):
        assert a <= b + 2 * GAMMA


def test_lambda_curve_requires_sorted_sizes():
    stats = CostStats(t=[1.0, 2.0], w=[1.0, 1.0])
    with pytest.raises(ValueError, match="ascending"):
        lambda_curve(stats, [2, 1], GAMMA)


def test_equal_rates_shortcut_keeps_the_certificate():
    stats = CostStats(t=[1.0000005, 1.0], w=[1.0, 1.0])  # rates within gamma of each other
    res = solve_min_lambda(stats, 1, GAMMA)
    assert res.iterations == 0
    members = res.selection.indices
    assert float((stats.t - res.lambda_star * stats.w)[members].sum()) <= 0.0
    assert abs(res.lambda_star - brute_force_min_lambda(stats, 1).lambda_star) <= GAMMA
