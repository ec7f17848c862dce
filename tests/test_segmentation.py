import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_min_lambda, mask
from ratecraft import segmentation
from ratecraft.costs import consumer_stats, group_lambda
from ratecraft.forecast import backtest_cv
from ratecraft.ingest import SynthSpec, synth_population
from ratecraft.segmentation import (
    SegmentGroup,
    SegmentationResult,
    StabilityReport,
    StabilityViolation,
    default_size_grid,
    segment_population,
    stability_audit,
)
from ratecraft.solver import lambda_curve, solve_min_lambda
from ratecraft.types import ConsumerSeries, CostStats, Dataset, HourlyMatrix, SelectionVector

GAMMA = 1e-6


def test_default_size_grid():
    grid = default_size_grid(2000)
    assert grid[0] == 10
    assert grid[-1] == 2000
    assert grid == sorted(grid)
    assert default_size_grid(5) == [1, 2, 3, 4, 5]
    assert default_size_grid(100, smallest=1)[0] == 1
    for smallest in (0, -2):
        with pytest.raises(ValueError, match="smallest must be >= 1"):
            default_size_grid(100, smallest=smallest)


def _replicated_population(n, days=30, seed=0):
    """n copies of one synthetic consumer, distinct ids, shared behavior."""
    single = synth_population(SynthSpec(n_consumers=1, n_days=days, noise_cv=0.2, seed=seed))
    consumers = tuple(
        ConsumerSeries(f"c{i:03d}", single.consumers[0].usage) for i in range(n)
    )
    return Dataset(consumers, single.prices, single.train_days, single.validate_days)


def test_segment_identical_consumers_equal_rates():
    ds = _replicated_population(12)
    seg = segment_population(ds, cv_threshold=100.0, size_grid=[3])
    assert [g.size for g in seg.groups] == [3, 3, 3, 3]
    assert all(g.threshold_met for g in seg.groups)
    rates = [g.rate for g in seg.groups]
    for a, b in zip(rates, rates[1:]):
        assert abs(a - b) <= 2 * GAMMA
    # partition: every consumer in exactly one group
    union = np.zeros(12, dtype=int)
    for g in seg.groups:
        union += mask(g.members).astype(int)
    assert np.all(union == 1)


def test_segment_two_archetype_population(synth_medium):
    seg = segment_population(synth_medium, cv_threshold=8.0, size_grid=[10, 25, 50, 100, 200])
    met = seg.threshold_met_groups()
    assert len(met) >= 2
    rates = [g.rate for g in met]
    for a, b in zip(rates, rates[1:]):
        assert a <= b + 2 * GAMMA
    # cheap night consumers recruited early, expensive evening ones late
    ids = synth_medium.consumer_ids
    first_ids = [ids[i] for i in met[0].members.indices]
    night_share_first = np.mean([cid.startswith("night") for cid in first_ids])
    last = seg.groups[-1]
    last_ids = [ids[i] for i in last.members.indices]
    peak_share_last = np.mean([cid.startswith("peak") for cid in last_ids])
    assert night_share_first > 0.9
    assert peak_share_last > 0.5


def test_segment_deterministic(synth_medium):
    kw = dict(cv_threshold=8.0, size_grid=[10, 25, 50, 100, 200])
    a = segment_population(synth_medium, **kw)
    b = segment_population(synth_medium, **kw)
    assert len(a.groups) == len(b.groups)
    for ga, gb in zip(a.groups, b.groups):
        assert ga.rate == gb.rate
        assert ga.cv == gb.cv
        assert ga.members == gb.members


def test_segment_rates_above_remaining_minimum(synth_medium):
    stats = consumer_stats(synth_medium)
    seg = segment_population(synth_medium, cv_threshold=8.0, size_grid=[10, 50, 200])
    remaining = np.ones(synth_medium.n_consumers, dtype=bool)
    for g in seg.groups:
        floor = float(stats.ratios[remaining].min())
        assert g.rate >= floor - 2 * GAMMA
        remaining &= ~mask(g.members)


def test_segment_leftover_aggregate_vs_drop(synth_medium):
    # threshold nothing can meet: aggregate lumps everyone, drop assigns no one
    agg = segment_population(synth_medium, cv_threshold=0.01, size_grid=[10, 50])
    assert len(agg.groups) == 1
    assert agg.groups[0].threshold_met is False
    assert agg.groups[0].size == synth_medium.n_consumers
    dropped = segment_population(
        synth_medium, cv_threshold=0.01, size_grid=[10, 50], leftover_policy="drop"
    )
    assert len(dropped.groups) == 0


def test_segment_empty_grid_rejected(synth_medium):
    with pytest.raises(ValueError, match="size grid"):
        segment_population(synth_medium, cv_threshold=5.0, size_grid=[])


def test_segment_refine_finds_smaller_group():
    ds = _replicated_population(40, days=40, seed=3)
    seg = segment_population(ds, cv_threshold=100.0, size_grid=[2, 30])
    # identical consumers: size 2 already qualifies
    assert seg.groups[0].size == 2


def test_segment_bracket_scan_matches_brute_force(synth_medium):
    # The optimal-group CV is not monotone in size here (14.6 at 10, 17.0 at 20,
    # 14.0 at 30), so only a scan of every size between the grid points finds
    # the smallest qualifying group.
    stats = consumer_stats(synth_medium)
    for k in range(3, 200):
        smallest = solve_min_lambda(stats, k).selection
        if backtest_cv(synth_medium, smallest) <= 10.0:
            break
    else:
        pytest.fail("no size in 3..199 meets the threshold")
    seg = segment_population(synth_medium, cv_threshold=10.0, size_grid=[2, 200])
    assert seg.groups[0].size == k
    assert seg.groups[0].members == smallest


def _vacant_in_validate(ds, vacant):
    """A copy of ds where every consumer for which vacant(id) holds uses nothing after training."""
    consumers = []
    for c in ds.consumers:
        usage = c.usage.values.copy()
        if vacant(c.consumer_id):
            usage[ds.train_days :] = 0.0
        consumers.append(ConsumerSeries(c.consumer_id, HourlyMatrix(usage, c.usage.start_date)))
    return Dataset(tuple(consumers), ds.prices, ds.train_days, ds.validate_days)


def test_segment_skips_groups_vacant_in_validate_window():
    ds = synth_population(SynthSpec(n_consumers=40, n_days=40, seed=3))
    seg = segment_population(_vacant_in_validate(ds, lambda cid: cid.startswith("night")),
                             cv_threshold=10.0)
    union = np.zeros(ds.n_consumers, dtype=int)
    for g in seg.groups:
        union += mask(g.members).astype(int)
    assert np.all(union == 1)


def test_segment_leftover_vacant_in_validate_window_is_named():
    ds = synth_population(SynthSpec(n_consumers=40, n_days=40, seed=3))
    with pytest.raises(ValueError, match="leftover group of 40 .* validate window"):
        segment_population(_vacant_in_validate(ds, lambda cid: True), cv_threshold=10.0)


def test_segment_rejects_unknown_policy_before_any_solve(monkeypatch):
    ds = synth_population(SynthSpec(n_consumers=200, n_days=60, seed=1))
    solves = []

    def counting_solve(*args, **kwargs):
        solves.append(args)
        return solve_min_lambda(*args, **kwargs)

    monkeypatch.setattr(segmentation, "solve_min_lambda", counting_solve)
    with pytest.raises(ValueError, match="unknown leftover policy 'bogus'"):
        segment_population(ds, cv_threshold=10.0, leftover_policy="bogus")
    assert solves == []


def test_segmentation_result_validates_partition():
    a = SelectionVector(4, [0, 1])
    overlapping = SelectionVector(4, [1, 2])
    g1 = SegmentGroup(round=1, members=a, rate=2.0, cv=5.0, threshold_met=True)
    g2 = SegmentGroup(round=2, members=overlapping, rate=3.0, cv=5.0, threshold_met=True)
    with pytest.raises(ValueError, match="overlaps"):
        SegmentationResult(groups=(g1, g2), cv_threshold=10.0, leftover_policy="drop")
    rest = SelectionVector(4, [2])
    g3 = SegmentGroup(round=2, members=rest, rate=3.0, cv=5.0, threshold_met=True)
    with pytest.raises(ValueError, match="cover"):
        SegmentationResult(groups=(g1, g3), cv_threshold=10.0, leftover_policy="aggregate")


@pytest.mark.parametrize("field, value, message", [
    ("round", 0, "round numbering starts at 1"),
    ("rate", 0.0, "group rate must be positive"),
    ("rate", -1.0, "group rate must be positive"),
    ("rate", float("nan"), "group rate must be positive"),
    ("cv", -0.1, "cv must be nonnegative"),
    ("cv", float("nan"), "cv must be nonnegative"),
])
def test_segment_group_validation(field, value, message):
    fields = dict(round=1, members=SelectionVector(4, [0, 1]), rate=2.0, cv=5.0,
                  threshold_met=True)
    SegmentGroup(**fields)
    with pytest.raises(ValueError, match=message):
        SegmentGroup(**{**fields, field: value})


def test_stability_audit_clean_on_solver_output(synth_medium):
    stats = consumer_stats(synth_medium)
    seg = segment_population(synth_medium, cv_threshold=8.0, size_grid=[10, 25, 50, 100, 200])
    report = stability_audit(seg, stats, GAMMA)
    assert not report.violations
    assert report.pairs_checked == len(seg.threshold_met_groups()) - 1
    assert report.moves_checked > 0


@settings(max_examples=25)
@given(
    n=st.integers(20, 200),
    days=st.integers(40, 60),
    cv_threshold=st.sampled_from([8.0, 15.0, 30.0]),
    fraction_peaky=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(0, 2**16),
)
def test_no_consumer_of_a_later_group_gains_by_joining_an_earlier_one(
    n, days, cv_threshold, fraction_peaky, seed
):
    """The paper's stability claim in full: every consumer of every later group, the leftover
    group included, joins every earlier threshold-met group, and no join lowers that group's
    rate by more than 2*gamma. stability_audit checks only consecutive threshold-met pairs."""
    ds = synth_population(SynthSpec(n_consumers=n, n_days=days, fraction_peaky=fraction_peaky,
                                    noise_cv=0.35, seed=seed))
    stats = consumer_stats(ds)
    groups = segment_population(ds, cv_threshold=cv_threshold, gamma=GAMMA).groups
    for i, earlier in enumerate(groups):
        if not earlier.threshold_met:
            continue
        members = earlier.members.indices
        t_sum, w_sum = float(stats.t[members].sum()), float(stats.w[members].sum())
        for later in groups[i + 1:]:
            joiners = later.members.indices
            joined = (t_sum + stats.t[joiners]) / (w_sum + stats.w[joiners])
            gains = joiners[joined < earlier.rate - 2 * GAMMA].tolist()
            assert not gains, f"round {later.round}'s {gains} lower round {earlier.round}'s rate"


def test_each_recruited_group_is_the_cheapest_of_its_size_in_its_pool():
    """Each threshold-met round's rate is within gamma of the enumerated minimum rate over all
    groups of its size among the consumers that round could recruit."""
    rounds = 0
    for seed in range(30):
        n = 2 + seed % 11
        spec = SynthSpec(n_consumers=n, n_days=40, noise_cv=(0.1, 0.2, 0.35)[seed % 3], seed=seed)
        ds = synth_population(spec)
        stats = consumer_stats(ds)
        for cv_threshold in (5.0, 15.0, 40.0):
            pool = np.arange(n)
            for g in segment_population(ds, cv_threshold=cv_threshold, gamma=GAMMA).groups:
                if g.threshold_met:
                    sub = CostStats(t=stats.t[pool], w=stats.w[pool])
                    assert g.rate <= brute_force_min_lambda(sub, g.size).lambda_star + GAMMA
                    rounds += 1
                pool = np.setdiff1d(pool, g.members.indices)
    assert rounds >= 100


def test_stability_audit_flags_misassignment():
    # consumer 2 is far cheaper than group 1: joining would lower its rate
    stats = CostStats(t=[10.0, 10.0, 1.0], w=[1.0, 1.0, 1.0])
    g1_members = SelectionVector(3, [0, 1])
    g2_members = SelectionVector(3, [2])
    g1 = SegmentGroup(
        round=1, members=g1_members,
        rate=group_lambda(stats, g1_members), cv=5.0, threshold_met=True,
    )
    g2 = SegmentGroup(
        round=2, members=g2_members,
        rate=group_lambda(stats, g2_members), cv=5.0, threshold_met=True,
    )
    result = SegmentationResult(groups=(g1, g2), cv_threshold=10.0, leftover_policy="aggregate")
    report = stability_audit(result, stats, GAMMA)
    kinds = {v.kind for v in report.violations}
    assert "join_improves" in kinds
    assert "rate_order" in kinds  # rates 10 then 1 also break the ordering
    join = [v for v in report.violations if v.kind == "join_improves"][0]
    assert join.consumer_index == 2
    assert join.magnitude > 0


def _audit_one_move_at_a_time(result, stats, gamma):
    """stability_audit with its join check as a Python loop over the later group's members."""
    met = sorted(result.threshold_met_groups(), key=lambda g: g.round)
    violations, pairs, moves, tol = [], 0, 0, 2.0 * gamma
    for earlier, later in zip(met, met[1:]):
        pairs += 1
        if earlier.rate > later.rate + tol:
            violations.append(StabilityViolation(
                "rate_order", earlier.round, later.round, None, earlier.rate - later.rate - tol))
        members = earlier.members.indices
        t_sum = float(stats.t[members].sum())
        w_sum = float(stats.w[members].sum())
        for j in later.members.indices:
            moves += 1
            joined = (t_sum + float(stats.t[j])) / (w_sum + float(stats.w[j]))
            if joined < earlier.rate - tol:
                violations.append(StabilityViolation(
                    "join_improves", earlier.round, later.round, int(j),
                    earlier.rate - tol - joined))
    return StabilityReport(pairs_checked=pairs, moves_checked=moves, violations=tuple(violations))


def _random_segmentation(rng, stats):
    """The population cut into random groups in random order, some of them not threshold-met."""
    cuts = np.sort(rng.choice(np.arange(1, stats.n), size=rng.integers(1, 6), replace=False))
    groups = []
    for k, members in enumerate(np.split(rng.permutation(stats.n), cuts)):
        sel = SelectionVector(stats.n, members)
        groups.append(SegmentGroup(round=k + 1, members=sel,
                                   rate=group_lambda(stats, sel), cv=1.0,
                                   threshold_met=bool(rng.random() < 0.8)))
    return SegmentationResult(groups=tuple(groups), cv_threshold=10.0, leftover_policy="aggregate")


def test_stability_audit_equals_one_move_at_a_time():
    corrupted_stats = CostStats(t=[10.0, 10.0, 1.0], w=[1.0, 1.0, 1.0])
    g1 = SelectionVector(3, [0, 1])
    g2 = SelectionVector(3, [2])
    corrupted = SegmentationResult(
        groups=(
            SegmentGroup(round=1, members=g1, rate=group_lambda(corrupted_stats, g1),
                         cv=5.0, threshold_met=True),
            SegmentGroup(round=2, members=g2, rate=group_lambda(corrupted_stats, g2),
                         cv=5.0, threshold_met=True),
        ),
        cv_threshold=10.0,
        leftover_policy="aggregate",
    )
    cases = [(corrupted, corrupted_stats, GAMMA)]
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(6, 60))
        stats = CostStats(t=rng.uniform(0.0, 30.0, n), w=rng.uniform(0.5, 20.0, n))
        cases.append((_random_segmentation(rng, stats), stats, float(rng.choice([GAMMA, 0.05]))))
    joins = 0
    for result, stats, gamma in cases:
        got = stability_audit(result, stats, gamma)
        assert got == _audit_one_move_at_a_time(result, stats, gamma)
        for v in got.violations:
            assert v.consumer_index is None or type(v.consumer_index) is int
            assert type(v.magnitude) is float
        joins += sum(v.kind == "join_improves" for v in got.violations)
    assert joins > 40


def test_stability_audit_single_group_vacuous():
    stats = CostStats(t=[2.0, 3.0], w=[1.0, 1.0])
    members = SelectionVector(2, [0, 1])
    g = SegmentGroup(round=1, members=members, rate=2.5, cv=1.0, threshold_met=True)
    result = SegmentationResult(groups=(g,), cv_threshold=10.0, leftover_policy="aggregate")
    report = stability_audit(result, stats, GAMMA)
    assert not report.violations
    assert report.pairs_checked == 0
    assert report.moves_checked == 0


@pytest.mark.parametrize("n_stats", [2, 5])
def test_stability_audit_refuses_stats_of_another_population(n_stats):
    u = SelectionVector(3, [0, 1])
    v = SelectionVector(3, [2])
    result = SegmentationResult(
        groups=(
            SegmentGroup(round=1, members=u, rate=1.0, cv=1.0, threshold_met=True),
            SegmentGroup(round=2, members=v, rate=2.0, cv=1.0, threshold_met=True),
        ),
        cv_threshold=10.0,
        leftover_policy="aggregate",
    )
    stats = CostStats(t=[1.0] * n_stats, w=[1.0] * n_stats)
    with pytest.raises(ValueError, match=f"the groups index 3 consumers, the stats {n_stats}"):
        stability_audit(result, stats, GAMMA)


@pytest.mark.parametrize("gamma", [0.0, -1.0])
def test_stability_audit_refuses_gamma_not_positive(gamma):
    # a negative gamma flagged violations on a clean result; 0 leaves no tolerance at all
    stats = CostStats(t=[1.0, 2.0], w=[1.0, 1.0])
    u, v = SelectionVector(2, [0]), SelectionVector(2, [1])
    clean = SegmentationResult(
        groups=(
            SegmentGroup(round=1, members=u, rate=1.0, cv=1.0, threshold_met=True),
            SegmentGroup(round=2, members=v, rate=2.0, cv=1.0, threshold_met=True),
        ),
        cv_threshold=10.0,
        leftover_policy="aggregate",
    )
    assert not stability_audit(clean, stats, GAMMA).violations
    with pytest.raises(ValueError, match="gamma must be > 0"):
        stability_audit(clean, stats, gamma)


_NAN = float("nan")
_STATS = CostStats(t=[1.0, 2.0, 4.0], w=[1.0, 1.0, 1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: solve_min_lambda(_STATS, 2, _NAN), "gamma must be > 0"),
    (lambda: lambda_curve(_STATS, [1, 2], _NAN), "gamma must be > 0"),
    (lambda: stability_audit(SegmentationResult((), 10.0, "drop"), _STATS, _NAN),
     "gamma must be > 0"),
    (lambda: segment_population(synth_population(SynthSpec(n_consumers=6, n_days=30)), _NAN),
     "cv_threshold must be positive"),
    (lambda: SegmentationResult((), _NAN, "drop"), "cv_threshold must be positive"),
    (lambda: SynthSpec(n_consumers=2, n_days=2, fraction_peaky=_NAN), "fraction_peaky"),
    (lambda: SynthSpec(n_consumers=2, n_days=2, base_kwh_per_day=_NAN), "base_kwh_per_day"),
    (lambda: SynthSpec(n_consumers=2, n_days=2, noise_cv=_NAN), "noise_cv"),
], ids=["solve_min_lambda-gamma", "lambda_curve-gamma", "stability_audit-gamma",
        "segment_population-cv_threshold", "SegmentationResult-cv_threshold",
        "SynthSpec-fraction_peaky", "SynthSpec-base_kwh_per_day", "SynthSpec-noise_cv"])
def test_nan_fails_every_float_range_check(call, message):
    with pytest.raises(ValueError, match=message):
        call()
