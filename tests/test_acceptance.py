"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import brute_force_min_lambda, mask
from ratecraft.cli import main as cli_main
from ratecraft.costs import (
    consumer_stats,
    expected_penalty,
    group_lambda,
    newsvendor_purchase,
    realized_cost,
)
from ratecraft.forecast import cv_curve
from ratecraft.ingest import SynthSpec, synth_population
from ratecraft.segmentation import SegmentGroup, SegmentationResult, segment_population, stability_audit
from ratecraft.simulate import replay_validate
from ratecraft.solver import feasibility_test, lambda_curve, solve_min_lambda
from ratecraft.types import CostStats, ForecastErrorModel, SelectionVector

GAMMA = 1e-6


def _report(num: int, desc: str, ok: bool):
    print(f"\n[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def random_instances():
    """100 random instances with N <= 14, solved by bisection and enumeration."""
    rng = np.random.default_rng(42)
    instances = []
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 15))
        m = int(rng.integers(1, n + 1))
        stats = CostStats(t=rng.uniform(0.1, 10.0, n), w=rng.uniform(0.1, 10.0, n))
        bis = solve_min_lambda(stats, m, GAMMA)
        exact = brute_force_min_lambda(stats, m)
        instances.append((stats, m, bis, exact))
    elapsed = time.perf_counter() - start
    return instances, elapsed


@pytest.fixture(scope="module")
def population_2000():
    ds = synth_population(
        SynthSpec(n_consumers=2000, n_days=120, fraction_peaky=0.5, noise_cv=0.4, seed=11)
    )
    return ds


def test_criterion_01_solver_optimality(random_instances):
    instances, elapsed = random_instances
    worst = max(abs(b.lambda_star - e.lambda_star) for _, _, b, e in instances)
    ok = worst <= 2 * GAMMA and elapsed < 10.0
    _report(1, f"bisection matches enumeration within 2*gamma "
               f"(worst gap {worst:.2e}, {elapsed:.2f}s for 100 instances)", ok)


def test_criterion_02_bisection_complexity(random_instances):
    instances, _ = random_instances
    ok = True
    for stats, m, bis, _ in instances:
        spread = float(stats.ratios.max() - stats.ratios.min())
        if spread > GAMMA:
            bound = math.ceil(math.log2(spread / GAMMA)) + 1
            ok = ok and bis.iterations <= bound
        else:
            ok = ok and bis.iterations == 0
    _report(2, "iteration count <= ceil(log2(bracket/gamma)) + 1 on every instance", ok)


def test_criterion_03_transition_point(random_instances):
    instances, _ = random_instances
    ok = True
    for stats, m, bis, _ in instances:
        above = feasibility_test(stats, bis.lambda_star + 2 * GAMMA, m)
        below = feasibility_test(stats, bis.lambda_star - 2 * GAMMA, m)
        ok = ok and above is not None and below is None
    _report(3, "lambda*+2g feasible and lambda*-2g infeasible on every instance", ok)


def test_criterion_04_lambda_curve_monotone(population_2000):
    start = time.perf_counter()
    stats = consumer_stats(population_2000)
    sizes = [int(s) for s in np.ceil(np.logspace(0, np.log10(2000), 20))]
    sizes[-1] = 2000  # pin the endpoint to the population size
    assert len(set(sizes)) == 20
    curve = lambda_curve(stats, sizes, GAMMA)
    elapsed = time.perf_counter() - start
    lams = [lam for _, lam in curve]
    monotone = all(a <= b + 2 * GAMMA for a, b in zip(lams, lams[1:]))
    low_end = abs(lams[0] - float(stats.ratios.min())) <= 2 * GAMMA
    high_end = abs(lams[-1] - float(stats.t.sum() / stats.w.sum())) <= 2 * GAMMA
    ok = monotone and low_end and high_end and elapsed < 60.0
    _report(4, f"rate curve nondecreasing with matching endpoints over {len(sizes)} "
               f"sizes on 2000x120 ({elapsed:.1f}s)", ok)


def test_criterion_05_rate_spread(population_2000):
    stats = consumer_stats(population_2000)
    ratios = stats.ratios
    spread = float(ratios.max() / ratios.min())
    top = np.argsort(ratios)[-(population_2000.n_consumers // 10):]
    ids = population_2000.consumer_ids
    peaky_share = float(np.mean([ids[i].startswith("peak") for i in top]))
    ok = spread >= 1.5 and peaky_share >= 0.8
    _report(5, f"max/min rate {spread:.2f} >= 1.5 and top decile {peaky_share:.0%} peaky", ok)


def test_criterion_06_cv_aggregation_law():
    ds = synth_population(
        SynthSpec(n_consumers=1024, n_days=120, fraction_peaky=0.5, noise_cv=0.4, seed=5)
    )
    sizes = [4, 8, 16, 32, 64, 128, 256, 512]
    curve = cv_curve(ds, sizes, n_random_trials=30, gamma=GAMMA, seed=9)
    mean_cv = {p.m: p.cv for p in curve.points if p.kind == "random"}
    rho = float(spearmanr(sizes, [mean_cv[m] for m in sizes]).statistic)
    halving_ok = True
    for m in sizes:
        if 4 * m in mean_cv:
            ratio = mean_cv[m] / mean_cv[4 * m]
            halving_ok = halving_ok and abs(ratio - 2.0) <= 0.5  # within 25% of halving
    ok = rho < -0.9 and halving_ok
    _report(6, f"random-group CV decreasing (Spearman {rho:.2f}) and quadrupling M "
               f"halves CV within 25%", ok)


def test_criterion_07_newsvendor_correctness():
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    optimal_ok = True
    for k in range(20):
        sigma_h = float(rng.uniform(0.5, 20.0))
        q = float(rng.uniform(2.0, 8.0))
        p = q * float(rng.uniform(0.2, 0.95))  # interior critical fractile
        sigma = np.zeros(24)
        sigma[0] = sigma_h
        em = ForecastErrorModel(sigma=sigma)
        pv, qv = np.full(24, p), np.full(24, q)
        closed = expected_penalty(em, pv, qv)
        delta = newsvendor_purchase(np.zeros(24), em, pv, qv).adjustment[0]
        eps = np.random.default_rng(1000 + k).normal(0.0, sigma_h, 1_000_000)
        samples = p * delta + q * np.maximum(-eps - delta, 0.0)
        worst_rel = max(worst_rel, abs(closed - float(samples.mean())) / abs(samples.mean()))
        naive = q * float(np.maximum(-eps, 0.0).mean())  # one-sided cost premium at delta=0
        optimal_ok = optimal_ok and float(samples.mean()) <= naive + 3 * samples.std() / 1000.0
    ok = worst_rel < 0.005 and optimal_ok
    _report(7, f"closed-form penalty matches 1e6-draw Monte Carlo "
               f"(worst rel err {worst_rel:.3%}) and optimum beats delta=0", ok)


def test_criterion_08_settlement_identities():
    ds = synth_population(SynthSpec(n_consumers=30, n_days=60, noise_cv=0.0, seed=2))
    identity_ok = True
    for design in ("two_sided", "one_sided"):
        report = replay_validate(ds, design=design)
        rel = abs(report.realized_rate - report.lambda_rate) / report.lambda_rate
        identity_ok = identity_ok and rel <= 1e-9

    rng = np.random.default_rng(8)
    dominance_ok = True
    for _ in range(200):
        p = rng.uniform(0.0, 6.0, 24)
        q = rng.uniform(0.1, 6.0, 24)
        tilde = rng.uniform(0.0, 4.0, 24)
        d = rng.uniform(0.0, 4.0, 24)
        if rng.random() < 0.3:
            d = np.maximum(d, tilde)  # force some pure-shortfall days
        one = realized_cost(p, q, tilde, d, "one_sided")
        two = realized_cost(p, q, tilde, d, "two_sided")
        dominance_ok = dominance_ok and one >= two - 1e-12
        if np.all(d >= tilde):
            dominance_ok = dominance_ok and abs(one - two) <= 1e-9
        else:
            dominance_ok = dominance_ok and one > two
    ok = identity_ok and dominance_ok
    _report(8, "perfect-forecast rate equals lambda within 1e-9; one-sided cost "
               "dominates two-sided with equality exactly on shortfall days", ok)


def test_criterion_09_segmentation_partition(population_2000):
    start = time.perf_counter()
    seg = segment_population(population_2000, cv_threshold=5.0, gamma=GAMMA)
    elapsed = time.perf_counter() - start
    counts = np.zeros(population_2000.n_consumers, dtype=int)
    for g in seg.groups:
        counts += mask(g.members).astype(int)
    partition_ok = bool(np.all(counts == 1))
    met = seg.threshold_met_groups()
    rates = [g.rate for g in met]
    monotone_ok = all(a <= b + 2 * GAMMA for a, b in zip(rates, rates[1:]))
    ok = partition_ok and monotone_ok and elapsed < 300.0 and len(met) >= 2
    _report(9, f"{len(seg.groups)} groups partition 2000 consumers, rates "
               f"nondecreasing within 2*gamma ({elapsed:.1f}s)", ok)


def test_criterion_10_stability():
    clean_ok = True
    for seed in range(5):
        ds = synth_population(
            SynthSpec(n_consumers=300, n_days=60, fraction_peaky=0.5, noise_cv=0.35, seed=seed)
        )
        seg = segment_population(ds, cv_threshold=8.0, size_grid=[10, 25, 50, 100, 300])
        report = stability_audit(seg, consumer_stats(ds), GAMMA)
        clean_ok = clean_ok and not report.violations

    # deliberately corrupted assignment: a cheap consumer parked in round 2
    stats = CostStats(t=[10.0, 10.0, 1.0], w=[1.0, 1.0, 1.0])
    g1_members = SelectionVector(3, [0, 1])
    g2_members = SelectionVector(3, [2])
    corrupted = SegmentationResult(
        groups=(
            SegmentGroup(round=1, members=g1_members,
                         rate=group_lambda(stats, g1_members), cv=5.0, threshold_met=True),
            SegmentGroup(round=2, members=g2_members,
                         rate=group_lambda(stats, g2_members), cv=5.0, threshold_met=True),
        ),
        cv_threshold=10.0,
        leftover_policy="aggregate",
    )
    flagged = stability_audit(corrupted, stats, GAMMA)
    ok = clean_ok and len(flagged.violations) >= 1
    _report(10, f"zero violations across 5 seeded segmentations; corrupted fixture "
                f"raises {len(flagged.violations)} violations", ok)


def test_criterion_11_cli_determinism(tmp_path):
    meter = str(tmp_path / "a" / "meter.csv")
    prices = str(tmp_path / "a" / "prices.csv")
    commands = {
        "synth": ["synth", "--n", "24", "--days", "32", "--seed", "6"],
        "solve": ["solve", "--meter", meter, "--prices", prices, "--m", "6"],
        "curves": ["curves", "--meter", meter, "--prices", prices,
                   "--sizes", "2,8,24", "--trials", "4", "--seed", "6"],
        "segment": ["segment", "--meter", meter, "--prices", prices,
                    "--cv-threshold", "40", "--size-grid", "4,12,24"],
        "simulate": ["simulate", "--meter", meter, "--prices", prices,
                     "--design", "one_sided"],
    }
    outputs = {
        "synth": ["meter.csv", "prices.csv"],
        "solve": ["selection.csv"],
        "curves": ["lambda_curve.csv", "cv_curve.csv"],
        "segment": ["segmentation.json", "rounds.csv", "assignments.csv"],
        "simulate": ["settlement.csv"],
    }
    # the data-dependent commands read the first synth run's files
    assert cli_main(commands["synth"] + ["--out-dir", str(tmp_path / "a")]) == 0
    ok = True
    for name, args in commands.items():
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        assert cli_main(args + ["--out-dir", str(d1)]) == 0
        assert cli_main(args + ["--out-dir", str(d2)]) == 0
        for fname in outputs[name]:
            ok = ok and (d1 / fname).read_bytes() == (d2 / fname).read_bytes()
    _report(11, "all five CLI commands re-run byte-identically", ok)
