"""Minimum-rate subset selection: Dinkelbach's method, then a bisection replayed by comparison.

The problem: among all groups of exactly M consumers, find the one whose
per-unit cost (u.t)/(u.w) is smallest. For a candidate rate lam, some M-group
achieves a rate <= lam iff the M smallest entries of t - lam*w sum to a
nonpositive value, so feasibility is a partial selection (a partition plus a
sort of the chosen M), and the set of feasible rates is an upward-closed
interval. Bisecting the bracket [min t_i/w_i, max t_i/w_i] therefore converges
to the optimum; the last feasible test provides both the rate and a
certificate selection.

Dinkelbach's parametric method (Management Science 13(7), 1967) finds the
minimum rate, up to rounding, as lam_D in a few partition steps. The bisection
keeps its midpoints, but decides each one by comparing it with lam_D: a
rounding bound gives a band around lam_D outside which the float feasibility
test's outcome is known, so only midpoints inside the band run the test. The
result is bit for bit the one a bisection that tests every midpoint returns,
at about one test a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .types import CostStats, SelectionVector, _count

DEFAULT_GAMMA = 1e-6  # cents/kWh; well below any reporting granularity


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a minimum-rate solve.

    lambda_star carries the certificate property (t - lambda_star*w) . u <= 0,
    and bracket is the final bisection interval (upper - lower <= gamma).
    """

    lambda_star: float
    selection: SelectionVector
    iterations: int
    bracket: tuple[float, float]


def feasibility_test(stats: CostStats, lam: float, m: int) -> Optional[SelectionVector]:
    """Greedy test: can some M-group achieve rate <= lam?

    Selects the M smallest entries of t - lam*w, ties broken by lower index:
    a partition finds the M-th smallest value, every entry below it is taken,
    and entries equal to it fill the rest, lowest index first. A stable sort of
    the chosen M then ranks them exactly as the first M of a stable sort of all
    n entries, and their values are summed in that order. Returns the
    selection when that sum is nonpositive, otherwise None.
    """
    m = _check_m(stats, m)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    v = stats.t - lam * stats.w
    kth = np.partition(v, m - 1)[m - 1]
    below = np.flatnonzero(v < kth)
    ties = np.flatnonzero(v == kth)[: m - below.size]
    chosen = np.concatenate((below, ties))
    chosen = chosen[np.argsort(v[chosen], kind="stable")]
    if float(v[chosen].sum()) <= 0.0:
        return SelectionVector(stats.n, chosen)
    return None


def solve_min_lambda(stats: CostStats, m: int, gamma: float = DEFAULT_GAMMA) -> SolveResult:
    """Bisection solve for the cheapest-to-serve group of size M.

    Brackets between the minimum and maximum individual rate and halves until
    the bracket is within gamma, returning the last feasible rate with its
    certificate selection. Iteration count is at most
    ceil(log2(bracket / gamma)) + 1.

    Dinkelbach's method first finds the minimum rate lam_D and a band around it
    (see `_dinkelbach`). A midpoint above the band is feasible and one below it
    infeasible, exactly as `feasibility_test` would find; only midpoints inside
    the band are tested. One test at the final upper bound gives the selection.
    """
    m = _check_m(stats, m)
    if not gamma > 0:  # also refuses NaN
        raise ValueError("gamma must be > 0")
    ratios = stats.ratios
    lo = float(ratios.min())
    hi = float(ratios.max())
    if hi - lo <= gamma:
        # All individual rates coincide within tolerance: any M consumers do, and the largest
        # rate, which bounds every group's rate, keeps the certificate.
        selection = SelectionVector(stats.n, range(m))
        return SolveResult(lambda_star=hi, selection=selection, iterations=0, bracket=(lo, hi))

    lam_d, band = _dinkelbach(stats, m, ratios, hi)
    iterations = 0
    while hi - lo > gamma:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # float resolution exhausted
        if mid > lam_d + band:
            feasible = True
        elif mid < lam_d - band:
            feasible = False
        else:  # inside the band, or a NaN band: the test decides
            feasible = feasibility_test(stats, mid, m) is not None
        if feasible:
            hi = mid
        else:
            lo = mid
        iterations += 1
    selection = feasibility_test(stats, hi, m)
    assert selection is not None  # hi is the last feasible midpoint or the max ratio
    return SolveResult(lambda_star=hi, selection=selection, iterations=iterations, bracket=(lo, hi))


def _dinkelbach(stats: CostStats, m: int, ratios: np.ndarray, r_max: float) -> tuple[float, float]:
    """Dinkelbach's minimum M-group rate lam_D, and the band half-width around it.

    A feasibility test passes at every rate above lam_D + band and fails at
    every rate below lam_D - band, as long as the rate is in [0, r_max].
    """
    t, w = stats.t, stats.w
    chosen = np.argpartition(ratios, m - 1)[:m]
    weight = float(w[chosen].sum())
    lam = float(t[chosen].sum()) / weight
    while True:
        v = t - lam * w
        chosen = np.argpartition(v, m - 1)[:m]
        if float(v[chosen].sum()) >= 0.0:
            break
        weight = float(w[chosen].sum())
        rate = float(t[chosen].sum()) / weight
        if not rate < lam:
            break
        lam = rate
    # The band, from a rounding bound. u = 2**-53 is the unit roundoff. R = r_max bounds every
    # midpoint and every group's rate, so t_i <= R*w_i. W_S is sum(w_i) over an M-group S, and
    # lam* is the exact minimum rate, reached by the group S*. At a rate x in [0, R], the float
    # sum over S of t_i - x*w_i is within e*W_S of the exact one, e = (2M + 1)*u*R:
    #   - each term is one product and one difference, so it errs by at most 3u*R*w_i;
    #   - an M-term sum, in any order, adds at most (M - 1)*u*sum|terms| <= 2(M - 1)*u*R*W_S.
    # So a test fails at every x < lam* - e, as the group it picks has rate >= lam*; and it
    # passes at every x > lam* + e, as its picks undercut S*'s terms one by one.
    # The third part is lam_D's own error:
    #   - lam_D is the computed rate of a real group, so lam* <= lam_D + (2M - 1)*u*R;
    #   - a stop on a sum >= 0 gives lam_D <= lam* + e, by the bound above;
    #   - a stop because the rate did not fall can leave the exact sum at lam_D negative. S*'s
    #     computed terms sum no lower than the new group's, which gives
    #     W*(lam* - lam_D) >= -3u*R*W* - (2M + 2)*u*R*weight. Divided by W* >= M*min(w), the
    #     least weight of any group: lam_D - lam* <= (3 + kappa*(2M + 2))*u*R, where kappa is
    #     weight / (M*min(w)).
    # With e on each side, a midpoint farther than 2(kappa + 1)(M + 2)*u*R from lam_D is decided
    # as the test would decide it. The band doubles that, to cover second-order terms and the
    # rounding of the band and of lam_D +- band. A product or quotient that underflows errs by
    # up to 2**-1075 absolutely; the last term covers those.
    w_min = float(w.min())
    kappa = weight / (m * w_min)
    band = 4.0 * (kappa + 1.0) * (m + 2) * 2.0**-53 * r_max + (kappa + 1.0 / w_min) * 2.0**-1073
    return lam, band


def lambda_curve(
    stats: CostStats, sizes: Sequence[int], gamma: float = DEFAULT_GAMMA
) -> list[tuple[int, float]]:
    """Minimum achievable rate per group size; nondecreasing in M up to slack.

    Per-consumer stats are shared across sizes, so each point costs one
    bisection solve.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("sizes must be sorted ascending")
    return [(m, solve_min_lambda(stats, m, gamma).lambda_star) for m in sizes]


def _check_m(stats: CostStats, m: int) -> int:
    m = _count(m, "group size m")
    if not (1 <= m <= stats.n):
        raise ValueError(f"group size must be in [1, {stats.n}], got {m}")
    return m
