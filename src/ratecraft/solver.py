"""Minimum-rate subset selection by bisection with a greedy feasibility test.

The problem: among all groups of exactly M consumers, find the one whose
per-unit cost (u.t)/(u.w) is smallest. For a candidate rate lam, some M-group
achieves a rate <= lam iff the M smallest entries of t - lam*w sum to a
nonpositive value, so feasibility is a partial selection (a partition plus a
sort of the chosen M), and the set of feasible rates is an upward-closed
interval. Bisecting the bracket [min t_i/w_i, max t_i/w_i] therefore converges
to the optimum; the last feasible test provides both the rate and a
certificate selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .types import CostStats, SelectionVector

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
    _check_m(stats, m)
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
    """
    _check_m(stats, m)
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

    iterations = 0
    while hi - lo > gamma:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # float resolution exhausted
        if feasibility_test(stats, mid, m) is None:
            lo = mid
        else:
            hi = mid
        iterations += 1
    selection = feasibility_test(stats, hi, m)
    assert selection is not None  # hi is the last feasible midpoint or the max ratio
    return SolveResult(lambda_star=hi, selection=selection, iterations=iterations, bracket=(lo, hi))


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


def _check_m(stats: CostStats, m: int):
    if not (1 <= m <= stats.n):
        raise ValueError(f"group size must be in [1, {stats.n}], got {m}")
