"""Iterative segmentation of a population into rate groups.

Each round solves for minimum-rate groups of increasing size over the
remaining consumers, recruits the smallest whose backtested CV meets the
threshold at its historical rate, removes it, and repeats. The leftover
consumers, once no size qualifies, are either aggregated into one final
group or dropped. A stability audit verifies that no consumer could
improve their rate by unilaterally joining an earlier group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .costs import consumer_stats, group_lambda
from .forecast import backtest_cv
from .solver import DEFAULT_GAMMA, solve_min_lambda
from .types import CostStats, Dataset, SelectionVector, _count

LeftoverPolicy = str  # "aggregate" or "drop"


@dataclass(frozen=True)
class SegmentGroup:
    """One recruited rate group, indexed over the original population; `size` counts members."""

    round: int
    members: SelectionVector
    rate: float  # cents/kWh, historical per-unit cost of the group
    cv: float  # percent, backtested forecast error
    threshold_met: bool

    def __post_init__(self):
        object.__setattr__(self, "round", _count(self.round, "round"))
        if self.round < 1:
            raise ValueError("round numbering starts at 1")
        if not self.rate > 0:  # these two also refuse NaN
            raise ValueError("group rate must be positive")
        if not self.cv >= 0:
            raise ValueError("cv must be nonnegative")

    @property
    def size(self) -> int:
        return self.members.cardinality


@dataclass(frozen=True)
class SegmentationResult:
    """Ordered rate groups plus the policy that produced them.

    Groups are always pairwise disjoint; under the aggregate policy they also
    cover the entire population.
    """

    groups: tuple[SegmentGroup, ...]
    cv_threshold: float
    leftover_policy: LeftoverPolicy

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.leftover_policy not in ("aggregate", "drop"):
            raise ValueError(f"unknown leftover policy {self.leftover_policy!r}")
        if not self.cv_threshold > 0:  # also refuses NaN
            raise ValueError("cv_threshold must be positive")
        if not self.groups:
            return
        n = self.groups[0].members.n
        seen = np.zeros(n, dtype=bool)
        for g in self.groups:
            if g.members.n != n:
                raise ValueError("all groups must index the same population")
            if np.any(seen[g.members.indices]):
                raise ValueError(f"group {g.round} overlaps an earlier group")
            seen[g.members.indices] = True
        if self.leftover_policy == "aggregate" and not np.all(seen):
            raise ValueError("aggregate policy requires the groups to cover the population")

    @property
    def n_assigned(self) -> int:
        return sum(g.size for g in self.groups)

    def threshold_met_groups(self) -> list[SegmentGroup]:
        return [g for g in self.groups if g.threshold_met]


@dataclass(frozen=True)
class StabilityViolation:
    kind: str  # "rate_order" or "join_improves"
    earlier_round: int
    later_round: int
    consumer_index: Optional[int]
    magnitude: float  # cents/kWh beyond the tolerance band


@dataclass(frozen=True)
class StabilityReport:
    pairs_checked: int
    moves_checked: int
    violations: tuple[StabilityViolation, ...] = field(default_factory=tuple)


def default_size_grid(n: int, smallest: int = 10) -> list[int]:
    """Up to 20 log-spaced candidate sizes from `smallest` up to n."""
    n, smallest = _count(n, "n"), _count(smallest, "smallest")
    if n < 1:
        raise ValueError("population must be nonempty")
    if smallest < 1:
        raise ValueError("smallest must be >= 1")
    if n <= smallest:
        return list(range(1, n + 1))
    grid = np.logspace(np.log10(smallest), np.log10(n), 20)
    return sorted({int(round(g)) for g in grid})


def _recruit(
    dataset: Dataset,
    stats: CostStats,
    pool: np.ndarray,
    size_grid: Sequence[int],
    cv_threshold: float,
    gamma: float,
    has_validate_usage: np.ndarray,
) -> Optional[tuple[float, SelectionVector]]:
    """One round of segment_population over the remaining consumers `pool`.

    `pool` holds their indices in ascending order. Returns the CV and members
    of the smallest qualifying group, or None when no grid size qualifies.
    """
    sub = CostStats(t=stats.t[pool], w=stats.w[pool])

    def probe(m):
        """The cheapest size-m group with its CV if it meets the threshold, else None."""
        members = pool[solve_min_lambda(sub, m, gamma).selection.indices]
        if not has_validate_usage[members].any():
            return None
        selection = SelectionVector(dataset.n_consumers, members)
        cv_m = backtest_cv(dataset, selection)
        return (cv_m, selection) if cv_m <= cv_threshold else None

    sizes = sorted({min(m, pool.size) for m in size_grid})
    first_untried = sizes[0]  # the size after the last failing grid size
    for m in sizes:
        found = probe(m)
        if found is not None:
            break
        first_untried = m + 1
    else:
        return None
    for k in range(first_untried, m):
        smaller = probe(k)
        if smaller is not None:
            return smaller
    return found


def segment_population(
    dataset: Dataset,
    cv_threshold: float,
    size_grid: Optional[Sequence[int]] = None,
    gamma: float = DEFAULT_GAMMA,
    leftover_policy: LeftoverPolicy = "aggregate",
) -> SegmentationResult:
    """Peel minimum-rate groups meeting the CV threshold until none remain.

    Each round solves for the cheapest group of a candidate size among the
    remaining consumers and backtests it: fit on the training window,
    evaluate CV on the validate window. Sizes of `size_grid` (capped at the
    remaining count) are tried in ascending order up to the first that meets
    the threshold, then every size between the last failing grid size and
    that one; the smallest that meets it is recruited. A group with no usage
    in the validate window does not meet it. Peeling stops at the first round
    where no size qualifies. Rates are the groups' historical per-unit costs
    over the training window.
    """
    if not cv_threshold > 0:  # also refuses NaN
        raise ValueError("cv_threshold must be positive")
    if leftover_policy not in ("aggregate", "drop"):
        raise ValueError(f"unknown leftover policy {leftover_policy!r}")
    if dataset.validate_days < 1:
        raise ValueError("validate window is empty")
    if size_grid is None:
        size_grid = default_size_grid(dataset.n_consumers)
    size_grid = sorted({_count(m, "each of size_grid") for m in size_grid})
    if not size_grid:
        raise ValueError("size grid must be nonempty")
    if size_grid[0] < 1:
        raise ValueError("size grid entries must be >= 1")

    stats = consumer_stats(dataset)
    has_validate_usage = dataset.usage_stack[:, dataset.train_days :].any(axis=(1, 2))
    pool = np.arange(dataset.n_consumers)
    groups: list[SegmentGroup] = []
    while pool.size:
        found = _recruit(dataset, stats, pool, size_grid, cv_threshold, gamma, has_validate_usage)
        if found is None:
            break
        cv_found, selection = found
        groups.append(
            SegmentGroup(
                round=len(groups) + 1,
                members=selection,
                rate=group_lambda(stats, selection),
                cv=cv_found,
                threshold_met=True,
            )
        )
        pool = np.setdiff1d(pool, selection.indices, assume_unique=True)

    if pool.size and leftover_policy == "aggregate":
        if not has_validate_usage[pool].any():
            raise ValueError(
                f"the leftover group of {pool.size} consumer(s) has no usage in the validate window"
            )
        leftover = SelectionVector(dataset.n_consumers, pool)
        groups.append(
            SegmentGroup(
                round=len(groups) + 1,
                members=leftover,
                rate=group_lambda(stats, leftover),
                cv=backtest_cv(dataset, leftover),
                threshold_met=False,
            )
        )

    return SegmentationResult(
        groups=tuple(groups), cv_threshold=cv_threshold, leftover_policy=leftover_policy
    )


def stability_audit(
    result: SegmentationResult, stats: CostStats, gamma: float = DEFAULT_GAMMA
) -> StabilityReport:
    """Check that the segmentation leaves no profitable unilateral move.

    For every consecutive pair of threshold-met groups (i, i+1):
    (a) the earlier rate is no higher than the later rate, within 2*gamma;
    (b) no member of group i+1 would lower group i's rate by joining it,
        within 2*gamma.
    Report-only: violations are returned with magnitudes, never raised. A gamma
    not > 0, or stats over another population than the groups', is a ValueError.
    """
    if not gamma > 0:  # also refuses NaN
        raise ValueError("gamma must be > 0")
    if result.groups and result.groups[0].members.n != stats.n:
        raise ValueError(f"the groups index {result.groups[0].members.n} consumers, "
                         f"the stats {stats.n}")
    met = sorted(result.threshold_met_groups(), key=lambda g: g.round)
    violations: list[StabilityViolation] = []
    pairs = 0
    moves = 0
    tol = 2.0 * gamma
    for earlier, later in zip(met, met[1:]):
        pairs += 1
        if earlier.rate > later.rate + tol:
            violations.append(
                StabilityViolation(
                    kind="rate_order",
                    earlier_round=earlier.round,
                    later_round=later.round,
                    consumer_index=None,
                    magnitude=earlier.rate - later.rate - tol,
                )
            )
        members, joiners = earlier.members.indices, later.members.indices
        moves += joiners.size
        joined = (float(stats.t[members].sum()) + stats.t[joiners]) / (
            float(stats.w[members].sum()) + stats.w[joiners]
        )
        improves = joined < earlier.rate - tol
        for j, rate in zip(joiners[improves].tolist(), joined[improves].tolist()):
            violations.append(
                StabilityViolation(
                    kind="join_improves",
                    earlier_round=earlier.round,
                    later_round=later.round,
                    consumer_index=j,
                    magnitude=earlier.rate - tol - rate,
                )
            )
    return StabilityReport(pairs_checked=pairs, moves_checked=moves, violations=tuple(violations))
