"""ratecraft: cost-to-serve aggregation and rate-group segmentation.

A toolkit for an electricity retailer that buys wholesale for its customers:
rank consumers by historical per-unit cost, solve for the cheapest group of a
given size, quantify the group-size versus forecast-error tradeoff, optimize
day-ahead purchases under one-sided settlement, and segment a whole
population into stable, differentiated rate groups.
"""

__version__ = "0.1.0"

from .costs import (
    DailySettlement,
    PurchasePlan,
    consumer_stats,
    expected_penalty,
    group_lambda,
    mean_real_time_price,
    newsvendor_purchase,
    realized_cost,
    realized_rate,
)
from .forecast import (
    CvCurve,
    CvPoint,
    GroupForecaster,
    backtest_cv,
    cv,
    cv_curve,
    fit_ar,
    predict_day,
)
from .ingest import (
    SynthSpec,
    align,
    load_meter_csv,
    load_price_csv,
    synth_population,
    write_meter_csv,
    write_price_csv,
)
from .segmentation import (
    SegmentGroup,
    SegmentationResult,
    StabilityReport,
    StabilityViolation,
    default_size_grid,
    segment_population,
    stability_audit,
)
from .simulate import ReplayReport, replay_validate
from .solver import (
    SolveResult,
    brute_force_min_lambda,
    feasibility_test,
    lambda_curve,
    solve_min_lambda,
)
from .types import (
    ConsumerSeries,
    CostStats,
    Dataset,
    ForecastErrorModel,
    HourlyMatrix,
    PriceSeries,
    SelectionVector,
)

__all__ = [
    "ConsumerSeries",
    "CostStats",
    "CvCurve",
    "CvPoint",
    "DailySettlement",
    "Dataset",
    "ForecastErrorModel",
    "GroupForecaster",
    "HourlyMatrix",
    "PriceSeries",
    "PurchasePlan",
    "ReplayReport",
    "SegmentGroup",
    "SegmentationResult",
    "SelectionVector",
    "SolveResult",
    "StabilityReport",
    "StabilityViolation",
    "SynthSpec",
    "align",
    "backtest_cv",
    "brute_force_min_lambda",
    "consumer_stats",
    "cv",
    "cv_curve",
    "default_size_grid",
    "expected_penalty",
    "feasibility_test",
    "fit_ar",
    "group_lambda",
    "lambda_curve",
    "load_meter_csv",
    "load_price_csv",
    "mean_real_time_price",
    "newsvendor_purchase",
    "predict_day",
    "realized_cost",
    "realized_rate",
    "replay_validate",
    "segment_population",
    "solve_min_lambda",
    "stability_audit",
    "synth_population",
    "write_meter_csv",
    "write_price_csv",
]
