"""Median of level-set aggregation for transductive leave-one-out prediction."""

from .audit import (
    BoundCertificate,
    GrowthAudit,
    check_aggregation_stability,
    grid_growth_audit,
    simulate_generalization,
    verify_grid_majority_bound,
    verify_single_level,
)
from .core import (
    AggregationRule,
    LabeledSample,
    LossModel,
    MlsaOutput,
    PredictionTable,
    ToleranceGrid,
    empirical_loss,
    level_set,
    loo_error,
    lower_median,
    run_mlsa,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationRule",
    "LabeledSample",
    "LossModel",
    "MlsaOutput",
    "PredictionTable",
    "ToleranceGrid",
    "empirical_loss",
    "level_set",
    "loo_error",
    "lower_median",
    "run_mlsa",
    "BoundCertificate",
    "GrowthAudit",
    "check_aggregation_stability",
    "grid_growth_audit",
    "simulate_generalization",
    "verify_grid_majority_bound",
    "verify_single_level",
]
