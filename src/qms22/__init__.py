"""Quadratic multiform separation classifiers, the QMS22 semi-supervised
anomaly detector, and a KEEL benchmark harness."""

from .core import (HyperParams, MemberFunction, QmsModel, ResidualCache,
                   TrainingProblem, cpm_optimize, cpm_optimize_many,
                   loss_full)
from .metrics import (FiveNumberSummary, RocCurve, WilcoxonResult,
                      five_number_summary, mean_std, roc_curve,
                      wilcoxon_signed_rank)
from .ssad import (MemberSetPlan, SsadProblem, build_member_sets,
                   outlier_score, outlier_scores, run_qms22,
                   run_qms22_many, select_top_k)

__version__ = "0.1.0"

__all__ = [
    "HyperParams", "MemberFunction", "QmsModel", "ResidualCache",
    "TrainingProblem", "cpm_optimize", "cpm_optimize_many", "loss_full",
    "FiveNumberSummary", "RocCurve", "WilcoxonResult",
    "five_number_summary", "mean_std", "roc_curve", "wilcoxon_signed_rank",
    "MemberSetPlan", "SsadProblem", "build_member_sets", "outlier_score",
    "outlier_scores", "run_qms22", "run_qms22_many", "select_top_k",
    "__version__",
]
