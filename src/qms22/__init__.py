"""Quadratic multiform separation classifiers, the QMS22 semi-supervised
anomaly detector, and a KEEL benchmark harness.

The exported names load lazily (PEP 562): `import qms22` imports no
submodule, and a name's module, with numpy, loads when the name is
first used.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOMES = {
    "HyperParams": "hyper",
    **dict.fromkeys(("MemberFunction", "OverflowingSampleError", "QmsModel",
                     "ResidualCache", "TrainingProblem", "cpm_optimize",
                     "cpm_optimize_many", "loss_full"), "core"),
    **dict.fromkeys(("FiveNumberSummary", "RocCurve", "WilcoxonResult",
                     "five_number_summary", "mean_std", "roc_curve",
                     "wilcoxon_signed_rank"), "metrics"),
    **dict.fromkeys(("MemberSetPlan", "SsadProblem", "build_member_sets",
                     "outlier_scores", "run_qms22", "run_qms22_many",
                     "select_top_k"), "ssad"),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value   # later lookups skip this function
    return value
