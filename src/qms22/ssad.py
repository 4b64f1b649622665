"""QMS22 semi-supervised anomaly detection.

The detector turns one-class training data into an m-class separation
task: member set 1 holds every sample (training normals plus the
unlabeled test batch), while sets 2..m each hold the training normals
minus one part of a shuffled (m-1)-way split. A test sample whose f_1
undercuts the other member functions looks like the training data;
one that every f_i >= 2 beats is an outlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ._pcg64 import permutation
from .core import (HyperParams, QmsModel, TrainingProblem, _rows,
                   cpm_optimize_many)
from .metrics import _finite, _float_array, _labels

__all__ = [
    "SsadProblem",
    "MemberSetPlan",
    "build_member_sets",
    "outlier_scores",
    "run_qms22",
    "run_qms22_many",
    "select_top_k",
]


@dataclass(frozen=True)
class SsadProblem:
    """Normal-only training samples plus the test batch to score.

    All values are finite, and a (p,) test row is one sample. test_labels
    (truthy = outlier) are optional and used only for evaluation.
    """

    train_normals: np.ndarray
    test_samples: np.ndarray
    test_labels: np.ndarray | None = None

    def __post_init__(self):
        train = _rows(self.train_normals, name="train_normals")
        test = _rows(self.test_samples, train.shape[1], name="test_samples")
        if train.shape[0] == 0 or test.shape[0] == 0:
            raise ValueError("need non-empty training and test sets")
        object.__setattr__(self, "train_normals", train)
        object.__setattr__(self, "test_samples", test)
        if self.test_labels is not None:
            labels = _labels("test_labels", self.test_labels)
            if labels.shape != (test.shape[0],):
                raise ValueError("test_labels length must match test_samples")
            object.__setattr__(self, "test_labels", labels)


@dataclass(frozen=True)
class MemberSetPlan:
    """Index-level layout of the m member sets.

    member_sets: indices into the pooled sample matrix whose rows are the
        test samples first (original order) then the training normals
        (original order). Set 1 is everything; set i >= 2 is the training
        normals minus the (i-1)-th of m-1 disjoint parts, in order.
    class_weights: the loss weights, |set 2| / |set 1| for set 1 and 1
        for every other set.
    """

    member_sets: tuple[np.ndarray, ...]
    class_weights: tuple[float, ...]


def _check_m(m: int) -> None:
    # the detector's rule for m, also checked by the CLI before any input
    if m < 3:
        raise ValueError(f"m must be >= 3 for the detector, got {m}: member "
                         f"sets 2..m each drop one of m - 1 parts of the "
                         f"training normals, and one part would leave set 2 "
                         f"empty")


def build_member_sets(problem: SsadProblem, m: int, seed: int) -> MemberSetPlan:
    """Shuffle the training normals and plan the m member sets.

    The shuffle is `np.random.default_rng(seed).permutation`, computed in
    plain Python by `qms22._pcg64`, so the split is the same on every
    platform and numpy version, and training loads no `numpy.random`.
    The m-1 parts differ in size by at most one: |train| mod (m-1)
    leftovers go one each to the lowest-indexed parts. m must be >= 3.
    """
    n_train = problem.train_normals.shape[0]
    n_test = problem.test_samples.shape[0]
    _check_m(m)
    if n_train < m - 1:
        raise ValueError(f"need at least m - 1 = {m - 1} training normals "
                         f"to split into parts, got {n_train}")
    shuffled = np.array(permutation(seed, n_train), dtype=np.intp)
    member_sets = [np.arange(n_test + n_train)]
    for part in np.array_split(shuffled, m - 1):
        keep = np.ones(n_train, dtype=bool)
        keep[part] = False
        member_sets.append(np.flatnonzero(keep) + n_test)
    weights = (member_sets[1].size / member_sets[0].size,) + (1.0,) * (m - 1)
    return MemberSetPlan(tuple(member_sets), weights)


def outlier_scores(model: QmsModel, samples) -> np.ndarray:
    """Score each row of `samples`, one (p,) row or an (n, p) batch: the
    sum over i >= 2 of the clipped relative excess max(0, (f_i(x) - f_1(x))
    / (f_1(x) + guard)), guard being the model's `hyperparams.denom_guard`.

    Zero exactly when f_1 is the (weak) maximum; large when the
    all-samples member function is the only small one.
    """
    values = model.member_values(samples)
    f1 = values[:, :1]
    excess = (values[:, 1:] - f1) / (f1 + model.hyperparams.denom_guard)
    return np.maximum(excess, 0.0).sum(axis=1)


def run_qms22(problem: SsadProblem, hp: HyperParams | None = None) -> np.ndarray:
    """Train the detector and score every test sample.

    Builds the member-set plan from hp.seed, which needs hp.m >= 3 (see
    `build_member_sets`), trains with class weights
    (|set 2| / |set 1|, 1, ..., 1), and returns one nonnegative score per
    test sample (higher = more anomalous). Deterministic given (problem,
    hp). With iterations=0 all member functions are identical and every
    score is 0.
    """
    return run_qms22_many([problem], hp)[0]


def run_qms22_many(problems, hp: HyperParams | None = None) -> list[np.ndarray]:
    """`run_qms22` for several problems, such as the folds of a dataset,
    trained together by `cpm_optimize_many`; their feature dimensions may
    differ.

    Returns one score array per problem, each bitwise what `run_qms22`
    returns for that problem alone.
    """
    if hp is None:
        hp = HyperParams()
    problems = list(problems)
    trainings = []
    for problem in problems:
        plan = build_member_sets(problem, hp.m, hp.seed)
        pooled = np.vstack([problem.test_samples, problem.train_normals])
        trainings.append(TrainingProblem(pooled, plan.member_sets,
                                         plan.class_weights))
    models = cpm_optimize_many(trainings, hp)
    return [outlier_scores(model, problem.test_samples)
            for model, problem in zip(models, problems)]


def select_top_k(scores, k: int) -> np.ndarray:
    """0-based indices of the k largest scores, ascending.

    `scores` is a vector of finite numbers and k an integer in
    [0, len(scores)]. Ties at the selection boundary are broken toward the
    lower index.
    """
    scores = _float_array("scores", scores)
    if scores.ndim != 1:
        raise ValueError("scores must be a vector")
    _finite("scores", scores)
    if isinstance(k, bool) or not isinstance(k, Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 0 <= k <= scores.size:
        raise ValueError(f"k must be between 0 and {scores.size}, got {k}")
    # lexsort: primary key descending score, secondary ascending index
    order = np.lexsort((np.arange(scores.size), -scores))
    return np.sort(order[:k])
