"""In-process traced pipeline: the public calls the CLI makes, each inside
a span.

Once a fold pair is parsed, the pipeline calls into `keel`, `ssad`, `core`
and `metrics` in the order `qms22 run` and `qms22 bench` do; the caller
puts the parse in a span of its own. Two extra calls exist only to measure:
a stand-alone `ResidualCache` build (the one inside `cpm_optimize` cannot
be timed from outside) and `loss_full` of the trained model. Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from qms22.core import (HyperParams, QmsModel, ResidualCache, TrainingProblem,
                        _initial_members, cpm_optimize, loss_full)
from qms22.keel import Preprocessor, strip_outliers_from_train
from qms22.metrics import roc_curve
from qms22.ssad import SsadProblem, build_member_sets, outlier_scores


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    fold: str | None


@dataclass
class Tracer:
    """Collects spans; nesting follows the `with` blocks."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, fold: str | None = None):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, fold)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, minus the time covered by direct children."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child_time[s.id]
    return out


@dataclass
class FoldCounts:
    """Work done in one fold, counted where it happens."""

    parse_rows: int = 0
    encoded_width: int = 0
    member_rows: int = 0
    trials: int = 0
    accepts: int = 0
    terms: int = 0        # loss terms revisited over all trials
    final_loss: float = 0.0
    auc: float = float("nan")


def _terms_per_sweep(training: TrainingProblem, hp: HyperParams) -> int:
    # a trial on class c revisits |S_c| * (m - 1) numerator terms and
    # sum_{j != c} |S_j| denominator terms; each class has q * (p + 1) trials
    sizes = [idx.size for idx in training.member_sets]
    total = sum(sizes)
    per_class = [s * (hp.m - 1) + (total - s) for s in sizes]
    return sum(per_class) * hp.q * (training.p + 1)


def traced_fold(tracer: Tracer, fold_id: str, train, test,
                hp: HyperParams) -> FoldCounts:
    """Score one parsed fold pair as the CLI does, inside spans."""
    counts = FoldCounts(parse_rows=train.n + test.n)
    with tracer.span("fold", fold_id):
        with tracer.span("keel.preprocess", fold_id):
            stripped = strip_outliers_from_train(train)
            prep = Preprocessor.fit(stripped)
            x_train, _ = prep.transform(stripped)
            x_test, y_test = prep.transform(test)
        counts.encoded_width = prep.width
        with tracer.span("ssad.plan", fold_id):
            problem = SsadProblem(x_train, x_test, y_test)
            plan = build_member_sets(problem, hp.m, hp.seed)
            pooled = np.vstack([problem.test_samples, problem.train_normals])
            training = TrainingProblem(pooled, plan.member_sets,
                                       plan.class_weights)
        counts.member_rows = sum(idx.size for idx in training.member_sets)
        with tracer.span("core.cache_build", fold_id):
            # the model cpm_optimize starts from
            ResidualCache(training,
                          QmsModel(_initial_members(hp, training.p), hp))

        def on_accept(*_):
            counts.accepts += 1

        with tracer.span("core.cpm", fold_id):
            model = cpm_optimize(training, hp, on_accept=on_accept)
        counts.trials = hp.iterations * hp.m * hp.q * (training.p + 1)
        counts.terms = hp.iterations * _terms_per_sweep(training, hp)
        with tracer.span("core.final_loss", fold_id):
            counts.final_loss = loss_full(training, model)
        with tracer.span("ssad.score", fold_id):
            scores = outlier_scores(model, problem.test_samples)
        with tracer.span("metrics.roc", fold_id):
            counts.auc = roc_curve(scores, y_test).auc
    return counts

