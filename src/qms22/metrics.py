"""ROC curves, AUC, the Wilcoxon signed-rank test, and summary statistics.

The Wilcoxon test and the summary statistics are plain Python, so
`qms22 compare` and `qms22 summary` run without numpy; the functions that
build arrays import numpy when they run. The Wilcoxon test has one rule
for its tail: the exact count up to 25 non-zero differences, the normal
approximation above.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

__all__ = [
    "RocCurve",
    "WilcoxonResult",
    "FiveNumberSummary",
    "roc_curve",
    "wilcoxon_signed_rank",
    "five_number_summary",
    "mean_std",
]


@dataclass(frozen=True)
class RocCurve:
    """Tie-aware ROC staircase.

    thresholds[0] is +inf for the mandatory (0, 0) point; each later
    point i is the operating point "score >= thresholds[i]". Tied scores
    enter together, so they form a single (possibly diagonal) step.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class WilcoxonResult:
    r_plus: float
    r_minus: float
    n_effective: int
    p_value: float
    method: str


@dataclass(frozen=True)
class FiveNumberSummary:
    min: float
    q1: float
    median: float
    q3: float
    max: float


def _finite(name: str, values) -> None:
    # the one finiteness rule, on flat values: NaN and infinities would
    # otherwise sort, rank or average into a silently wrong statistic
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")


def _float_array(name: str, values):
    # values as float64; an element that is not a number is named by
    # position, and nesting of uneven depth or length is called ragged
    import numpy as np
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        try:
            items = np.asarray(values, dtype=object)
        except ValueError:   # sub-arrays of unequal shapes
            items = None
        if items is None or any(np.ndim(item) for item in items.flat):
            raise ValueError(f"{name} is ragged: its entries are not all of "
                             f"one shape") from None
        for at in np.ndindex(items.shape):
            try:
                float(items[at])
            except (TypeError, ValueError):
                raise ValueError(f"{name}{list(at) if at else ''} is "
                                 f"{items[at]!r}, not a number") from None
        raise


def _flat(values) -> list[float] | None:
    # the floats of a flat sequence, or None. An element with dimensions
    # is refused before float() sees it, as numpy before 2.4 turns a
    # one-element array into its value.
    try:
        items = list(values)
        if any(getattr(x, "ndim", 0) for x in items):
            return None
        return [float(x) for x in items]
    except TypeError:
        return None


def _floats(name: str, values) -> list[float]:
    # the finite floats of a flat sequence, for the summary statistics
    v = _flat(values)
    if v is None:
        raise ValueError(f"{name} must be a flat sequence of numbers")
    _finite(name, v)
    return v


def _labels(name: str, labels):
    # the one rule for outlier labels: booleans, or numbers equal to 0 or
    # 1 (True = outlier); a cast to bool would read '0', 2, 0.5 or NaN as
    # an outlier without a word
    import numpy as np
    y = np.asarray(labels)
    if y.dtype.kind != "b":
        # strings and the like are never labels (and numpy 1.x compares
        # them with a number as one scalar, not elementwise)
        ok = ((y == 0) | (y == 1) if y.dtype.kind in "iufcO"
              else np.zeros(y.shape, dtype=bool))
        if not ok.all():
            raise ValueError(f"{name}: expected booleans or 0/1 numbers, "
                             f"got {y[~ok].tolist()[0]!r}")
    return y.astype(bool)


def roc_curve(scores, labels) -> RocCurve:
    """ROC curve of outlier scores against labels: booleans or 0/1
    numbers, True = outlier.

    One point per distinct score, thresholds descending, preceded by the
    (0, 0) endpoint; the final point is always (1, 1). The stored AUC is
    the trapezoidal area, which on this staircase equals the pairwise
    win + half-tie count.
    """
    import numpy as np
    scores = _float_array("scores", scores)
    labels = _labels("labels", labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    _finite("scores", scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one outlier and one normal sample")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # indices where a run of equal scores ends
    last_of_run = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    cum_tp = np.cumsum(y)[last_of_run]
    cum_fp = (last_of_run + 1) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    thresholds = np.concatenate([[np.inf], s[last_of_run]])
    area = _trapezoid(fpr, tpr)
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=area)


def _trapezoid(x, y) -> float:
    return float(0.5 * ((x[1:] - x[:-1]) * (y[1:] + y[:-1])).sum())


def _average_ranks(values: list[float]) -> list[float]:
    """Ascending ranks starting at 1 with ties averaged."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, run in groupby(order, key=values.__getitem__):
        run = list(run)
        end = start + len(run) - 1
        for i in run:   # the averaged rank of a 0-based run [start, end]
            ranks[i] = (start + end) / 2.0 + 1.0
        start = end + 1
    return ranks


def _exact_tail_p(doubled: list[int], lo: int) -> float:
    """P(2R+ <= lo) + P(2R+ >= total - lo) over all 2^n sign assignments,
    where total is the sum of the doubled ranks: averaged ranks are
    multiples of 0.5, so doubling makes them integers.

    A dynamic program over rank sums counts the same distribution as
    brute force. A count depends only on counts below it, so the table
    keeps just the lo + 1 lowest sums, and the distribution is symmetric,
    so the upper tail holds as many patterns as the lower one. The counts
    are Python integers, so the result is the exact count over 2^n,
    correctly rounded.
    """
    count = [1] + [0] * lo
    for r in doubled:
        count[r:] = [x + y for x, y in zip(count[r:], count)]
    return min(1.0, 2 * sum(count) / 2 ** len(doubled))


def _normal_tail_p(ranks: list[float], r_plus: float, r_minus: float) -> float:
    """Two-sided normal approximation with tie-corrected variance and a
    0.5 continuity correction on W = min(R+, R-).
    """
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    ties = sum(t ** 3 - t for t in Counter(ranks).values())
    var = (n * (n + 1) * (2 * n + 1) - ties / 2.0) / 24.0
    sd = math.sqrt(var)
    w = min(r_plus, r_minus)
    z = (w - mean + 0.5) / sd
    # two-sided: 2 * Phi(z) written via the complementary error function
    p = math.erfc(-z / math.sqrt(2.0))
    return min(1.0, p)


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired values.

    Zero differences are dropped; tied absolute differences receive
    averaged ranks (preserving r_plus + r_minus = n'(n'+1)/2). The count
    n' of the remaining differences picks the tail: up to 25, the exact
    p-value over all 2^n' sign patterns; above, the normal approximation.
    Plain Python, so `qms22 compare` loads no numpy.
    """
    a, b = _flat(a), _flat(b)
    if a is None or b is None or len(a) != len(b) or not a:
        raise ValueError("need two equal-length non-empty vectors")
    _finite("paired values", a)
    _finite("paired values", b)
    d = [x - y for x, y in zip(a, b)]
    d = [x for x in d if x != 0.0]
    n = len(d)
    if n == 0:
        return WilcoxonResult(0.0, 0.0, 0, 1.0, "exact")
    ranks = _average_ranks([abs(x) for x in d])
    # sums of multiples of 0.5, exact in any order
    r_plus = sum((r for r, x in zip(ranks, d) if x > 0), 0.0)
    r_minus = sum((r for r, x in zip(ranks, d) if x < 0), 0.0)
    if n <= 25:
        p, method = _exact_tail_p([round(2.0 * r) for r in ranks],
                                  round(2.0 * min(r_plus, r_minus))), "exact"
    else:
        p, method = _normal_tail_p(ranks, r_plus, r_minus), "normal"
    return WilcoxonResult(r_plus, r_minus, n, p, method)


def five_number_summary(values) -> FiveNumberSummary:
    """Min, quartiles, max with linear interpolation at (n-1)*{.25,.5,.75}.

    The same bits as np.percentile(values, [0, 25, 50, 75, 100]): each
    value is numpy's "linear" step, rounding included. A -0.0 reads as
    0.0: which of two equal zeros numpy interpolates from depends on how
    its partition orders them, so its sign of a zero result is arbitrary.
    """
    v = sorted(x + 0.0 for x in _floats("values", values))
    if not v:
        raise ValueError("five_number_summary needs a non-empty input")
    last = len(v) - 1

    def at(q: float) -> float:
        x = last * q
        i = math.floor(x)
        t = x - i
        if x >= last:   # numpy takes the last value, with weight x + 1
            i, t = last, x + 1
        a, b = v[i], v[min(i + 1, last)]
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)

    return FiveNumberSummary(*map(at, (0.0, 0.25, 0.5, 0.75, 1.0)))


def mean_std(values) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (divide by n - 1).

    The sample convention is what reproduces the reference spread of the
    bundled benchmark results (0.1483; the population convention gives
    0.1475). A single value has spread 0 by definition here. Both sums
    are correctly rounded (math.fsum), so no summation order moves them.
    """
    v = _floats("values", values)
    if not v:
        raise ValueError("mean_std needs a non-empty input")
    if min(v) == max(v):
        # a lone or constant sequence has zero spread, exactly
        return v[0], 0.0
    mean = math.fsum(v) / len(v)
    return mean, math.sqrt(math.fsum((x - mean) ** 2 for x in v)
                           / (len(v) - 1))
