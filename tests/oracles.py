"""Slow, independent reference implementations used as test oracles.

Everything here is written with plain loops against the mathematical
definitions, deliberately avoiding the vectorized code paths in the
package. Oracles stay independent of the thing they check. The one
exception is `wilcoxon_numpy`, the package's former numpy
implementation, kept as the bitwise reference for the plain-Python test
that replaced it.

The helpers at the end are not oracles but test scaffolding over the
package's internals: a training problem built from one sample array per
class, the loss changes a residual cache trial weighs, the guards a
residual cache stores for a piece, the clip-then-compare evaluation of a
trial that the guards replace, the terms of the loss that involve one
class, and the cache's drift from a recomputation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qms22.core import TrainingProblem, _forms, _rows


def member_value(a, b, x):
    """f(x) = ||Ax - b||^2 computed with explicit loops."""
    total = 0.0
    for k in range(len(b)):
        acc = -float(b[k])
        row = a[k]
        for l in range(len(x)):
            acc += float(row[l]) * float(x[l])
        total += acc * acc
    return total


def loss_direct(member_sets, class_weights, members, alpha, guard):
    """Direct double-loop evaluation of the weighted ratio loss.

    member_sets: list of m lists of sample vectors.
    members: list of m (a, b) pairs.
    """
    total = 0.0
    m = len(members)
    for i in range(m):
        w = float(class_weights[i])
        ai, bi = members[i]
        for x in member_sets[i]:
            fi = member_value(ai, bi, x)
            for j in range(m):
                if j == i:
                    continue
                aj, bj = members[j]
                fj = member_value(aj, bj, x)
                total += w * max(alpha, fi / (fj + guard))
    return total


def cpm_reference(member_sets, class_weights, n_features, m, q, alpha,
                  iterations, step_a, step_b, b_init, guard):
    """Brute-force coordinate perturbation: recompute the full loss at
    every candidate point. Only usable on micro problems.

    Returns (members, final_loss) where members is a list of (a, b)
    nested-list pairs.
    """
    a = [[[0.0] * n_features for _ in range(q)] for _ in range(m)]
    b = [[b_init] + [0.0] * (q - 1) for _ in range(m)]

    def loss():
        return loss_direct(member_sets, class_weights,
                           [(a[i], b[i]) for i in range(m)], alpha, guard)

    current = loss()
    for _ in range(iterations):
        for i in range(m):
            for k in range(q):
                for l in range(n_features):
                    old = a[i][k][l]
                    best = None
                    # +step evaluated first so that ties prefer it
                    for delta in (step_a, -step_a):
                        a[i][k][l] = old + delta
                        cand = loss()
                        if cand < current and (best is None or cand < best[0]):
                            best = (cand, delta)
                    a[i][k][l] = old
                    if best is not None:
                        a[i][k][l] = old + best[1]
                        current = best[0]
            for k in range(q):
                old = b[i][k]
                best = None
                for delta in (step_b, -step_b):
                    b[i][k] = old + delta
                    cand = loss()
                    if cand < current and (best is None or cand < best[0]):
                        best = (cand, delta)
                b[i][k] = old
                if best is not None:
                    b[i][k] = old + best[1]
                    current = best[0]
    return [(a[i], b[i]) for i in range(m)], current


def trial_rows(f, x, r, step):
    """The member values f_c(x) after adding +step and -step to one entry,
    one list per sign, sample by sample, from each sample's f_c(x), its
    [x; -1] component x and its residual r of the entry's row:
    max(f ± (x·r)·(2·step) + (x·x)·(step·step), 0), operation by
    operation, so with the bits the residual cache's trial must give."""
    rows = ([], [])
    for fi, xi, ri in zip(f, x, r):
        odd = (float(xi) * float(ri)) * (2.0 * step)
        even = (float(xi) * float(xi)) * (step * step)
        for row, moved in zip(rows, (float(fi) + odd, float(fi) - odd)):
            row.append(max(moved + even, 0.0))
    return rows


def auc_pairwise(scores, labels):
    """Mann-Whitney AUC: wins + half-ties over all outlier x normal pairs."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    if not pos or not neg:
        raise ValueError("need both classes")
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def _average_ranks(values):
    """Ascending ranks starting at 1, ties averaged. Pure python."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def wilcoxon_bruteforce(a, b):
    """Exact two-sided signed-rank test by enumerating every sign pattern.

    Zero differences are dropped; tied |d| get averaged ranks. Returns
    (r_plus, r_minus, n_effective, p_value). Only for small n (2^n work).
    """
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    diffs = [d for d in diffs if d != 0.0]
    n = len(diffs)
    if n == 0:
        return 0.0, 0.0, 0, 1.0
    ranks = _average_ranks([abs(d) for d in diffs])
    r_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    r_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    lo, hi = min(r_plus, r_minus), max(r_plus, r_minus)
    # rank sums are multiples of 0.5, exact in binary floating point
    count = 0
    for signs in itertools.product((1.0, 0.0), repeat=n):
        rp = sum(r * s for r, s in zip(ranks, signs))
        if rp <= lo or rp >= hi:
            count += 1
    p = min(1.0, count / 2.0 ** n)
    return r_plus, r_minus, n, p


def wilcoxon_numpy(a, b, method="auto"):
    """The signed-rank test as numpy computes it: argsort ranks, pairwise
    sums, np.unique tie counts and the halving float DP for the exact
    tail. Returns (r_plus, r_minus, n_effective, p_value, method).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 0.0, 0.0, 0, 1.0, "exact"
    values = np.abs(d)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    boundary = np.nonzero(np.append(sorted_vals[1:] != sorted_vals[:-1],
                                    True))[0]
    start = np.concatenate([[0], boundary[:-1] + 1])
    ranks = np.empty(n)
    ranks[order] = np.repeat((start + boundary) / 2.0 + 1.0,
                             boundary - start + 1)
    r_plus = float(ranks[d > 0].sum())
    r_minus = float(ranks[d < 0].sum())
    if method == "auto":
        method = "exact" if n <= 25 else "normal"
    if method == "exact":
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        size = int(round(2.0 * min(r_plus, r_minus))) + 1
        prob = np.zeros(size)
        prob[0] = 1.0
        top = 1
        for r in doubled:
            top = min(top + r, size)
            if r < top:
                prob[r:top] = prob[r:top] + prob[:top - r]
            prob[:top] *= 0.5
        p = min(1.0, float(prob.sum() + prob[::-1].sum()))
    else:
        _, tie_counts = np.unique(ranks, return_counts=True)
        t = tie_counts.astype(np.float64)
        var = (n * (n + 1) * (2 * n + 1) - ((t ** 3 - t).sum()) / 2.0) / 24.0
        z = (min(r_plus, r_minus) - n * (n + 1) / 4.0 + 0.5) / math.sqrt(var)
        p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return r_plus, r_minus, n, p, method


def five_number_direct(values):
    """Five-number summary with hand-rolled linear interpolation."""
    v = sorted(float(x) for x in values)
    n = len(v)

    def at(frac):
        pos = (n - 1) * frac
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi:
            return v[lo]
        return v[lo] + (pos - lo) * (v[hi] - v[lo])

    return v[0], at(0.25), at(0.5), at(0.75), v[-1]


def from_member_sets(member_sets, class_weights=None):
    """A TrainingProblem from one (n_i, p) sample array per class, pooled
    in class order. Each array is checked as sample input named
    "member set i", with p fixed by the first."""
    arrays = []
    for i, s in enumerate(member_sets):
        arrays.append(_rows(s, arrays[0].shape[1] if arrays else None,
                            name=f"member set {i}"))
    if not arrays:
        raise ValueError("need at least two member sets")
    ends = np.cumsum([len(a) for a in arrays])
    sets = [np.arange(end - len(a), end) for a, end in zip(arrays, ends)]
    return TrainingProblem(np.vstack(arrays), sets, class_weights)


def deltas(cache, c, k, l):
    """The pair `ResidualCache.try_entry` weighs, without committing it:
    each problem's loss change [up, down] from adding +step and -step to
    entry (k, l) of class c, where step is the cache's step_a, or step_b
    for b. Exact zeros on a narrower problem's padded column."""
    ups, downs = cache._trial(c, k, l)[1].tolist()
    return [[up - total, down - total]
            for up, down, total in zip(ups, downs, cache._total)]


def guards(pieces):
    """Pieces (lo, hi, a, b, c0) along the first axis as a residual cache
    stores them: lo' = max(lo, -2^-1074), hi' = nextafter(hi, +inf), with
    -2^-1074 the largest negative double, and a, b, c0 as they are."""
    out = np.array(pieces, dtype=np.float64)
    out[0] = np.maximum(out[0], -5e-324)
    out[1] = np.nextafter(out[1], np.inf)
    return out


def clipped_evaluation(fc, pieces, g, segments, repiece):
    """A trial's evaluation by clip first, then compare, in plain numpy.

    fc (2, n) are the member values f_c' of both rows, unclipped, and
    pieces (5, 2, n) each sample's raw piece (lo, hi, a, b, c0). fc is
    clipped at 0, the (rows, samples) with fc <= lo or fc > hi leave
    their piece for repiece(samples, fc) -> (5, k), and every sample's
    value a * fc + b / (fc + g) + c0 is summed over each segment by one
    reduce. Returns (fc, sums (2, segments), left, new, value).
    """
    fc = np.maximum(fc, 0.0)
    lo, hi, a, b, c0 = (row.copy() for row in pieces)
    left = np.nonzero((fc <= lo) | (fc > hi))
    new = repiece(left[1], fc[left])
    a[left], b[left], c0[left] = new[2:]
    value = b / (fc + g)
    value += a * fc
    value += c0
    sums = np.stack([np.add.reduce(value[:, seg], axis=1) for seg in segments],
                    axis=1)
    return fc, sums, left, new, value


def class_terms(problem, hp, f, c):
    """The sum of the ratio loss's terms that involve f_c, for member
    values f of shape (m, n): all of S_c's terms, and the term of
    denominator f_c of every other class's samples, each class's terms
    summed as `loss_full` sums them."""
    total = 0.0
    for i, (own, w) in enumerate(zip(problem.member_sets,
                                     problem.class_weights)):
        others = [c] if c != i else [j for j in range(problem.m) if j != i]
        den = f[others].take(own, axis=1) + hp.denom_guard
        ratios = np.maximum(hp.alpha, f[i, own] / den)
        total += w * float(ratios.sum())
    return total


def max_relative_drift(cache):
    """Worst relative deviation of a residual cache's state from a
    recomputation: residuals, member values and, once a class is
    gathered, each problem's sum of the terms involving f_c. It is inf if
    some sample's f_c lies outside its stored piece, whose guards hold it
    as lo' < f_c < hi'. Only the n samples count, not the padding of the
    cache's sample axis."""
    n = cache._segments[-1].stop
    r, f = np.empty_like(cache._r[..., :n]), np.empty_like(cache._f[..., :n])
    for w, seg in zip(cache._w, cache._segments):
        _forms(w, cache._xa[:, seg], r[:, :, seg], f[:, seg])
    drift = max((np.abs(now - ex) / np.maximum(np.abs(ex), 1.0)).max()
                for now, ex in zip((cache._r[..., :n], cache._f[..., :n]),
                                   (r, f)))
    if cache._c is not None:
        lo, hi, fc = (cache._piece[0, ..., :n], cache._piece[1, ..., :n],
                      cache._f[cache._c, :n])
        if not ((lo < fc) & (fc < hi)).all():
            return float("inf")
        for pr, seg, total in zip(cache.problems, cache._segments,
                                  cache._total):
            exact = class_terms(pr, cache.hp, cache._f[:, seg], cache._c)
            drift = max(drift, abs(total - exact) / max(abs(exact), 1.0))
    return float(drift)
