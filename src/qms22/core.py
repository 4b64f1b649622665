"""Quadratic multiform separation: model types, ratio loss, and the
coordinate perturbation trainer.

A classifier is a bank of m quadratic "member functions"
``f_i(x) = ||A_i x - b_i||^2``; a sample is assigned to the class whose
member function is smallest. Training minimizes a clipped ratio loss by
perturbing one matrix/offset entry at a time and keeping only strict
improvements. The trainer never recomputes the loss from scratch: a
residual cache turns each single-entry perturbation into a rank-one
update of the affected member values, and problems with the same number
of classes, such as the folds of a dataset, can share one cache and train
together whatever their feature dimensions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hyper import HyperParams
from .metrics import _float_array

__all__ = [
    "HyperParams",
    "MemberFunction",
    "QmsModel",
    "TrainingProblem",
    "ResidualCache",
    "loss_full",
    "cpm_optimize",
    "cpm_optimize_many",
]


def _rows(samples, p=None, one=False, name="samples") -> np.ndarray:
    # the one rule for sample input: a (p,) row or, unless one, an (n, p)
    # batch (p=None: any batch with p >= 1), as float64 (n, p), all finite
    x = _float_array(name, samples)
    if p is None:
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValueError(f"{name}: expected an (n, p) batch with p >= 1, "
                             f"got shape {x.shape}")
    elif x.shape == (p,):
        x = x[None]
    elif one or x.ndim != 2 or x.shape[1] != p:
        want = f"a ({p},) row" + ("" if one else f" or an (n, {p}) batch")
        raise ValueError(f"{name}: expected feature dimension {p} as {want}, "
                         f"got shape {x.shape}")
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"{name}: non-finite {x[i, j]} at row {i}, column {j}")
    return x


@dataclass(frozen=True)
class MemberFunction:
    """One quadratic form f(x) = ||a x - b||^2 with a of shape (q, p)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if (a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]
                or a.size == 0):   # q = 0 or p = 0
            raise ValueError(f"need a (q, p) matrix and length-q vector, "
                             f"got shapes {a.shape} and {b.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("member function entries must be finite")
        self.__dict__.update(a=a, b=b)  # frozen: store the converted arrays

    @property
    def q(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class QmsModel:
    """A trained bank of member functions plus the settings that made it."""

    members: tuple[MemberFunction, ...]
    hyperparams: HyperParams

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) != self.hyperparams.m:
            raise ValueError(f"expected {self.hyperparams.m} member functions, "
                             f"got {len(members)}")
        shapes = {(f.q, f.p) for f in members}
        if len(shapes) != 1:
            raise ValueError(f"member functions disagree on shape: {shapes}")
        object.__setattr__(self, "members", members)

    @property
    def m(self) -> int:
        return len(self.members)

    @property
    def p(self) -> int:
        return self.members[0].p

    def member_values(self, samples) -> np.ndarray:
        """Evaluate every member function on rows of `samples`.

        Returns an (n_samples, m) array in C order with column i holding
        f_i, by the trainer's formula, which uses no BLAS.
        """
        x = _rows(samples, self.p)
        f = _forms(_stacked(self.members), _extended(x, self.p))[1]
        return f.T.copy()

    def classify(self, x) -> int:
        """Class label in {1, ..., m} of the smallest member value at x.

        Ties go to the lowest index, so a fresh symmetric model labels
        everything class 1. Labels are 1-based by convention.
        """
        values = self.member_values(_rows(x, self.p, one=True, name="x"))
        return int(np.argmin(values)) + 1


class TrainingProblem:
    """Member sets and their loss weights.

    Samples live in one pooled (n, p) matrix and each member set is an
    index array into it, so a sample shared by several member sets is
    stored once; within one member set an index may appear only once.
    """

    def __init__(self, samples, member_sets, class_weights=None):
        self.samples = np.ascontiguousarray(_rows(samples))
        n = self.samples.shape[0]
        if n == 0:
            raise ValueError("samples must be non-empty")
        sets = []
        for i, idx in enumerate(member_sets):
            idx = np.asarray(idx)
            if idx.size == 0:
                raise ValueError("every member set must be non-empty")
            # a float set would be truncated and a bool one read as 0 / 1
            if idx.ndim != 1 or idx.dtype.kind not in "iu":
                raise ValueError(f"member set {i} must be a 1-D array of "
                                 f"integer indices, got {idx.dtype} of "
                                 f"shape {idx.shape}")
            idx = idx.astype(np.intp, copy=False)
            if idx.min() < 0 or idx.max() >= n:
                raise ValueError("member set index out of range")
            # the loss would count a repeated sample once per repeat
            ordered = np.sort(idx)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError(f"member set {i} repeats a sample index")
            sets.append(idx)
        if len(sets) < 2:
            raise ValueError("need at least two member sets")
        self.member_sets = tuple(sets)
        if class_weights is None:
            class_weights = (1.0,) * len(sets)
        weights = tuple(float(w) for w in class_weights)
        if len(weights) != len(sets):
            raise ValueError(f"got {len(weights)} weights for "
                             f"{len(sets)} member sets")
        for i, w in enumerate(weights):
            if not (np.isfinite(w) and w > 0):
                raise ValueError(f"class weight {i} must be finite and "
                                 f"positive, got {w!r}")
        self.class_weights = weights

    @property
    def m(self) -> int:
        return len(self.member_sets)

    @property
    def p(self) -> int:
        return self.samples.shape[1]


def loss_full(problem: TrainingProblem, model: QmsModel) -> float:
    """Weighted ratio loss of `model` on `problem`.

    For every class i, every sample of member set i contributes
    ``w_i * max(alpha, f_i(x) / (f_j(x) + guard))`` for each j != i.
    """
    if model.m != problem.m:
        raise ValueError(f"model has {model.m} member functions, "
                         f"problem has {problem.m} member sets")
    return _ratio_loss(problem, model.hyperparams,
                       model.member_values(problem.samples).T)


def _ratio_loss(problem: TrainingProblem, hp: HyperParams,
                f: np.ndarray) -> float:
    # the loss of loss_full from member values f of shape (m, n)
    total = 0.0
    for i, (own, w) in enumerate(zip(problem.member_sets,
                                     problem.class_weights)):
        others = [j for j in range(problem.m) if j != i]
        # f_j(x) + guard for x in S_i, one row per j; take returns C
        # order, so the sum always runs row by row
        den = f[others].take(own, axis=1) + hp.denom_guard
        ratios = np.maximum(hp.alpha, f[i, own] / den)
        total += w * float(ratios.sum())
    return total


def _forms(w, xa, r=None, f=None):
    # the one formula for f: residuals r = W [x; -1], (m, q, n), and member
    # values ||r||^2, (m, n), of W = [A | b], (m, q, p + 1), on xa = [x; -1],
    # (p + 1, n), into r and f if given; einsum uses no BLAS, so its bits
    # do not depend on the OpenBLAS kernel the CPU picks
    r = np.einsum("mqp,pn->mqn", w, xa, out=r)
    return r, np.einsum("mqn,mqn->mn", r, r, out=f)


def _stacked(members) -> np.ndarray:
    # the member functions as one (m, q, p + 1) array of W_i = [A_i | b_i]
    return np.stack([np.column_stack([f.a, f.b]) for f in members])


def _extended(x, p: int, out=None) -> np.ndarray:
    # the rows of x, (n, p_x <= p), as the columns of [x; 0; -1], into out
    # if given, whose rows p_x..p-1 must be zero, else a new C-order array
    xa = np.zeros((p + 1, x.shape[0])) if out is None else out
    xa[:x.shape[1]] = x.T
    xa[p] = -1.0
    return xa


def _aligned(shape, dtype=np.float64) -> np.ndarray:
    # a zeroed C-order array whose data starts on a 64-byte boundary, one
    # cache line and one AVX-512 vector: 64 bytes more than it needs,
    # viewed from the first aligned byte
    size = np.dtype(dtype).itemsize * math.prod(shape)
    raw = np.zeros(size + 64, dtype=np.uint8)
    skip = -raw.__array_interface__["data"][0] % 64
    return raw[skip:skip + size].view(dtype).reshape(shape)


def _initial_members(hp: HyperParams, p: int) -> tuple[MemberFunction, ...]:
    # every class starts identical: A zero, b = (b_init, 0, ..., 0)
    b = np.zeros(hp.q)
    b[0] = hp.b_init
    return tuple(MemberFunction(np.zeros((hp.q, p)), b.copy())
                 for _ in range(hp.m))


# -2^-1074, the largest negative double, the least lo' of a piece's
# guards (see ResidualCache)
_LARGEST_NEGATIVE = -5e-324


def _piece_value(abc, fc, g: float, out=None, tmp=None) -> np.ndarray:
    # a * fc + b / (fc + g) + c0 for the piece rows abc = (a, b, c0), into
    # out with the scratch tmp of fc's shape if given, else into new arrays
    value = np.divide(abc[1], np.add(fc, g, out=tmp), out=out)
    value += np.multiply(abc[0], fc, out=tmp)
    value += abc[2]
    return value


class ResidualCache:
    """Residuals and member values for every class and pooled sample of
    one or more training problems, kept consistent under single-entry
    updates.

    Each member function is held as one augmented matrix W_i = [A_i | b_i]
    of shape (q, p + 1) acting on samples extended to [x; -1], so the
    residual is r_i(x) = W_i [x; -1] = A_i x - b_i, computed as in
    `QmsModel.member_values`, without BLAS. An entry is a pair (k, l);
    l == p is b_i[k]. Perturbing W_i[k, l] by delta shifts r_i(x)[k] by
    delta * x[l] (with x[p] = -1), so

        f_i'(x) = f_i(x) + 2 * delta * x[l] * r_i(x)[k] + delta^2 * x[l]^2

    Problems that share m share one cache, each owning one contiguous
    segment of the samples, residuals and member values, and its own W and
    loss. A trial's elementwise work runs once over all segments; each
    problem's loss is summed over its own segment alone, with the bits it
    gets on its own. Each run of neighbouring problems with equal sample
    counts, such as the folds of a dataset, is summed by one reduce with a
    row per problem. A problem narrower than the model's p is zero-padded:
    rows p_i..p-1 of its [x; -1] are 0, and b stays in column p of W. A
    trial on a padded column leaves its f_c unchanged to the bit, a loss
    change of exactly 0, so that entry of its W never moves.

    Training perturbs one class c at a time, and meanwhile only f_c moves,
    so a sample's share of the terms involving f_c depends on F = f_c(x)
    alone. Its own terms (x in S_c) w_c * max(alpha, F / (f_j + g)) break
    at alpha * (f_j + g); its denominator terms (x in S_j)
    w_j * max(alpha, f_j / (F + g)) break at f_j / alpha - g (never for
    alpha = 0). Between neighbouring breakpoints, lo < F <= hi, the share
    is a * F + b / (F + g) + c0; the sides agree on a breakpoint. Once per
    class the cache tables every sample's breakpoints and the coefficients
    that its pieces sum, and stores each sample's piece and each problem's
    sum of the terms involving f_c. A trial evaluates the pieces at the
    new f_c, O(n), and recomputes the piece only of the samples that left
    theirs, from the table. A trial is always the pair +step, -step on one
    entry: `try_entry` evaluates it and commits each problem's move.

    A piece is stored as its guards and coefficients (lo', hi', a, b, c0),
    where lo' = max(lo, -2^-1074), with -2^-1074 the largest negative
    double, and hi' = nextafter(hi, +inf). For a finite F, F <= lo' or
    hi' <= F holds exactly when max(F, 0) <= lo, max(F, 0) > hi or F < 0.
    So one comparison flags every sample that must be re-pieced, a
    negative f_c too, and the trial does not clip f_c at 0: only a
    flagged sample's f_c is clipped, before its piece or any value is
    computed, and no value is ever computed at a negative f_c.

    Unless a sample leaves its piece, a trial and its commit allocate
    nothing: they work in (2, n) buffers, a row per sign (the pieces too,
    so their passes do not broadcast), and form (x[l] * r[k]) * (2 * step)
    once for both rows; IEEE arithmetic is sign-symmetric, so each row
    keeps its own bits. A column's step is step_a, or step_b for b, and
    each column l holds rows built once from its step: (x[l] * x[l]) *
    step^2, stored twice so that it adds to both rows of f_c without a
    broadcast, and step * x[l], which a commit adds to or subtracts from
    r[k]. `try_entry` decides every problem, then commits each run of
    neighbours that took one step as one slice.

    Every array with a sample axis pads it from n to a multiple of 8 and
    starts on a 64-byte boundary (see `_aligned`), so each row of float64
    starts on a cache line, and a pass over whole rows loads and stores
    whole lines, never one 64-byte vector across two. The (2, n) blocks
    stay contiguous, so each pass is still one loop.
    The padding samples are inert: x (the -1 row too), r, f and the
    weights are 0, so their piece is (-inf, +inf, 0, 0, 0), stored as
    (-2^-1074, +inf, 0, 0, 0), of value 0, and they never leave it. The
    reduces run over the problems' segments and the commits over runs of
    them, so no sum or commit covers the padding, and every problem keeps
    its bits.

    Attributes:
        problems: the training problems, in segment order.
        losses: each problem's current loss, tracked incrementally across
            committed moves.
    """

    def __init__(self, problems, model: QmsModel):
        if isinstance(problems, TrainingProblem):
            problems = (problems,)
        self.problems = tuple(problems)
        if not self.problems:
            raise ValueError("need at least one training problem")
        for problem in self.problems:
            if problem.m != model.m or problem.p > model.p:
                raise ValueError(f"model has {model.m} member functions of "
                                 f"dimension {model.p}, a problem has "
                                 f"{problem.m} member sets of dimension "
                                 f"{problem.p}")
        self.hp = model.hyperparams
        sizes = [pr.samples.shape[0] for pr in self.problems]
        self._segments = [slice(int(e - s), int(e))   # back to back
                          for s, e in zip(sizes, np.cumsum(sizes))]
        # the sample axis, padded to a multiple of 8 (see the class
        # docstring)
        n = -(-self._segments[-1].stop // 8) * 8
        self._w = np.stack([_stacked(model.members)] * len(self.problems))
        # samples as [x; -1], residuals as (m, q, n) so that one matrix row
        # is contiguous, and member weights: w_j where x is in S_j, else 0
        self._xa = _aligned((model.p + 1, n))
        self._r = _aligned(self._w.shape[1:3] + (n,))
        self._f = _aligned((model.m, n))
        for pr, w, seg in zip(self.problems, self._w, self._segments):
            xa = _extended(pr.samples, model.p, out=self._xa[:, seg])
            _forms(w, xa, self._r[:, :, seg], self._f[:, seg])
        self._weight = _aligned((model.m, n))
        for problem, seg in zip(self.problems, self._segments):
            for j, own in enumerate(problem.member_sets):
                self._weight[j, seg.start + own] = problem.class_weights[j]
        # each class's never-row: +inf where its weight is 0, else -inf (see
        # _gather)
        self._never = _aligned((model.m, n))
        self._never[...] = np.where(self._weight == 0.0, np.inf, -np.inf)
        # each column's step, step_b for b in column p, and its step rows,
        # views of one block, built once (see the class docstring)
        self._step = [self.hp.step_a] * model.p + [self.hp.step_b]
        rows = _aligned((model.p + 1, 3, n))
        for x, step, (square, twice, shift) in zip(self._xa, self._step, rows):
            np.multiply(x, x, out=square)
            square *= step * step
            twice[...] = square
            np.multiply(step, x, out=shift)
        self._square, self._shift = tuple(rows[:, :2]), tuple(rows[:, 2])
        # the trial buffers, a row per step sign (see the class docstring):
        # f_c' and the pieces as guards (lo', hi', a, b, c0) are one block,
        # so one comparison of its rows (f_c', hi') with (lo', f_c') flags
        # the samples below and above their pieces into one block of
        # flags, and one count covers both; the views a trial reads are
        # made once
        self._block = _aligned((6, 2, n))
        self._fc, self._piece = self._block[0], self._block[1:]
        self._versus = self._block[0:3:2], self._block[1::-1]
        self._coefficients = tuple(self._block[3:])   # a, b, c0
        self._value, self._tmp = _aligned((2, 2, n))
        self._bounds = _aligned((2, 2, n), dtype=bool)
        self._sums = np.empty((2, len(self.problems)))
        # each run of neighbouring problems of one size is summed by one
        # reduce over a (2, count, size) view of _value, whose rows are the
        # problems' segments, so each problem keeps its own reduce's bits
        self._grouped = []
        first = 0
        for size, run in itertools.groupby(sizes):
            count = len(list(run))
            cols = slice(self._segments[first].start,
                         self._segments[first + count - 1].stop)
            self._grouped.append(
                (self._value[:, cols].reshape(2, count, size),
                 self._sums[:, first:first + count]))
            first += count
        # class c's tables (see _pieces) and the scratch of their
        # full-width pass, filled by _gather
        self._table = _aligned((6, model.m - 1, n))
        self._mask = _aligned((4, model.m - 1, n), dtype=bool)
        self._terms = _aligned((4, model.m - 1, n))
        self._c = None   # the class of the pieces
        self.losses = [_ratio_loss(pr, self.hp, self._f[:, seg])
                       for pr, seg in zip(self.problems, self._segments)]

    def _gather(self, c: int) -> None:
        # class c's table, its pieces and each problem's sum _total of its
        # terms now, each in one pass over all n samples
        if self._c != c:
            self._c = c
            alpha, g = self.hp.alpha, self.hp.denom_guard
            others = [j for j in range(len(self._f)) if j != c]
            at, own_a, den_b, w_own, w_den = (self._table[:2],
                                              *self._table[2:])
            # straight into the table ("clip" takes no buffered copy; the
            # indices are valid)
            np.take(self._f, others, axis=0, out=den_b, mode="clip")  # f_j
            np.take(self._weight, others, axis=0, out=w_den, mode="clip")
            w_own[...] = self._weight[c]
            np.add(den_b, g, out=own_a)   # f_j + g
            np.multiply(alpha, own_a, out=at[0])
            if alpha:
                np.divide(den_b, alpha, out=at[1])
                at[1] -= g
            else:
                at[1] = np.inf
            # a sample without the term (weight 0, as class weights are
            # positive) gets a breakpoint that no fc crosses: max(at, +inf)
            # is +inf and max(at, -inf) is at, so the never-rows of its
            # weights mask it; in the order of at: own, denominator
            np.maximum(at[0], self._never[c], out=at[0])
            never = np.take(self._never, others, axis=0, out=self._terms[0],
                            mode="clip")
            np.maximum(at[1], never, out=at[1])
            np.divide(w_own, own_a, out=own_a)
            np.multiply(w_den, den_b, out=den_b)
            self._pieces(slice(None), self._f[c], self._piece[:, 0],
                         self._mask, self._terms)
            self._piece[:, 1] = self._piece[:, 0]
            self._fc[...] = self._f[c]
            self._total = self._evaluate()[0][0].tolist()

    def _pieces(self, cols, fc: np.ndarray, out=None, mask=None,
                terms=None) -> np.ndarray:
        # (lo', hi', a, b, c0), the guards and coefficients of the piece
        # holding fc >= 0 for the samples cols, a (5, k) array (see the
        # class docstring), read from class c's (6, m - 1, n) table: for
        # each term j, the own and the denominator breakpoints, then the
        # coefficients w_c / (f_j + g), w_j * f_j, w_c and w_j, which the
        # sides of the breakpoints select. A missing term has a breakpoint
        # that no fc crosses. The sums over j run in order, whatever k, so
        # a sample gets the same bits in a batch or alone. The
        # (4, m - 1, k) scratch mask and terms may be given.
        table = self._table[:, :, cols]
        at = table[:2]
        shape = (4,) + at.shape[1:]
        mask = np.empty(shape, dtype=bool) if mask is None else mask
        terms = np.empty(shape) if terms is None else terms
        out = np.empty((5, at.shape[2])) if out is None else out
        # the sides in the order of the coefficients: own past,
        # denominator not past, own not past, denominator past
        past = np.greater(fc, at, out=mask[::3])
        np.logical_not(mask[3::-3], out=mask[1:3])
        # a breakpoint that fc is past bounds the piece from below, any
        # other from above: min(at, +inf) is at, min(at, -inf) is -inf;
        # the guards are lo' = max(lo, -2^-1074) and hi' = nextafter(hi)
        side = np.subtract(past, 0.5, out=terms[:2])
        side *= np.inf
        np.minimum(at, side, out=terms[2:]).max(
            axis=(0, 1), initial=_LARGEST_NEGATIVE, out=out[0])
        np.maximum(at, side, out=side).min(axis=(0, 1), out=out[1])
        np.nextafter(out[1], np.inf, out=out[1])
        np.multiply(table[2:], mask, out=terms)
        terms[2] += terms[3]   # w_c or w_j where a term is clipped
        sums = out[2:]
        sums[...] = terms[:3, 0]
        for j in range(1, terms.shape[1]):
            sums += terms[:3, j]
        sums[2] *= self.hp.alpha
        return out

    def _evaluate(self):
        # Each problem's sum of the terms involving f_c, for both rows of
        # _fc (2, n), over its own segment alone, so with a lone problem's
        # bits, in the (2, problems) buffer _sums; and the (rows, samples)
        # that left their piece with their new pieces, or None, None. One
        # comparison, fc <= lo' and hi' <= fc, flags them, a negative fc
        # too; theirs is clipped at 0 in _fc before any piece is valued.
        g, value, fc = self.hp.denom_guard, self._value, self._fc
        np.less_equal(*self._versus, out=self._bounds)
        left = new = None
        if np.count_nonzero(self._bounds):
            below, above = self._bounds
            left = np.nonzero(np.logical_or(below, above, out=below))
            moved = fc[left]
            if moved.min() < 0.0:
                fc[left] = np.maximum(moved, 0.0, out=moved)
            new = self._pieces(left[1], moved)
        _piece_value(self._coefficients, fc, g, out=value, tmp=self._tmp)
        if left is not None:
            value[left] = _piece_value(new[2:], moved, g)
        for run, sums in self._grouped:
            np.add.reduce(run, axis=2, out=sums)
        return self._sums, left, new

    def _trial(self, c: int, k: int, l: int):
        # f_c after adding +step and -step to entry (k, l), one row each
        # (see the class docstring), and what _evaluate finds for it. The
        # rows differ only in the sign of the term odd in the step.
        self._gather(c)
        fc, u, f = self._fc, self._tmp[0], self._f[c]
        np.multiply(self._xa[l], self._r[c, k], out=u)
        u *= 2.0 * self._step[l]
        np.add(f, u, out=fc[0])
        np.subtract(f, u, out=fc[1])
        fc += self._square[l]
        return (fc,) + self._evaluate()

    def try_entry(self, c: int, k: int,
                  l: int) -> list[tuple[int, float, float]]:
        """One CPM trial: add +step and -step to entry (k, l) of class c,
        where step is step_a, or step_b for b (l == p), and, for each
        problem, commit the one that lowers its loss more, +step on a
        tie, if it lowers the tracked loss at all. A commit updates the
        problem's entry, residuals, member values and tracked loss, so
        every commit strictly lowers that loss.

        Returns (i, delta, loss) for each problem i that moved, with its
        new tracked loss.
        """
        fc, sums, left, new = self._trial(c, k, l)
        step, shift = self._step[l], self._shift[l]   # shift: step * x[l]
        ups, downs = sums.tolist()
        decided, runs = [], []
        for i, total in enumerate(self._total):
            up, down = ups[i] - total, downs[i] - total
            s = 0 if up <= down else 1
            loss = self.losses[i] + (down if s else up)
            if not loss < self.losses[i]:
                continue
            decided.append((i, s, loss))
            if runs and runs[-1][1:] == [i - 1, s]:   # [first, last, row]
                runs[-1][1] = i
            else:
                runs.append([i, i, s])
        for first, last, s in runs:
            run = slice(self._segments[first].start, self._segments[last].stop)
            self._f[c, run] = fc[s, run]
            if new is not None:
                rows, cols = left
                mine = (rows == s) & (cols >= run.start) & (cols < run.stop)
                self._piece[:, :, cols[mine]] = new[:, None, mine]
            # r - step * x[l] is r + (-step) * x[l]: IEEE negation is exact
            r = self._r[c, k, run]
            (np.subtract if s else np.add)(r, shift[run], out=r)
        for i, s, loss in decided:
            self._w[i, c, k, l] += -step if s else step
            self.losses[i] = loss
            self._total[i] = (downs if s else ups)[i]
        return [(i, -step if s else step, loss) for i, s, loss in decided]

    def members(self, i: int = 0) -> tuple[MemberFunction, ...]:
        """Snapshot of problem i's current member functions, p_i wide."""
        p = self.problems[i].p
        return tuple(MemberFunction(w[:, :p].copy(), w[:, -1].copy())
                     for w in self._w[i])


def cpm_optimize(problem: TrainingProblem, hp: HyperParams,
                 on_accept: Callable | None = None) -> QmsModel:
    """Train a model by coordinate perturbation.

    Every sweep visits each class in order; within a class, each entry of
    A row by row, then each entry of b top to bottom. Each entry is one
    `ResidualCache.try_entry` trial: the loss changes of +step and -step
    are evaluated incrementally and the larger strict decrease is kept
    (ties prefer +step); otherwise the entry is left alone. Steps are
    constant, there is no line search, and each entry is touched once per
    sweep, so the run is fully deterministic.

    This is the one-problem case of `cpm_optimize_many`.

    Args:
        problem: member sets and weights.
        hp: hyperparameters; hp.m must match the problem.
        on_accept: diagnostic hook called as
            on_accept(sweep, class_i, (k, l), delta, loss) after each
            accepted move; (k, l) is an entry of [A | b], l == p is b[k].

    Returns:
        The trained QmsModel. iterations=0 returns the initial model
        (A zero, b = (b_init, 0, ..., 0)).
    """
    hook = None if on_accept is None else (lambda _, *move: on_accept(*move))
    return cpm_optimize_many([problem], hp, hook)[0]


def cpm_optimize_many(problems, hp: HyperParams,
                      on_accept: Callable | None = None) -> list[QmsModel]:
    """Train one model per problem by coordinate perturbation, all of
    them in one residual cache.

    The problems must share the number of member sets; a narrower problem
    is zero-padded to the widest (see `ResidualCache`). All of them visit
    the same sweep, class and entry sequence, so each trial evaluates
    every problem at once, while the accept decisions and commits stay
    per problem. Each model and its accepted moves are bitwise those
    `cpm_optimize` gives on that problem alone.

    Args:
        problems: training problems sharing m.
        hp: hyperparameters; hp.m must match the problems.
        on_accept: as for `cpm_optimize`, with the problem's index first:
            on_accept(i, sweep, class_i, (k, l), delta, loss), where
            l == p_i, the problem's own dimension, is b[k].

    Returns:
        The trained models, in the order of `problems`.
    """
    problems = tuple(problems)
    if not problems:
        raise ValueError("need at least one training problem")
    p = max(problem.p for problem in problems)   # the cache checks m
    cache = ResidualCache(problems, QmsModel(_initial_members(hp, p), hp))
    entries = ([(k, l) for k in range(hp.q) for l in range(p)]
               + [(k, p) for k in range(hp.q)])
    for sweep in range(hp.iterations):
        for c in range(hp.m):
            for k, l in entries:
                moved = cache.try_entry(c, k, l)
                if on_accept is not None:
                    # only l < p_i and b, column p of the cache, move
                    for i, delta, loss in moved:
                        on_accept(i, sweep, c, (k, min(l, problems[i].p)),
                                  delta, loss)
    return [QmsModel(cache.members(i), hp) for i in range(len(problems))]

