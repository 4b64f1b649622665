"""Quadratic multiform separation: model types, ratio loss, and the
coordinate perturbation trainer.

A classifier is a bank of m quadratic "member functions"
``f_i(x) = ||A_i x - b_i||^2``; a sample is assigned to the class whose
member function is smallest. Training minimizes a clipped ratio loss by
perturbing one matrix/offset entry at a time and keeping only strict
improvements. The trainer never recomputes the loss from scratch: a
residual cache turns each single-entry perturbation into a rank-one
update of the affected member values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "HyperParams",
    "MemberFunction",
    "QmsModel",
    "TrainingProblem",
    "ResidualCache",
    "pair_term",
    "loss_full",
    "cpm_optimize",
]

# entry locators for a single scalar parameter of one member function:
# ("a", k, l) is A[k, l]; ("b", k) is b[k]
EntryRef = tuple


@dataclass(frozen=True)
class HyperParams:
    """Training hyperparameters.

    Defaults are the benchmark settings QMS22 was tuned with: seven member
    functions with ten rows each, clip threshold 0.5, sixty sweeps, unit
    steps for matrix entries, 255-unit steps for offsets, and offsets
    started at (25500, 0, ..., 0). They assume features normalized to a
    max-abs of roughly 255.

    Attributes:
        m: number of member functions (classes), >= 2.
        q: rows per member matrix, >= 1.
        alpha: ratio clip threshold in [0, 1).
        iterations: number of full coordinate sweeps, >= 0.
        step_a: perturbation distance for entries of each A, > 0.
        step_b: perturbation distance for entries of each b, > 0.
        b_init: initial value of the first entry of each b.
        denom_guard: small positive value added to every ratio denominator.
        seed: RNG seed for the parts shuffle in the detector pipeline;
            training itself draws no random numbers.
    """

    m: int = 7
    q: int = 10
    alpha: float = 0.5
    iterations: int = 60
    step_a: float = 1.0
    step_b: float = 255.0
    b_init: float = 25500.0
    denom_guard: float = 1e-12
    seed: int = 42

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.step_a <= 0 or self.step_b <= 0:
            raise ValueError("step sizes must be positive")
        if self.denom_guard <= 0:
            raise ValueError(f"denom_guard must be > 0, got {self.denom_guard}")


@dataclass(frozen=True)
class MemberFunction:
    """One quadratic form f(x) = ||a @ x - b||^2 with a of shape (q, p)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
            raise ValueError(f"need a (q, p) matrix and length-q vector, "
                             f"got shapes {a.shape} and {b.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("member function entries must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def q(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.a.shape[1]

    def evaluate(self, x) -> float:
        """Return ||a @ x - b||^2, always >= 0."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.p,):
            raise ValueError(f"expected a feature vector of length {self.p}, "
                             f"got shape {x.shape}")
        r = self.a @ x - self.b
        return float(r @ r)


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

        Returns an (n_samples, m) array with column i holding f_i.
        """
        x = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        if x.shape[1] != self.p:
            raise ValueError(f"expected feature dimension {self.p}, "
                             f"got {x.shape[1]}")
        out = np.empty((x.shape[0], self.m))
        for i, f in enumerate(self.members):
            r = x @ f.a.T - f.b
            out[:, i] = np.einsum("ij,ij->i", r, r)
        return out

    def classify(self, x) -> int:
        """Class label in {1, ..., m} of the smallest member value.

        Ties go to the lowest index, so a fresh symmetric model labels
        everything class 1. Labels are 1-based by convention.
        """
        values = self.member_values(np.asarray(x, dtype=np.float64)[None, :])
        return int(np.argmin(values[0])) + 1


def pair_term(fi: float, fj: float, alpha: float, guard: float) -> float:
    """One summand of the ratio loss: max(alpha, fi / (fj + guard)).

    Total for all inputs; the guard keeps fj = 0 finite.
    """
    return max(alpha, fi / (fj + guard))


class TrainingProblem:
    """Member sets and their loss weights.

    Samples live in one pooled (n, p) matrix and each member set is an
    index array into it, so a sample shared by several member sets is
    stored once. `from_member_sets` accepts the plain one-list-per-class
    form and pools it.
    """

    def __init__(self, samples, member_sets, class_weights=None):
        self.samples = np.ascontiguousarray(samples, dtype=np.float64)
        if (self.samples.ndim != 2 or self.samples.shape[0] == 0
                or self.samples.shape[1] == 0):
            raise ValueError("samples must be a non-empty (n, p) matrix")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples must be finite")
        n = self.samples.shape[0]
        sets = []
        for idx in member_sets:
            idx = np.asarray(idx, dtype=np.intp)
            if idx.size == 0:
                raise ValueError("every member set must be non-empty")
            if idx.min() < 0 or idx.max() >= n:
                raise ValueError("member set index out of range")
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
        if any(w <= 0 for w in weights):
            raise ValueError("class weights must be positive")
        self.class_weights = weights

    @classmethod
    def from_member_sets(cls, member_sets, class_weights=None):
        """Build a problem from one sample collection per class."""
        arrays = [np.atleast_2d(np.asarray(s, dtype=np.float64))
                  for s in member_sets]
        if not arrays:
            raise ValueError("need at least two member sets")
        dims = {a.shape[1] for a in arrays}
        if len(dims) != 1:
            raise ValueError(f"member sets disagree on feature dimension: {dims}")
        pooled = np.vstack(arrays)
        sets = []
        start = 0
        for a in arrays:
            sets.append(np.arange(start, start + a.shape[0]))
            start += a.shape[0]
        return cls(pooled, sets, class_weights)

    @property
    def m(self) -> int:
        return len(self.member_sets)

    @property
    def p(self) -> int:
        return self.samples.shape[1]


def loss_full(problem: TrainingProblem, model: QmsModel) -> float:
    """Weighted ratio loss of `model` on `problem`, summed directly.

    For every class i, every sample of member set i contributes
    ``w_i * max(alpha, f_i(x) / (f_j(x) + guard))`` for each j != i.
    """
    if model.m != problem.m:
        raise ValueError(f"model has {model.m} member functions, "
                         f"problem has {problem.m} member sets")
    if model.p != problem.p:
        raise ValueError(f"model expects dimension {model.p}, "
                         f"problem has {problem.p}")
    hp = model.hyperparams
    values = model.member_values(problem.samples)
    total = 0.0
    for i, (idx, w) in enumerate(zip(problem.member_sets,
                                     problem.class_weights)):
        fi = values[idx, i]
        for j in range(problem.m):
            if j == i:
                continue
            ratio = fi / (values[idx, j] + hp.denom_guard)
            total += w * float(np.maximum(hp.alpha, ratio).sum())
    return total


def _initial_members(hp: HyperParams, p: int) -> tuple[MemberFunction, ...]:
    # every class starts identical: A zero, b = (b_init, 0, ..., 0)
    b = np.zeros(hp.q)
    b[0] = hp.b_init
    return tuple(MemberFunction(np.zeros((hp.q, p)), b.copy())
                 for _ in range(hp.m))


@dataclass(eq=False)
class _ClassBlock:
    """What the loss terms involving f_c read from the other classes,
    gathered once per class c and reused by every trial on it.
    """

    c: int
    alpha: float
    guard: float
    own: np.ndarray      # S_c
    w_own: float
    den: np.ndarray      # (m - 1, |S_c|), C order: f_j(x) + guard, x in S_c
    num_at: np.ndarray   # S_j for each j != c, concatenated
    num: np.ndarray      # f_j(x) along num_at
    num_w: np.ndarray    # w_j along num_at
    total: float = 0.0   # terms() of the cached f_c
    tried: dict = field(default_factory=dict)  # (entry, delta) -> terms

    def terms(self, fc: np.ndarray):
        """Sum of the loss terms that involve f_c, for member values fc."""
        over = fc.take(self.own) / self.den         # f_c on top
        np.maximum(self.alpha, over, out=over)
        under = (fc + self.guard).take(self.num_at)  # f_c below
        np.divide(self.num, under, out=under)
        np.maximum(self.alpha, under, out=under)
        under *= self.num_w
        return self.w_own * over.sum() + under.sum()


def _moved(fc: np.ndarray, h, usq, delta: float) -> np.ndarray:
    # f_c after one entry moves by delta; see ResidualCache
    f_new = h * (2.0 * delta)
    f_new += fc
    f_new += usq * (delta * delta)
    np.maximum(f_new, 0.0, out=f_new)
    return f_new


class ResidualCache:
    """Residuals r_i(x) = A_i x - b_i and member values for every class
    and pooled sample, kept consistent under single-entry updates.

    Perturbing A_i[k, l] by delta shifts r_i(x)[k] by delta * x[l], so

        f_i'(x) = f_i(x) + 2 * delta * x[l] * r_i(x)[k] + delta^2 * x[l]^2

    (for b_i[k] the shift is -delta). Only loss terms involving f_i are
    revisited: the numerator terms of member set i and the terms where
    f_i sits in a denominator.

    Training perturbs one class c at a time, and meanwhile only f_c moves.
    So the cache keeps a block for the class last queried, gathered once
    per class: the denominators f_j(x) + guard over member set c as one
    (m - 1, |S_c|) array, the other classes' numerators f_j(x), x in S_j,
    with their weights, and the current sum of the terms involving f_c.
    A trial then reads only the new f_c: one gather of it and O(m * n)
    arithmetic. Applying a move the block has just evaluated makes that
    trial's sum the block's sum; any other move drops the block.
    """

    def __init__(self, problem: TrainingProblem, model: QmsModel):
        if model.m != problem.m or model.p != problem.p:
            raise ValueError("model and problem shapes disagree")
        self.problem = problem
        self.hp = model.hyperparams
        self._xt = np.ascontiguousarray(problem.samples.T)     # (p, n)
        self._xt_sq = self._xt * self._xt
        self._a = np.stack([f.a for f in model.members]).copy()  # (m, q, p)
        self._b = np.stack([f.b for f in model.members]).copy()  # (m, q)
        # residuals as (m, q, n) so one matrix row is contiguous
        self._r = np.einsum("mqp,pn->mqn", self._a, self._xt)
        self._r -= self._b[:, :, None]
        self._f = np.einsum("mqn,mqn->mn", self._r, self._r)     # (m, n)
        self._block: _ClassBlock | None = None
        self._loss = self._terms_total()

    @property
    def loss(self) -> float:
        """Current loss, tracked incrementally across accepted moves."""
        return self._loss

    def _terms_total(self) -> float:
        hp = self.hp
        total = 0.0
        for c in range(self.problem.m):
            ratios = np.maximum(hp.alpha, self._f[c, self.problem.member_sets[c]]
                                / self._denominators(c))
            total += self.problem.class_weights[c] * float(ratios.sum())
        return total

    def _denominators(self, c: int) -> np.ndarray:
        # f_j(x) + guard for x in S_c, one row per j != c. take returns C
        # order, so sums over it always run row by row.
        others = [j for j in range(self.problem.m) if j != c]
        return (self._f[others].take(self.problem.member_sets[c], axis=1)
                + self.hp.denom_guard)

    def _class_block(self, c: int) -> _ClassBlock:
        block = self._block
        if block is None or block.c != c:
            problem = self.problem
            others = [j for j in range(problem.m) if j != c]
            sets = [problem.member_sets[j] for j in others]
            block = _ClassBlock(
                c=c, alpha=self.hp.alpha, guard=self.hp.denom_guard,
                own=problem.member_sets[c], w_own=problem.class_weights[c],
                den=self._denominators(c),
                num_at=np.concatenate(sets),
                num=np.concatenate([self._f[j, s] for j, s in zip(others, sets)]),
                num_w=np.repeat([problem.class_weights[j] for j in others],
                                [s.size for s in sets]))
            block.total = block.terms(self._f[c])
            self._block = block
        return block

    def _perturbation(self, class_i: int, entry: EntryRef):
        # returns (k, h, usq): f_new = f + 2*delta*h + delta^2*usq
        if entry[0] == "a":
            _, k, l = entry
            return k, self._xt[l] * self._r[class_i, k], self._xt_sq[l]
        if entry[0] == "b":
            _, k = entry
            return k, -self._r[class_i, k], 1.0
        raise ValueError(f"unknown entry locator {entry!r}")

    def _deltas(self, class_i: int, entry: EntryRef, deltas):
        block = self._class_block(class_i)
        _, h, usq = self._perturbation(class_i, entry)
        fc = self._f[class_i]
        block.tried = {}
        out = []
        for d in deltas:
            new = block.tried[entry, d] = block.terms(_moved(fc, h, usq, d))
            out.append(float(new - block.total))
        return out

    def loss_delta(self, class_i: int, entry: EntryRef, delta: float) -> float:
        """Loss change from adding `delta` to one entry of class `class_i`,
        without applying it. Exact zero for delta = 0.
        """
        return self._deltas(class_i, entry, (delta,))[0]

    def apply(self, class_i: int, entry: EntryRef, delta: float, loss_delta: float):
        """Commit a move: update the parameter, residuals, member values,
        and the tracked loss.
        """
        k, h, usq = self._perturbation(class_i, entry)
        self._f[class_i] = _moved(self._f[class_i], h, usq, delta)
        if entry[0] == "a":
            self._a[class_i, k, entry[2]] += delta
            self._r[class_i, k] += delta * self._xt[entry[2]]
        else:
            self._b[class_i, k] += delta
            self._r[class_i, k] -= delta
        self._loss += loss_delta
        # a trial of this very move saw the same f_new, so its sum is the
        # block's new sum; after any other move the block is stale
        block, self._block = self._block, None
        if block is not None and block.c == class_i:
            total = block.tried.get((entry, delta))
            if total is not None:
                block.total, block.tried = total, {}
                self._block = block

    def members(self) -> tuple[MemberFunction, ...]:
        """Snapshot of the current member functions."""
        return tuple(MemberFunction(self._a[i].copy(), self._b[i].copy())
                     for i in range(self.problem.m))

    def max_relative_drift(self) -> float:
        """Worst relative deviation of cached state from a recomputation."""
        r_exact = np.einsum("mqp,pn->mqn", self._a, self._xt)
        r_exact -= self._b[:, :, None]
        f_exact = np.einsum("mqn,mqn->mn", r_exact, r_exact)
        f_err = np.abs(self._f - f_exact) / np.maximum(np.abs(f_exact), 1.0)
        r_err = np.abs(self._r - r_exact) / np.maximum(np.abs(r_exact), 1.0)
        return float(max(f_err.max(), r_err.max()))


def cpm_optimize(problem: TrainingProblem, hp: HyperParams,
                 on_accept: Callable | None = None,
                 verify_cache: bool = False) -> QmsModel:
    """Train a model by coordinate perturbation.

    Every sweep visits each class in order; within a class, each entry of
    A row by row, then each entry of b top to bottom. At each entry the
    loss change of +/- one step is evaluated incrementally and the larger
    strict decrease is kept (ties prefer +step); otherwise the entry is
    left alone. Steps are constant, there is no line search, and each
    entry is touched once per sweep, so the run is fully deterministic.

    Args:
        problem: member sets and weights.
        hp: hyperparameters; hp.m must match the problem.
        on_accept: diagnostic hook called as
            on_accept(sweep, class_i, entry, delta, loss) after each
            accepted move.
        verify_cache: when true, check the residual cache against a full
            recomputation after every sweep (slow; tests only).

    Returns:
        The trained QmsModel. iterations=0 returns the initial model
        (A zero, b = (b_init, 0, ..., 0)).
    """
    if hp.m != problem.m:
        raise ValueError(f"hp.m = {hp.m} but problem has {problem.m} member sets")
    model0 = QmsModel(_initial_members(hp, problem.p), hp)
    cache = ResidualCache(problem, model0)
    p = problem.p
    for sweep in range(hp.iterations):
        for c in range(hp.m):
            for k in range(hp.q):
                for l in range(p):
                    _consider(cache, sweep, c, ("a", k, l), hp.step_a, on_accept)
            for k in range(hp.q):
                _consider(cache, sweep, c, ("b", k), hp.step_b, on_accept)
        if verify_cache and cache.max_relative_drift() > 1e-9:
            raise AssertionError("residual cache drifted beyond 1e-9")
    return QmsModel(cache.members(), hp)


def _consider(cache: ResidualCache, sweep: int, class_i: int, entry: EntryRef,
              step: float, on_accept) -> None:
    d_plus, d_minus = cache._deltas(class_i, entry, (step, -step))
    if d_plus <= d_minus:
        delta, d = step, d_plus
    else:
        delta, d = -step, d_minus
    if d < 0.0:
        before = cache.loss
        cache.apply(class_i, entry, delta, d)
        if not cache.loss < before:
            raise RuntimeError(f"accepted move {entry!r} of class {class_i} "
                               f"did not decrease the loss ({before!r} -> "
                               f"{cache.loss!r})")
        if on_accept is not None:
            on_accept(sweep, class_i, entry, delta, cache.loss)
