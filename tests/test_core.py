"""Member functions, the ratio loss, the residual cache, and the trainer."""

import dataclasses
import itertools
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qms22 import (HyperParams, MemberFunction, OverflowingSampleError,
                   QmsModel, SsadProblem, TrainingProblem, build_member_sets,
                   cpm_optimize, cpm_optimize_many, loss_full, outlier_scores)
from qms22 import core
from qms22.core import ResidualCache, _initial_members, _ratio_loss

from oracles import (class_terms, clipped_evaluation, cpm_reference, deltas,
                     from_member_sets, guards, loss_direct,
                     max_relative_drift, member_value, trial_rows)
from test_golden import _ssad_problem


def constant_member(value, q=2, p=2):
    """A member function with f(x) = value for every x."""
    b = np.zeros(q)
    b[0] = np.sqrt(value)
    return MemberFunction(np.zeros((q, p)), b)


def value_at(f, x):
    """f(x) for the (p,) row x, by `QmsModel.member_values` of a model
    whose two member functions are both f."""
    return QmsModel((f, f), HyperParams(m=2, q=f.q)).member_values(x)[0, 0]


def random_instance(rng, m=None, q=None, p=None, max_samples=8):
    m = m or int(rng.integers(2, 5))
    q = q or int(rng.integers(1, 4))
    p = p or int(rng.integers(1, 5))
    sets = [rng.normal(size=(int(rng.integers(1, max_samples + 1)), p))
            for _ in range(m)]
    weights = rng.uniform(0.2, 2.0, size=m)
    hp = HyperParams(m=m, q=q, alpha=float(rng.uniform(0.0, 0.9)))
    members = tuple(MemberFunction(rng.normal(size=(q, p)), rng.normal(size=q))
                    for _ in range(m))
    problem = from_member_sets(sets, weights)
    return problem, QmsModel(members, hp)


def with_steps(model, step_a, step_b=None):
    """`model` with step_a, and step_b (step_a unless given), as the steps
    of its hyperparameters, for a residual cache whose trials try them."""
    hp = dataclasses.replace(model.hyperparams, step_a=step_a,
                             step_b=step_a if step_b is None else step_b)
    return QmsModel(model.members, hp)


def column_step(cache, l):
    """The step a residual cache tries on column l of W = [A | b]: step_b
    for b, the last column, else step_a."""
    return cache.hp.step_b if l == len(cache._xa) - 1 else cache.hp.step_a


def direct_loss(problem, members, hp):
    """`oracles.loss_direct` of the member functions on a pooled problem."""
    return loss_direct([problem.samples[idx] for idx in problem.member_sets],
                       problem.class_weights, [(f.a, f.b) for f in members],
                       hp.alpha, hp.denom_guard)


class TestMemberFunction:
    def test_identity_matrix_squared_norm(self):
        f = MemberFunction(np.eye(2), np.zeros(2))
        assert value_at(f, [3.0, 4.0]) == 25.0

    def test_zero_function_is_zero(self):
        f = MemberFunction(np.zeros((3, 2)), np.zeros(3))
        assert value_at(f, [17.0, -8.0]) == 0.0

    def test_initial_offset_value(self):
        # the default starting point: A zero, b = (25500, 0, ..., 0)
        b = np.zeros(10)
        b[0] = 25500.0
        f = MemberFunction(np.zeros((10, 4)), b)
        assert value_at(f, [1.0, 2.0, 3.0, 4.0]) == 650_250_000.0

    def test_dimension_mismatch_names_sizes(self):
        f = MemberFunction(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match=r"^samples: expected feature "
                                             r"dimension 3 as a \(3,\) row "
                                             r"or an \(n, 3\) batch, got "
                                             r"shape \(2,\)$"):
            value_at(f, [1.0, 2.0])

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            MemberFunction(np.array([[np.nan]]), np.zeros(1))

    @pytest.mark.parametrize("a, b", [((2,), (2,)), ((2, 3), (2, 1)),
                                      ((2, 3), (3,)), ((1, 2, 3), (1,)),
                                      ((2, 0), (2,)), ((0, 3), (0,))],
                             ids=str)
    def test_rejects_mismatched_shapes(self, a, b):
        with pytest.raises(ValueError, match=re.escape(
                f"got shapes {a} and {b}")):
            MemberFunction(np.zeros(a), np.zeros(b))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2))
    def test_never_negative(self, x):
        f = MemberFunction(np.array([[1.0, -2.0], [0.5, 3.0]]),
                           np.array([4.0, -1.0]))
        assert value_at(f, x) >= 0.0

    def test_member_values_and_evaluate_match_oracle(self):
        rng = np.random.default_rng(11)
        # (m, q, p, n), the edges q = 1, p = 1 and n = 1 first
        shapes = [(2, 1, 1, 1), (3, 1, 4, 5), (2, 3, 1, 6), (4, 2, 3, 1)]
        shapes += [tuple(int(v) for v in rng.integers([2, 1, 1, 1], 8))
                   for _ in range(12)]
        for m, q, p, n in shapes:
            members = tuple(MemberFunction(rng.normal(size=(q, p)),
                                           rng.normal(scale=5.0, size=q))
                            for _ in range(m))
            x = rng.normal(scale=5.0, size=(n, p))
            values = QmsModel(members, HyperParams(m=m, q=q)).member_values(x)
            assert values.shape == (n, m) and values.flags.c_contiguous
            for s, row in enumerate(x):
                for i, f in enumerate(members):
                    want = member_value(f.a, f.b, row)
                    for got in (values[s, i], value_at(f, row)):
                        assert abs(got - want) <= 1e-12 * want


    @pytest.mark.parametrize("shape", [(2, 3, 3), (1, 1, 3), (), (2,),
                                       (4, 2), (0,)], ids=str)
    def test_member_values_takes_a_row_or_a_batch(self, shape):
        model = QmsModel(tuple(constant_member(v, p=3) for v in (1.0, 2.0)),
                         HyperParams(m=2, q=2))
        assert model.member_values(np.ones(3)).shape == (1, 2)
        assert model.member_values(np.ones((0, 3))).shape == (0, 2)
        with pytest.raises(ValueError, match=rf"\(n, 3\) batch, got shape "
                                             rf"{re.escape(str(shape))}$"):
            model.member_values(np.ones(shape))


class TestQmsModel:
    def test_rejects_wrong_member_count_or_mixed_shapes(self):
        hp = HyperParams(m=2, q=2)
        with pytest.raises(ValueError, match="expected 2 member functions, "
                                             "got 3"):
            QmsModel(tuple(constant_member(1.0) for _ in range(3)), hp)
        with pytest.raises(ValueError, match="member functions disagree on "
                                             "shape"):
            QmsModel((constant_member(1.0), constant_member(1.0, p=3)), hp)


class TestClassify:
    def model_with_values(self, values, alpha=0.5):
        hp = HyperParams(m=len(values), q=2, alpha=alpha)
        members = tuple(constant_member(v) for v in values)
        return QmsModel(members, hp)

    def test_unique_argmin(self):
        model = self.model_with_values([2.0, 5.0, 5.0])
        assert model.classify([0.0, 0.0]) == 1

    def test_tie_breaks_to_lowest_index(self):
        model = self.model_with_values([3.0, 3.0, 7.0])
        assert model.classify([1.0, 1.0]) == 1

    def test_full_tie_fresh_model(self):
        # a brand-new model has identical members, so everything is class 1
        model = self.model_with_values([650250000.0] * 4)
        assert model.classify([9.0, -2.0]) == 1

    def test_labels_cover_all_classes(self):
        model = self.model_with_values([5.0, 1.0, 3.0])
        assert model.classify([0.0, 0.0]) == 2

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2, 3), (), (2,),
                                       (1, 1, 3)], ids=str)
    def test_classify_takes_one_row(self, shape):
        model = QmsModel(tuple(constant_member(v, p=3) for v in (1.0, 2.0)),
                         HyperParams(m=2, q=2))
        with pytest.raises(ValueError, match=rf"\(3,\) row, got shape "
                                             rf"{re.escape(str(shape))}$"):
            model.classify(np.ones(shape))

    @given(st.floats(0.1, 100.0))
    def test_scaling_invariance(self, c):
        # scaling every (A, b) by c > 0 scales all f by c^2; argmin unmoved
        rng = np.random.default_rng(3)
        hp = HyperParams(m=3, q=2)
        members = tuple(MemberFunction(rng.normal(size=(2, 2)),
                                       rng.normal(size=2)) for _ in range(3))
        scaled = tuple(MemberFunction(c * f.a, c * f.b) for f in members)
        x = rng.normal(size=2)
        assert (QmsModel(members, hp).classify(x)
                == QmsModel(scaled, hp).classify(x))


class TestLossFull:
    def one_sample_loss(self, f1, f2, alpha):
        # one sample in both member sets: the loss is the two terms
        # max(alpha, f1 / (f2 + guard)) + max(alpha, f2 / (f1 + guard))
        x = np.array([[1.0, 2.0]])
        problem = from_member_sets([x, x])
        hp = HyperParams(m=2, q=2, alpha=alpha)
        model = QmsModel((constant_member(f1), constant_member(f2)), hp)
        return loss_full(problem, model)

    def test_clipped_at_alpha(self):
        # 1/4 is clipped up to alpha; unclipped the sum would be 4.25
        assert self.one_sample_loss(1.0, 4.0, 0.5) == pytest.approx(4.5)

    def test_ratio_above_alpha(self):
        # both ratios, 2 and 1/2, are above alpha and kept as they are
        assert self.one_sample_loss(4.0, 2.0, 0.4) == pytest.approx(2.5)

    def test_zero_denominator_stays_finite(self):
        # 1 / (0 + guard) = 1e12; 0 / (1 + guard) is clipped to alpha
        value = self.one_sample_loss(1.0, 0.0, 0.5)
        assert value == pytest.approx(1e12 + 0.5)
        assert np.isfinite(value)

    def test_symmetric_two_classes(self):
        x = np.array([[1.0, 2.0]])
        problem = from_member_sets([x, x])
        hp = HyperParams(m=2, q=2, alpha=0.0)
        model = QmsModel((constant_member(3.0), constant_member(3.0)), hp)
        assert loss_full(problem, model) == pytest.approx(2.0, rel=1e-9)

    def test_symmetric_three_classes_single_sample(self):
        x = np.array([[1.0, 2.0]])
        problem = from_member_sets([x, x, x])
        hp = HyperParams(m=3, q=2, alpha=0.0)
        model = QmsModel(tuple(constant_member(1.0) for _ in range(3)), hp)
        assert loss_full(problem, model) == pytest.approx(6.0, rel=1e-9)

    def test_identical_members_count_ordered_pairs(self):
        # all ratios are 1, so the loss is |set| * m * (m - 1)
        rng = np.random.default_rng(11)
        for m in (2, 3, 4):
            sizes = rng.integers(1, 6, size=m)
            sets = [rng.normal(size=(s, 3)) for s in sizes]
            problem = from_member_sets(sets)
            hp = HyperParams(m=m, q=2, alpha=0.0)
            model = QmsModel(tuple(constant_member(2.0, p=3)
                                   for _ in range(m)), hp)
            expected = float(sizes.sum()) * (m - 1)
            assert loss_full(problem, model) == pytest.approx(expected, rel=1e-9)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            problem, model = random_instance(rng)
            mine = loss_full(problem, model)
            ref = direct_loss(problem, model.members, model.hyperparams)
            assert mine == pytest.approx(ref, rel=1e-10)

    def test_class_count_mismatch(self):
        x = np.array([[1.0, 2.0]])
        problem = from_member_sets([x, x, x])
        hp = HyperParams(m=2, q=2)
        model = QmsModel((constant_member(1.0), constant_member(1.0)), hp)
        with pytest.raises(ValueError, match="member sets"):
            loss_full(problem, model)

    def test_dimension_mismatch(self):
        x = np.array([[1.0, 2.0, 3.0]])
        problem = from_member_sets([x, x])
        model = QmsModel((constant_member(1.0), constant_member(1.0)),
                         HyperParams(m=2, q=2))
        with pytest.raises(ValueError, match="expected feature dimension 2"):
            loss_full(problem, model)


class TestTrainingProblem:
    def test_rejects_empty_member_set(self):
        with pytest.raises(ValueError, match="non-empty"):
            TrainingProblem(np.ones((3, 2)), [np.array([0, 1]), np.array([], dtype=int)])

    def test_rejects_repeated_index_in_a_member_set(self):
        with pytest.raises(ValueError, match="member set 0 repeats"):
            TrainingProblem(np.eye(3), [[0, 0, 1], [2]])
        # a sample may still sit in several member sets
        TrainingProblem(np.eye(3), [[0, 1, 2], [2, 0]])

    def test_rejects_non_integer_or_non_1d_member_set(self):
        for sets, i in (([[0.9, 1.7], [2]], 0),   # would truncate to 0, 1
                        ([[0, 1], [2.0]], 1),
                        ([[[0, 1]], [2]], 0),     # 2-D
                        ([[0, 1], np.array([True, False, True])], 1)):
            with pytest.raises(ValueError, match=f"member set {i} must be a "
                                                 f"1-D array of integer"):
                TrainingProblem(np.eye(3), sets)
        # unsigned and fixed-width integer indices are fine
        TrainingProblem(np.eye(3), [np.array([0, 1], dtype=np.uint8),
                                    np.array([2], dtype=np.int32)])

    def test_rejects_nonpositive_weight(self):
        x = np.ones((2, 2))
        # NaN and inf too: a NaN loss would decline every trial
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="class weight 1 must be "
                                                 "finite and positive"):
                from_member_sets([x, x], (1.0, bad))
            with pytest.raises(ValueError, match="class weight 0 "):
                TrainingProblem(np.eye(4), [[0, 1], [2, 3]], (bad, 1.0))

    @pytest.mark.parametrize("make, message", [
        (lambda: TrainingProblem(np.eye(3), [[0, 3], [1]]),
         "member set index out of range"),
        (lambda: TrainingProblem(np.eye(3), [[0], [-1]]),
         "member set index out of range"),
        (lambda: TrainingProblem(np.eye(3), [[0], [1]], (1.0,)),
         "got 1 weights for 2 member sets"),
        (lambda: TrainingProblem(np.eye(3), [[0, 1, 2]]),
         "need at least two member sets"),
        (lambda: from_member_sets([np.eye(3)]),
         "need at least two member sets"),
        (lambda: from_member_sets([]),
         "need at least two member sets"),
        (lambda: TrainingProblem(np.ones((0, 2)), [[0], [0]]),
         "samples must be non-empty"),
    ], ids=["index-high", "index-negative", "weight-count", "one-set",
            "one-set-per-class-form", "no-sets-per-class-form",
            "no-samples"])
    def test_rejects_bad_indices_weights_and_set_counts(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            from_member_sets([np.ones((2, 2)), np.ones((2, 3))])

    def test_pooled_and_per_class_forms_agree(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(3, 2))
        split = from_member_sets([a, b])
        pooled = TrainingProblem(np.vstack([a, b]),
                                 [np.arange(4), np.arange(4, 7)])
        hp = HyperParams(m=2, q=2)
        members = tuple(MemberFunction(rng.normal(size=(2, 2)),
                                       rng.normal(size=2)) for _ in range(2))
        model = QmsModel(members, hp)
        assert loss_full(split, model) == loss_full(pooled, model)


def two_members(p=2):
    return QmsModel((constant_member(1.0, p=p), constant_member(2.0, p=p)),
                    HyperParams(m=2, q=2))


GOOD = np.ones((3, 2))

# every entry point that takes sample input: (the name its errors give the
# input, whether it takes one (p,) row, a call that passes the input)
SAMPLE_ENTRY_POINTS = {
    "member_values": ("samples", False,
                      lambda x: two_members().member_values(x)),
    "classify": ("x", True, lambda x: two_members().classify(x)),
    # the (p,) row forms of member_values and outlier_scores, which
    # replaced the one-row MemberFunction.evaluate and ssad.outlier_score
    "evaluate": ("samples", True, lambda x: two_members().member_values(x)),
    "outlier_score": ("samples", True,
                      lambda x: outlier_scores(two_members(), x)),
    "outlier_scores": ("samples", False,
                       lambda x: outlier_scores(two_members(), x)),
    "TrainingProblem": ("samples", False,
                        lambda x: TrainingProblem(x, [[0], [0]])),
    "from_member_sets-first": ("member set 0", False,
                               lambda x: from_member_sets(
                                   [x, GOOD])),
    "from_member_sets-later": ("member set 1", False,
                               lambda x: from_member_sets(
                                   [GOOD, x])),
    "SsadProblem-train": ("train_normals", False,
                          lambda x: SsadProblem(x, GOOD)),
    "SsadProblem-test": ("test_samples", False,
                         lambda x: SsadProblem(GOOD, x)),
}

# sample input that no entry point takes, for p = 2; an entry point that
# takes one row gets a one-row batch as that row
BAD_SAMPLES = {
    "3-D": np.ones((2, 1, 2)),
    "wrong-length": np.ones(3),
    "no-features": np.ones((1, 0)),
    "nan": np.array([[1.0, np.nan]]),
    "+inf": np.array([[np.inf, 1.0]]),
    "-inf": np.array([[1.0, -np.inf]]),
}

# sample input that does not convert to float64, as a batch and as one
# row: an entry that is not a number, named by its position, and entries
# of unequal shapes, lists or arrays, called ragged
NOT_NUMBERS = {
    "string": ([[1.0, "a"]], [1.0, "a"]),
    "ragged-lists": ([[1.0], [2.0, 3.0]], [1.0, [2.0, 3.0]]),
    "ragged-arrays": ([np.ones((2, 2)), np.ones((2, 3))],
                      [np.ones(2), np.ones(3)]),
}


class TestSampleInput:
    @pytest.mark.parametrize("bad", NOT_NUMBERS)
    @pytest.mark.parametrize("entry", SAMPLE_ENTRY_POINTS)
    def test_entries_that_are_not_numbers_named(self, entry, bad):
        name, one_row, call = SAMPLE_ENTRY_POINTS[entry]
        batch, row = NOT_NUMBERS[bad]
        message = (" is ragged: its entries are not all of one shape"
                   if bad.startswith("ragged") else
                   "[1] is 'a', not a number" if one_row else
                   "[0, 1] is 'a', not a number")
        with pytest.raises(ValueError, match=f"^{re.escape(name + message)}$"):
            call(row if one_row else batch)

    @pytest.mark.parametrize("bad", BAD_SAMPLES)
    @pytest.mark.parametrize("entry", SAMPLE_ENTRY_POINTS)
    def test_bad_samples_rejected_naming_the_input(self, entry, bad):
        name, one_row, call = SAMPLE_ENTRY_POINTS[entry]
        x = BAD_SAMPLES[bad]
        if one_row and x.ndim == 2 and len(x) == 1:
            x = x[0]
        # the shape when it is wrong, else the first value that is not finite
        got = (f"got shape {x.shape}" if np.isfinite(x).all() else
               f"non-finite {x[~np.isfinite(x)][0]} at row 0")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(name)}: .*{re.escape(got)}"):
            call(x)


class TestResidualCache:
    def test_delta_matches_full_recompute(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            problem, model = random_instance(rng)
            hp = model.hyperparams
            base = loss_full(problem, model)
            q, p = model.members[0].q, problem.p
            ci = int(rng.integers(0, problem.m))
            # l == p is b[k]
            if rng.random() < 0.5:
                k, l = int(rng.integers(0, q)), int(rng.integers(0, p))
            else:
                k, l = int(rng.integers(0, q)), p
            step = float(rng.normal())
            # the cache tries +|step| and -|step|: [down, up] for step < 0
            cache = ResidualCache(problem, with_steps(model, abs(step)))
            [pair] = deltas(cache, ci, k, l)
            for got, delta in zip(pair[::-1] if step < 0 else pair,
                                  (step, -step)):
                perturbed = [[f.a.copy(), f.b.copy()] for f in model.members]
                if l < p:
                    perturbed[ci][0][k, l] += delta
                else:
                    perturbed[ci][1][k] += delta
                new_model = QmsModel(tuple(MemberFunction(a, b)
                                           for a, b in perturbed), hp)
                want = loss_full(problem, new_model) - base
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_symmetric_point_resists_single_moves(self):
        # with every member identical and every ratio at 1, any single
        # entry move is (numerically) non-improving
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3))
        problem = from_member_sets([x, x, x])
        hp = HyperParams(m=3, q=2, alpha=0.0, step_a=0.05, step_b=0.05)
        members = tuple(MemberFunction(np.ones((2, 3)), np.full(2, 2.0))
                        for _ in range(3))
        cache = ResidualCache(problem, QmsModel(members, hp))
        for ci in range(3):
            for k, l in ((0, 1), (1, 2), (0, 3), (1, 3)):
                [[up, down]] = deltas(cache, ci, k, l)
                assert up >= -1e-9 and down >= -1e-9

    def test_cache_tracks_applied_moves(self):
        rng = np.random.default_rng(29)
        problem, model = random_instance(rng, m=3, q=2, p=3)
        step_a, step_b = rng.uniform(0.1, 2, size=2)
        cache = ResidualCache(problem, with_steps(model, step_a, step_b))
        moved = 0
        for _ in range(40):
            ci = int(rng.integers(0, 3))
            k, l = int(rng.integers(0, 2)), int(rng.integers(0, 4))
            moved += len(cache.try_entry(ci, k, l))
        assert moved > 0
        assert max_relative_drift(cache) <= 1e-9
        rebuilt = QmsModel(cache.members(), model.hyperparams)
        assert cache.losses[0] == pytest.approx(loss_full(problem, rebuilt),
                                                rel=1e-9)

    def test_drift_is_inf_when_a_sample_leaves_its_piece(self):
        rng = np.random.default_rng(29)
        problem, model = random_instance(rng, m=3, q=2, p=3)
        cache = ResidualCache(problem, with_steps(model, 0.5))
        deltas(cache, 1, 0, 0)   # stores class 1's pieces
        assert max_relative_drift(cache) <= 1e-9
        cache._piece[1, :, 0] = cache._piece[0, :, 0]   # hi' = lo' holds no f_c
        assert max_relative_drift(cache) == float("inf")

    def test_try_entry_commits_the_larger_strict_decrease(self):
        rng = np.random.default_rng(37)
        problem, model = random_instance(rng, m=3, q=2, p=3)
        cache = ResidualCache(problem, with_steps(model, 0.5))
        for ci, k, l in ((1, 0, 2), (0, 1, 3), (2, 1, 0), (1, 0, 2)):
            [[up, down]] = deltas(cache, ci, k, l)
            before = cache.members()[ci]
            loss = cache.losses[0]
            moved = cache.try_entry(ci, k, l)
            if min(up, down) >= 0.0:
                assert moved == []
                continue
            delta = 0.5 if up <= down else -0.5
            assert moved == [(0, delta, loss + min(up, down))]
            after = cache.members()[ci]
            if l < problem.p:
                assert after.a[k, l] == before.a[k, l] + delta
            else:
                assert after.b[k] == before.b[k] + delta

    def test_deltas_changes_nothing(self):
        trainings, hp = ssad_trainings([(221, 60, 20), (222, 75, 15)])
        hp = dataclasses.replace(hp, step_a=1.0, step_b=1.0)
        model = QmsModel(_initial_members(hp, trainings[0].p), hp)
        probed, fresh = (ResidualCache(trainings, model) for _ in range(2))
        for cache in probed, fresh:
            cache.try_entry(0, 0, 0)
        losses = list(probed.losses)
        for _ in range(2):
            for entry in ((0, 1, 2), (3, 0, 6), (0, 1, 2)):
                deltas(probed, *entry)
        assert probed.losses == losses
        for i in range(2):
            assert model_bytes(QmsModel(probed.members(i), hp)) == \
                model_bytes(QmsModel(fresh.members(i), hp))
        moved = probed.try_entry(0, 0, 1)
        assert moved and moved == fresh.try_entry(0, 0, 1)


def check_piece_sums(cache, c, fc):
    """Each problem's piece sums for class c at the two rows of member
    values fc (2, n), written into the trial's rows, against
    `oracles.class_terms` of the same member values clipped at 0, and
    every value inside the piece it was evaluated on; returns the (rows,
    samples) that left their stored piece, or None."""
    cache._gather(c)
    cache._fc[...] = fc
    sums, left = cache._evaluate()
    fc = np.maximum(fc, 0.0)
    assert cache._fc.tobytes() == fc.tobytes()
    lo, hi = cache._piece[:2]   # the guards, a row per step sign
    assert ((lo < fc) & (fc < hi)).all()
    for i, (problem, seg) in enumerate(zip(cache.problems, cache._segments)):
        for row in range(2):
            f = cache._f[:, seg].copy()
            f[c] = fc[row, seg]
            want = class_terms(problem, cache.hp, f, c)
            assert sums[row, i] == pytest.approx(want, rel=1e-12)
    return left


def check_deltas(cache, c, k, l):
    """`deltas` of (c, k, l) against `oracles.loss_direct` before and
    after each move of the column's step, to 1e-12 of the larger loss,
    for every problem."""
    step = column_step(cache, l)
    for i, pair in enumerate(deltas(cache, c, k, l)):
        problem, members = cache.problems[i], cache.members(i)
        base = direct_loss(problem, members, cache.hp)
        for got, delta in zip(pair, (step, -step)):
            w = [np.column_stack([f.a, f.b]) for f in members]
            w[c][k, l] += delta
            moved = [MemberFunction(x[:, :-1], x[:, -1]) for x in w]
            after = direct_loss(problem, moved, cache.hp)
            assert got == pytest.approx(after - base, rel=0,
                                        abs=1e-12 * max(base, after))


@pytest.mark.bitwise
class TestLossPieces:
    def test_terms_of_every_class_count_each_term_twice(self):
        # every term involves two classes, so the class sums add up to 2L
        rng = np.random.default_rng(61)
        for _ in range(10):
            problem, model = random_instance(rng)
            f = model.member_values(problem.samples).T
            hp = model.hyperparams
            total = sum(class_terms(problem, hp, f, c)
                        for c in range(problem.m))
            assert total == pytest.approx(2 * _ratio_loss(problem, hp, f),
                                          rel=1e-12)

    def test_f_exactly_on_a_breakpoint(self):
        # row 0 puts f_c on an own breakpoint alpha * (f_j + g) wherever
        # x is in S_c, row 1 on a denominator breakpoint f_j / alpha - g
        # wherever x is in S_j, for one j != c
        rng = np.random.default_rng(67)
        for _ in range(20):
            problem, model = random_instance(rng, m=3)
            cache = ResidualCache(problem, model)
            hp, f = cache.hp, cache._f
            c = int(rng.integers(0, 3))
            j = (c + 1) % 3
            fc = f[[c, c]].copy()
            own = problem.member_sets[c]
            fc[0, own] = hp.alpha * (f[j, own] + hp.denom_guard)
            den = problem.member_sets[j]
            fc[1, den] = f[j, den] / hp.alpha - hp.denom_guard
            # on the ends of the pieces that the gather stores: on lo it
            # leaves its piece, on hi it stays; the cache holds them as
            # guards
            cache._gather(c)
            n = f.shape[1]
            raw = pieces_from_values(cache, c, np.arange(n), f[c])
            for row in cache._piece.transpose(1, 0, 2):
                assert row.tobytes() == guards(raw).tobytes()
            lo, hi = raw[:2]
            ends = np.where(np.isfinite([lo, hi]), [lo, hi], f[[c, c]])
            left = check_piece_sums(cache, c, np.maximum(ends, 0.0))
            if np.isfinite(lo).any():
                assert left is not None and (left[0] == 0).all()
            check_piece_sums(cache, c, np.maximum(fc, 0.0))

    def test_step_clipped_to_zero(self):
        # f_c'(x) = f + 2 delta x r + delta^2 x^2 comes out at -5.6e-17 for
        # x = 2.3 before the clip at 0; the other samples keep f_c > 0
        x = np.array([[2.3], [1.0], [-0.5], [0.8]])
        problem = TrainingProblem(x, [[0, 1], [2, 3, 0]], (0.6, 1.7))
        hp = HyperParams(m=2, q=1, alpha=0.4, step_a=0.3, step_b=0.3)
        members = (MemberFunction([[1.1]], [(1.1 + 0.3) * 2.3]),
                   MemberFunction([[0.5]], [0.2]))
        cache = ResidualCache(problem, QmsModel(members, hp))
        r, f = 1.1 * 2.3 - (1.1 + 0.3) * 2.3, cache._f[0, 0]
        assert (2.3 * r) * (2.0 * 0.3) + f + (2.3 * 2.3) * (0.3 * 0.3) < 0.0
        f_new = cache._trial(0, 0, 0)[0]
        assert f_new[0, 0] == 0.0 and (f_new[:, 1:4] > 0.0).all()
        check_piece_sums(cache, 0, f_new)
        check_deltas(cache, 0, 0, 0)

    def test_alpha_zero_warns_nothing(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            problem, model = random_instance(rng)
            step_a, step_b = rng.uniform(0.7, 3.0, size=2)
            hp = HyperParams(m=problem.m, q=model.members[0].q, alpha=0.0,
                             step_a=step_a, step_b=step_b)
            cache = ResidualCache(problem, QmsModel(model.members, hp))
            with np.errstate(all="raise"):
                for c in range(problem.m):
                    check_deltas(cache, c, 0, problem.p)
                    cache.try_entry(c, 0, 0)
                    check_piece_sums(cache, c, cache._trial(c, 0, 0)[0])
                assert max_relative_drift(cache) <= 1e-9

    def test_rows_only_in_the_first_set(self):
        # as for the detector's test rows: the first set holds every
        # sample, the others only some of the rest, with weights != 1
        rng = np.random.default_rng(73)
        x = rng.normal(size=(12, 3))
        problem = TrainingProblem(x, [np.arange(12), [4, 5, 6, 7, 8],
                                      [7, 8, 9, 10, 11]], (0.25, 1.5, 3.0))
        hp = HyperParams(m=3, q=2, alpha=0.5, step_a=0.4, step_b=0.4)
        members = tuple(MemberFunction(rng.normal(size=(2, 3)),
                                       rng.normal(size=2)) for _ in range(3))
        cache = ResidualCache(problem, QmsModel(members, hp))
        for c in (1, 2):
            # while another class trains, a sample only in the first set
            # has one breakpoint, that of its denominator term
            cache._gather(c)
            raw = pieces_from_values(cache, c, np.arange(4), cache._f[c, :4])
            assert cache._piece[:, 0, :4].tobytes() == guards(raw).tobytes()
            lo, hi = raw[:2]
            assert (np.isinf(lo) != np.isinf(hi)).all()
        for c in range(3):
            for k, l in ((0, 0), (1, 3), (1, 2)):
                check_piece_sums(cache, c, cache._trial(c, k, l)[0])
                check_deltas(cache, c, k, l)
                cache.try_entry(c, k, l)
        assert max_relative_drift(cache) <= 1e-9

    def test_large_step_relocates_most_samples(self):
        rng = np.random.default_rng(79)
        problem, model = random_instance(rng, m=4, q=2, p=3, max_samples=12)
        cache = ResidualCache(problem, with_steps(model, 40.0))
        n = problem.samples.shape[0]
        for c in range(4):
            f_new, _, (rows, _) = cache._trial(c, 1, 3)
            assert rows.size > n   # of the 2n (row, sample) pairs
            check_piece_sums(cache, c, f_new)
            check_deltas(cache, c, 1, 3)

    def test_every_trial_leaves_the_pieces_of_its_rows(self):
        # a trial stores the new pieces of the samples that left theirs,
        # so after it, committed or not, each row of pieces is that of its
        # row of f_c' and the sums stay exact
        rng = np.random.default_rng(83)
        problem, model = random_instance(rng, m=3, q=2, p=3, max_samples=12)
        step_a, step_b = rng.uniform(0.1, 3.0, size=2)
        cache = ResidualCache(problem, with_steps(model, step_a, step_b))
        relocated = 0
        for _ in range(80):
            c = int(rng.integers(0, 3))
            k, l = int(rng.integers(0, 2)), int(rng.integers(0, 4))
            relocated += cache._trial(c, k, l)[2] is not None
            assert max_relative_drift(cache) <= 1e-9
            cache.try_entry(c, k, l)
            assert max_relative_drift(cache) <= 1e-9
        assert relocated > 0

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(2, 7), min_size=2, max_size=4, unique=True),
           st.tuples(st.floats(0.5, 40.0), st.floats(0.5, 40.0)),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                              st.integers(0, 2)),
                    min_size=1, max_size=12),
           st.integers(0, 2 ** 32 - 1))
    def test_every_trial_leaves_the_pieces_of_its_rows_in_one_cache(
            self, sizes, step_ab, trials, seed):
        # problems of unequal sizes in one cache: after each trial,
        # whichever problems commit +step, -step or nothing, each row of
        # the stored pieces has the bytes of the pieces of its row of f_c',
        # and each problem moves and tracks its loss as it does alone
        rng = np.random.default_rng(seed)
        hp = HyperParams(m=3, q=2, alpha=0.5, step_a=step_ab[0],
                         step_b=step_ab[1])
        model = QmsModel(tuple(MemberFunction(rng.normal(size=(2, 2)),
                                              rng.normal(size=2))
                               for _ in range(3)), hp)
        problems = [from_member_sets([rng.normal(size=(size, 2))
                                      for _ in range(3)],
                                     rng.uniform(0.2, 2.0, size=3))
                    for size in sizes]
        shared = ResidualCache(problems, model)
        alone = [ResidualCache(problem, model) for problem in problems]
        n = shared._segments[-1].stop
        for c, k, l in trials:
            moved = shared.try_entry(c, k, l)
            own = [cache.try_entry(c, k, l) for cache in alone]
            assert moved == [(i, delta, loss) for i, moves in enumerate(own)
                             for _, delta, loss in moves]
            assert shared.losses == [cache.losses[0] for cache in alone]
            for row, fc in enumerate(shared._fc):
                fresh = shared._pieces(slice(None), fc)[:, :n]
                assert shared._piece[:, row, :n].tobytes() == fresh.tobytes()

    def test_gather_whole_width_equals_gather_alone(self):
        # every sample's piece, and each problem's sum, has the bits of its
        # problem gathered alone and of one _pieces call over all n
        trainings, hp = ssad_trainings([(231, 420, 90), (232, 390, 70),
                                        (233, 360, 60)])
        model = QmsModel(_initial_members(hp, trainings[0].p), hp)
        shared = ResidualCache(trainings, model)
        alone = [ResidualCache(t, model) for t in trainings]
        n = shared._segments[-1].stop
        p = trainings[0].p
        for c in range(hp.m):
            for k, l in ((0, 0), (1, 3), (0, p)):
                for cache in (shared, *alone):
                    cache.try_entry(c, k, l)
        for c in range(hp.m):
            for cache in (shared, *alone):
                cache._gather(c)
            want = np.concatenate([a._piece[..., :t.samples.shape[0]]
                                   for a, t in zip(alone, trainings)], axis=2)
            assert shared._piece[..., :n].tobytes() == want.tobytes()
            assert shared._total == [a._total[0] for a in alone]
            whole = shared._pieces(np.arange(n), shared._f[c, :n])
            for row in shared._piece[..., :n].transpose(1, 0, 2):
                assert row.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("alpha", [0.5, 0.2])
    def test_table_pieces_equal_pieces_from_the_values(self, alpha):
        # across class switches and trials that relocate samples, each
        # new piece a trial reads from the class tables, and every stored
        # piece, has the bits of the guards of the piece computed from
        # its row of f_c', _f and _weight
        rng = np.random.default_rng(89)
        hp = HyperParams(m=4, q=2, alpha=alpha)
        members = tuple(MemberFunction(rng.normal(size=(2, 3)),
                                       rng.normal(size=2)) for _ in range(4))
        problems = [from_member_sets(
            [rng.normal(size=(int(rng.integers(3, 10)), 3))
             for _ in range(4)], rng.uniform(0.2, 2.0, size=4))
            for _ in range(3)]
        step_a, step_b = rng.uniform(0.1, 3.0, size=2)
        cache = ResidualCache(problems, with_steps(QmsModel(members, hp),
                                                   step_a, step_b))
        n = cache._f.shape[1]
        relocated = switches = 0
        for _ in range(120):
            c = int(rng.integers(0, 4))
            switches += c != cache._c
            k, l = int(rng.integers(0, 2)), int(rng.integers(0, 4))
            fc, _, left = cache._trial(c, k, l)
            if left is not None:
                relocated += 1
                want = pieces_from_values(cache, c, left[1], fc[left])
                new = cache._piece[:, left[0], left[1]]
                assert new.tobytes() == guards(want).tobytes()
            cache.try_entry(c, k, l)
            for row, fc in zip(cache._piece.transpose(1, 0, 2), cache._fc):
                want = pieces_from_values(cache, c, np.arange(n), fc)
                assert row.tobytes() == guards(want).tobytes()
        assert relocated > 0 and switches > 10


def pieces_from_values(cache, c, cols, fc):
    """(lo, hi, a, b, c0) of the piece holding fc for the samples cols
    while class c trains, computed from the member values and weights as
    the `ResidualCache` docstring defines it; the sums over j run in
    order."""
    alpha, g = cache.hp.alpha, cache.hp.denom_guard
    others = [j for j in range(len(cache._f)) if j != c]
    f, w_den = cache._f[others][:, cols], cache._weight[others][:, cols]
    w_own = cache._weight[c, cols]
    fg = f + g
    at = np.full((2,) + f.shape, np.inf)   # own, denominator
    np.multiply(alpha, fg, out=at[0], where=w_own > 0.0)
    if alpha:
        np.subtract(f / alpha, g, out=at[1], where=w_den > 0.0)
    past = fc > at
    terms = np.stack([w_own / fg * past[0], w_den * f * ~past[1],
                      w_own * ~past[0] + w_den * past[1]])
    sums = terms[:, 0]
    for j in range(1, len(others)):
        sums += terms[:, j]
    return np.stack([np.where(past, at, -np.inf).max(axis=(0, 1)),
                     np.where(past, np.inf, at).min(axis=(0, 1)),
                     sums[0], sums[1], alpha * sums[2]])


# a column of samples: signed zeros, one-hot values and magnitudes from
# 1e-9 to 255, the range of max-abs-scaled features
column_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.builds(lambda v, sign: sign * v, st.floats(1e-9, 255.0),
              st.sampled_from([1.0, -1.0])))
steps = st.one_of(st.sampled_from([0.3, 1.0, 3.0, 40.0]),
                  st.floats(1e-3, 64.0))


@pytest.mark.bitwise
class TestStepRows:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(column_values, min_size=3, max_size=9),
           st.tuples(steps, steps),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                              st.integers(0, 2)),
                    min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_trial_rows_equal_the_formula(self, values, step_ab, trials,
                                          seed):
        # column 0 holds the drawn values, column 1 is one-hot and column 2
        # of [x; -1] is b's -1, tried with step_b; trials mix columns, and
        # each commits
        rng = np.random.default_rng(seed)
        n = len(values)
        x = np.column_stack([values, np.arange(n) % 2 == 0])
        problem = TrainingProblem(x, [np.arange(i, n, 3) for i in range(3)],
                                  rng.uniform(0.2, 2.0, size=3))
        hp = HyperParams(m=3, q=2, alpha=0.5, step_a=step_ab[0],
                         step_b=step_ab[1])
        members = tuple(MemberFunction(rng.normal(size=(2, 2)),
                                       rng.normal(size=2)) for _ in range(3))
        cache = ResidualCache(problem, QmsModel(members, hp))
        for c, k, l in trials:
            want = trial_rows(cache._f[c], cache._xa[l], cache._r[c, k],
                              column_step(cache, l))
            fc = cache._trial(c, k, l)[0]
            assert fc.tobytes() == np.array(want).tobytes()
            cache.try_entry(c, k, l)

    def test_commit_adds_or_subtracts_step_times_x(self):
        # a problem's committed residual row is r + fl(step * x[l]) for
        # +step and r - fl(step * x[l]) for -step, on its segment alone
        trainings, hp = ssad_trainings([(251, 60, 20), (252, 60, 15),
                                        (253, 55, 10)])
        hp = dataclasses.replace(hp, step_b=hp.step_a)
        cache = ResidualCache(
            trainings, QmsModel(_initial_members(hp, trainings[0].p), hp))
        rng = np.random.default_rng(97)
        signs = set()
        for _ in range(80):
            c, k = int(rng.integers(hp.m)), int(rng.integers(hp.q))
            l, step = int(rng.integers(trainings[0].p + 1)), hp.step_a
            want = cache._r.copy()
            shift = step * cache._xa[l]
            for i, delta, _ in cache.try_entry(c, k, l):
                seg = cache._segments[i]
                row = want[c, k, seg]
                want[c, k, seg] = (row + shift[seg] if delta > 0
                                   else row - shift[seg])
                signs.add(delta > 0)
            assert cache._r.tobytes() == want.tobytes()
        assert signs == {True, False}

    def test_each_column_holds_the_rows_of_its_step(self):
        # step_a's rows on the columns of A and step_b's on b, column p:
        # built with the cache and never changed by trials and commits
        made = [_ssad_problem(seed, 50, 12, 6, 2) for seed in (261, 262)]
        trainings = [training for _, training, _ in made]
        hp = dataclasses.replace(made[0][2], step_a=0.75, step_b=2.5)
        p = 6
        cache = ResidualCache(trainings,
                              QmsModel(_initial_members(hp, p), hp))

        def check_rows():
            for l in range(p + 1):
                x, step = cache._xa[l], hp.step_b if l == p else hp.step_a
                assert cache._square[l].tobytes() == np.stack(
                    [(x * x) * (step * step)] * 2).tobytes()
                assert cache._shift[l].tobytes() == (step * x).tobytes()

        check_rows()
        moved = 0
        for c in range(hp.m):
            for l in range(p + 1):
                moved += len(cache.try_entry(c, c % hp.q, l))
        assert moved > 0
        check_rows()


@pytest.mark.bitwise
class TestGroupedSums:
    @pytest.mark.parametrize("sizes, p, runs", [
        ((163, 163, 163, 163, 162), 6, [4, 1]),
        ((190, 190, 185, 190, 190), 6, [2, 1, 2]),
        ((140,), 6, [1]),
        ((9000, 9000, 30), 2, [2, 1]),
    ], ids=["four-then-one", "equal-apart", "lone", "long-rows"])
    def test_sums_equal_per_segment_reduce(self, sizes, p, runs):
        # each run of equal sizes is one reduce; every problem's sum has
        # the bytes of the reduce over its own segment alone. Rows of
        # 9000 are longer than numpy's 8192-element reduce buffer
        rng = np.random.default_rng(len(sizes) + sum(sizes))
        problems = [TrainingProblem(
            rng.normal(scale=60.0, size=(size, p)),
            [np.arange(size), rng.permutation(size)[:size // 2],
             rng.permutation(size)[:size // 3]], (0.4, 1.0, 1.0))
            for size in sizes]
        members = tuple(MemberFunction(rng.normal(size=(2, p)),
                                       rng.normal(size=2)) for _ in range(3))
        cache = ResidualCache(problems,
                              QmsModel(members, HyperParams(m=3, q=2)))
        assert [value.shape[1] for value, _ in cache._grouped] == runs
        starts = [seg.start for seg in cache._segments]
        sequential = 0
        for c in range(3):
            cache._gather(c)
            cache._fc[...] = cache._f[[c, c]] * np.exp(
                rng.normal(scale=2.0, size=cache._fc.shape))
            sums = cache._evaluate()[0]
            want = np.column_stack([np.add.reduce(cache._value[:, seg], axis=1)
                                    for seg in cache._segments])
            assert sums.tobytes() == want.tobytes()
            # the data tells the summation orders apart: reduceat, which
            # sums each segment in sequence, gets other bits
            sequential += np.add.reduceat(cache._value, starts,
                                          axis=1).tobytes() != want.tobytes()
        assert sequential > 0


def unclipped_rows(cache, c, k, l):
    """f_c' of both rows of a trial of +step and -step on entry (k, l) of
    class c, with the column's step, by the cache's operations in its
    order, before any clip."""
    step = column_step(cache, l)
    u = (cache._xa[l] * cache._r[c, k]) * (2.0 * step)
    even = (cache._xa[l] * cache._xa[l]) * (step * step)
    return np.stack([cache._f[c] + u, cache._f[c] - u]) + even


def held_pieces(cache, c):
    """The raw pieces (5, 2, n) that the cache holds for class c, after
    checking that it stores them as guards: row r's are those of row r of
    the last trial's f_c', or of f_c after a gather."""
    n = cache._f.shape[1]
    held = np.stack([pieces_from_values(cache, c, np.arange(n), fc)
                     for fc in cache._fc], axis=1)
    assert cache._piece.tobytes() == guards(held).tobytes()
    return held


def check_clipped_evaluation(cache, c, raw, held, trial):
    """A trial's (fc, sums, left) for class c at the unclipped rows raw,
    and the values it left in _value, against `oracles.clipped_evaluation`
    of the raw pieces held before it, bit for bit. The flagged samples are
    those clip-then-compare relocates and those whose f_c' is negative;
    their new pieces are stored as guards in their rows, so each row then
    holds the pieces of its f_c'. Returns the clipped rows."""

    def repiece(cols, fc):
        return pieces_from_values(cache, c, cols, fc)

    fc, sums, left, new, value = clipped_evaluation(
        raw, held, cache.hp.denom_guard, cache._segments, repiece)
    got_fc, got_sums, got_left = trial
    assert got_fc.tobytes() == fc.tobytes()
    assert got_sums.tobytes() == sums.tobytes()
    assert cache._value.tobytes() == value.tobytes()
    flagged = set(zip(*left)) | set(zip(*np.nonzero(raw < 0.0)))
    assert set(() if got_left is None else zip(*got_left)) == flagged
    if got_left is not None:
        got_new = cache._piece[:, got_left[0], got_left[1]]
        want = guards(repiece(got_left[1], fc[got_left]))
        assert got_new.tobytes() == want.tobytes()
        # and where clip-then-compare relocates too, its new pieces
        mine = np.isin(got_left[1] * 2 + got_left[0], left[1] * 2 + left[0])
        assert got_new[:, mine].tobytes() == guards(new).tobytes()
    held_pieces(cache, c)
    return fc


def check_commit(cache, c, fc, before, moved, step):
    """After `try_entry`, each problem that moved holds the clipped row
    of its step as f_c, the others hold their f_c of before, and each row
    of the stored pieces still holds the pieces of its row fc."""
    rows = {i: 0 if delta == step else 1 for i, delta, _ in moved}
    for i, seg in enumerate(cache._segments):
        want = fc[rows[i], seg] if i in rows else before[seg]
        assert cache._f[c, seg].tobytes() == want.tobytes()
    assert cache._fc.tobytes() == fc.tobytes()
    held_pieces(cache, c)


def table_by_masked_copy(cache, c):
    """Class c's (6, m - 1, n) table as `_gather` defines it, with each
    breakpoint of a term whose weight is 0 set to +inf by a masked copy:
    the own and the denominator breakpoints, then w_c / (f_j + g),
    w_j * f_j, w_c and w_j."""
    alpha, g = cache.hp.alpha, cache.hp.denom_guard
    others = [j for j in range(len(cache._f)) if j != c]
    f, w_den = cache._f[others], cache._weight[others]
    w_own = np.broadcast_to(cache._weight[c], f.shape)
    fg = f + g
    at = np.stack([alpha * fg,
                   f / alpha - g if alpha else np.full(f.shape, np.inf)])
    np.copyto(at, np.inf, where=np.stack([w_own, w_den]) == 0.0)
    return np.concatenate([at, [w_own / fg, w_den * f, w_own, w_den]])


@pytest.mark.bitwise
class TestGuards:
    # A piece is stored as lo' = max(lo, -2^-1074) and hi' =
    # nextafter(hi, +inf): one comparison f_c' <= lo' or hi' <= f_c'
    # flags what clip-then-compare relocates and every negative f_c',
    # which alone is clipped, so the bits stay those of clip-then-compare.
    # f_c' is never -0.0: the member values start at +0.0 or above, and
    # a round-to-nearest sum is -0.0 only of two -0.0s.

    @settings(deadline=None, max_examples=60)
    @given(st.lists(column_values, min_size=4, max_size=9),
           st.sampled_from([0.0, 0.2, 0.5]), st.integers(-1, 2),
           st.tuples(steps, steps),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                              st.integers(0, 2)),
                    min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_trial_equals_clip_then_compare(self, values, alpha, zero,
                                            step_ab, trials, seed):
        # two problems of unequal sizes, each sample in one member set:
        # while another class trains it has one breakpoint, so one bound
        # is infinite, and alpha = 0 puts every denominator breakpoint at
        # +inf; the member function `zero`, if any, is 0, so its
        # denominator breakpoints f_j / alpha - g are at -g
        rng = np.random.default_rng(seed)
        x = np.column_stack([values, np.arange(len(values)) % 2 == 0])
        problems = [TrainingProblem(x[:n], [np.arange(i, n, 3)
                                            for i in range(3)],
                                    rng.uniform(0.2, 2.0, size=3))
                    for n in (len(values), len(values) - 1)]
        hp = HyperParams(m=3, q=2, alpha=alpha, step_a=step_ab[0],
                         step_b=step_ab[1])
        members = [MemberFunction(rng.normal(size=(2, 2)), rng.normal(size=2))
                   for _ in range(3)]
        if zero >= 0:
            members[zero] = MemberFunction(np.zeros((2, 2)), np.zeros(2))
        cache = ResidualCache(problems, QmsModel(tuple(members), hp))
        for c, k, l in trials:
            cache._gather(c)
            raw = unclipped_rows(cache, c, k, l)
            before = cache._f[c].copy()
            held = held_pieces(cache, c)
            fc = check_clipped_evaluation(cache, c, raw, held,
                                          cache._trial(c, k, l))
            moved = cache.try_entry(c, k, l)
            check_commit(cache, c, fc, before, moved, column_step(cache, l))

    def test_negative_fc_is_flagged_and_clipped(self):
        # the data of TestLossPieces.test_step_clipped_to_zero: f_c' of
        # x = 2.3 comes out at -5.6e-17 on the +step row
        x = np.array([[2.3], [1.0], [-0.5], [0.8]])
        problem = TrainingProblem(x, [[0, 1], [2, 3, 0]], (0.6, 1.7))
        hp = HyperParams(m=2, q=1, alpha=0.4, step_a=0.3, step_b=0.3)
        members = (MemberFunction([[1.1]], [(1.1 + 0.3) * 2.3]),
                   MemberFunction([[0.5]], [0.2]))
        cache = ResidualCache(problem, QmsModel(members, hp))
        cache._gather(0)
        raw, before = unclipped_rows(cache, 0, 0, 0), cache._f[0].copy()
        assert raw[0, 0] < 0.0 and (raw[:, 1:4] > 0.0).all()
        held = held_pieces(cache, 0)
        trial = cache._trial(0, 0, 0)
        assert (0, 0) in set(zip(*trial[2]))
        fc = check_clipped_evaluation(cache, 0, raw, held, trial)
        assert fc[0, 0] == 0.0
        moved = cache.try_entry(0, 0, 0)
        check_commit(cache, 0, fc, before, moved, 0.3)
        assert max_relative_drift(cache) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_fc_on_the_bounds_and_their_neighbours(self, alpha):
        # f_c' on lo and hi, on their neighbours either side, at -g, at
        # -2^-1074, at 0 and at f_c, with a zero member function for -g
        # bounds; an infinite bound or its huge finite neighbour is
        # replaced by f_c, and the padding stays at 0
        rng = np.random.default_rng(103)
        g = HyperParams().denom_guard
        for _ in range(6):
            problem, model = random_instance(rng, m=3, q=2, p=3)
            hp = HyperParams(m=3, q=2, alpha=alpha)
            members = list(model.members)
            members[int(rng.integers(0, 3))] = MemberFunction(
                np.zeros((2, 3)), np.zeros(2))
            cache = ResidualCache(problem, QmsModel(tuple(members), hp))
            n, width = problem.samples.shape[0], cache._f.shape[1]
            for c in range(3):
                cache._gather(c)
                # both rows hold the pieces of f_c, put back before each
                # evaluation, which stores the pieces of its rows
                held, stored = held_pieces(cache, c), cache._piece.copy()
                lo, hi = held[:2, 0]
                f = cache._f[c]
                candidates = [lo, np.nextafter(lo, -np.inf),
                              np.nextafter(lo, np.inf), hi,
                              np.nextafter(hi, -np.inf),
                              np.nextafter(hi, np.inf),
                              np.full(width, -g), np.full(width, -5e-324),
                              np.zeros(width), f]
                candidates = [np.where(np.abs(v) < 1e300, v, f)
                              for v in candidates]
                flagged = 0
                for up, down in itertools.product(candidates, repeat=2):
                    raw = np.stack([up, down])
                    raw[:, n:] = 0.0
                    cache._piece[...] = stored
                    cache._fc[...] = raw
                    trial = (cache._fc, *cache._evaluate())
                    flagged += trial[2] is not None
                    check_clipped_evaluation(cache, c, raw, held, trial)
                assert flagged > 0

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_never_rows_equal_the_masked_copy(self, alpha):
        # after each class's gather the table has the bytes of the masked
        # copy: three problems of unequal sizes, so the sample axis is
        # padded, with samples in no member set and sets that overlap
        rng = np.random.default_rng(107)
        problems = []
        for size in (11, 6, 9):
            sets = [rng.permutation(size)[:int(rng.integers(1, size))]
                    for _ in range(4)]
            problems.append(TrainingProblem(rng.normal(size=(size, 3)), sets,
                                            rng.uniform(0.2, 2.0, size=4)))
        hp = HyperParams(m=4, q=2, alpha=alpha, step_a=0.8)
        members = tuple(MemberFunction(rng.normal(size=(2, 3)),
                                       rng.normal(size=2)) for _ in range(4))
        cache = ResidualCache(problems, QmsModel(members, hp))
        assert cache._f.shape[1] == 32 and not cache._weight.all()
        for c in (0, 2, 1, 3, 0):
            cache._gather(c)
            want = table_by_masked_copy(cache, c)
            assert cache._table.tobytes() == want.tobytes()
            cache.try_entry(c, 1, 2)


# the cache's arrays with a sample axis, float64 and boolean
SAMPLE_ARRAYS = ("_xa", "_r", "_f", "_weight", "_never", "_block", "_fc",
                 "_piece", "_value", "_tmp", "_table", "_terms")
SAMPLE_MASKS = ("_bounds", "_mask")


@pytest.mark.bitwise
class TestLayout:
    @pytest.mark.parametrize("sizes", [(13,), (407, 407), (3838,)],
                             ids=["13", "814", "3838"])
    def test_every_sample_row_starts_on_a_cache_line(self, sizes):
        # the sample axis is padded from n to a multiple of 8, so each row
        # of float64 starts 64 bytes past the last on an aligned block
        rng = np.random.default_rng(sum(sizes))
        problems = [TrainingProblem(
            rng.normal(size=(size, 3)),
            [np.arange(size), np.arange(0, size, 2), np.arange(1, size, 3)])
            for size in sizes]
        hp = HyperParams(m=3, q=2)
        cache = ResidualCache(problems, QmsModel(_initial_members(hp, 3), hp))
        width = -(-sum(sizes) // 8) * 8
        assert width > sum(sizes)
        rows = [getattr(cache, name) for name in SAMPLE_ARRAYS]
        # each column's step rows, views of one block
        rows += [*cache._square, *cache._shift]
        assert len(rows) == len(SAMPLE_ARRAYS) + 2 * 4
        for array in rows:
            assert array.dtype == np.float64 and array.shape[-1] == width
            assert array.flags.c_contiguous
            for row in array.reshape(-1, width):
                assert row.ctypes.data % 64 == 0
        for name in SAMPLE_MASKS:
            mask = getattr(cache, name)
            assert mask.shape[-1] == width and mask.flags.c_contiguous
            assert mask.ctypes.data % 64 == 0

    def test_padding_stays_inert(self):
        # through trials that relocate samples and commits of both signs,
        # the padding samples keep x = r = f = 0, weight 0, step rows 0
        # and the piece (-inf, +inf, 0, 0, 0), whose value is 0, and never
        # leave it; its guards are (-2^-1074, +inf)
        rng = np.random.default_rng(101)
        members = tuple(MemberFunction(rng.normal(size=(2, 3)),
                                       rng.normal(size=2)) for _ in range(3))
        problems = [from_member_sets([rng.normal(size=(size, 3))
                                      for size in sizes],
                                     rng.uniform(0.2, 2.0, size=3))
                    for sizes in ((5, 4, 4), (3, 3, 2))]
        step_a, step_b = rng.uniform(0.1, 3.0, size=2)
        hp = HyperParams(m=3, q=2, alpha=0.4, step_a=step_a, step_b=step_b)
        cache = ResidualCache(problems, QmsModel(members, hp))
        n = cache._segments[-1].stop
        assert (n, cache._f.shape[1]) == (21, 24)
        piece = guards([-np.inf, np.inf, 0.0, 0.0, 0.0])[:, None, None]
        assert piece[0] == -2.0 ** -1074
        relocated = moved = 0
        with np.errstate(all="raise"):
            for _ in range(120):
                c = int(rng.integers(0, 3))
                k, l = int(rng.integers(0, 2)), int(rng.integers(0, 4))
                fc, _, left = cache._trial(c, k, l)
                assert not fc[:, n:].any() and not cache._value[:, n:].any()
                if left is not None:
                    relocated += 1
                    assert (left[1] < n).all()
                moved += len(cache.try_entry(c, k, l))
                for name in ("_xa", "_r", "_f", "_weight"):
                    assert not getattr(cache, name)[..., n:].any()
                for rows in (*cache._square, *cache._shift):
                    assert not rows[..., n:].any()
                assert np.array_equal(cache._piece[..., n:],
                                      np.broadcast_to(piece, (5, 2, 3)))
        assert relocated > 10 and moved > 10
        assert max_relative_drift(cache) <= 1e-9


class TestCpmOptimize:
    def test_zero_iterations_returns_initial_model(self):
        rng = np.random.default_rng(1)
        problem = from_member_sets(
            [rng.normal(size=(3, 2)) for _ in range(3)])
        hp = HyperParams(m=3, q=4, iterations=0)
        model = cpm_optimize(problem, hp)
        expected_b = np.zeros(4)
        expected_b[0] = hp.b_init
        for f in model.members:
            assert np.array_equal(f.a, np.zeros((4, 2)))
            assert np.array_equal(f.b, expected_b)

    def test_training_never_increases_loss(self):
        rng = np.random.default_rng(13)
        problem = from_member_sets(
            [rng.normal(size=(6, 2)) + i for i in range(3)])
        hp0 = HyperParams(m=3, q=2, iterations=0, step_a=0.5, step_b=1.0,
                          b_init=4.0)
        hp = HyperParams(m=3, q=2, iterations=6, step_a=0.5, step_b=1.0,
                         b_init=4.0)
        initial = loss_full(problem, cpm_optimize(problem, hp0))
        final = loss_full(problem, cpm_optimize(problem, hp))
        assert final <= initial

    def test_micro_problem_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            sets = [rng.normal(scale=2.0, size=(3, 1)) for _ in range(2)]
            hp = HyperParams(m=2, q=1, alpha=0.3, iterations=2, step_a=0.5,
                             step_b=0.7, b_init=1.0)
            problem = from_member_sets(sets)
            model = cpm_optimize(problem, hp)
            ref_members, ref_loss = cpm_reference(
                [list(s) for s in sets], [1.0, 1.0], 1, 2, 1, hp.alpha,
                hp.iterations, hp.step_a, hp.step_b, hp.b_init,
                hp.denom_guard)
            for f, (ra, rb) in zip(model.members, ref_members):
                assert np.array_equal(f.a, np.asarray(ra))
                assert np.array_equal(f.b, np.asarray(rb))
            assert loss_full(problem, model) == pytest.approx(ref_loss,
                                                              rel=1e-10)

    def test_accepted_moves_strictly_decrease(self):
        rng = np.random.default_rng(19)
        problem = from_member_sets(
            [rng.normal(size=(8, 3)) + 2 * i for i in range(3)],
            class_weights=(0.7, 1.0, 1.0))
        hp = HyperParams(m=3, q=2, iterations=5, step_a=0.3, step_b=0.9,
                         b_init=3.0)
        hp0 = HyperParams(m=3, q=2, iterations=0, step_a=0.3, step_b=0.9,
                          b_init=3.0)
        moves = []
        cpm_optimize(problem, hp,
                     on_accept=lambda s, c, e, d, loss: moves.append((e, d, loss)))
        assert moves, "expected at least one accepted move"
        # perturbations are exactly +/- the configured step for the entry
        for (k, l), delta, _ in moves:
            assert abs(delta) == (hp.step_a if l < problem.p else hp.step_b)
        values = [loss for _, _, loss in moves]
        initial = loss_full(problem, cpm_optimize(problem, hp0))
        assert all(later < earlier
                   for earlier, later in zip([initial] + values, values))

    def test_absorbed_decrease_is_declined(self):
        trainings, hp = ssad_trainings([(221, 60, 20)])
        cache = ResidualCache(trainings,
                              QmsModel(_initial_members(hp, trainings[0].p), hp))
        [[up, down]] = deltas(cache, 0, 0, 0)
        if not min(up, down) < 0.0:
            raise AssertionError("expected a decreasing move")
        # a decrease this small vanishes against a tracked loss this large
        cache.losses[0] = 1e20
        state = problem_state(cache, 0)
        assert cache.try_entry(0, 0, 0) == []
        assert problem_state(cache, 0) == state

    def test_absorbed_decrease_declined_for_that_problem_only(self):
        # both problems have a decreasing move, but problem 1's vanishes
        # against its tracked loss: problem 0 commits as it would alone
        trainings, hp = ssad_trainings([(221, 60, 20), (222, 75, 15)])
        model = QmsModel(_initial_members(hp, trainings[0].p), hp)
        cache, alone = ResidualCache(trainings, model), ResidualCache(
            trainings[0], model)
        if not all(min(pair) < 0.0 for pair in deltas(cache, 0, 0, 0)):
            raise AssertionError("expected a decreasing move for both")
        cache.losses[1] = 1e20
        state = problem_state(cache, 1)
        moved = cache.try_entry(0, 0, 0)
        assert moved == alone.try_entry(0, 0, 0) != []
        assert problem_state(cache, 0) == problem_state(alone, 0)
        assert problem_state(cache, 1) == state

    @pytest.mark.bitwise
    def test_cache_consistent_after_every_sweep(self):
        rng = np.random.default_rng(31)
        problem = from_member_sets(
            [rng.normal(size=(5, 2)) + i for i in range(4)])
        hp = HyperParams(m=4, q=3, iterations=4, step_a=0.5, step_b=1.5,
                         b_init=6.0)
        [model] = cache_models(train_checking_drift([problem], hp))
        assert model_bytes(model) == model_bytes(cpm_optimize(problem, hp))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(37)
        problem = from_member_sets(
            [rng.normal(size=(7, 2)) for _ in range(3)])
        hp = HyperParams(m=3, q=2, iterations=4, step_a=0.4, step_b=1.1,
                         b_init=2.0)
        first = cpm_optimize(problem, hp)
        second = cpm_optimize(problem, hp)
        for f1, f2 in zip(first.members, second.members):
            assert np.array_equal(f1.a, f2.a)
            assert np.array_equal(f1.b, f2.b)

    def test_class_count_mismatch_rejected(self):
        problem = from_member_sets(
            [np.ones((2, 2)), np.zeros((2, 2))])
        with pytest.raises(ValueError, match="member sets"):
            cpm_optimize(problem, HyperParams(m=3, q=2))


def ssad_trainings(shapes, p=6, iterations=2):
    """Training problems of the golden ssad generator, one per
    (seed, n_train, n_test), all of dimension p."""
    made = [_ssad_problem(seed, n_train, n_test, p, iterations)
            for seed, n_train, n_test in shapes]
    return [training for _, training, _ in made], made[0][2]


def train_alone(problem, hp):
    moves = []
    model = cpm_optimize(problem, hp,
                         on_accept=lambda *move: moves.append(move))
    return model, moves


def train_checking_drift(problems, hp):
    """The trials of `cpm_optimize_many` on problems of one width, in its
    sweep order, with the residual cache checked against a full
    recomputation after every sweep; returns the trained cache."""
    p = problems[0].p
    cache = ResidualCache(problems, QmsModel(_initial_members(hp, p), hp))
    entries = ([(k, l) for k in range(hp.q) for l in range(p)]
               + [(k, p) for k in range(hp.q)])
    for sweep in range(hp.iterations):
        for c in range(hp.m):
            for k, l in entries:
                cache.try_entry(c, k, l)
        # a raise, not an assert, so the check also holds under python -O
        drift = max_relative_drift(cache)
        if not drift <= 1e-9:
            raise AssertionError(f"cache drifted by {drift!r} in sweep "
                                 f"{sweep}")
    return cache


def cache_models(cache):
    return [QmsModel(cache.members(i), cache.hp)
            for i in range(len(cache.problems))]


def model_bytes(model):
    return b"".join(f.a.tobytes() + f.b.tobytes() for f in model.members)


def problem_state(cache, i):
    """The bytes of problem i's state: its member functions and tracked
    loss, the member values, residuals and loss pieces of its segment,
    and its sum of the terms involving f_c."""
    seg = cache._segments[i]
    return (model_bytes(QmsModel(cache.members(i), cache.hp)),
            cache.losses[i], cache._f[:, seg].tobytes(),
            cache._r[:, :, seg].tobytes(), cache._piece[:, :, seg].tobytes(),
            cache._total[i])


def loss_bytes(moves):
    return np.array([move[-1] for move in moves]).tobytes()


class TestCpmOptimizeMany:
    @pytest.mark.bitwise
    @pytest.mark.parametrize("shapes", [
        [(211, 150, 40)],
        [(211, 150, 40), (212, 171, 35), (213, 139, 44), (214, 160, 41),
         (215, 155, 30)],
        # pooled sizes as in real folds: 163 four times, then 162
        [(216, 130, 33), (217, 131, 32), (218, 129, 34), (219, 130, 33),
         (220, 130, 32)],
        # 190, 190, 185, 190, 190: equal sizes apart from each other
        [(241, 150, 40), (242, 152, 38), (243, 148, 37), (244, 151, 39),
         (245, 150, 40)],
    ], ids=["F1", "F5", "F4+1", "F2+1+2"])
    def test_bitwise_equal_to_one_problem_at_a_time(self, shapes):
        trainings, hp = ssad_trainings(shapes)
        moves = [[] for _ in trainings]
        models = cpm_optimize_many(
            trainings, hp, on_accept=lambda i, *move: moves[i].append(move))
        assert len(models) == len(trainings)
        for training, model, got in zip(trainings, models, moves):
            alone, want = train_alone(training, hp)
            assert len(got) == len(want) > 0
            # sweep, class, entry and delta of every accept, then its loss
            # and the final model bit for bit
            assert [move[:-1] for move in got] == [move[:-1] for move in want]
            assert loss_bytes(got) == loss_bytes(want)
            assert model_bytes(model) == model_bytes(alone)

    def test_mixed_weights_and_set_sizes(self):
        rng = np.random.default_rng(53)
        hp = HyperParams(m=3, q=2, iterations=4, step_a=0.4, step_b=1.1,
                         b_init=3.0)
        problems = [from_member_sets(
            [rng.normal(size=(int(rng.integers(2, 9)), 2)) + i
             for i in range(3)], rng.uniform(0.2, 2.0, size=3))
            for _ in range(4)]
        moves = [[] for _ in problems]
        models = cpm_optimize_many(
            problems, hp, on_accept=lambda i, *move: moves[i].append(move))
        checked = cache_models(train_checking_drift(problems, hp))
        for problem, model, got in zip(problems, models, moves):
            alone, want = train_alone(problem, hp)
            assert [move[:-1] for move in got] == [move[:-1] for move in want]
            assert loss_bytes(got) == loss_bytes(want)
            assert model_bytes(model) == model_bytes(alone)
        for model, again in zip(models, checked):
            assert model_bytes(again) == model_bytes(model)

    @pytest.mark.bitwise
    def test_per_problem_commits_bitwise_equal_to_problems_alone(self):
        # four problems in one cache, random member functions and steps
        # that often move f_c out of its piece. Some trials split the
        # problems three ways: two neighbours take one step, another the
        # other step and another none, and each commits on its own segment
        rng = np.random.default_rng(88)
        members = tuple(MemberFunction(rng.normal(size=(2, 3)),
                                       rng.normal(size=2)) for _ in range(3))
        problems = [from_member_sets(
            [rng.normal(size=(int(rng.integers(4, 13)), 3))
             for _ in range(3)], rng.uniform(0.2, 2.0, size=3))
            for _ in range(4)]
        step_a, step_b = rng.uniform(0.1, 3.0, size=2)
        hp = HyperParams(m=3, q=2, alpha=0.5, step_a=step_a, step_b=step_b)
        shared = ResidualCache(problems, QmsModel(members, hp))
        alone = [ResidualCache(pr, QmsModel(members, hp)) for pr in problems]
        split = 0
        for _ in range(60):
            c = int(rng.integers(0, 3))
            k, l = int(rng.integers(0, 2)), int(rng.integers(0, 4))
            left = shared._trial(c, k, l)[2]
            moved = shared.try_entry(c, k, l)
            own = [a.try_entry(c, k, l) for a in alone]
            assert moved == [(i, delta, loss) for i, moves in enumerate(own)
                             for _, delta, loss in moves]
            assert shared.losses == [a.losses[0] for a in alone]
            assert max_relative_drift(shared) <= 1e-9
            d = [0.0] * 4
            for i, delta, _ in moved:
                d[i] = delta
            split += left is not None and any(
                d[i] == d[i + 1] != 0.0 and -d[i] in d and 0.0 in d
                for i in range(3))
        assert split > 0
        for i, a in enumerate(alone):
            assert model_bytes(QmsModel(shared.members(i), hp)) == \
                model_bytes(QmsModel(a.members(), hp))

    @pytest.mark.bitwise
    def test_mixed_widths_bitwise_equal_to_one_problem_at_a_time(self):
        # p = 1, 2 and 3 each train in a cache of their own, and the two
        # problems of p = 5 together
        made = [_ssad_problem(seed, 40 + 7 * seed, 12, p, 2)
                for seed, p in ((231, 1), (232, 2), (233, 3), (234, 5),
                                (235, 5))]
        trainings, hp = [t for _, t, _ in made], made[0][2]
        moves = [[] for _ in trainings]
        models = cpm_optimize_many(
            trainings, hp, on_accept=lambda i, *move: moves[i].append(move))
        for training, model, got in zip(trainings, models, moves):
            alone, want = train_alone(training, hp)
            assert model.p == training.p
            assert len(got) == len(want) > 0
            assert [move[:-1] for move in got] == [move[:-1] for move in want]
            assert loss_bytes(got) == loss_bytes(want)
            assert model_bytes(model) == model_bytes(alone)
        # with the drift checked after every sweep of each width's cache
        for p in (1, 2, 3, 5):
            group = [i for i, t in enumerate(trainings) if t.p == p]
            cache = train_checking_drift([trainings[i] for i in group], hp)
            for i, model in zip(group, cache_models(cache)):
                assert model_bytes(model) == model_bytes(models[i])

    def test_differing_m_or_p_rejected(self):
        rng = np.random.default_rng(59)

        def problem(m, p):
            return from_member_sets(
                [rng.normal(size=(4, p)) for _ in range(m)])

        hp = HyperParams(m=3, q=2, iterations=1)
        with pytest.raises(ValueError, match="member sets"):
            cpm_optimize_many([problem(3, 2), problem(4, 2)], hp)
        with pytest.raises(ValueError, match="at least one"):
            cpm_optimize_many([], hp)
        model = QmsModel(_initial_members(hp, 2), hp)
        for other in (problem(3, 4), problem(3, 1)):   # wider and narrower
            with pytest.raises(ValueError, match="dimension"):
                ResidualCache([problem(3, 2), other], model)
        with pytest.raises(ValueError, match="at least one"):
            ResidualCache([], model)

    def test_apply_commits_one_problem_only(self):
        trainings, hp = ssad_trainings([(221, 60, 20), (222, 75, 15)])
        hp = dataclasses.replace(hp, step_a=1.0, step_b=1.0)
        model = QmsModel(_initial_members(hp, trainings[0].p), hp)
        shared = ResidualCache(trainings, model)
        alone = [ResidualCache(t, model) for t in trainings]
        # a shared cache commits each problem's own decision, even where
        # the two problems decide differently
        decisions = set()
        for entry in ((0, 0, 0), (0, 1, 2), (1, 0, 6), (1, 2, 3), (0, 1, 2)):
            moved = shared.try_entry(*entry)
            own = [a.try_entry(*entry) for a in alone]
            assert moved == [(i, delta, loss) for i, moves in enumerate(own)
                             for _, delta, loss in moves]
            decisions.add(tuple(tuple(d for _, d, _ in moves) for moves in own))
        assert ((-1.0,), (1.0,)) in decisions
        assert shared.losses == [a.losses[0] for a in alone]
        for i, a in enumerate(alone):
            assert model_bytes(QmsModel(shared.members(i), hp)) == \
                model_bytes(QmsModel(a.members(), hp))


def with_value(seed, row, column, value, iterations=2):
    """The training problem of `_ssad_problem(seed, 80, 20, 3, iterations)`
    with one test value set to `value`, and its hyperparameters."""
    problem, _, hp = _ssad_problem(seed, 80, 20, 3, iterations)
    test = problem.test_samples.copy()
    test[row, column] = value
    problem = SsadProblem(problem.train_normals, test)
    plan = build_member_sets(problem, hp.m, hp.seed)
    pooled = np.vstack([problem.test_samples, problem.train_normals])
    return TrainingProblem(pooled, plan.member_sets, plan.class_weights), hp


class TestOverflowGuard:
    @pytest.mark.parametrize("value, why", [
        (1e155, "its step row is inf"),
        (1e150, "its loss bound is inf"),
    ], ids=["step-row", "loss-bound"])
    def test_huge_value_rejected_before_training(self, value, why):
        # among values within 255, one huge test value: its step row
        # (x * x) * step_a^2 or the loss bound of its row is not finite
        training, hp = with_value(271, 3, 1, value)
        moves = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowingSampleError) as raised:
                cpm_optimize_many([training], hp,
                                  on_accept=lambda *move: moves.append(move))
        assert str(raised.value) == (f"problem 0, sample row 3, column 1: "
                                     f"{value!r} could overflow training: "
                                     f"{why}")
        assert (raised.value.problem, raised.value.row,
                raised.value.column) == (0, 3, 1)
        assert isinstance(raised.value, ValueError) and moves == []
        again = pickle.loads(pickle.dumps(raised.value))
        assert (type(again), str(again)) == (type(raised.value),
                                             str(raised.value))

    def test_large_value_within_the_bound_trains_without_warnings(self):
        training, hp = with_value(272, 3, 1, 1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = cpm_optimize(training, hp)
        assert np.isfinite(model.member_values(training.samples)).all()

    @pytest.mark.parametrize("bad", ["m", "overflow"])
    def test_every_problem_checked_before_any_trains(self, bad):
        # the bad problem is the widest, so its cache would train last
        problems = [with_value(273 + p, 0, 0, 1.0)[0] for p in (0, 1)]
        rng = np.random.default_rng(274)
        problems.insert(1, from_member_sets(
            [rng.normal(scale=60.0, size=(9, 5)) for _ in range(7)]))
        if bad == "m":
            problems.append(from_member_sets(
                [rng.normal(size=(4, 6)) for _ in range(3)]))
        else:
            samples = rng.normal(size=(20, 6))
            samples[7, 4] = 1e160
            problems.append(TrainingProblem(
                samples, [np.arange(20)] + [np.arange(i, 20, 6)
                                            for i in range(6)]))
        hp = HyperParams(iterations=1)

        def fail(*move):
            raise AssertionError("trained before every problem was checked")

        message = ("hp.m is 7, problem 3 has 3 member sets" if bad == "m"
                   else "problem 3, sample row 7, column 4: ")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            cpm_optimize_many(problems, hp, on_accept=fail)

    @pytest.mark.parametrize("c", [0, 1])
    def test_huge_class_weight_rejected_before_training(self, c):
        # a class weight of 1e300 would take w_j * f_j past the largest
        # double when that class is a denominator
        rng = np.random.default_rng(275)
        good = from_member_sets([rng.normal(size=(5, 2)) for _ in range(3)])
        weights = [1.0] * 3
        weights[c] = 1e300
        bad = from_member_sets([rng.normal(size=(5, 2)) for _ in range(3)],
                               weights)
        hp = HyperParams(m=3, q=2, iterations=1)

        def fail(*move):
            raise AssertionError("trained before every problem was checked")

        with pytest.raises(ValueError) as raised:
            cpm_optimize_many([good, bad], hp, on_accept=fail)
        assert type(raised.value) is ValueError
        assert str(raised.value) == (f"problem 1, class {c}: weight 1e+300 "
                                     f"could overflow training: its weighted "
                                     f"loss bound is inf")

    def test_floating_point_error_leaves_as_value_error(self, monkeypatch):
        # with the guard switched off, a class weight of 1e300 takes
        # w_j * f_j past the largest double when that class is a
        # denominator, and the errstate backstop catches it
        monkeypatch.setattr(core, "_check_bounded", lambda *args: None)
        rng = np.random.default_rng(275)
        good = from_member_sets([rng.normal(size=(5, 2)) for _ in range(3)])
        bad = from_member_sets([rng.normal(size=(5, 2)) for _ in range(3)],
                               (1e300, 1.0, 1.0))
        hp = HyperParams(m=3, q=2, iterations=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                cpm_optimize_many([good, bad], hp)
        assert type(raised.value) is ValueError
        assert str(raised.value) == ("problem 0 or 1: overflow encountered "
                                     "in multiply in training")

    def test_tiny_alpha_trains_without_warnings(self):
        # f_j / alpha passes the largest double: a breakpoint of +inf
        training, hp = with_value(276, 0, 0, 1.0)
        hp = dataclasses.replace(hp, alpha=1e-300)
        moves = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cpm_optimize(training, hp,
                         on_accept=lambda *move: moves.append(move))
        assert moves and all(np.isfinite(move[-1]) for move in moves)


class TestHyperParams:
    def test_defaults_are_benchmark_settings(self):
        hp = HyperParams()
        assert (hp.m, hp.q, hp.alpha, hp.iterations) == (7, 10, 0.5, 60)
        assert (hp.step_a, hp.step_b, hp.b_init) == (1.0, 255.0, 25500.0)
        assert hp.denom_guard == 1e-12
        assert hp.seed == 42

    @pytest.mark.parametrize("kwargs", [
        dict(m=1), dict(q=0), dict(alpha=1.0), dict(alpha=-0.1),
        dict(iterations=-1), dict(step_a=0.0), dict(step_b=-2.0),
        dict(denom_guard=0.0),
        dict(alpha=float("nan")), dict(step_a=float("nan")),
        dict(step_b=float("inf")), dict(b_init=float("nan")),
        dict(b_init=float("-inf")), dict(denom_guard=float("nan")),
        dict(denom_guard=float("inf")),
        dict(m=2.5), dict(q=3.0), dict(iterations=1.5), dict(seed=1.5),
        dict(m=True), dict(seed=False), dict(seed=-1),
    ])
    def test_invalid_settings_rejected(self, kwargs):
        [name] = kwargs
        with pytest.raises(ValueError, match=f"^{name} must"):
            HyperParams(**kwargs)

    def test_numpy_integers_accepted(self):
        hp = HyperParams(m=np.int64(3), iterations=np.int32(2))
        assert (hp.m, hp.iterations) == (3, 2)
