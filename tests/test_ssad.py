"""Member-set planning, outlier scoring, and the end-to-end detector."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qms22 import (HyperParams, MemberFunction, QmsModel, SsadProblem,
                   build_member_sets, outlier_scores, run_qms22,
                   run_qms22_many, select_top_k)


def constant_member(value, q=2, p=2):
    b = np.zeros(q)
    b[0] = np.sqrt(value)
    return MemberFunction(np.zeros((q, p)), b)


def model_with_values(values):
    hp = HyperParams(m=len(values), q=2)
    return QmsModel(tuple(constant_member(v) for v in values), hp)


def problem_of_sizes(n_train, n_test, p=3, seed=0):
    rng = np.random.default_rng(seed)
    return SsadProblem(rng.normal(size=(n_train, p)),
                       rng.normal(size=(n_test, p)))


def parts(plan, n_train):
    """The m - 1 training parts that member sets 2..m each drop, as
    ascending indices into the training normals."""
    n_test = plan.member_sets[0].size - n_train
    return [np.setdiff1d(np.arange(n_train), s - n_test)
            for s in plan.member_sets[1:]]


def score(model, x):
    """The score of the (p,) row x."""
    [value] = outlier_scores(model, x)
    return value


class TestSsadProblem:
    @pytest.mark.parametrize("train, test, labels, message", [
        ((0, 2), (3, 2), None, "need non-empty training and test sets"),
        ((3, 2), (0, 2), None, "need non-empty training and test sets"),
        ((3, 2), (2, 3), None, "test_samples: expected feature dimension 2 "
                               "as a (2,) row or an (n, 2) batch, got shape "
                               "(2, 3)"),
        ((3, 2), (2, 2), [True], "test_labels length must match "
                                 "test_samples"),
    ], ids=["no-train", "no-test", "dimensions-differ", "label-count"])
    def test_rejects_bad_sides(self, train, test, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SsadProblem(np.ones(train), np.ones(test), labels)

    def test_a_test_row_is_one_sample(self):
        problem = SsadProblem(np.ones((3, 2)), [1.0, 2.0], [True])
        assert problem.test_samples.tolist() == [[1.0, 2.0]]
        assert problem.test_labels.tolist() == [True]


class TestBuildMemberSets:
    def test_exact_division(self):
        plan = build_member_sets(problem_of_sizes(12, 4), m=7, seed=0)
        assert [part.size for part in parts(plan, 12)] == [2] * 6
        assert [s.size for s in plan.member_sets] == [16] + [10] * 6

    def test_remainder_goes_to_lowest_parts(self):
        plan = build_member_sets(problem_of_sizes(13, 4), m=7, seed=3)
        assert [part.size for part in parts(plan, 13)] == [3, 2, 2, 2, 2, 2]
        assert [s.size for s in plan.member_sets[1:]] == [10, 11, 11, 11, 11, 11]

    def test_weight_is_second_set_over_first(self):
        plan = build_member_sets(problem_of_sizes(100, 25), m=7, seed=1)
        assert [part.size for part in parts(plan, 100)] == [17, 17, 17, 17,
                                                            16, 16]
        assert plan.member_sets[1].size == 83
        assert plan.member_sets[0].size == 125
        assert plan.class_weights[0] == pytest.approx(0.664)
        assert plan.class_weights[1:] == (1.0,) * 6

    def test_first_set_is_everything_test_rows_first(self):
        plan = build_member_sets(problem_of_sizes(9, 5), m=3, seed=2)
        assert np.array_equal(plan.member_sets[0], np.arange(14))
        # later sets index only the training block (rows 5..13)
        for s in plan.member_sets[1:]:
            assert s.min() >= 5

    def test_deterministic_and_seed_sensitive(self):
        problem = problem_of_sizes(30, 6)
        one = build_member_sets(problem, m=4, seed=11)
        two = build_member_sets(problem, m=4, seed=11)
        other = build_member_sets(problem, m=4, seed=12)
        for a, b in zip(one.member_sets, two.member_sets):
            assert np.array_equal(a, b)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(one.member_sets, other.member_sets))

    def test_too_few_training_samples(self):
        with pytest.raises(ValueError, match="m - 1 = 6"):
            build_member_sets(problem_of_sizes(5, 3), m=7, seed=0)

    def test_m_below_two(self):
        with pytest.raises(ValueError, match=">= 3 for the detector, got 1"):
            build_member_sets(problem_of_sizes(5, 3), m=1, seed=0)

    def test_m_two_rejected(self):
        # one part would hold every training normal: set 2 would be empty
        with pytest.raises(ValueError, match="got 2: .* set 2 empty"):
            build_member_sets(problem_of_sizes(5, 3), m=2, seed=0)
        with pytest.raises(ValueError, match=">= 3 for the detector"):
            run_qms22(problem_of_sizes(5, 3), HyperParams(m=2, iterations=0))

    @settings(deadline=None)
    @given(n_train=st.integers(2, 60), n_test=st.integers(1, 10),
           m=st.integers(3, 8), seed=st.integers(0, 10_000))
    def test_partition_invariants(self, n_train, n_test, m, seed):
        assume(n_train >= m - 1)
        plan = build_member_sets(problem_of_sizes(n_train, n_test), m, seed)
        dropped = parts(plan, n_train)
        sizes = [part.size for part in dropped]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(sizes, reverse=True) == sizes
        joined = np.concatenate(dropped)
        assert len(joined) == n_train
        assert np.array_equal(np.sort(joined), np.arange(n_train))
        assert len(plan.member_sets) == m
        for part, member_set in zip(dropped, plan.member_sets[1:]):
            assert member_set.size == n_train - part.size
            assert np.intersect1d(member_set - n_test, part).size == 0
        assert plan.class_weights[0] == (plan.member_sets[1].size
                                         / plan.member_sets[0].size)


class TestOutlierScore:
    def test_one_active_term(self):
        model = model_with_values([1.0, 2.0, 0.5])
        assert score(model, [0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_when_first_member_maximal(self):
        model = model_with_values([5.0, 2.0, 0.5])
        assert score(model, [3.0, -1.0]) == 0.0

    def test_both_terms_active(self):
        model = model_with_values([1.0, 2.0, 3.0])
        assert score(model, [0.0, 0.0]) == pytest.approx(3.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        hp = HyperParams(m=3, q=2)
        model = QmsModel(tuple(MemberFunction(rng.normal(size=(2, 4)),
                                              rng.normal(size=2))
                               for _ in range(3)), hp)
        samples = rng.normal(size=(6, 4))
        batch = outlier_scores(model, samples)
        assert batch.shape == (6,)
        for i, x in enumerate(samples):
            assert score(model, x) == pytest.approx(batch[i], rel=1e-12)

    def test_nonnegative_and_zero_iff_first_maximal(self):
        rng = np.random.default_rng(14)
        hp = HyperParams(m=4, q=2)
        model = QmsModel(tuple(MemberFunction(rng.normal(size=(2, 3)),
                                              rng.normal(size=2))
                               for _ in range(4)), hp)
        samples = rng.normal(size=(40, 3))
        scores = outlier_scores(model, samples)
        values = model.member_values(samples)
        assert np.all(scores >= 0.0)
        assert np.all(np.isfinite(scores))
        first_maximal = values[:, 0] >= values[:, 1:].max(axis=1)
        assert np.array_equal(scores <= 1e-9, first_maximal)

    def test_dimension_mismatch(self):
        model = model_with_values([1.0, 2.0])
        with pytest.raises(ValueError):
            outlier_scores(model, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("x", [1.0, [[0.0, 0.0]], [[0.0], [0.0]],
                                   [[[0.0, 0.0]]]])
    def test_score_takes_one_row(self, x):
        # as a (p,) row or a one-row batch; no other shape is one row
        model = model_with_values([1.0, 2.0])
        shape = np.shape(x)
        if shape == (1, 2):
            assert outlier_scores(model, x).tolist() == [score(model, x[0])]
            return
        with pytest.raises(ValueError, match=rf"\(2,\) row or an \(n, 2\) "
                                             rf"batch, got shape "
                                             rf"{re.escape(str(shape))}$"):
            outlier_scores(model, x)


class TestRunQms22:
    def test_zero_iterations_scores_all_zero(self):
        problem = problem_of_sizes(20, 8)
        scores = run_qms22(problem, HyperParams(m=4, q=3, iterations=0))
        assert np.array_equal(scores, np.zeros(8))

    def test_planted_outliers_end_to_end(self):
        rng = np.random.default_rng(0)
        train = rng.normal(size=(60, 2))
        normals = rng.normal(size=(15, 2))
        radius = np.linalg.norm(train, axis=1).max()
        directions = rng.normal(size=(3, 2))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        outliers = directions * 12.0 * radius
        problem = SsadProblem(train, np.vstack([normals, outliers]))
        scores = run_qms22(problem, HyperParams(m=4, q=4, iterations=25,
                                                step_b=10.0, b_init=100.0))
        assert scores[15:].min() > scores[:15].max()

    def test_overlapping_test_set_sanity(self):
        # every test sample literally appears in the training normals:
        # nothing to find, so just record that scoring stays sane
        rng = np.random.default_rng(33)
        train = rng.normal(size=(30, 3))
        problem = SsadProblem(train, train[:10])
        scores = run_qms22(problem, HyperParams(m=3, q=2, iterations=10,
                                                step_b=2.0, b_init=10.0))
        assert np.all(scores >= 0.0)
        assert np.all(np.isfinite(scores))

    def test_deterministic(self):
        problem = problem_of_sizes(25, 10, seed=5)
        hp = HyperParams(m=3, q=2, iterations=8, step_b=2.0, b_init=10.0)
        assert np.array_equal(run_qms22(problem, hp), run_qms22(problem, hp))

    def test_scores_attach_to_samples_not_positions(self):
        # train once, then score the test batch in two different orders:
        # scores must follow the samples
        from qms22.core import TrainingProblem, cpm_optimize

        rng = np.random.default_rng(41)
        problem = problem_of_sizes(25, 10, seed=6)
        hp = HyperParams(m=3, q=2, iterations=6, step_b=2.0, b_init=10.0)
        plan = build_member_sets(problem, hp.m, hp.seed)
        pooled = np.vstack([problem.test_samples, problem.train_normals])
        model = cpm_optimize(
            TrainingProblem(pooled, plan.member_sets, plan.class_weights), hp)
        direct = outlier_scores(model, problem.test_samples)
        perm = rng.permutation(10)
        assert np.array_equal(
            outlier_scores(model, problem.test_samples[perm]), direct[perm])
        assert np.array_equal(direct, run_qms22(problem, hp))

    def test_many_matches_one_at_a_time(self):
        problems = [problem_of_sizes(n_train, n_test, seed=seed)
                    for seed, n_train, n_test in ((7, 25, 10), (8, 31, 6),
                                                  (9, 22, 13))]
        hp = HyperParams(m=3, q=2, iterations=5, step_b=2.0, b_init=10.0)
        many = run_qms22_many(problems, hp)
        assert len(many) == len(problems)
        for problem, scores in zip(problems, many):
            assert scores.tobytes() == run_qms22(problem, hp).tobytes()

    def test_column_on_a_tiny_scale_trains(self):
        # the decreases from moving column 3 are too small for the tracked
        # loss to hold; such moves are declined rather than taken
        for seed in range(30):
            rng = np.random.default_rng(seed)
            train = rng.normal(size=(150, 5)) * 40
            test = rng.normal(size=(40, 5)) * 40
            train[:, 3] *= 1e-9
            test[:, 3] *= 1e-9
            scores = run_qms22(SsadProblem(train, test),
                               HyperParams(iterations=6))
            assert scores.shape == (40,) and np.isfinite(scores).all()

    def test_default_hyperparameters_used_when_omitted(self):
        # four training rows cannot be split six ways, so the error
        # proves the m=7 default was picked up
        problem = problem_of_sizes(4, 3)
        with pytest.raises(ValueError, match="m - 1 = 6"):
            run_qms22(problem)


class TestSelectTopK:
    def test_ties_prefer_lower_index(self):
        assert select_top_k([0.1, 3.0, 0.0, 3.0], 2).tolist() == [1, 3]

    def test_k_zero(self):
        assert select_top_k([0.5, 0.2], 0).size == 0

    def test_k_full(self):
        assert select_top_k([0.5, 0.2, 0.9], 3).tolist() == [0, 1, 2]

    def test_boundary_tie(self):
        assert select_top_k([1.0, 2.0, 1.0], 2).tolist() == [0, 1]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="between 0 and 3"):
            select_top_k([1.0, 2.0, 3.0], 4)
        with pytest.raises(ValueError):
            select_top_k([1.0], -1)
        # k counts rows: no fraction, and no bool standing in for 1
        for k in (1.5, True, "1"):
            with pytest.raises(ValueError, match="k must be an integer"):
                select_top_k([1.0, 2.0, 3.0], k)

    @pytest.mark.parametrize("scores, text", [
        ([np.nan, 0.5, np.inf], "scores must be finite"),
        ([0.5, -np.inf], "scores must be finite"),
        ([[0.1, 0.2], [0.3, 0.4]], "scores must be a vector"),
        (0.5, "scores must be a vector"),
        (["a"], r"^scores\[0\] is 'a', not a number$"),
        ([1.0, "b"], r"^scores\[1\] is 'b', not a number$"),
    ])
    def test_bad_scores_rejected(self, scores, text):
        with pytest.raises(ValueError, match=text):
            select_top_k(scores, 1)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=25,
                    unique=True))
    def test_nesting_without_ties(self, scores):
        previous = set()
        for k in range(len(scores) + 1):
            chosen = set(select_top_k(scores, k).tolist())
            assert len(chosen) == k
            assert previous <= chosen
            previous = chosen
