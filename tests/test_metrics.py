"""ROC/AUC, the signed-rank test, and the summary statistics."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qms22 import (SsadProblem, five_number_summary, mean_std, roc_curve,
                   wilcoxon_signed_rank)
from qms22.metrics import _trapezoid

from oracles import (auc_pairwise, five_number_direct, wilcoxon_bruteforce,
                     wilcoxon_numpy)


def area(points):
    """Trapezoidal area under hand-built (fpr, tpr) points."""
    pts = np.asarray(points, dtype=float)
    return _trapezoid(pts[:, 0], pts[:, 1])


def points(curve):
    """The ROC's (fpr, tpr) points."""
    return list(zip(curve.fpr.tolist(), curve.tpr.tolist()))


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve([0.9, 0.1], [True, False])
        assert points(curve) == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        assert curve.auc == 1.0
        assert curve.thresholds[0] == np.inf

    def test_all_tied_scores_collapse_to_one_step(self):
        curve = roc_curve([0.4] * 6, [1, 0, 1, 0, 0, 1])
        assert points(curve) == [(0.0, 0.0), (1.0, 1.0)]
        assert curve.auc == 0.5

    def test_interleaved_scores(self):
        # outlier/normal pairs: three wins, one loss, no ties
        curve = roc_curve([3.0, 2.0, 1.0, 0.0], [True, False, True, False])
        assert curve.auc == pytest.approx(0.75)

    def test_tied_pair_takes_a_diagonal_step(self):
        curve = roc_curve([2.0, 1.0, 1.0, 0.0], [True, True, False, False])
        assert (0.5, 1.0) in points(curve)
        assert (0.0, 1.0) not in points(curve)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            roc_curve([0.1, 0.2], [True, True])
        with pytest.raises(ValueError, match="at least one"):
            roc_curve([0.1, 0.2], [False, False])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.2, 0.3], [True, False])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            roc_curve([bad, 0.5, 0.2, 0.1], [1, 0, 1, 0])

    @pytest.mark.parametrize("scores, text", [
        (["a", 1.0], "scores[0] is 'a', not a number"),
        ([1.0, "b"], "scores[1] is 'b', not a number"),
        ([[0.5], [0.1, 0.2]],
         "scores is ragged: its entries are not all of one shape"),
    ])
    def test_score_that_is_not_a_number_rejected(self, scores, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            roc_curve(scores, [0, 1])

    def test_scores_must_be_flat(self):
        with pytest.raises(ValueError, match="equal-length vectors"):
            roc_curve(np.ones((3, 1)), [1, 0, 1])

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            scores = rng.integers(0, 5, size=n).astype(float)
            curve = roc_curve(scores, labels)
            assert points(curve)[0] == (0.0, 0.0)
            assert points(curve)[-1] == (1.0, 1.0)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)
            assert np.all(np.diff(curve.thresholds) < 0)

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(90)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            scores = rng.integers(0, 4, size=n).astype(float)
            got = roc_curve(scores, labels).auc
            assert got == pytest.approx(auc_pairwise(scores, labels),
                                        abs=1e-12)

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(77)
        scores = rng.normal(size=30)
        labels = rng.random(30) < 0.4
        labels[0], labels[1] = True, False
        base = roc_curve(scores, labels).auc
        for transform in (np.exp, lambda s: 3 * s + 10, np.arctan):
            assert roc_curve(transform(scores), labels).auc == pytest.approx(
                base, abs=1e-12)


def roc_of(labels):
    return roc_curve(np.arange(len(labels), dtype=float), labels)


def ssad_of(labels):
    return SsadProblem(np.ones((2, 1)), np.ones((len(labels), 1)), labels)


class TestLabels:
    """One rule for labels, at both entry points: booleans, or numbers
    equal to 0 or 1."""

    @pytest.mark.parametrize("call, name", [(roc_of, "labels"),
                                            (ssad_of, "test_labels")],
                             ids=["roc_curve", "SsadProblem"])
    @pytest.mark.parametrize("labels, first_bad", [
        (["0", "1", ""], "'0'"),
        ([0, 2, 1], "2"),
        ([1.0, 0.5, 0.0], "0.5"),
        ([0.0, np.nan, 1.0], "nan"),
        ([True, None, False], "None"),
    ], ids=["strings", "two", "half", "nan", "none"])
    def test_bad_labels_rejected(self, call, name, labels, first_bad):
        with pytest.raises(ValueError, match=re.escape(
                f"{name}: expected booleans or 0/1 numbers, got {first_bad}")):
            call(labels)

    @pytest.mark.parametrize("labels", [
        [True, False, True], [1, 0, 1], np.array([1.0, 0.0, 1.0]),
    ], ids=["bool", "int", "float"])
    def test_good_labels_read_as_booleans(self, labels):
        assert roc_of(labels).auc == 0.5
        stored = ssad_of(labels).test_labels
        assert stored.dtype == bool
        assert stored.tolist() == [True, False, True]


class TestAuc:
    def test_diagonal(self):
        assert area([(0, 0), (1, 1)]) == pytest.approx(0.5)

    def test_perfect_staircase(self):
        assert area([(0, 0), (0, 1), (1, 1)]) == 1.0

    def test_three_point_trapezoid(self):
        # 0.5 * 0.75 / 2 + 0.5 * (0.75 + 1) / 2
        assert area([(0, 0), (0.5, 0.75), (1, 1)]) == pytest.approx(0.625)
        # and a point pulled up to tpr 0.875 raises the area to 11/16
        assert area([(0, 0), (0.5, 0.875), (1, 1)]) == pytest.approx(0.6875)

    def test_stored_field_matches_recomputation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores = rng.integers(0, 8, size=25).astype(float)
            labels = np.append(rng.random(24) < 0.5, True)
            labels[0] = False
            curve = roc_curve(scores, labels)
            assert abs(curve.auc - _trapezoid(curve.fpr, curve.tpr)) <= 1e-12


class TestWilcoxonSignedRank:
    def test_identical_series(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (result.r_plus, result.r_minus) == (0.0, 0.0)
        assert result.n_effective == 0
        assert result.p_value == 1.0

    def test_all_wins_distinct_magnitudes(self):
        n = 12
        a = [float(i + 1) for i in range(n)]
        result = wilcoxon_signed_rank([x + i + 1 for i, x in enumerate(a)], a)
        assert result.r_plus == n * (n + 1) / 2
        assert result.r_minus == 0.0

    def test_rank_sum_identity_95_pairs(self):
        rng = np.random.default_rng(8)
        a = rng.random(95)
        b = a + rng.choice([-1, 1], size=95) * rng.uniform(0.01, 0.2, size=95)
        result = wilcoxon_signed_rank(a, b)
        assert result.n_effective == 95
        assert result.r_plus + result.r_minus == pytest.approx(4560, abs=1e-9)
        assert result.method == "normal"

    def test_eight_pair_instance_matches_brute_force(self):
        a = [125.0, 115.0, 130.0, 140.0, 140.0, 115.0, 140.0, 125.0]
        b = [110.0, 122.0, 125.0, 120.0, 140.0, 124.0, 123.0, 137.0]
        result = wilcoxon_signed_rank(a, b)
        rp, rm, n, p = wilcoxon_bruteforce(a, b)
        assert result.method == "exact"
        assert (result.r_plus, result.r_minus) == (rp, rm)
        assert result.n_effective == n
        assert result.p_value == pytest.approx(p, abs=1e-12)

    def test_exact_matches_brute_force_randomized(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            n = int(rng.integers(1, 11))
            a = rng.integers(-4, 5, size=n).astype(float)
            b = rng.integers(-4, 5, size=n).astype(float)
            result = wilcoxon_signed_rank(a, b)
            rp, rm, n_eff, p = wilcoxon_bruteforce(a, b)
            assert (result.r_plus, result.r_minus) == (rp, rm)
            assert result.n_effective == n_eff
            assert result.p_value == pytest.approx(p, abs=1e-12)

    def test_normal_close_to_exact_for_mid_sizes(self):
        rng = np.random.default_rng(21)
        for n in (20, 22, 25):
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.5, size=n)
            exact = wilcoxon_signed_rank(a, b)
            *_, p_normal, _ = wilcoxon_numpy(a, b, "normal")
            assert exact.method == "exact"
            assert abs(exact.p_value - p_normal) < 0.01

    def test_zero_differences_dropped(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [1.0, 2.5, 3.0, 3.5]
        result = wilcoxon_signed_rank(a, b)
        assert result.n_effective == 2
        assert result.r_plus + result.r_minus == pytest.approx(3.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([], [])
        with pytest.raises(ValueError, match="equal-length"):
            wilcoxon_signed_rank(np.ones((3, 1)), np.zeros((3, 1)))
        # the sample size alone picks the tail
        with pytest.raises(TypeError, match="method"):
            wilcoxon_signed_rank([1.0], [2.0], method="exact")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([bad, 0.5, 0.7], [0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank([0.3, 0.2, 0.1], [0.5, bad, 0.7])

    def test_same_bits_as_numpy_reference(self):
        # ties and zero differences on a coarse grid, distinct values on
        # a fine one; across the exact and normal sizes
        rng = np.random.default_rng(18)
        for _ in range(600):
            n = int(rng.integers(1, 60))
            if rng.random() < 0.5:
                a = rng.integers(-4, 5, size=n) / 4.0
                b = rng.integers(-4, 5, size=n) / 4.0
            else:
                a = rng.random(n)
                b = a + rng.choice([-0.2, -0.1, 0.0, 0.1, 0.3], size=n)
            result = wilcoxon_signed_rank(a.tolist(), b.tolist())
            got = (result.r_plus, result.r_minus, result.n_effective,
                   result.p_value, result.method)
            assert repr(got) == repr(wilcoxon_numpy(a, b))

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=14))
    def test_rank_sum_identity_property(self, deltas):
        a = [float(d) for d in deltas]
        b = [0.0] * len(deltas)
        result = wilcoxon_signed_rank(a, b)
        n = result.n_effective
        assert result.r_plus + result.r_minus == pytest.approx(
            n * (n + 1) / 2, abs=1e-9)
        assert 0.0 <= result.p_value <= 1.0


class TestFiveNumberSummary:
    def test_odd_run(self):
        s = five_number_summary([1, 2, 3, 4, 5])
        assert (s.min, s.q1, s.median, s.q3, s.max) == (1, 2, 3, 4, 5)

    def test_single_value(self):
        s = five_number_summary([7.5])
        assert (s.min, s.q1, s.median, s.q3, s.max) == (7.5,) * 5

    def test_interpolated_quartiles(self):
        s = five_number_summary([1, 2, 3, 4])
        assert (s.q1, s.median, s.q3) == (1.75, 2.5, 3.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            five_number_summary([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            five_number_summary([0.5, bad, 0.7])

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=95))
    @example([-0.0, -0.0, -1.0])
    def test_same_bits_as_numpy_percentile(self, values):
        s = five_number_summary(values)
        got = np.array([s.min, s.q1, s.median, s.q3, s.max])
        # -0.0 reads as 0.0 (see five_number_summary)
        want = np.percentile(np.add(values, 0.0), [0, 25, 50, 75, 100])
        assert got.tobytes() == want.tobytes()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_ordering_chain_and_oracle(self, values):
        s = five_number_summary(values)
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
        lo, q1, med, q3, hi = five_number_direct(values)
        assert s.q1 == pytest.approx(q1, abs=1e-9)
        assert s.median == pytest.approx(med, abs=1e-9)
        assert s.q3 == pytest.approx(q3, abs=1e-9)
        assert (s.min, s.max) == (lo, hi)


class TestMeanStd:
    def test_constant_sequence(self):
        mean, std = mean_std([0.8, 0.8, 0.8])
        assert mean == pytest.approx(0.8)
        assert std == 0.0

    def test_single_value(self):
        assert mean_std([3.0]) == (3.0, 0.0)

    def test_known_small_case(self):
        mean, std = mean_std([1.0, 2.0, 3.0, 4.0])
        assert mean == pytest.approx(2.5)
        assert std == pytest.approx(np.sqrt(5.0 / 3.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])

    # AUC-like values on a 1e-6 grid: a spread of a few ulps would make
    # the deviations from the mean cancel, and any two summation orders
    # disagree there. A constant sequence has spread 0 exactly (above),
    # where numpy's rounded mean can leave a trace
    @given(st.lists(st.integers(0, 10 ** 6).map(lambda k: k / 10 ** 6),
                    min_size=2, max_size=95))
    def test_close_to_numpy(self, values):
        assume(min(values) != max(values))
        mean, std = mean_std(values)
        v = np.array(values)
        assert mean == pytest.approx(v.mean(), rel=1e-15, abs=0.0)
        assert std == pytest.approx(v.std(ddof=1), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mean_std([0.5, bad, 0.7])
        with pytest.raises(ValueError, match="finite"):
            mean_std([bad])


class OneElementRow:
    """A one-element row as numpy before 2.4 has it: float() gives its value."""

    ndim = 1

    def __init__(self, value):
        self.value = value

    def __float__(self):
        return self.value


# the summaries must find a column vector by its dimensions, not by
# float(), on every numpy version
@pytest.mark.parametrize("summary", [five_number_summary, mean_std])
@pytest.mark.parametrize("values", [
    np.ones((3, 1)),
    [OneElementRow(0.5), OneElementRow(0.7)],
    [np.array([0.5]), np.array([0.7])],
    [[0.5], [0.7]],
    0.5,
])
def test_summaries_take_only_flat_values(summary, values):
    with pytest.raises(ValueError, match="flat sequence"):
        summary(values)
