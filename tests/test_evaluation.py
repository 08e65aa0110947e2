"""Evaluation harness: split plans, confusion, reports, folds, timing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gestrec import (
    MIXED_USER,
    USER_DEPENDENT,
    USER_INDEPENDENT,
    ClassifierSpec,
    ConfusionMatrix,
    FeatureMatrix,
    FoldResults,
    SplitPlan,
    evaluate,
    fit_plan,
    plan_mixed,
    plan_user_dependent,
    plan_user_independent,
    score,
    time_single_predictions,
)
from gestrec.classifiers import CLASSIFIER_KINDS, make_classifier
from gestrec.features import N_FEATURES

# ---------------------------------------------------------------- stubs


class PerfectStub:
    """Reads the true label straight out of feature column 0."""

    def __init__(self, seed=0):
        pass

    def fit(self, X, y):
        return self

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X[:, 0].astype(np.int64)


class ConstantStub:
    """Always answers with the label it saw most (lowest on ties)."""

    def __init__(self, seed=0):
        pass

    def fit(self, X, y):
        values, counts = np.unique(y, return_counts=True)
        self.answer_ = values[np.argmax(counts)]
        return self

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(X.shape[0], self.answer_)


PERFECT = ClassifierSpec("perfect-stub")
CONSTANT = ClassifierSpec("constant-stub")


@pytest.fixture
def stubs(monkeypatch):
    """Registers the stubs as classifier kinds, so specs can name them."""
    monkeypatch.setitem(CLASSIFIER_KINDS, "perfect-stub", PerfectStub)
    monkeypatch.setitem(CLASSIFIER_KINDS, "constant-stub", ConstantStub)


def label_matrix(n_users: int, n_gestures: int, per_cell: int) -> FeatureMatrix:
    """Feature matrix whose column 0 carries the gesture label."""
    users = np.repeat(np.arange(1, n_users + 1), n_gestures * per_cell)
    gestures = np.tile(np.repeat(np.arange(1, n_gestures + 1), per_cell), n_users)
    X = np.zeros((users.size, N_FEATURES))
    X[:, 0] = gestures
    rng = np.random.default_rng(0)
    X[:, 1:] = rng.normal(size=(users.size, N_FEATURES - 1))
    return FeatureMatrix(X=X, users=users, gestures=gestures)


# ---------------------------------------------------------------- plans


class TestStratifiedSplitSizes:
    def test_seventy_rows_per_user_split_420_140(self):
        # 8 gestures x 70 samples for one user at ratio 0.75: the
        # whole-scope target is ceil(0.75 * 560) = 420, leaving 140.
        matrix = label_matrix(n_users=1, n_gestures=8, per_cell=70)
        plan = plan_user_dependent(matrix, user=1, ratio=0.75)
        assert plan.train_indices.size == 420
        assert plan.test_indices.size == 140

    def test_full_4480_mixed_split_3360_1120(self):
        matrix = label_matrix(n_users=8, n_gestures=8, per_cell=70)
        assert matrix.n == 4480
        plan = plan_mixed(matrix, ratio=0.75)
        assert plan.train_indices.size == 3360
        assert plan.test_indices.size == 1120

    def test_full_3200_mixed_split_2400_800(self):
        matrix = label_matrix(n_users=8, n_gestures=20, per_cell=20)
        assert matrix.n == 3200
        plan = plan_mixed(matrix, ratio=0.75)
        assert plan.train_indices.size == 2400
        assert plan.test_indices.size == 800

    def test_disjoint_and_covering(self):
        matrix = label_matrix(n_users=3, n_gestures=4, per_cell=7)
        plan = plan_mixed(matrix, ratio=0.6, seed=3)
        merged = np.sort(np.concatenate([plan.train_indices, plan.test_indices]))
        assert np.array_equal(merged, np.arange(matrix.n))

    def test_every_label_in_training(self):
        matrix = label_matrix(n_users=1, n_gestures=6, per_cell=3)
        plan = plan_user_dependent(matrix, user=1, ratio=0.1)
        train_labels = set(matrix.gestures[plan.train_indices].tolist())
        assert train_labels == set(range(1, 7))

    @settings(max_examples=60, deadline=None)
    @given(
        per_cell=st.integers(min_value=2, max_value=25),
        n_gestures=st.integers(min_value=2, max_value=10),
        ratio=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_per_label_take_within_floor_ceil(self, per_cell, n_gestures, ratio, seed):
        matrix = label_matrix(n_users=1, n_gestures=n_gestures, per_cell=per_cell)
        try:
            plan = plan_user_dependent(matrix, user=1, ratio=ratio, seed=seed)
        except ValueError:
            return  # degenerate ratio for this size; rejection is the contract
        train_gestures = matrix.gestures[plan.train_indices]
        for g in range(1, n_gestures + 1):
            got = int((train_gestures == g).sum())
            lo = max(1, math.floor(ratio * per_cell))
            hi = math.ceil(ratio * per_cell)
            assert lo <= got <= max(lo, hi)
        assert plan.train_indices.size + plan.test_indices.size == matrix.n

    def test_user_scope_only(self):
        matrix = label_matrix(n_users=4, n_gestures=3, per_cell=5)
        plan = plan_user_dependent(matrix, user=2, ratio=0.6, seed=1)
        assert set(matrix.users[plan.train_indices].tolist()) == {2}
        assert set(matrix.users[plan.test_indices].tolist()) == {2}

    def test_unknown_user_rejected(self):
        matrix = label_matrix(n_users=2, n_gestures=3, per_cell=5)
        with pytest.raises(ValueError, match="unknown user"):
            plan_user_dependent(matrix, user=9)

    def test_empty_matrix_rejected(self):
        matrix = FeatureMatrix(X=np.empty((0, N_FEATURES)),
                               users=np.empty(0, dtype=np.int64),
                               gestures=np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty feature matrix"):
            plan_mixed(matrix)

    def test_scarce_gesture_rejected(self):
        users = np.ones(5, dtype=np.int64)
        gestures = np.array([1, 1, 1, 1, 2])
        X = np.zeros((5, N_FEATURES))
        matrix = FeatureMatrix(X=X, users=users, gestures=gestures)
        with pytest.raises(ValueError, match="need >= 2"):
            plan_user_dependent(matrix, user=1)

    def test_ratio_bounds_rejected(self):
        matrix = label_matrix(n_users=1, n_gestures=2, per_cell=4)
        for ratio in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                plan_user_dependent(matrix, user=1, ratio=ratio)

    def test_split_determinism(self):
        matrix = label_matrix(n_users=2, n_gestures=4, per_cell=9)
        a = plan_mixed(matrix, ratio=0.7, seed=42)
        b = plan_mixed(matrix, ratio=0.7, seed=42)
        c = plan_mixed(matrix, ratio=0.7, seed=43)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)
        assert not np.array_equal(a.train_indices, c.train_indices)


class TestUserIndependentPlans:
    def test_one_fold_per_user(self):
        matrix = label_matrix(n_users=5, n_gestures=3, per_cell=4)
        folds = plan_user_independent(matrix)
        assert len(folds) == 5
        tested = [set(matrix.users[f.test_indices].tolist()) for f in folds]
        assert tested == [{1}, {2}, {3}, {4}, {5}]

    def test_folds_are_leak_free(self):
        matrix = label_matrix(n_users=4, n_gestures=3, per_cell=4)
        for fold in plan_user_independent(matrix):
            train_users = set(matrix.users[fold.train_indices].tolist())
            test_users = set(matrix.users[fold.test_indices].tolist())
            assert not train_users & test_users
            assert fold.train_indices.size + fold.test_indices.size == matrix.n

    def test_single_user_rejected(self):
        matrix = label_matrix(n_users=1, n_gestures=3, per_cell=4)
        with pytest.raises(ValueError, match=">= 2 users"):
            plan_user_independent(matrix)


class TestSplitPlanInvariants:
    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            SplitPlan(MIXED_USER, np.array([0, 1, 2]), np.array([2, 3]))

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SplitPlan(MIXED_USER, np.array([0, 1]), np.array([], dtype=np.int64))

    def test_non_integer_or_non_1d_indices_rejected(self):
        for bad in (np.array([0.0, 1.0]), np.array([[0], [1]]), np.array([True, False])):
            with pytest.raises(ValueError, match="1-D integer"):
                SplitPlan(MIXED_USER, bad, np.array([2, 3]))
            with pytest.raises(ValueError, match="1-D integer"):
                SplitPlan(MIXED_USER, np.array([2, 3]), bad)

    def test_rows_outside_the_matrix_rejected(self, easy_matrix):
        # Row -1 is row n - 1, the first test row: a plan holding it
        # would train on a test row.
        n = easy_matrix.n
        assert n == 640
        with pytest.raises(ValueError, match="negative split index -1"):
            SplitPlan(MIXED_USER, np.array([0, 1, 2, -1]), np.array([n - 1, 5]))
        past = SplitPlan(MIXED_USER, np.array([0, 1, 2, n]), np.array([n - 1, 5]))
        with pytest.raises(ValueError, match=f"split index {n} is out of range"):
            fit_plan(easy_matrix, past, ClassifierSpec("rc"))
        # score refuses the same plans, and one past the end on its test side.
        model = ConstantStub().fit(easy_matrix.X, easy_matrix.gestures)
        for plan in (past, SplitPlan(MIXED_USER, np.array([0, 1, 2]), np.array([n, 5]))):
            with pytest.raises(ValueError, match=f"split index {n} is out of range"):
                score(easy_matrix, plan, ClassifierSpec("rc"), model, timing=False)


# ------------------------------------------------------------- evaluate


class TestEvaluate:
    def test_unknown_classifier_kind_rejected(self):
        with pytest.raises(ValueError, match=r"unknown classifier 'xx', "
                                             r"expected one of \['et', 'gb', 'rc'\]"):
            make_classifier("xx")

    def test_perfect_stub_scores_100(self, stubs):
        matrix = label_matrix(n_users=2, n_gestures=8, per_cell=6)
        plan = plan_mixed(matrix, seed=1)
        report = evaluate(matrix, plan, PERFECT, timing=False)
        assert report.accuracy == 100.0
        assert np.array_equal(report.confusion.counts.diagonal(),
                              report.confusion.counts.sum(axis=1))

    def test_constant_stub_scores_chance_on_balanced_labels(self, stubs):
        matrix = label_matrix(n_users=1, n_gestures=8, per_cell=8)
        plan = plan_user_dependent(matrix, user=1, ratio=0.75, seed=5)
        report = evaluate(matrix, plan, CONSTANT, timing=False)
        assert report.accuracy == pytest.approx(12.5)

    def test_report_bookkeeping(self):
        matrix = label_matrix(n_users=2, n_gestures=4, per_cell=8)
        plan = plan_mixed(matrix, ratio=0.75, seed=2)
        spec = ClassifierSpec("rc", {"alpha": 2.0}, seed=4)
        report = evaluate(matrix, plan, spec, timing=False)
        assert report.mode == MIXED_USER
        assert report.spec is spec
        assert report.n_train == plan.train_indices.size
        assert report.n_test == plan.test_indices.size
        assert report.mean_classify_time_s == 0.0

    def test_confusion_rows_sum_to_100(self):
        matrix = label_matrix(n_users=2, n_gestures=5, per_cell=8)
        plan = plan_mixed(matrix, seed=3)
        report = evaluate(matrix, plan, ClassifierSpec("rc"), timing=False)
        sums = report.confusion.percents.sum(axis=1)
        assert np.max(np.abs(sums - 100.0)) <= 1e-9
        assert report.confusion.zero_support == ()

    def test_zero_support_rows_flagged(self):
        cm = ConfusionMatrix.from_predictions(
            classes=(1, 2, 3), y_true=[1, 1, 2], y_pred=[1, 2, 2]
        )
        assert cm.zero_support == (3,)
        assert np.all(cm.percents[2] == 0.0)
        assert np.max(np.abs(cm.percents[:2].sum(axis=1) - 100.0)) <= 1e-9
        again = ConfusionMatrix((1, 2, 3), cm.counts)
        assert again.zero_support == (3,)
        assert np.array_equal(again.percents, cm.percents)

    def test_accuracy_is_the_confusion_trace(self):
        matrix = label_matrix(n_users=2, n_gestures=5, per_cell=8)
        plan = plan_mixed(matrix, seed=3)
        model = fit_plan(matrix, plan, ClassifierSpec("rc"))
        report = score(matrix, plan, ClassifierSpec("rc"), model, timing=False)
        y_true = matrix.gestures[plan.test_indices]
        hits = int((model.predict(matrix.X[plan.test_indices]) == y_true).sum())
        assert report.confusion.counts.trace() == hits
        assert report.accuracy == 100.0 * hits / plan.test_indices.size

    def test_per_user_accuracy_breakdown(self, stubs):
        matrix = label_matrix(n_users=3, n_gestures=4, per_cell=6)
        plan = plan_mixed(matrix, seed=4)
        report = evaluate(matrix, plan, PERFECT, timing=False)
        assert sorted(report.per_user_accuracy) == [1, 2, 3]
        assert all(v == 100.0 for v in report.per_user_accuracy.values())

    def test_seed_determinism_modulo_timing(self):
        matrix = label_matrix(n_users=2, n_gestures=4, per_cell=10)
        plan = plan_mixed(matrix, seed=6)
        spec = ClassifierSpec("et", {"n_trees": 10}, seed=3)
        a = evaluate(matrix, plan, spec, timing=False)
        b = evaluate(matrix, plan, spec, timing=True)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.confusion.counts, b.confusion.counts)
        assert a.per_user_accuracy == b.per_user_accuracy
        assert b.mean_classify_time_s > 0.0

    def test_fit_plan_then_score_is_evaluate(self):
        matrix = label_matrix(n_users=2, n_gestures=4, per_cell=10)
        plan = plan_mixed(matrix, seed=6)
        spec = ClassifierSpec("et", {"n_trees": 10}, seed=3)
        model = fit_plan(matrix, plan, spec)
        assert model.classes_ is not None
        report = score(matrix, plan, spec, model, timing=False)
        direct = evaluate(matrix, plan, spec, timing=False)
        assert report.accuracy == direct.accuracy
        assert np.array_equal(report.confusion.counts, direct.confusion.counts)
        assert report.per_user_accuracy == direct.per_user_accuracy
        again = ClassifierSpec("et", {"n_trees": 10}, seed=3).build().fit(
            matrix.X[plan.train_indices], matrix.gestures[plan.train_indices])
        assert np.array_equal(model.predict(matrix.X), again.predict(matrix.X))


class TestFolds:
    def test_fold_results_average(self, stubs):
        matrix = label_matrix(n_users=4, n_gestures=3, per_cell=6)
        folds = plan_user_independent(matrix)
        results = evaluate(matrix, folds, PERFECT, timing=False)
        assert len(results.reports) == 4
        assert results.average_accuracy == pytest.approx(
            np.mean([r.accuracy for r in results.reports])
        )
        assert all(r.mode == USER_INDEPENDENT for r in results.reports)

    def test_leak_detection_trips(self, stubs):
        matrix = label_matrix(n_users=2, n_gestures=3, per_cell=6)
        bad = SplitPlan(USER_INDEPENDENT, np.arange(0, matrix.n, 2),
                        np.arange(1, matrix.n, 2))
        with pytest.raises(ValueError, match=r"user\(s\) \[1, 2\] appear on both fold sides"):
            evaluate(matrix, bad, PERFECT, timing=False)
        model = PERFECT.build().fit(matrix.X, matrix.gestures)
        with pytest.raises(ValueError, match="both fold sides"):
            score(matrix, bad, PERFECT, model, timing=False)

    def test_empty_fold_list_rejected(self, stubs):
        matrix = label_matrix(n_users=2, n_gestures=3, per_cell=6)
        with pytest.raises(ValueError, match="at least one report"):
            evaluate(matrix, [], PERFECT, timing=False)
        with pytest.raises(ValueError, match="at least one report"):
            FoldResults(())


class TestTables:
    """FoldResults derives the figures gestrec eval writes: the per-user
    rows, their average, the summed confusion and the mean time."""

    def test_per_user_table_rows_and_average(self, stubs):
        matrix = label_matrix(n_users=3, n_gestures=4, per_cell=8)
        plans = [plan_user_dependent(matrix, user=u, seed=u) for u in (1, 2, 3)]
        results = evaluate(matrix, plans, PERFECT, timing=False)
        assert results.per_user == [(1, 100.0), (2, 100.0), (3, 100.0)]
        assert results.average_accuracy == 100.0

    def test_per_user_table_of_a_pooled_report(self, stubs):
        matrix = label_matrix(n_users=3, n_gestures=3, per_cell=6)
        report = evaluate(matrix, plan_mixed(matrix, seed=1), PERFECT, timing=False)
        results = FoldResults((report,))
        assert results.per_user == sorted(report.per_user_accuracy.items())
        assert [u for u, _ in results.per_user] == [1, 2, 3]
        assert results.average_accuracy == report.accuracy

    def test_per_user_table_fold_reports_ordered(self, stubs):
        matrix = label_matrix(n_users=4, n_gestures=3, per_cell=6)
        results = evaluate(matrix, plan_user_independent(matrix), PERFECT,
                           timing=False)
        backwards = FoldResults(tuple(reversed(results.reports)))
        assert backwards.per_user == [(1, 100.0), (2, 100.0), (3, 100.0), (4, 100.0)]
        assert backwards.per_user == results.per_user

    def test_summed_confusion_and_mean_time(self):
        matrix = label_matrix(n_users=3, n_gestures=4, per_cell=8)
        plans = [plan_user_dependent(matrix, user=u, seed=u) for u in (1, 2, 3)]
        results = evaluate(matrix, plans, ClassifierSpec("rc"), timing=True)
        counts = sum(r.confusion.counts for r in results.reports)
        assert np.array_equal(results.confusion.counts, counts)
        assert results.confusion.classes == results.reports[0].confusion.classes
        assert np.max(np.abs(results.confusion.percents.sum(axis=1) - 100.0)) <= 1e-9
        assert results.mean_classify_time_s == pytest.approx(
            np.mean([r.mean_classify_time_s for r in results.reports]))
        assert results.mean_classify_time_s > 0.0


class TestTiming:
    def test_positive_and_ordered(self):
        rng = np.random.default_rng(9)
        X = np.vstack([rng.normal(loc=4.0 * c, size=(20, N_FEATURES)) for c in range(3)])
        y = np.repeat([1, 2, 3], 20)
        from gestrec import ExtraTreesClassifier, RidgeClassifier

        et = ExtraTreesClassifier(n_trees=100, seed=0).fit(X, y)
        rc = RidgeClassifier().fit(X, y)
        t_et = time_single_predictions(et, X)
        t_rc = time_single_predictions(rc, X)
        assert t_rc > 0.0
        assert t_et > t_rc
