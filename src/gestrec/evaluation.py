"""Evaluation harness: split planning, scoring, and prediction timing.

Three end-user modes are supported. UserDependent trains and tests
inside a single user's recordings; MixedUser pools every user before a
stratified split; UserIndependent is leave-one-user-out cross-validation
(one fold per user, the tested user never seen in training).

Stratified splits work per gesture label: each label contributes its
floor(ratio * count) rows to the train side, and the remaining train
quota up to ceil(ratio * scope_size) is assigned by largest fractional
remainder (ties to the lowest label), so every label lands on its floor
or ceiling and the train side takes the rounding remainder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .classifiers import make_classifier
from .features import FeatureMatrix

__all__ = [
    "USER_DEPENDENT",
    "MIXED_USER",
    "USER_INDEPENDENT",
    "SplitPlan",
    "ClassifierSpec",
    "ConfusionMatrix",
    "EvaluationReport",
    "FoldResults",
    "plan_user_dependent",
    "plan_mixed",
    "plan_user_independent",
    "fit_plan",
    "score",
    "evaluate",
    "time_single_predictions",
]

USER_DEPENDENT = "UserDependent"
MIXED_USER = "MixedUser"
USER_INDEPENDENT = "UserIndependent"

TIMING_GROUPS = 10
TIMING_CALLS_PER_GROUP = 20


@dataclass(frozen=True)
class SplitPlan:
    """One train/test partition of a row scope."""

    mode: str
    train_indices: np.ndarray
    test_indices: np.ndarray
    seed: int
    ratio: float

    def __post_init__(self):
        train = set(self.train_indices.tolist())
        test = set(self.test_indices.tolist())
        if train & test:
            raise ValueError("train and test indices overlap")
        if not train or not test:
            raise ValueError("both split sides must be non-empty")


@dataclass(frozen=True)
class ClassifierSpec:
    """Names a classifier kind, its hyperparameters and its seed."""

    kind: str
    hyperparams: dict = field(default_factory=dict)
    seed: int = 0

    def build(self):
        return make_classifier(self.kind, seed=self.seed, **self.hyperparams)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts and row-percentage confusion over an ordered label set."""

    classes: tuple
    counts: np.ndarray  # (k, k) int64, rows = true label
    percents: np.ndarray  # (k, k) float64, rows sum to 100 or are flagged
    zero_support: tuple  # labels with no test rows (all-zero percent rows)

    @staticmethod
    def from_predictions(classes, y_true, y_pred) -> "ConfusionMatrix":
        classes = tuple(classes)
        index = {c: i for i, c in enumerate(classes)}
        k = len(classes)
        counts = np.zeros((k, k), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            counts[index[t], index[p]] += 1
        return ConfusionMatrix.from_counts(classes, counts)

    @staticmethod
    def from_counts(classes, counts) -> "ConfusionMatrix":
        classes = tuple(classes)
        support = counts.sum(axis=1)
        percents = np.zeros(counts.shape)
        nz = support > 0
        percents[nz] = 100.0 * counts[nz] / support[nz, None]
        zero = tuple(c for c, s in zip(classes, support) if s == 0)
        return ConfusionMatrix(classes, counts, percents, zero)


@dataclass(frozen=True)
class EvaluationReport:
    """Outcome of fitting on a plan's train rows and scoring its test rows."""

    mode: str
    classifier_kind: str
    hyperparams: dict
    seed: int
    confusion: ConfusionMatrix
    mean_classify_time_s: float
    n_train: int
    n_test: int
    per_user_accuracy: dict = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        """Percent of the test rows on the confusion diagonal."""
        return 100.0 * float(self.confusion.counts.trace()) / self.n_test


@dataclass(frozen=True)
class FoldResults:
    """The summary of the reports of a list of plans (one per user, one
    pooled split, or one fold per user): the figures ``gestrec eval``
    writes."""

    reports: tuple[EvaluationReport, ...]

    def __post_init__(self):
        if not self.reports:
            raise ValueError("FoldResults needs at least one report")

    @property
    def average_accuracy(self) -> float:
        """Mean of the reports' accuracies."""
        return float(np.mean([r.accuracy for r in self.reports]))

    @property
    def per_user(self) -> list[tuple[int, float]]:
        """Sorted (user, accuracy) pairs of all reports."""
        return sorted(row for r in self.reports for row in r.per_user_accuracy.items())

    @property
    def confusion(self) -> ConfusionMatrix:
        """The confusion matrix of the summed counts."""
        return ConfusionMatrix.from_counts(
            self.reports[0].confusion.classes,
            sum(r.confusion.counts for r in self.reports),
        )

    @property
    def mean_classify_time_s(self) -> float:
        """Mean of the reports' single-sample classify times."""
        return float(np.mean([r.mean_classify_time_s for r in self.reports]))


def _stratified_split(gestures: np.ndarray, scope: np.ndarray, ratio: float,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split scope rows per gesture label; see the module docstring."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    labels = np.unique(gestures[scope])
    counts = {g: int((gestures[scope] == g).sum()) for g in labels}
    for g, c in counts.items():
        if c < 2:
            raise ValueError(f"gesture {g} has {c} sample(s) in scope, need >= 2")

    target = int(np.ceil(ratio * scope.size))
    floors = {g: int(np.floor(ratio * c)) for g, c in counts.items()}
    extras = target - sum(floors.values())
    # Largest fractional remainder first; ties to the lowest label.
    by_remainder = sorted(
        labels, key=lambda g: (-(ratio * counts[g] - floors[g]), g)
    )
    take = dict(floors)
    for g in by_remainder[:extras]:
        take[g] += 1
    for g in labels:
        if take[g] == 0:
            take[g] = 1  # never leave a label unseen by training

    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    for g in labels:
        rows = scope[gestures[scope] == g]
        order = rng.permutation(rows.size)
        train_parts.append(rows[order[: take[g]]])
        test_parts.append(rows[order[take[g]:]])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    if test.size == 0:
        raise ValueError("split leaves no test rows; lower the ratio")
    return train, test


def plan_user_dependent(matrix: FeatureMatrix, user: int, ratio: float = 0.75,
                        seed: int = 0) -> SplitPlan:
    """Stratified split within a single user's rows."""
    scope = np.flatnonzero(matrix.users == user)
    if scope.size == 0:
        raise ValueError(f"unknown user {user}")
    train, test = _stratified_split(matrix.gestures, scope, ratio, seed)
    return SplitPlan(USER_DEPENDENT, train, test, seed, ratio)


def plan_mixed(matrix: FeatureMatrix, ratio: float = 0.75, seed: int = 0) -> SplitPlan:
    """Stratified split over all rows of all users pooled together."""
    scope = np.arange(matrix.n)
    if scope.size == 0:
        raise ValueError("empty feature matrix")
    train, test = _stratified_split(matrix.gestures, scope, ratio, seed)
    return SplitPlan(MIXED_USER, train, test, seed, ratio)


def plan_user_independent(matrix: FeatureMatrix, seed: int = 0) -> list[SplitPlan]:
    """Leave-one-user-out folds: fold u tests on user u, trains on the rest."""
    users = np.unique(matrix.users)
    if users.size < 2:
        raise ValueError("user-independent evaluation needs >= 2 users")
    folds = []
    for u in users:
        test = np.flatnonzero(matrix.users == u)
        train = np.flatnonzero(matrix.users != u)
        folds.append(SplitPlan(USER_INDEPENDENT, train, test, seed, 1.0 - 1.0 / users.size))
    return folds


def _build_classifier(spec):
    if isinstance(spec, ClassifierSpec):
        return spec.build()
    if callable(spec):
        return spec()
    raise TypeError("classifier_spec must be a ClassifierSpec or a factory callable")


def _spec_fields(spec, model) -> tuple[str, dict, int]:
    if isinstance(spec, ClassifierSpec):
        return spec.kind, dict(spec.hyperparams), spec.seed
    return getattr(model, "kind", type(model).__name__), {}, getattr(model, "seed", 0)


def time_single_predictions(model, X_test: np.ndarray) -> float:
    """Median of per-group mean wall-clock times for single-sample predict.

    Runs TIMING_GROUPS * TIMING_CALLS_PER_GROUP (>= 100) single-sample
    calls on rows cycled from the test set, single-threaded. Feature
    extraction is outside the timed region by construction: rows are
    already vectors.
    """
    n = X_test.shape[0]
    means = []
    call = 0
    for _ in range(TIMING_GROUPS):
        t0 = time.perf_counter()
        for _ in range(TIMING_CALLS_PER_GROUP):
            model.predict(X_test[call % n])
            call += 1
        means.append((time.perf_counter() - t0) / TIMING_CALLS_PER_GROUP)
    return float(np.median(means))


def fit_plan(matrix: FeatureMatrix, plan: SplitPlan, classifier_spec):
    """Build the classifier and fit it on a plan's train rows.

    Refuses a UserIndependent plan whose sides share a user.
    """
    model = _build_classifier(classifier_spec)
    train, test = plan.train_indices, plan.test_indices
    if plan.mode == USER_INDEPENDENT:
        leak = set(matrix.users[train].tolist()) & set(matrix.users[test].tolist())
        if leak:
            raise AssertionError(f"user(s) {sorted(leak)} appear on both fold sides")
    model.fit(matrix.X[train], matrix.gestures[train])
    return model


def score(matrix: FeatureMatrix, plan: SplitPlan, classifier_spec, model,
          timing: bool = True) -> EvaluationReport:
    """Score a fitted model on a plan's test rows."""
    test = plan.test_indices
    y_true = matrix.gestures[test]
    y_pred = np.asarray(model.predict(matrix.X[test]))

    classes = tuple(np.unique(matrix.gestures).tolist())
    confusion = ConfusionMatrix.from_predictions(classes, y_true.tolist(),
                                                 y_pred.tolist())

    per_user = {}
    for u in np.unique(matrix.users[test]):
        mask = matrix.users[test] == u
        per_user[int(u)] = 100.0 * float((y_true[mask] == y_pred[mask]).sum()) / int(
            mask.sum()
        )

    elapsed = (
        time_single_predictions(model, matrix.X[test]) if timing else 0.0
    )
    kind, hyper, seed = _spec_fields(classifier_spec, model)
    return EvaluationReport(
        mode=plan.mode,
        classifier_kind=kind,
        hyperparams=hyper,
        seed=seed,
        confusion=confusion,
        mean_classify_time_s=elapsed,
        n_train=plan.train_indices.size,
        n_test=test.size,
        per_user_accuracy=per_user,
    )


def evaluate(matrix: FeatureMatrix, plan, classifier_spec,
             timing: bool = True):
    """Fit on a plan's train rows, score its test rows.

    A single SplitPlan gives its EvaluationReport; a list of plans gives
    the FoldResults of their reports, in plan order. Call fit_plan and
    score directly to keep the fitted model.
    """
    if isinstance(plan, (list, tuple)):
        return FoldResults(tuple(
            evaluate(matrix, p, classifier_spec, timing=timing) for p in plan
        ))
    model = fit_plan(matrix, plan, classifier_spec)
    return score(matrix, plan, classifier_spec, model, timing)
