"""
Three evaluation protocols
==========================

How well a gesture recognizer works depends on what "unseen data"
means. The harness implements three protocols:

* user-dependent — train and test within one user's samples;
* mixed-user — pool everyone, split stratified by gesture;
* user-independent — leave one user out entirely, average over folds.

This script runs all three on a synthetic corpus and prints the kind of
report the command-line tool writes to disk.
"""

import numpy as np

from gestrec import (
    ClassifierSpec,
    EASY_SPEC,
    evaluate,
    extract_all,
    generate,
    plan_mixed,
    plan_user_dependent,
    plan_user_independent,
)

matrix = extract_all(generate(EASY_SPEC))
print(f"corpus: {matrix.n} samples, "
      f"{len(np.unique(matrix.users))} users, "
      f"{len(np.unique(matrix.gestures))} gestures")

spec = ClassifierSpec("et", {"n_trees": 40}, seed=0)

# Each mode is a list of split plans. evaluate() on a list fits and
# scores every plan and returns their FoldResults: the per-user rows,
# their average, the summed confusion matrix and the mean classify
# time. These are the figures `gestrec eval` writes.
plans = {
    # User-dependent: one model per user, 75/25 stratified within the user.
    "user-dependent": [plan_user_dependent(matrix, u, seed=0) for u in range(1, 9)],
    # Mixed-user: everyone's samples pooled before the stratified split.
    "mixed": [plan_mixed(matrix, seed=0)],
    # User-independent: the hard protocol. Each fold tests a user the
    # model never saw; the spread across folds shows who gestures
    # "differently".
    "user-independent": plan_user_independent(matrix, seed=0),
}
results = {mode: evaluate(matrix, p, spec, timing=False)
           for mode, p in plans.items()}

for mode, res in results.items():
    print(f"\n{mode}: {len(res.reports)} plan(s), accuracy per tested user:")
    for user, acc in res.per_user:
        print(f"  user {user}: {acc:6.2f}")
    print(f"  average: {res.average_accuracy:.2f}")

# The confusion matrix is row-normalized to percentages: entry (i, j)
# is how often true gesture i was called gesture j.
mixed = results["mixed"]
(report,) = mixed.reports
print(f"\nmixed-user split: {report.n_train} train / {report.n_test} test")
print("confusion (percent):")
classes = mixed.confusion.classes
print("      " + "".join(f"{c:>7}" for c in classes))
for c, row in zip(classes, mixed.confusion.percents):
    print(f"  {c:>4}" + "".join(f"{v:7.1f}" for v in row))

ui = results["user-independent"].average_accuracy
print("\nexpected ordering on this corpus: mixed >= user-independent "
      f"({mixed.average_accuracy:.2f} >= {ui:.2f}: "
      f"{mixed.average_accuracy >= ui})")
