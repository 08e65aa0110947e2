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
    evaluate_folds,
    extract_all,
    generate,
    per_user_table,
    plan_mixed,
    plan_user_dependent,
    plan_user_independent,
)

matrix = extract_all(generate(EASY_SPEC))
print(f"corpus: {matrix.n} samples, "
      f"{len(np.unique(matrix.users))} users, "
      f"{len(np.unique(matrix.gestures))} gestures")

spec = ClassifierSpec("et", {"n_trees": 40}, seed=0)

# ---------------------------------------------------------------------
# User-dependent: one model per user, 75/25 stratified within the user.
reports = [
    evaluate(matrix, plan_user_dependent(matrix, u, seed=0), spec, timing=False)
    for u in range(1, 9)
]
rows, average = per_user_table(reports)
print("\nuser-dependent accuracy per user:")
for user, acc in rows:
    print(f"  user {user}: {acc:6.2f}")
print(f"  average: {average:.2f}")

# ---------------------------------------------------------------------
# Mixed-user: everyone's samples pooled before the stratified split.
report = evaluate(matrix, plan_mixed(matrix, seed=0), spec, timing=False)
print(f"\nmixed-user accuracy: {report.accuracy:.2f} "
      f"({report.n_train} train / {report.n_test} test)")

# The confusion matrix is row-normalized to percentages: entry (i, j)
# is how often true gesture i was called gesture j.
print("confusion (percent):")
classes = report.confusion.classes
print("      " + "".join(f"{c:>7}" for c in classes))
for c, row in zip(classes, report.confusion.percents):
    print(f"  {c:>4}" + "".join(f"{v:7.1f}" for v in row))

# ---------------------------------------------------------------------
# User-independent: the hard protocol. Each fold tests a user the model
# never saw; the spread across folds shows who gestures "differently".
folds = evaluate_folds(matrix, plan_user_independent(matrix, seed=0), spec,
                       timing=False)
print("\nuser-independent fold accuracies:")
for rep in folds.reports:
    ((user, _),) = rep.per_user_accuracy.items()
    print(f"  leave out user {user}: {rep.accuracy:6.2f}")
print(f"  average: {folds.average_accuracy:.2f}")

print("\nexpected ordering on this corpus: mixed >= user-independent "
      f"({report.accuracy:.2f} >= {folds.average_accuracy:.2f}: "
      f"{report.accuracy >= folds.average_accuracy})")
