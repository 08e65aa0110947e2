"""
Per-sample classification cost
==============================

For an always-on wearable, the cost of classifying one gesture matters
as much as accuracy. This script times single-sample prediction for the
three classifiers the way the evaluation harness does: many single
calls, grouped, reporting the median of group means so one scheduler
hiccup cannot skew the figure.
"""

from gestrec import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RidgeClassifier,
    SynthSpec,
    extract_all,
    generate,
    plan_mixed,
    time_single_predictions,
)
from gestrec.evaluation import TIMING_CALLS_PER_GROUP, TIMING_GROUPS

matrix = extract_all(generate(SynthSpec(
    users=4, gestures=8, samples_per_gesture_per_user=8,
    length_range=(40, 80), user_speed_jitter=0.2, noise_sigma=0.15,
    user_style_offset=0.4, seed=2,
)))
plan = plan_mixed(matrix, seed=0)
X_train = matrix.X[plan.train_indices]
y_train = matrix.gestures[plan.train_indices]
X_test = matrix.X[plan.test_indices]

# Default hyperparameters: 100 trees, 100 boosting stages, closed-form
# ridge. Training cost differs wildly; this demo measures prediction.
models = {
    "ridge": RidgeClassifier().fit(X_train, y_train),
    "boosting": GradientBoostingClassifier(seed=0).fit(X_train, y_train),
    "extra trees": ExtraTreesClassifier(seed=0).fit(X_train, y_train),
}

print(f"timing single-sample prediction over {X_test.shape[0]} test rows")
print(f"({TIMING_GROUPS} groups x {TIMING_CALLS_PER_GROUP} calls each, "
      f"median of group means)\n")

times = {}
for name, model in models.items():
    times[name] = time_single_predictions(model, X_test)
    accuracy = 100.0 * float(
        (model.predict(X_test) == matrix.gestures[plan.test_indices]).mean()
    )
    print(f"  {name:>12}: {times[name] * 1e6:8.1f} us/sample   "
          f"(test accuracy {accuracy:.1f}%)")

# Ridge is a single matrix-vector product; boosting walks 100 shallow
# trees; the extra-trees ensemble walks 100 deep ones. The ordering is
# a property of the model shapes, not of this machine.
ordered = sorted(times, key=times.get)
print(f"\ncheapest to dearest: {' < '.join(ordered)}")
