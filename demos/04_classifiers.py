"""
Three classifiers on the same features
======================================

The pipeline ships three classifiers, all operating on the 33-value
vector: an extremely randomized tree ensemble, gradient-boosted trees,
and a one-vs-rest ridge scorer. This script trains each on the same
split and compares accuracy, then shows what the model files look like.
"""

import json
import tempfile
from pathlib import Path

from gestrec import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RidgeClassifier,
    SynthSpec,
    extract_all,
    generate,
    load_model,
    plan_mixed,
    save_model,
)

matrix = extract_all(generate(SynthSpec(
    users=5, gestures=6, samples_per_gesture_per_user=8,
    length_range=(40, 80), user_speed_jitter=0.2, noise_sigma=0.2,
    user_style_offset=0.5, seed=9,
)))
plan = plan_mixed(matrix, ratio=0.75, seed=0)
X_train = matrix.X[plan.train_indices]
y_train = matrix.gestures[plan.train_indices]
X_test = matrix.X[plan.test_indices]
y_test = matrix.gestures[plan.test_indices]
print(f"{X_train.shape[0]} training rows, {X_test.shape[0]} test rows")

# All three share the fit/predict surface, so they swap freely.
models = [
    ExtraTreesClassifier(seed=0),
    GradientBoostingClassifier(seed=0),
    RidgeClassifier(),
]
print(f"\n{'model':>24}  {'train acc':>9}  {'test acc':>8}")
for model in models:
    model.fit(X_train, y_train)
    train_acc = 100.0 * float((model.predict(X_train) == y_train).mean())
    test_acc = 100.0 * float((model.predict(X_test) == y_test).mean())
    print(f"{type(model).__name__:>24}  {train_acc:>8.1f}%  {test_acc:>7.1f}%")

# The ensembles are deterministic for a given seed: the trees' random
# thresholds come from per-tree streams split out of the seed, so the
# same fit happens on any machine.
a = ExtraTreesClassifier(seed=5).fit(X_train, y_train)
b = ExtraTreesClassifier(seed=5).fit(X_train, y_train)
print(f"\nseed-5 refit identical: "
      f"{(a.predict_proba(X_test) == b.predict_proba(X_test)).all()}")

# Models persist as tagged JSON; loading reconstructs the exact
# predictor.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    save_model(models[2], path)
    doc = json.loads(path.read_text())
    print(f"\nmodel file keys: {sorted(doc)}")
    print(f"kind={doc['kind']} classes={doc['classes']}")
    again = load_model(path)
    print(f"reload predicts identically: "
          f"{(again.predict(X_test) == models[2].predict(X_test)).all()}")
