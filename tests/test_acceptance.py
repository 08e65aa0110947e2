"""End-to-end acceptance suite.

One test per shipping criterion, each printing a single PASS line with
its measured numbers (run with ``-s`` to see them live) and enforcing
its runtime budget. The two real-corpus criteria are skipped unless the
corresponding environment variable points at a raw dataset tree:

* ``GESTREC_UWAVE_DIR`` — uWave-style tree (``U<u>/<day>/<g>-<t>.txt``)
* ``GESTREC_SONY_DIR`` — Sony-style tree (``U<u>/<g>-<t>.txt``)
"""

import os
import time

import numpy as np
import pytest

import gestrec.dsp as dsp
from gestrec import (
    ClassifierSpec,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RidgeClassifier,
    SynthSpec,
    evaluate,
    extract_all,
    generate,
    plan_mixed,
    plan_user_dependent,
    plan_user_independent,
    time_single_predictions,
)
from gestrec.data import SONY_ADAPTER, UWAVE_ADAPTER, load_sample_tree
from test_boosting import oracle_staged_scores, toy_problem
from test_dsp import naive_dft, rel_err
from test_ridge import oracle_weights

UWAVE_DIR = os.environ.get("GESTREC_UWAVE_DIR")
SONY_DIR = os.environ.get("GESTREC_SONY_DIR")


def test_criterion_1_dsp_oracles():
    budget_s = 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    worst_dft = worst_parseval = worst_real = worst_neg = 0.0
    n_series = 0

    # Pass 1: every length 4..512 (covers all odd and prime lengths)
    # against the independent naive-summation transform.
    for n in range(4, 513):
        x = rng.normal(size=n)
        worst_dft = max(worst_dft, rel_err(np.fft.fft(x), naive_dft(x)))
        n_series += 1

    # Pass 2: same length coverage for the energy and analytic-signal
    # identities, which have closed-form expectations.
    for n in range(4, 513):
        x = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        scale = max(1.0, float(np.sum(x * x)))
        worst_parseval = max(
            worst_parseval,
            abs(dsp.spectral_energy(x) - float(np.sum(x * x))) / scale,
        )
        xa = x + 1j * dsp.hilbert_rows(x)
        worst_real = max(worst_real, float(np.max(np.abs(xa.real - x))))
        spectrum = np.fft.fft(xa)
        negative = spectrum[(n // 2) + 1 :]
        if negative.size:
            worst_neg = max(
                worst_neg,
                float(np.max(np.abs(negative))) / max(1.0, float(np.max(np.abs(spectrum)))),
            )
        n_series += 1

    elapsed = time.perf_counter() - t0
    assert n_series >= 1000
    assert worst_dft <= 1e-12
    assert worst_parseval <= 1e-9
    assert worst_real <= 1e-9
    assert worst_neg <= 1e-9
    assert elapsed < budget_s
    print(
        f"criterion 1: PASS — {n_series} series, dft {worst_dft:.2e}, "
        f"parseval {worst_parseval:.2e}, re(x_a)-x {worst_real:.2e}, "
        f"neg-spectrum {worst_neg:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_classifier_oracles(blob_data):
    budget_s = 60.0
    t0 = time.perf_counter()

    # Ridge weights against the explicit normal-equations solve.
    worst_ridge = 0.0
    for n, seed in ((40, 0), (120, 1), (200, 2)):
        X, y = blob_data(n_classes=4, n_per=n // 4, d=33, spread=2.0, seed=seed)
        model = RidgeClassifier(alpha=1.0).fit(X, y)
        want = oracle_weights(X, y, alpha=1.0)
        worst_ridge = max(worst_ridge, float(np.max(np.abs(model.weights_ - want))))
    assert worst_ridge <= 1e-8

    # Gradient boosting staged scores against the hand-stepped oracle.
    X, y = toy_problem()
    gb = GradientBoostingClassifier(n_stages=2, learning_rate=0.1, max_depth=1).fit(X, y)
    worst_gb = float(
        np.max(np.abs(gb.staged_scores(X) - oracle_staged_scores(X, y, 2, 0.1)))
    )
    assert worst_gb <= 1e-10

    # Noiseless separable fixture: both ensembles memorize it exactly.
    spec = SynthSpec(
        users=2,
        gestures=6,
        samples_per_gesture_per_user=4,
        length_range=(24, 48),
        user_speed_jitter=0.1,
        noise_sigma=0.0,
        user_style_offset=0.2,
        seed=3,
    )
    matrix = extract_all(generate(spec))
    et_acc = float(
        (ExtraTreesClassifier(seed=0).fit(matrix.X, matrix.gestures)
         .predict(matrix.X) == matrix.gestures).mean()
    )
    gb_model = GradientBoostingClassifier(seed=0).fit(matrix.X, matrix.gestures)
    gb_acc = float((gb_model.predict(matrix.X) == matrix.gestures).mean())
    assert et_acc == 1.0
    assert gb_acc == 1.0

    # Training log-loss of every stage, non-increasing.
    staged = gb_model.staged_scores(matrix.X)
    y_idx = np.searchsorted(gb_model.classes_, matrix.gestures)
    losses = []
    for scores in staged:
        z = scores - scores.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        losses.append(float(-logp[np.arange(matrix.n), y_idx].mean()))
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s
    print(
        f"criterion 2: PASS — ridge {worst_ridge:.2e}, gb staged {worst_gb:.2e}, "
        f"et/gb train acc {et_acc:.0%}/{gb_acc:.0%}, "
        f"loss monotone over {len(losses)} stages, {elapsed:.1f}s"
    )


def test_criterion_3_harness_properties(small_matrix):
    budget_s = 30.0
    t0 = time.perf_counter()
    matrix = small_matrix
    checks = 0

    # Stratified splits: disjoint, covering, per-gesture floor/ceil.
    for ratio in (0.25, 0.5, 0.6, 0.75, 0.9):
        for seed in range(5):
            plan = plan_mixed(matrix, ratio=ratio, seed=seed)
            merged = np.sort(
                np.concatenate([plan.train_indices, plan.test_indices])
            )
            assert np.array_equal(merged, np.arange(matrix.n))
            train_g = matrix.gestures[plan.train_indices]
            for g in np.unique(matrix.gestures):
                count = int((matrix.gestures == g).sum())
                got = int((train_g == g).sum())
                lo = max(1, int(np.floor(ratio * count)))
                hi = max(lo, int(np.ceil(ratio * count)))
                assert lo <= got <= hi
            checks += 1

    # Leave-one-user-out: zero leakage in every fold.
    for fold in plan_user_independent(matrix):
        train_users = set(matrix.users[fold.train_indices].tolist())
        test_users = set(matrix.users[fold.test_indices].tolist())
        assert not train_users & test_users
        assert len(test_users) == 1
        checks += 1

    # Confusion rows sum to 100, accuracy equals the trace share, and
    # the whole report is seed-deterministic (timing aside).
    spec = ClassifierSpec("et", {"n_trees": 15}, seed=2)
    plan = plan_mixed(matrix, seed=4)
    rep_a = evaluate(matrix, plan, spec, timing=False)
    rep_b = evaluate(matrix, plan, spec, timing=False)
    sums = rep_a.confusion.percents.sum(axis=1)
    assert float(np.max(np.abs(sums - 100.0))) <= 1e-9
    trace_acc = 100.0 * rep_a.confusion.counts.trace() / rep_a.n_test
    assert abs(trace_acc - rep_a.accuracy) <= 1e-9
    assert rep_a.accuracy == rep_b.accuracy
    assert np.array_equal(rep_a.confusion.counts, rep_b.confusion.counts)
    assert rep_a.per_user_accuracy == rep_b.per_user_accuracy
    checks += 3

    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s
    print(f"criterion 3: PASS — {checks} property checks, {elapsed:.1f}s")


def test_criterion_4_synthetic_end_to_end(easy_matrix):
    budget_s = 300.0
    t0 = time.perf_counter()
    spec = ClassifierSpec("et", {}, seed=0)

    mixed = evaluate(easy_matrix, plan_mixed(easy_matrix, seed=0), spec, timing=False)
    folds = evaluate(
        easy_matrix, plan_user_independent(easy_matrix, seed=0), spec, timing=False
    )

    elapsed = time.perf_counter() - t0
    assert mixed.accuracy >= 90.0
    assert mixed.accuracy >= folds.average_accuracy
    assert elapsed < budget_s
    print(
        f"criterion 4: PASS — mixed {mixed.accuracy:.2f} >= 90, "
        f"mixed >= user-independent avg {folds.average_accuracy:.2f}, {elapsed:.1f}s"
    )


def test_criterion_5_timing_ordering(easy_matrix):
    plan = plan_mixed(easy_matrix, seed=0)
    X_train = easy_matrix.X[plan.train_indices]
    y_train = easy_matrix.gestures[plan.train_indices]
    X_test = easy_matrix.X[plan.test_indices]

    models = [
        ("rc", RidgeClassifier().fit(X_train, y_train)),
        ("gb", GradientBoostingClassifier().fit(X_train, y_train)),
        ("et", ExtraTreesClassifier().fit(X_train, y_train)),
    ]
    # Interleaved rounds in rotating order, so that a change in the
    # host's speed slows all three models alike; then each one's median.
    rounds = {name: [] for name, _ in models}
    for r in range(21):
        for name, model in models[r % 3:] + models[:r % 3]:
            rounds[name].append(time_single_predictions(model, X_test))
    times = {name: float(np.median(t)) for name, t in rounds.items()}

    assert times["rc"] < times["gb"] < times["et"]
    print(
        "criterion 5: PASS — per-sample time "
        f"rc {times['rc']:.2e}s < gb {times['gb']:.2e}s < et {times['et']:.2e}s"
    )


# ------------------------------------------------- real-corpus criteria


@pytest.fixture(scope="module")
def uwave_results():
    matrix = extract_all(load_sample_tree(UWAVE_DIR, UWAVE_ADAPTER), jobs=4)
    et = ClassifierSpec("et", {}, seed=0)

    ud_plans = [plan_user_dependent(matrix, int(u), seed=0)
                for u in np.unique(matrix.users)]
    ud = evaluate(matrix, ud_plans, et, timing=False)
    mixed = evaluate(matrix, plan_mixed(matrix, seed=0), et, timing=False)
    folds = evaluate(matrix, plan_user_independent(matrix, seed=0), et, timing=False)
    rc = evaluate(matrix, ud_plans, ClassifierSpec("rc", {}, seed=0), timing=False)
    return {
        "ud_rows": ud.per_user,
        "ud_avg": ud.average_accuracy,
        "mixed": mixed.accuracy,
        "folds": folds,
        "rc_ud_avg": rc.average_accuracy,
    }


@pytest.mark.skipif(UWAVE_DIR is None, reason="GESTREC_UWAVE_DIR not set")
def test_criterion_6_uwave_reproduction(uwave_results):
    budget_s = 900.0
    t0 = time.perf_counter()
    r = uwave_results
    ui_avg = r["folds"].average_accuracy

    assert abs(r["ud_avg"] - 97.76) <= 3.0
    assert abs(r["mixed"] - 97.85) <= 3.0
    assert abs(ui_avg - 82.49) <= 5.0
    assert ui_avg > 75.4  # prior art baseline this pipeline must beat
    assert abs(r["rc_ud_avg"] - 97.5) <= 3.0

    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s
    print(
        f"criterion 6 (uwave): PASS — et ud {r['ud_avg']:.2f} um {r['mixed']:.2f} "
        f"ui {ui_avg:.2f}, rc ud {r['rc_ud_avg']:.2f}, {elapsed:.1f}s"
    )


@pytest.mark.skipif(SONY_DIR is None, reason="GESTREC_SONY_DIR not set")
def test_criterion_6_sony_reproduction():
    matrix = extract_all(load_sample_tree(SONY_DIR, SONY_ADAPTER), jobs=4)
    et = ClassifierSpec("et", {}, seed=0)

    ud_avg = evaluate(matrix, [
        plan_user_dependent(matrix, int(u), seed=0) for u in np.unique(matrix.users)
    ], et, timing=False).average_accuracy
    mixed = evaluate(matrix, plan_mixed(matrix, seed=0), et, timing=False)
    folds = evaluate(matrix, plan_user_independent(matrix, seed=0), et, timing=False)

    assert abs(ud_avg - 95.88) <= 3.0
    assert abs(mixed.accuracy - 98.63) <= 3.0
    assert abs(folds.average_accuracy - 75.1) <= 5.0
    print(
        f"criterion 6 (sony): PASS — et ud {ud_avg:.2f} um {mixed.accuracy:.2f} "
        f"ui {folds.average_accuracy:.2f}"
    )


@pytest.mark.skipif(UWAVE_DIR is None, reason="GESTREC_UWAVE_DIR not set")
def test_criterion_7_uwave_per_user_shape(uwave_results):
    r = uwave_results
    floor = min(acc for _, acc in r["ud_rows"])
    assert floor >= 90.0

    fold_u8 = next(
        rep for rep in r["folds"].reports if 8 in rep.per_user_accuracy
    )
    assert abs(fold_u8.accuracy - 92.14) <= 5.0
    print(
        f"criterion 7 (uwave): PASS — per-user floor {floor:.2f} >= 90, "
        f"user-8 fold {fold_u8.accuracy:.2f} within 5 of 92.14"
    )
