"""Tri-axial accelerometer gesture recognition.

A pipeline from raw accelerometer recordings to classified gestures:
dataset ingestion (uWave- and Sony-style trees or a canonical manifest),
a fixed 33-value time/frequency/Hilbert feature vector, three
from-scratch classifiers (extremely randomized trees, gradient boosting,
ridge), and an evaluation harness covering user-dependent, mixed-user
and user-independent protocols with confusion matrices and per-sample
timing. A deterministic synthetic generator makes the whole pipeline
runnable without real corpora.
"""

__version__ = "0.1.0"

from .classifiers import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RidgeClassifier,
    load_model,
    make_classifier,
    save_model,
)
from .data import (
    AdapterConfig,
    Dataset,
    DatasetMeta,
    GestureSample,
    load_manifest,
    save_manifest,
)
from .errors import (
    DataError,
    GestureRecError,
    ModelFileError,
    NonFiniteFeatureError,
    NumericError,
    SingularSystemError,
    VersionMismatchError,
)
from .evaluation import (
    MIXED_USER,
    USER_DEPENDENT,
    USER_INDEPENDENT,
    ClassifierSpec,
    ConfusionMatrix,
    EvaluationReport,
    FoldResults,
    SplitPlan,
    evaluate,
    evaluate_folds,
    fit_plan,
    per_user_table,
    plan_mixed,
    plan_user_dependent,
    plan_user_independent,
    score,
    time_single_predictions,
)
from .features import (
    FEATURE_NAMES,
    FEATURE_ORDER_VERSION,
    FeatureMatrix,
    extract_all,
    feature_set,
    load_features,
    save_features,
)
from .synth import EASY_SPEC, SynthSpec, generate

__all__ = [
    "__version__",
    "AdapterConfig",
    "ClassifierSpec",
    "ConfusionMatrix",
    "Dataset",
    "DatasetMeta",
    "DataError",
    "EASY_SPEC",
    "EvaluationReport",
    "ExtraTreesClassifier",
    "FEATURE_NAMES",
    "FEATURE_ORDER_VERSION",
    "FeatureMatrix",
    "FoldResults",
    "GestureRecError",
    "MIXED_USER",
    "USER_DEPENDENT",
    "USER_INDEPENDENT",
    "GestureSample",
    "GradientBoostingClassifier",
    "ModelFileError",
    "NonFiniteFeatureError",
    "NumericError",
    "RidgeClassifier",
    "SingularSystemError",
    "SplitPlan",
    "SynthSpec",
    "VersionMismatchError",
    "evaluate",
    "evaluate_folds",
    "extract_all",
    "feature_set",
    "fit_plan",
    "generate",
    "load_features",
    "load_manifest",
    "load_model",
    "make_classifier",
    "per_user_table",
    "plan_mixed",
    "plan_user_dependent",
    "plan_user_independent",
    "save_features",
    "save_manifest",
    "save_model",
    "score",
    "time_single_predictions",
]
