"""Intrusion-detection suite: five from-scratch classifiers behind a
fit/predict estimator API, stratified cross-validation and confusion-matrix
metrics."""

from .estimators import (
    BaseEstimator,
    DecisionTreeClassifier,
    GaussianNBClassifier,
    KNeighborsClassifier,
    LogisticRegressionOvR,
    RandomForestClassifier,
    check_X_y,
    check_array,
)
from .evaluation import (
    DEFAULT_SPECS,
    NORMAL,
    CrossValResult,
    ModelSpec,
    attack_detection,
    confusion_matrix,
    cross_validate,
    detection_rates,
    fold_features,
    format_detection_table,
    format_metrics_table,
    metrics_from_confusion,
    stratified_kfold,
)

__all__ = [
    "BaseEstimator", "DecisionTreeClassifier", "GaussianNBClassifier",
    "KNeighborsClassifier", "LogisticRegressionOvR", "RandomForestClassifier",
    "check_X_y", "check_array", "ModelSpec", "DEFAULT_SPECS", "NORMAL",
    "CrossValResult", "attack_detection", "confusion_matrix",
    "cross_validate", "detection_rates", "fold_features",
    "format_detection_table", "format_metrics_table",
    "metrics_from_confusion", "stratified_kfold",
]
