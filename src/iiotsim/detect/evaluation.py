"""Stratified cross-validation, confusion-matrix metrics and report tables."""

from dataclasses import dataclass, field

import numpy as np

from .estimators import (DecisionTreeClassifier, GaussianNBClassifier,
                         KNeighborsClassifier, LogisticRegressionOvR,
                         RandomForestClassifier, _Words, check_X_y)

NORMAL = "normal"       # the dataset label of rows outside every attack

# model kind -> the estimator class a ModelSpec of that kind builds
ESTIMATORS = {"DT": DecisionTreeClassifier, "RF": RandomForestClassifier,
              "NB": GaussianNBClassifier, "LR": LogisticRegressionOvR,
              "KNN": KNeighborsClassifier}


@dataclass
class ModelSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def build(self):
        cls = ESTIMATORS.get(self.kind)
        if cls is None:
            raise ValueError(f"unknown model kind {self.kind!r}")
        return cls(**self.params)


DEFAULT_SPECS = (ModelSpec("DT"), ModelSpec("RF"), ModelSpec("NB"),
                 ModelSpec("LR"), ModelSpec("KNN"))


def fold_features(X, train, val) -> tuple:
    """-> (X_train, X_val): new arrays of the fold's rows, each column mapped
    by a signed log1p, copysign(log1p(|x|), x), then z-scored with the
    training rows' mean and std. A column constant on the training rows maps
    them to 0."""
    X_tr, X_va = X[train], X[val]
    for part in (X_tr, X_va):
        mag = np.log1p(np.abs(part))
        np.copysign(mag, part, out=part)
    lo = X_tr.min(axis=0)
    constant = lo == X_tr.max(axis=0)
    mean = np.where(constant, lo, X_tr.mean(axis=0))
    std = np.where(constant, 1.0, X_tr.std(axis=0))
    for part in (X_tr, X_va):
        part -= mean
        part /= std
    return X_tr, X_va


def stratified_kfold(y, k: int, seed: int = 0) -> tuple:
    """-> (folds, warnings): per-class shuffled round-robin assignment.

    Every row validates exactly once; classes with fewer than k rows degrade
    stratification and are reported in warnings.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    y = np.asarray(y)
    words = _Words(seed)
    assignment = np.empty(len(y), dtype=np.int64)
    warnings = []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if len(idx) < k:
            warnings.append(f"class {str(cls)!r} has {len(idx)} rows for "
                            f"{k} folds")
        idx = idx[words.shuffled(len(idx))]
        assignment[idx] = np.arange(len(idx)) % k
    folds = []
    for f in range(k):
        val = np.flatnonzero(assignment == f)
        train = np.flatnonzero(assignment != f)
        folds.append((train, val))
    return folds, warnings


def confusion_matrix(y_true, y_pred, labels) -> np.ndarray:
    labels = list(labels)
    index = {l: i for i, l in enumerate(labels)}
    n = len(labels)
    codes = [index[t] * n + index[p] for t, p in zip(
        np.asarray(y_true).tolist(), np.asarray(y_pred).tolist())]
    return np.bincount(np.array(codes, dtype=np.int64),
                       minlength=n * n).reshape(n, n)


def metrics_from_confusion(cm, labels) -> dict:
    """Accuracy, support-weighted P/R/F and per-class detection rates.

    Per-class recall is the detection rate; precision for a class nobody was
    assigned to is defined as 0 and noted.
    """
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    labels = list(labels)
    accuracy = np.trace(cm) / total
    per_class = {}
    notes = []
    weighted_p = weighted_r = weighted_f = 0.0
    for i, label in enumerate(labels):
        tp = cm[i, i]
        support = cm[i, :].sum()
        predicted = cm[:, i].sum()
        recall = tp / support if support else 0.0
        if predicted:
            precision = tp / predicted
        else:
            precision = 0.0
            notes.append(f"no predictions for class {str(label)!r}; "
                         "precision=0")
        f_measure = (2 * precision * recall / (precision + recall)
                     if precision + recall else 0.0)
        per_class[label] = {"precision": precision, "recall": recall,
                            "f_measure": f_measure, "support": int(support)}
        w = support / total
        weighted_p += w * precision
        weighted_r += w * recall
        weighted_f += w * f_measure
    return {"accuracy": accuracy, "precision": weighted_p,
            "recall": weighted_r, "f_measure": weighted_f,
            "per_class": per_class, "notes": notes}


@dataclass
class CrossValResult:
    spec: ModelSpec
    labels: list
    confusion: np.ndarray
    metrics: dict
    warnings: list


def cross_validate(spec: ModelSpec, X, y, k: int = 10,
                   seed: int = 0) -> CrossValResult:
    """Stratified k-fold; per-fold confusion matrices are summed and the
    aggregate metrics come from the summed matrix. Every model sees the
    features as fold_features maps them, fitted on the training fold."""
    X, y = check_X_y(X, y)
    labels = [str(l) for l in np.unique(y)]
    folds, warnings = stratified_kfold(y, k, seed)
    summed = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for train, val in folds:
        X_tr, X_va = fold_features(X, train, val)
        model = spec.build()
        model.fit(X_tr, y[train])
        pred = model.predict(X_va)
        summed += confusion_matrix(y[val], pred, labels)
    return CrossValResult(spec, labels, summed,
                          metrics_from_confusion(summed, labels), warnings)


def detection_rates(result: CrossValResult, attack_labels) -> dict:
    """Per-attack-class recall (the detection rate) from the summed matrix."""
    rates = {}
    for label in attack_labels:
        if label in result.metrics["per_class"]:
            rates[label] = result.metrics["per_class"][label]["recall"]
    return rates


def attack_detection(result: CrossValResult) -> dict:
    """Attack vs normal from the summed matrix: the share of attack rows
    predicted as any attack class, and of normal rows predicted as an attack
    (each 0 when there are no such rows)."""
    attack = np.array([label != NORMAL for label in result.labels])
    cm = result.confusion
    rates = {}
    for name, rows in (("attack_detection_rate", attack),
                       ("false_alarm_rate", ~attack)):
        total = cm[rows].sum()
        rates[name] = cm[rows][:, attack].sum() / total if total else 0.0
    return rates


def format_metrics_table(results) -> str:
    lines = [f"{'Approach':<10}{'ACU (%)':>9}{'P (%)':>9}{'R (%)':>9}"
             f"{'F-M (%)':>9}"]
    for r in results:
        m = r.metrics
        lines.append(f"{r.spec.kind:<10}"
                     f"{100 * m['accuracy']:>9.1f}"
                     f"{100 * m['precision']:>9.1f}"
                     f"{100 * m['recall']:>9.1f}"
                     f"{100 * m['f_measure']:>9.1f}")
    return "\n".join(lines)


def format_detection_table(results, attack_labels) -> str:
    head = f"{'Approach':<10}" + "".join(f"{a:>18}" for a in attack_labels)
    lines = [head]
    for r in results:
        rates = detection_rates(r, attack_labels)
        row = f"{r.spec.kind:<10}"
        for a in attack_labels:
            row += f"{100 * rates.get(a, 0.0):>18.1f}"
        lines.append(row)
    return "\n".join(lines)
