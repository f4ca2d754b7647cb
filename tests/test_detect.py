import json
import math
import os
import shutil
import warnings

import numpy as np
import pytest

from iiotsim import analytics, cli
from iiotsim.detect import (CrossValResult, DecisionTreeClassifier,
                            GaussianNBClassifier, KNeighborsClassifier,
                            LogisticRegressionOvR, ModelSpec,
                            RandomForestClassifier, attack_detection,
                            check_X_y, confusion_matrix, cross_validate,
                            fold_features, format_metrics_table,
                            metrics_from_confusion, stratified_kfold)
from iiotsim.detect import estimators

from conftest import binary_logistic_loss_and_grad


def toy_blobs(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal((0, 0), 0.5, size=(n, 2))
    X1 = rng.normal((5, 5), 0.5, size=(n, 2))
    X = np.vstack([X0, X1])
    y = np.array(["a"] * n + ["b"] * n)
    return X, y


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0, float("nan")]], ["a"])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0], [2.0]], ["a"])

    def test_single_class_rejected_at_fit(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([[1.0], [2.0]], ["a", "a"])


class TestKnn:
    def test_k1_nearest_point(self):
        knn = KNeighborsClassifier(k=1)
        knn.fit([[0.0], [10.0]], ["A", "B"])
        assert knn.predict([[1.0]])[0] == "A"
        assert knn.predict([[9.0]])[0] == "B"

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError):
            KNeighborsClassifier(k=k).fit([[0.0], [1.0]], ["a", "b"])

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(k=5).fit([[0.0], [1.0]], ["a", "b"])

    def test_majority_vote(self):
        knn = KNeighborsClassifier(k=3)
        knn.fit([[0.0], [0.1], [0.2], [9.0]], ["A", "A", "B", "B"])
        assert knn.predict([[0.05]])[0] == "A"


class TestDecisionTree:
    def test_separable_training_accuracy_one(self):
        X, y = toy_blobs()
        model = DecisionTreeClassifier().fit(X, y)
        assert (model.predict(X) == y).all()

    def test_deterministic(self):
        X, y = toy_blobs(seed=3)
        p1 = DecisionTreeClassifier(random_state=5).fit(X, y).predict(X)
        p2 = DecisionTreeClassifier(random_state=5).fit(X, y).predict(X)
        assert (p1 == p2).all()

    def test_min_leaf_respected(self):
        X, y = toy_blobs(n=10)
        model = DecisionTreeClassifier(min_leaf=5).fit(X, y)
        # every leaf decision still predicts a valid class
        assert set(model.predict(X)) <= {"a", "b"}


class TestRandomForest:
    def test_single_tree_no_sampling_equals_dt(self):
        X, y = toy_blobs(n=80, seed=9)
        # add label noise so the tree structure is non-trivial
        y = y.copy()
        y[::7] = np.where(y[::7] == "a", "b", "a")
        rf = RandomForestClassifier(n_trees=1, bootstrap=False,
                                    max_features=None, random_state=1)
        dt = DecisionTreeClassifier(random_state=1)
        rf.fit(X, y)
        dt.fit(X, y)
        grid = np.random.default_rng(4).uniform(-2, 7, size=(500, 2))
        assert (rf.predict(grid) == dt.predict(grid)).all()

    def test_forest_deterministic(self):
        X, y = toy_blobs(seed=2)
        p1 = RandomForestClassifier(n_trees=10, random_state=3).fit(
            X, y).predict(X)
        p2 = RandomForestClassifier(n_trees=10, random_state=3).fit(
            X, y).predict(X)
        assert (p1 == p2).all()


def nb_log_proba(model, X):
    """log P(class | x) from a fitted GaussianNBClassifier's joint
    log-likelihoods, normalised by log-sum-exp."""
    jll = model._joint_log_likelihood(np.array(X, dtype=np.float64))
    top = jll.max(axis=1, keepdims=True)
    return jll - top - np.log(np.exp(jll - top).sum(axis=1, keepdims=True))


class TestGaussianNB:
    def test_posterior_matches_closed_form(self):
        # symmetric two-gaussian toy: P(a | x) computed by hand
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array(["a", "a", "b", "b"])
        model = GaussianNBClassifier(var_floor=0.0).fit(X, y)
        x = 0.3
        mu_a, var_a = -1.5, 0.25
        mu_b, var_b = 1.5, 0.25
        def likelihood(mu, var):
            return math.exp(-(x - mu) ** 2 / (2 * var)) / math.sqrt(
                2 * math.pi * var)
        pa = likelihood(mu_a, var_a) * 0.5
        pb = likelihood(mu_b, var_b) * 0.5
        expected = pa / (pa + pb)
        log_proba = nb_log_proba(model, [[x]])
        assert abs(math.exp(log_proba[0][0]) - expected) <= 1e-9

    def test_prediction_side(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array(["a", "a", "b", "b"])
        model = GaussianNBClassifier().fit(X, y)
        assert model.predict([[-3.0]])[0] == "a"
        assert model.predict([[3.0]])[0] == "b"


class TestLogisticRegression:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 5))
        t = (rng.random(40) > 0.5).astype(np.float64)
        for l2 in (0.0, 0.01):
            params = rng.normal(size=6) * 0.5
            _, grad = binary_logistic_loss_and_grad(params, X, t, l2)
            eps = 1e-6
            for j in range(len(params)):
                up = params.copy(); up[j] += eps
                dn = params.copy(); dn[j] -= eps
                lu, _ = binary_logistic_loss_and_grad(up, X, t, l2)
                ld, _ = binary_logistic_loss_and_grad(dn, X, t, l2)
                numeric = (lu - ld) / (2 * eps)
                assert abs(numeric - grad[j]) <= 1e-5

    def test_learns_separable_data(self):
        X, y = toy_blobs(seed=5)
        model = LogisticRegressionOvR().fit(X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_separable_class_and_constant_column_converge(self, monkeypatch):
        # class "c" lies apart from the others on feature 0 and feature 2 is
        # constant; on the raw rows the constant column and the intercept
        # are collinear, and only the L2 term keeps the Hessian invertible
        rng = np.random.default_rng(2)
        X = np.column_stack([
            np.concatenate([rng.normal(0, 1, 80), rng.normal(10, 1, 40)]),
            rng.normal(size=120), np.full(120, 4.0)])
        y = np.array(["a", "b"] * 40 + ["c"] * 40)
        train, val = stratified_kfold(y, 5, seed=0)[0][0]
        steps = []
        sigmoid = estimators._sigmoid
        monkeypatch.setattr(estimators, "_sigmoid",
                            lambda z: steps.append(1) or sigmoid(z))
        for X_tr, X_va in (fold_features(X, train, val), (X[train], X[val])):
            steps.clear()
            model = LogisticRegressionOvR().fit(X_tr, y[train])
            # one sigmoid per Newton step: no class ran to the cap
            assert len(steps) < 3 * estimators._NEWTON_MAX_STEPS
            assert np.isfinite(model.coef_).all()
            assert np.isfinite(model.intercept_).all()
            assert (model.predict(X_va)[y[val] == "c"] == "c").all()
            # each class's fit is the penalised optimum: its gradient is 0
            for c, label in enumerate(model.classes_):
                params = np.append(model.coef_[c], model.intercept_[c])
                t = (y[train] == label).astype(np.float64)
                _, grad = binary_logistic_loss_and_grad(params, X_tr, t,
                                                        model.l2)
                assert np.abs(grad).max() < 1e-9


class TestStratifiedKFold:
    def test_partition_each_row_validates_once(self):
        y = np.array(["a"] * 50 + ["b"] * 50)
        folds, warnings = stratified_kfold(y, 10, seed=1)
        assert len(folds) == 10
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen.tolist()) == list(range(100))
        assert all(len(val) == 10 for _, val in folds)
        assert warnings == []

    def test_same_seed_same_folds(self):
        y = np.array(["a", "b"] * 30)
        f1, _ = stratified_kfold(y, 5, seed=9)
        f2, _ = stratified_kfold(y, 5, seed=9)
        for (t1, v1), (t2, v2) in zip(f1, f2):
            assert (v1 == v2).all()

    def test_small_class_warns(self):
        y = np.array(["a"] * 50 + ["rare"] * 5)
        _, warnings = stratified_kfold(y, 10, seed=0)
        assert any("rare" in w for w in warnings)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array(["a", "b"]), 1)


def oracle_metrics(cm):
    """Plain-loop confusion-matrix metrics, independent of the library."""
    k = len(cm)
    total = sum(sum(row) for row in cm)
    acc = sum(cm[i][i] for i in range(k)) / total
    per = []
    for i in range(k):
        support = sum(cm[i])
        predicted = sum(cm[r][i] for r in range(k))
        recall = cm[i][i] / support if support else 0.0
        precision = cm[i][i] / predicted if predicted else 0.0
        f = 2 * precision * recall / (precision + recall) \
            if precision + recall else 0.0
        per.append((precision, recall, f, support))
    wp = sum(p * s for p, _, _, s in per) / total
    wr = sum(r * s for _, r, _, s in per) / total
    wf = sum(f * s for _, _, f, s in per) / total
    return acc, wp, wr, wf


class TestMetrics:
    def test_perfect_diagonal(self):
        m = metrics_from_confusion([[10, 0], [0, 10]], ["a", "b"])
        assert m["accuracy"] == m["precision"] == m["recall"] == \
            m["f_measure"] == 1.0

    def test_hand_computed_two_class(self):
        m = metrics_from_confusion([[8, 2], [4, 6]], ["a", "b"])
        assert m["accuracy"] == pytest.approx(0.70)
        assert m["per_class"]["a"]["recall"] == pytest.approx(0.80)

    def test_twenty_random_matrices_match_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            cm = rng.integers(0, 30, size=(k, k))
            # ensure at least one populated row
            cm[0, 0] += 1
            labels = [f"c{i}" for i in range(k)]
            m = metrics_from_confusion(cm, labels)
            acc, wp, wr, wf = oracle_metrics(cm.tolist())
            assert m["accuracy"] == pytest.approx(acc)
            assert m["precision"] == pytest.approx(wp)
            assert m["recall"] == pytest.approx(wr)
            assert m["f_measure"] == pytest.approx(wf)

    def test_weighted_recall_equals_accuracy_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            cm = rng.integers(0, 50, size=(k, k))
            cm[0, 0] += 1
            m = metrics_from_confusion(cm, [f"c{i}" for i in range(k)])
            assert m["recall"] == pytest.approx(m["accuracy"], abs=1e-12)

    def test_empty_prediction_column_precision_zero(self):
        m = metrics_from_confusion([[5, 0], [5, 0]], ["a", "b"])
        assert m["per_class"]["b"]["precision"] == 0.0
        assert m["notes"]

    def test_attack_detection_from_the_summed_matrix(self):
        # rows: normal, dos, scan; 1 of 10 normal rows alarms, and of 10
        # attack rows 7 are some attack (a dos row called scan counts)
        cm = np.array([[9, 1, 0], [2, 3, 1], [1, 0, 3]])
        labels = ["normal", "dos", "scan"]
        res = CrossValResult(ModelSpec("NB"), labels, [cm], cm,
                             metrics_from_confusion(cm, labels), [])
        assert attack_detection(res) == {
            "attack_detection_rate": pytest.approx(0.7),
            "false_alarm_rate": pytest.approx(0.1)}

    def test_messages_name_classes_as_plain_strings(self):
        # numpy 2 writes a numpy string's repr as np.str_('rare')
        y = np.array(["a"] * 50 + ["rare"] * 5)
        _, warnings = stratified_kfold(y, 10, seed=0)
        assert warnings == ["class 'rare' has 5 rows for 10 folds"]
        m = metrics_from_confusion([[5, 0], [5, 0]], np.unique(y))
        assert m["notes"] == ["no predictions for class 'rare'; precision=0"]

    def test_confusion_matrix_counts(self):
        cm = confusion_matrix(["a", "a", "b"], ["a", "b", "b"], ["a", "b"])
        assert cm.tolist() == [[1, 1], [0, 1]]


class TestModelSpec:
    def test_each_kind_builds_its_estimator_with_its_params(self):
        for kind, cls in (("DT", DecisionTreeClassifier),
                          ("RF", RandomForestClassifier),
                          ("NB", GaussianNBClassifier),
                          ("LR", LogisticRegressionOvR),
                          ("KNN", KNeighborsClassifier)):
            assert type(ModelSpec(kind).build()) is cls
        assert ModelSpec("RF", {"n_trees": 5}).build().n_trees == 5

    def test_an_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown model kind 'SVM'"):
            ModelSpec("SVM").build()


class TestCrossValidate:
    def test_metrics_row_format(self):
        X, y = toy_blobs(n=30, seed=8)
        res = cross_validate(ModelSpec("DT"), X, y, k=5, seed=1)
        table = format_metrics_table([res])
        lines = table.splitlines()
        assert lines[0].split() == ["Approach", "ACU", "(%)", "P", "(%)",
                                    "R", "(%)", "F-M", "(%)"]
        row = lines[1].split()
        assert row[0] == "DT"
        assert len(row) == 5
        float(row[1])

    def test_same_seed_identical_metrics(self):
        X, y = toy_blobs(n=40, seed=6)
        r1 = cross_validate(ModelSpec("RF", {"n_trees": 5}), X, y, k=5, seed=2)
        r2 = cross_validate(ModelSpec("RF", {"n_trees": 5}), X, y, k=5, seed=2)
        assert (r1.confusion == r2.confusion).all()

    def test_fold_matrices_sum_to_aggregate(self):
        X, y = toy_blobs(n=40, seed=6)
        res = cross_validate(ModelSpec("NB"), X, y, k=5, seed=3)
        assert (sum(res.fold_matrices) == res.confusion).all()
        assert res.confusion.sum() == len(y)

    def test_fold_features_fit_on_the_training_rows_only(self):
        # training rows 0-2: column 0 maps to -log 4, 0, log 4 (mean 0, std
        # log 4 sqrt(2/3)), column 1 is constant and column 2 is 0, 1, 2.
        # Row 3 validates; its huge and negative values must not move the
        # statistics and must stay finite.
        X = np.array([[-3.0, 2.0, 0.0], [0.0, 2.0, 1.0], [3.0, 2.0, 2.0],
                      [1e300, -5.0, -1e9]])
        before = X.copy()
        X_tr, X_va = fold_features(X, np.array([0, 1, 2]), np.array([3]))
        assert (X == before).all()
        std = math.log(4) * math.sqrt(2 / 3)
        assert X_tr[:, 0] == pytest.approx([-math.sqrt(1.5), 0.0,
                                            math.sqrt(1.5)])
        assert X_va[0, 0] == pytest.approx(math.log1p(1e300) / std)
        assert (X_tr[:, 1] == 0.0).all()
        assert X_va[0, 1] == pytest.approx(-math.log(6) - math.log(3))
        logs = np.log1p([0.0, 1.0, 2.0])
        assert X_va[0, 2] == pytest.approx(
            (-math.log1p(1e9) - logs.mean()) / logs.std())
        assert np.isfinite(X_va).all()
        # np.std of 100 copies of log1p(2) is 2.2e-16, not 0: a constant
        # column must still map to 0, not to rounding noise over 2.2e-16
        X_tr, X_va = fold_features(np.full((120, 1), 2.0), np.arange(100),
                                   np.arange(100, 120))
        assert (X_tr == 0.0).all() and (X_va == 0.0).all()


def test_every_model_detects_attacks_on_the_default_dataset(default_bundle,
                                                           tmp_path):
    # `iiotsim detect --seed 42`: each model must call at least 95% of the
    # attack rows some attack class, and at most 15% of the normal rows
    shutil.copy(os.path.join(default_bundle.out_dir, "dataset.csv"), tmp_path)
    assert cli.main(["--quiet", "detect", "--seed", "42",
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "detection_report.json").read_text()
    assert "np.str_" not in text
    metrics = {kind: model["metrics"]
               for kind, model in json.loads(text)["models"].items()}
    assert sorted(metrics) == ["DT", "KNN", "LR", "NB", "RF"]
    rates = {kind: m["attack_detection_rate"] for kind, m in metrics.items()}
    assert all(rate >= 0.95 for rate in rates.values()), rates
    alarms = {kind: m["false_alarm_rate"] for kind, m in metrics.items()}
    assert all(rate <= 0.15 for rate in alarms.values()), alarms


# ---------------------------------------------------------------------------
# Frozen reference: plain CART (full one-hot scan per feature, nested nodes,
# per-row walk) and k-NN (full lexsort). The fast estimators must give the
# same trees and the same predictions.
# ---------------------------------------------------------------------------

def ref_best_split(X, y_idx, n_classes, feature_ids, min_leaf):
    n = len(y_idx)
    total_counts = np.bincount(y_idx, minlength=n_classes).astype(np.float64)
    best = None
    for f in feature_ids:
        x = X[:, f]
        order = np.argsort(x, kind="mergesort")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        ys = y_idx[order]
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[:-1]
        sizes_l = np.arange(1, n, dtype=np.float64)
        sizes_r = n - sizes_l
        valid = (xs[1:] != xs[:-1]) & (sizes_l >= min_leaf) & \
            (sizes_r >= min_leaf)
        if not valid.any():
            continue
        gini_l = 1.0 - ((left_counts / sizes_l[:, None]) ** 2).sum(axis=1)
        right_counts = total_counts - left_counts
        gini_r = 1.0 - ((right_counts / sizes_r[:, None]) ** 2).sum(axis=1)
        weighted = (sizes_l * gini_l + sizes_r * gini_r) / n
        weighted[~valid] = np.inf
        i = int(np.argmin(weighted))
        if best is None or weighted[i] < best[0]:
            best = (float(weighted[i]), f, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def ref_candidates(d, max_features, rng):
    if max_features is None:
        return np.arange(d)
    if max_features == "sqrt":
        m = max(1, int(np.sqrt(d)))
    else:
        m = max(1, min(d, int(max_features)))
    if m >= d:
        return np.arange(d)
    return np.sort(rng.choice(d, size=m, replace=False))


def ref_grow(X, y_idx, n_classes, depth, params, rng):
    """-> ("leaf", class) or (feature, threshold, left, right)."""
    max_depth, min_leaf, max_features = params
    counts = np.bincount(y_idx, minlength=n_classes)
    majority = int(np.argmax(counts))
    if (counts > 0).sum() == 1 or depth >= max_depth or \
            len(y_idx) < 2 * min_leaf:
        return ("leaf", majority)
    split = ref_best_split(X, y_idx, n_classes,
                           ref_candidates(X.shape[1], max_features, rng),
                           min_leaf)
    if split is None:
        return ("leaf", majority)
    _, f, thr = split
    mask = X[:, f] <= thr
    if not mask.any() or mask.all():
        return ("leaf", majority)
    return (f, thr,
            ref_grow(X[mask], y_idx[mask], n_classes, depth + 1, params, rng),
            ref_grow(X[~mask], y_idx[~mask], n_classes, depth + 1, params,
                     rng))


def ref_walk(node, row):
    while node[0] != "leaf":
        f, thr, left, right = node
        node = left if row[f] <= thr else right
    return node[1]


def ref_preorder(node):
    if node[0] == "leaf":
        return [(-1, None, node[1])]
    f, thr, left, right = node
    return [(int(f), thr, None)] + ref_preorder(left) + ref_preorder(right)


def flat_preorder(tree):
    """The fitted array tree in the same form, walked from node 0 through
    left and right, whatever the node ids."""
    out, todo = [], [0]
    while todo:
        i = todo.pop()
        f = int(tree.feature[i])
        if f < 0:
            out.append((-1, None, int(tree.klass[i])))
        else:
            out.append((f, float(tree.threshold[i]), None))
            todo += (int(tree.right[i]), int(tree.left[i]))
    return out


def ref_tree(X, y, max_depth=12, min_leaf=1, max_features=None,
             random_state=0):
    classes, y_idx = np.unique(y, return_inverse=True)
    rng = np.random.default_rng(random_state)
    return classes, ref_grow(X, y_idx, len(classes), 0,
                             (max_depth, min_leaf, max_features), rng)


def ref_forest(X, y, n_trees, max_depth=12, min_leaf=1,
               max_features="sqrt", bootstrap=True, random_state=0):
    """-> (classes, roots): each tree grown alone, one after another, from
    its bootstrap rows and then its seed, both drawn from the forest rng."""
    classes, y_idx = np.unique(y, return_inverse=True)
    rng = np.random.default_rng(random_state)
    roots = []
    for _ in range(n_trees):
        idx = rng.integers(0, len(X), size=len(X)) if bootstrap \
            else np.arange(len(X))
        tree_rng = np.random.default_rng(int(rng.integers(2**31)))
        roots.append(ref_grow(X[idx], y_idx[idx], len(classes), 0,
                              (max_depth, min_leaf, max_features), tree_rng))
    return classes, roots


def ref_forest_predict(X, y, Q, n_trees, max_depth=12, min_leaf=1,
                       max_features="sqrt", bootstrap=True, random_state=0):
    classes, roots = ref_forest(X, y, n_trees, max_depth, min_leaf,
                                max_features, bootstrap, random_state)
    votes = np.zeros((len(Q), len(classes)), dtype=np.int64)
    for root in roots:
        for i, row in enumerate(Q):
            votes[i, ref_walk(root, row)] += 1
    return classes[np.argmax(votes, axis=1)]


def default_fold0(bundle):
    """Fold 0 of the CV that `iiotsim detect` runs on the bundle's dataset,
    scaled as cross_validate scales it -> (T, y_train, Q)."""
    rows = analytics.read_dataset_csv(
        os.path.join(bundle.out_dir, "dataset.csv"))
    X = np.array([r.features for r in rows])
    y = np.array([r.label for r in rows])
    train, val = stratified_kfold(y, 10, 42)[0][0]
    T, Q = fold_features(X, train, val)
    return T, y[train], Q


def ref_knn_predict(X, y, Q, k):
    classes, y_idx = np.unique(y, return_inverse=True)
    out = []
    for q in Q:
        d2 = ((X - q) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(X)), d2))[:k]
        out.append(int(np.argmax(np.bincount(y_idx[order],
                                             minlength=len(classes)))))
    return classes[out]


def tied_dataset(seed, n=90, d=6, n_classes=3):
    """Heavy ties: few distinct values, a binary and a constant feature,
    duplicated rows and a label that depends on the features only in part."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 4, size=n) * 0.25,
        rng.normal(size=n).round(1),
        rng.integers(0, 2, size=n).astype(np.float64),
        np.full(n, 0.5),
        rng.normal(size=n),
        rng.integers(0, 3, size=n) / 3.0,
    ])[:, :d]
    X[n // 2:n // 2 + n // 6] = X[:n // 6]
    y = np.where(X[:, 0] + 0.3 * X[:, 1] > 0.4, "b", "a").astype(object)
    flip = rng.random(n) < 0.2
    y[flip] = rng.choice(["a", "b", "c"][:n_classes], size=flip.sum())
    Q = np.vstack([X, rng.normal(size=(40, d)).round(1) * 0.5])
    return X, y.astype(str), Q


def nine_class_dataset(seed, n=300):
    """tied_dataset's features with 9 classes, in part set by feature 0."""
    X, _, Q = tied_dataset(seed, n=n)
    rng = np.random.default_rng(seed)
    klass = rng.integers(0, 9, size=n) + (X[:, 0] * 4).astype(int)
    return X, np.array(list("abcdefghi"))[klass % 9], Q


def repeated_dataset(seed, n_distinct=40, d=4):
    """Distinct rows that each repeat 1 to 6 times, shuffled, and a few of
    them also under a second label, so that identical x carry different
    classes."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n_distinct, d)) * 0.5
    y = np.where(X[:, 0] + X[:, 1] > 2.0, "b", "a").astype(object)
    y[rng.random(n_distinct) < 0.2] = "c"
    counts = rng.integers(1, 7, size=n_distinct)
    X, y = X.repeat(counts, axis=0), y.repeat(counts)
    relabel = rng.choice(len(X), size=len(X) // 8, replace=False)
    X = np.vstack([X, X[relabel]])
    y = np.concatenate([y, np.where(y[relabel] == "a", "b", "a")])
    order = rng.permutation(len(X))
    return X[order], y[order].astype(str)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    @pytest.mark.parametrize("max_features", [None, "sqrt", 2])
    def test_tree_matches_reference(self, seed, min_leaf, max_features):
        X, y, Q = tied_dataset(seed)
        classes, root = ref_tree(X, y, max_depth=8, min_leaf=min_leaf,
                                 max_features=max_features,
                                 random_state=seed)
        model = DecisionTreeClassifier(max_depth=8, min_leaf=min_leaf,
                                       max_features=max_features,
                                       random_state=seed).fit(X, y)
        assert flat_preorder(model.tree_) == ref_preorder(root)
        expected = classes[[ref_walk(root, row) for row in Q]]
        assert (model.predict(Q) == expected).all()

    @pytest.mark.parametrize("seed", [4, 6])
    @pytest.mark.parametrize("min_leaf", [1, 2])
    def test_nine_class_tree_matches_reference(self, seed, min_leaf):
        # from 8 classes on, numpy sums a row of squared class shares
        # pairwise; on these seeds a sum in index order picks another split
        X, y, Q = nine_class_dataset(seed)
        classes, root = ref_tree(X, y, max_depth=8, min_leaf=min_leaf,
                                 random_state=seed)
        model = DecisionTreeClassifier(max_depth=8, min_leaf=min_leaf,
                                       random_state=seed).fit(X, y)
        assert flat_preorder(model.tree_) == ref_preorder(root)
        expected = classes[[ref_walk(root, row) for row in Q]]
        assert (model.predict(Q) == expected).all()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_split_whose_midpoint_overflows_matches_reference(self, sign):
        # the best boundary's midpoint is +-inf, so X <= thr sends every row
        # one way and the node is a leaf
        X = sign * np.array([[1e308], [1.5e308], [1.7e308], [1.0]])
        y = np.array(["a", "b", "b", "a"], dtype=object)
        classes, root = ref_tree(X, y)
        model = DecisionTreeClassifier().fit(X, y)
        assert flat_preorder(model.tree_) == ref_preorder(root)
        assert np.isfinite(model.tree_.threshold[model.tree_.feature >= 0]
                           ).all()
        expected = classes[[ref_walk(root, row) for row in X]]
        assert (model.predict(X) == expected).all()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("max_features", [None, "sqrt", 3])
    def test_bootstrapped_forest_matches_reference(self, seed, max_features):
        X, y, Q = tied_dataset(seed + 10, n=70)
        params = dict(n_trees=6, max_depth=6, min_leaf=1 + seed % 3,
                      max_features=max_features, random_state=seed)
        model = RandomForestClassifier(**params).fit(X, y)
        assert (model.predict(Q) == ref_forest_predict(X, y, Q, **params)
                ).all()

    def test_forest_matches_reference_on_the_default_dataset(
            self, default_bundle):
        # each tree, grown together with the others, is the tree grown alone
        # from its bootstrap rows and seed
        T, y, _ = default_fold0(default_bundle)
        model = RandomForestClassifier(n_trees=5, random_state=0).fit(T, y)
        _, roots = ref_forest(T, y, 5, random_state=0)
        assert [flat_preorder(tree) for tree in model.trees_] == \
            [ref_preorder(root) for root in roots]

    @pytest.mark.parametrize("keys, trees", [(1, 3), (1, 100), (200, 2),
                                             (200, 100), (10 ** 9, 4)])
    @pytest.mark.parametrize("max_features", ["sqrt", 2])
    def test_forest_matches_reference_across_batches(
            self, monkeypatch, keys, trees, max_features):
        # a search batch of 1 key holds one node; of 200, one root or a few
        # smaller nodes, so steps split mid-way. With 2 to 4 trees in flight
        # later trees start while earlier ones still grow, and bootstrapped
        # trees of different sizes finish at different steps.
        X, y, Q = tied_dataset(31, n=70)
        monkeypatch.setattr(estimators, "_SPLIT_KEY_BYTES", 8 * keys)
        monkeypatch.setattr(estimators, "_FOREST_ROW_BYTES", 4 * 70 * trees)
        for min_leaf in (1, 2, 3):
            params = dict(n_trees=7, max_depth=7, min_leaf=min_leaf,
                          max_features=max_features, random_state=min_leaf)
            model = RandomForestClassifier(**params).fit(X, y)
            _, roots = ref_forest(X, y, **params)
            assert [flat_preorder(tree) for tree in model.trees_] == \
                [ref_preorder(root) for root in roots]
            assert (model.predict(Q) == ref_forest_predict(X, y, Q, **params)
                    ).all()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    def test_trees_on_repeated_rows_match_reference(self, monkeypatch, seed,
                                                    min_leaf):
        # trees grow on distinct (row, class) pairs weighted by their count;
        # a search batch of 40 keys splits steps mid-way
        X, y = repeated_dataset(seed)
        monkeypatch.setattr(estimators, "_SPLIT_KEY_BYTES", 8 * 40)
        _, root = ref_tree(X, y, max_depth=8, min_leaf=min_leaf)
        model = DecisionTreeClassifier(max_depth=8,
                                       min_leaf=min_leaf).fit(X, y)
        assert flat_preorder(model.tree_) == ref_preorder(root)
        params = dict(n_trees=6, max_depth=7, min_leaf=min_leaf,
                      max_features=2, random_state=seed)
        model = RandomForestClassifier(**params).fit(X, y)
        _, roots = ref_forest(X, y, **params)
        assert [flat_preorder(tree) for tree in model.trees_] == \
            [ref_preorder(root) for root in roots]
        assert (model.predict(X) == ref_forest_predict(X, y, X, **params)
                ).all()

    @pytest.mark.parametrize("min_leaf", [2, 3])
    def test_node_of_few_distinct_rows_but_enough_weight_splits(self,
                                                                min_leaf):
        # two distinct rows of weight 3 each: fewer distinct rows than
        # 2 * min_leaf, but six rows, so the root splits 3 | 3
        X = np.array([[0.0]] * 3 + [[1.0]] * 3)
        y = np.array(["a"] * 3 + ["b"] * 3)
        _, root = ref_tree(X, y, min_leaf=min_leaf)
        model = DecisionTreeClassifier(min_leaf=min_leaf).fit(X, y)
        assert model.tree_.feature.tolist() == [0, -1, -1]
        assert flat_preorder(model.tree_) == ref_preorder(root)
        model = RandomForestClassifier(n_trees=1, bootstrap=False,
                                       max_features=None,
                                       min_leaf=min_leaf).fit(X, y)
        assert flat_preorder(model.trees_[0]) == ref_preorder(root)

    def test_forest_vote_ties_go_to_the_lower_class(self):
        # an even number of trees of different depths, one of them a single
        # leaf (its root drew the constant feature), tie on many queries
        X, y, Q = tied_dataset(7, n=40)
        params = dict(n_trees=4, max_depth=6, max_features=1, random_state=7)
        model = RandomForestClassifier(**params).fit(X, y)
        assert [len(tree.feature) for tree in model.trees_] == [1, 9, 19, 11]
        classes, roots = ref_forest(X, y, **params)
        votes = np.array([np.bincount([ref_walk(root, row) for root in roots],
                                      minlength=len(classes)) for row in Q])
        votes.sort(axis=1)
        assert (votes[:, -1] == votes[:, -2]).any()
        assert (model.predict(Q) == ref_forest_predict(X, y, Q, **params)
                ).all()

    def test_unbootstrapped_forest_matches_reference(self):
        X, y, Q = tied_dataset(21, n=80)
        params = dict(n_trees=3, bootstrap=False, max_features=None,
                      random_state=4)
        model = RandomForestClassifier(**params).fit(X, y)
        assert (model.predict(Q) == ref_forest_predict(X, y, Q, **params)
                ).all()

    def test_tree_with_more_distinct_values_than_int16_keys_hold(self):
        # 12,000 distinct values x 3 classes do not fit int16 sort keys
        rng = np.random.default_rng(5)
        X = rng.permutation(12000).reshape(-1, 1) / 7.0
        y = rng.choice(["a", "b", "c"], size=12000)
        classes, root = ref_tree(X, y, max_depth=3)
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert flat_preorder(model.tree_) == ref_preorder(root)

    def test_tree_on_constant_features_is_one_leaf(self):
        X = np.ones((12, 3))
        y = np.array(["a", "b"] * 6)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.tree_.feature.tolist() == [-1]
        assert (model.predict(X) == "a").all()

    @pytest.mark.parametrize("k", [1, 3, 4, 7])
    def test_knn_matches_reference_with_ties_at_kth_distance(self, k):
        # a lattice: many training rows sit at exactly the k-th distance of
        # each query, so the lower training index must decide who votes
        rng = np.random.default_rng(k)
        X = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        y = rng.choice(["a", "b", "c"], size=60)
        Q = np.vstack([X[:10], rng.integers(0, 3, size=(30, 2)) + 0.5])
        model = KNeighborsClassifier(k=k).fit(X, y)
        assert (model.predict(Q) == ref_knn_predict(X, y, Q, k)).all()

    def test_knn_kth_distance_shared_by_several_rows(self):
        # row 4 is nearest; rows 0-3 all sit at the k-th distance, and only
        # the two lowest-index ones (both "b") may join it
        X = np.array([[1.0], [-1.0], [1.0], [-1.0], [0.05]])
        y = np.array(["b", "b", "a", "a", "a"])
        model = KNeighborsClassifier(k=3).fit(X, y)
        assert model.predict([[0.0]])[0] == "b"
        assert ref_knn_predict(X, y, np.array([[0.0]]), 3)[0] == "b"

    def test_knn_matches_reference_on_the_default_dataset(self, default_bundle):
        # rows repeat many times, so the k-th distance is often shared. With
        # each training row's index as its label, a prediction is the lowest
        # index among its neighbours.
        T, y, Q = default_fold0(default_bundle)
        for labels in (y, np.arange(len(T))):
            model = KNeighborsClassifier(k=5).fit(T, labels)
            assert (model.predict(Q) == ref_knn_predict(T, labels, Q, 5)
                    ).all()

    def test_knn_repeated_queries_across_blocks_match_reference(
            self, monkeypatch):
        # each distinct query is scored once; with 3 distinct queries per
        # block, the repeats of one query fall in other blocks of the
        # queries as given
        rng = np.random.default_rng(8)
        X = rng.integers(0, 3, size=(50, 2)).astype(np.float64)
        y = rng.choice(["a", "b", "c"], size=50)
        distinct = np.vstack([X[:8], rng.integers(0, 3, size=(12, 2)) + 0.5])
        Q = distinct.repeat(rng.integers(1, 5, size=len(distinct)), axis=0)
        Q = Q[rng.permutation(len(Q))]
        monkeypatch.setattr(estimators, "_KNN_BLOCK_BYTES", 8 * 50 * 3)
        for k in (1, 4):
            model = KNeighborsClassifier(k=k).fit(X, y)
            assert (model.predict(Q) == ref_knn_predict(X, y, Q, k)).all()

    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160, 1e200])
    def test_knn_matches_reference_across_blocks_and_scales(self, scale):
        # a tied lattice of 1,200 rows puts 250 queries in several blocks;
        # 1e-160 underflows the squares and 1e160 and 1e200 overflow them,
        # which leaves no finite bound and scores every row
        rng = np.random.default_rng(3)
        X = rng.integers(0, 4, size=(1200, 3)) * (0.1 * scale)
        y = rng.choice(["a", "b", "c"], size=1200)
        Q = np.vstack([X[:100], (rng.integers(0, 4, size=(150, 3)) + 0.5)
                       * (0.1 * scale)])
        for k in range(1, 8):
            model = KNeighborsClassifier(k=k).fit(X, y)
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                pred = model.predict(Q)
            with warnings.catch_warnings(record=True) as ref:
                warnings.simplefilter("always")
                expected = ref_knn_predict(X, y, Q, k)
            assert (pred == expected).all()
            # the filter's overflow is silent: only the exact distances warn
            assert ({str(w.message) for w in got}
                    <= {str(w.message) for w in ref})
