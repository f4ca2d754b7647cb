"""Classifiers implemented from first principles on numpy.

All estimators follow the fit/predict convention, accept string or numeric
labels, and are deterministic for a fixed random_state.
"""

import numpy as np


def check_array(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected 2-d feature matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains NaN or infinite values")
    return X


def check_X_y(X, y) -> tuple:
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    if len(X) == 0:
        raise ValueError("empty training set")
    return X, y


class BaseEstimator:
    """Label encoding shared by every classifier."""

    def _encode_labels(self, y):
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        if len(self.classes_) < 2:
            raise ValueError("training data must contain at least 2 classes")
        return y_idx

    def fit(self, X, y):
        raise NotImplementedError

    def predict(self, X):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# CART decision tree (Gini impurity)
# ---------------------------------------------------------------------------

class _RankedData:
    """A training set in the form every node's split search reads.

    Built once per fit and shared by all trees of a forest. keys[f, i] packs
    the dense rank of X[i, f] among feature f's distinct values with the class
    of row i as rank * n_classes + y[i], so sorting a node's keys of one
    feature groups its rows by value, then by class. The keys are int16 when
    they fit, which numpy sorts with a radix sort.
    """

    def __init__(self, X, y_idx, n_classes):
        uniques = [np.unique(x, return_inverse=True) for x in X.T]
        self.values = [values for values, _ in uniques]
        self.n_values = max(len(values) for values in self.values)
        top = self.n_values * n_classes
        self.keys = np.empty(X.T.shape, dtype=np.int16
                             if top <= np.iinfo(np.int16).max + 1
                             else np.int64)
        for f, (_, rank) in enumerate(uniques):
            self.keys[f] = rank * n_classes + y_idx
        self.X = X
        self.y = y_idx
        self.n_classes = n_classes


def _best_split(data, rows, counts, feature_ids, min_leaf):
    """-> (weighted_gini, feature, threshold) or None.

    The same split as a scan of every boundary between distinct values of
    every candidate feature: the same Gini expression is evaluated at the
    valid boundaries only, ties go to the lower feature and then the first
    boundary, and the threshold is the midpoint of the values around it.
    """
    n = len(rows)
    k = data.n_classes
    keys = data.keys[feature_ids].take(rows, axis=1)
    keys.sort(axis=1, kind="stable")
    keys = keys.ravel()
    # the last element of each run of one (feature, value, class)
    last = np.empty(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    last[n - 1::n] = True
    ends = last.nonzero()[0]
    value, klass = np.divmod(keys[ends], k)
    # number the segments, the runs of one (feature, value), from 0
    block = ends // n
    seg_key = block * data.n_values + value
    seg = np.empty(len(ends), dtype=np.int64)
    seg[0] = 0
    np.cumsum(seg_key[1:] != seg_key[:-1], out=seg[1:])
    # class counts up to each segment's end, running on through the blocks;
    # every block before a segment's own holds each of the node's rows once
    left = np.bincount(seg * k + klass, weights=np.diff(ends, prepend=-1),
                       minlength=(seg[-1] + 1) * k)
    left = left.reshape(-1, k).cumsum(axis=0)
    through = left.sum(axis=1)
    seg_block = (through - 1) // n
    left -= seg_block[:, None] * counts
    sizes = through - seg_block * n
    cand = ((sizes >= min_leaf)
            & (sizes <= n - max(min_leaf, 1))).nonzero()[0]
    if not len(cand):
        return None
    left_counts = left[cand]
    sizes_l = sizes[cand]
    sizes_r = n - sizes_l
    gini_l = 1.0 - ((left_counts / sizes_l[:, None]) ** 2).sum(axis=1)
    right_counts = counts.astype(np.float64) - left_counts
    gini_r = 1.0 - ((right_counts / sizes_r[:, None]) ** 2).sum(axis=1)
    weighted = (sizes_l * gini_l + sizes_r * gini_r) / n
    i = int(weighted.argmin())
    s = cand[i]
    j = int(seg_block[s])
    end = j * n + int(sizes[s]) - 1
    f = int(feature_ids[j])
    values = data.values[f]
    return (float(weighted[i]), f,
            float((values[keys[end] // k] + values[keys[end + 1] // k]) / 2.0))


def _feature_candidates(d, max_features, rng):
    if max_features is None:
        return np.arange(d)
    if max_features == "sqrt":
        m = max(1, int(np.sqrt(d)))
    else:
        m = max(1, min(d, int(max_features)))
    if m >= d:
        return np.arange(d)
    return np.sort(rng.choice(d, size=m, replace=False))


class _Tree:
    """A fitted CART tree as flat arrays indexed by node; node 0 is the root.

    feature is -1 at a leaf. A row goes to left[node] when its value of
    feature[node] is <= threshold[node]; klass is the node's majority class.
    """

    __slots__ = ("feature", "threshold", "left", "right", "klass")

    def __init__(self, feature, threshold, left, right, klass):
        self.feature = np.array(feature, dtype=np.int64)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.int64)
        self.right = np.array(right, dtype=np.int64)
        self.klass = np.array(klass, dtype=np.int64)

    def apply(self, X) -> np.ndarray:
        """-> the class index of the leaf each row of X reaches."""
        node = np.zeros(len(X), dtype=np.int64)
        live = np.arange(len(X))
        while len(live):
            at = node[live]
            split = self.feature[at] >= 0
            live, at = live[split], at[split]
            go_left = X[live, self.feature[at]] <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
        return self.klass[node]


def _grow_tree(data, rows, max_depth, min_leaf, max_features, rng) -> _Tree:
    """Greedy CART from the training rows `rows` of data (repeats allowed).

    Nodes are grown depth first, left before right, and rng is drawn from
    only at nodes that search for a split, in that order.
    """
    feature, threshold, left, right, klass = [], [], [], [], []
    d = data.X.shape[1]
    # (rows, depth, parent, the parent's left or right list)
    stack = [(rows, 0, 0, None)]
    while stack:
        rows, depth, parent, link = stack.pop()
        node = len(feature)
        if link is not None:
            link[parent] = node
        counts = np.bincount(data.y[rows], minlength=data.n_classes)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        klass.append(int(counts.argmax()))
        if np.count_nonzero(counts) == 1 or depth >= max_depth or \
                len(rows) < 2 * min_leaf:
            continue
        split = _best_split(data, rows, counts,
                            _feature_candidates(d, max_features, rng),
                            min_leaf)
        if split is None:
            continue
        _, f, thr = split
        mask = data.X[rows, f] <= thr
        if np.count_nonzero(mask) in (0, len(rows)):
            continue
        feature[node] = f
        threshold[node] = thr
        stack.append((rows[~mask], depth + 1, node, right))
        stack.append((rows[mask], depth + 1, node, left))
    return _Tree(feature, threshold, left, right, klass)


class DecisionTreeClassifier(BaseEstimator):
    """Greedy CART on Gini impurity with midpoint thresholds.

    Ties break toward the lower feature index, the first boundary and the
    lower class index, so trained trees are reproducible.
    """

    def __init__(self, max_depth=12, min_leaf=1, max_features=None,
                 random_state=0):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        y_idx = self._encode_labels(y)
        data = _RankedData(X, y_idx, len(self.classes_))
        self.tree_ = _grow_tree(data, np.arange(len(X)), self.max_depth,
                                self.min_leaf, self.max_features,
                                np.random.default_rng(self.random_state))
        return self

    def predict(self, X):
        X = check_array(X)
        return self.classes_[self.tree_.apply(X)]


class RandomForestClassifier(BaseEstimator):
    """Bagged CART trees with per-node feature subsampling and majority vote.

    With n_trees=1, bootstrap=False and max_features=None the forest is the
    plain decision tree.
    """

    def __init__(self, n_trees=100, max_depth=12, min_leaf=1,
                 max_features="sqrt", bootstrap=True, random_state=0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        y_idx = self._encode_labels(y)
        data = _RankedData(X, y_idx, len(self.classes_))
        rng = np.random.default_rng(self.random_state)
        n = len(X)
        self.trees_ = []
        for _ in range(self.n_trees):
            if self.bootstrap:
                rows = rng.integers(0, n, size=n)
            else:
                rows = np.arange(n)
            tree_rng = np.random.default_rng(int(rng.integers(2**31)))
            self.trees_.append(_grow_tree(data, rows, self.max_depth,
                                          self.min_leaf, self.max_features,
                                          tree_rng))
        return self

    def predict(self, X):
        X = check_array(X)
        votes = np.zeros((len(X), len(self.classes_)), dtype=np.int64)
        for tree in self.trees_:
            votes[np.arange(len(X)), tree.apply(X)] += 1
        return self.classes_[np.argmax(votes, axis=1)]


# ---------------------------------------------------------------------------
# Gaussian naive Bayes
# ---------------------------------------------------------------------------

class GaussianNBClassifier(BaseEstimator):
    def __init__(self, var_floor=1e-9):
        self.var_floor = var_floor

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        y_idx = self._encode_labels(y)
        k = len(self.classes_)
        d = X.shape[1]
        self.theta_ = np.zeros((k, d))
        self.var_ = np.zeros((k, d))
        self.log_prior_ = np.zeros(k)
        for c in range(k):
            Xc = X[y_idx == c]
            self.theta_[c] = Xc.mean(axis=0)
            self.var_[c] = Xc.var(axis=0) + self.var_floor
            self.log_prior_[c] = np.log(len(Xc) / len(X))
        return self

    def _joint_log_likelihood(self, X) -> np.ndarray:
        jll = np.empty((len(X), len(self.classes_)))
        for c in range(len(self.classes_)):
            diff = X - self.theta_[c]
            jll[:, c] = self.log_prior_[c] - 0.5 * (
                np.log(2 * np.pi * self.var_[c])
                + diff ** 2 / self.var_[c]).sum(axis=1)
        return jll

    def predict(self, X):
        X = check_array(X)
        return self.classes_[np.argmax(self._joint_log_likelihood(X), axis=1)]


# ---------------------------------------------------------------------------
# one-vs-rest logistic regression (full-batch gradient descent)
# ---------------------------------------------------------------------------

def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _logistic_grad(X, t, w, p, l2) -> np.ndarray:
    """The gradient part of binary_logistic_loss_and_grad, given the
    predicted probabilities p = sigmoid(X w + b)."""
    n = len(X)
    grad_w = X.T @ (p - t) / n + l2 * w
    grad_b = np.mean(p - t)
    return np.concatenate([grad_w, [grad_b]])


def binary_logistic_loss_and_grad(params, X, t, l2=0.0) -> tuple:
    """Cross-entropy of sigmoid(X w + b) plus L2 on w.

    params stacks [w..., b]; returns (loss, grad) for gradient checking.
    """
    w, b = params[:-1], params[-1]
    p = _sigmoid(X @ w + b)
    eps = 1e-12
    loss = -np.mean(t * np.log(p + eps) + (1 - t) * np.log(1 - p + eps))
    loss += 0.5 * l2 * float(w @ w)
    return loss, _logistic_grad(X, t, w, p, l2)


class LogisticRegressionOvR(BaseEstimator):
    def __init__(self, learning_rate=0.1, epochs=500, l2=0.0):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        y_idx = self._encode_labels(y)
        k = len(self.classes_)
        d = X.shape[1]
        self.coef_ = np.zeros((k, d))
        self.intercept_ = np.zeros(k)
        for c in range(k):
            t = (y_idx == c).astype(np.float64)
            params = np.zeros(d + 1)
            w = params[:-1]
            for _ in range(self.epochs):
                # the loss itself is never used, so only its gradient is made
                p = _sigmoid(X @ w + params[-1])
                params -= self.learning_rate * _logistic_grad(X, t, w, p,
                                                              self.l2)
            self.coef_[c] = w
            self.intercept_[c] = params[-1]
        return self

    def predict(self, X):
        scores = check_array(X) @ self.coef_.T + self.intercept_
        return self.classes_[np.argmax(scores, axis=1)]


# ---------------------------------------------------------------------------
# k-nearest neighbours (Euclidean)
# ---------------------------------------------------------------------------

# bytes of distance estimates k-NN holds at once: 20 queries against 6,300
# training rows, small enough that prediction does not raise peak memory
_KNN_BLOCK_BYTES = 1 << 20


class KNeighborsClassifier(BaseEstimator):
    """Majority vote of the k nearest training rows by squared Euclidean
    distance; of rows at equal distance the lower training index is nearer,
    and a tied vote goes to the lower class index.

    predict filters, then refines. One matrix product per block of queries
    gives every estimate q2 + t2 - 2 q.t, and only the rows whose estimate is
    within a rounding margin of the k-th smallest are scored exactly, so the
    neighbours and their ties are those a scan of every row finds.
    """

    def __init__(self, k=5):
        self.k = k

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        if self.k < 1:
            raise ValueError(f"k={self.k} must be at least 1")
        if self.k > len(X):
            raise ValueError(f"k={self.k} exceeds training size {len(X)}")
        self._y_idx = self._encode_labels(y)
        self._X = X
        with np.errstate(over="ignore"):
            self._t2 = (X ** 2).sum(axis=1)
        return self

    def predict(self, X):
        X = check_array(X)
        T, t2, k = self._X, self._t2, self.k
        n, d = T.shape
        out = np.empty(len(X), dtype=np.int64)
        k_classes = len(self.classes_)
        step = max(1, _KNN_BLOCK_BYTES // (8 * n))
        for lo in range(0, len(X), step):
            Q = X[lo:lo + step]
            # an estimate and an exact distance each lie within
            # delta = 2 (d + 3) eps (q2 + max t2) of the true distance, so
            # each of the k nearest rows has an estimate at most 4 delta above
            # the k-th estimate; the margin is 8 delta, and tiny covers
            # underflow
            with np.errstate(over="ignore", invalid="ignore"):
                q2 = (Q ** 2).sum(axis=1)
                approx = Q @ T.T
                approx *= -2.0
                approx += t2
                approx += q2[:, None]
                limit = np.partition(approx, k - 1, axis=1)[:, k - 1]
                limit += 16 * (d + 3) * (np.finfo(np.float64).eps
                                         * (q2 + t2.max())
                                         + np.finfo(np.float64).tiny)
                keep = approx <= limit[:, None]
            # an overflowed estimate bounds nothing: score every row
            keep[~np.isfinite(limit)] = True
            for i, q in enumerate(Q):
                cand = np.flatnonzero(keep[i])
                d2 = ((T[cand] - q) ** 2).sum(axis=1)
                # the k nearest are every row strictly nearer than the k-th
                # distance, then the lowest-index rows at that distance
                kth = np.partition(d2, k - 1)[k - 1]
                nearer = cand[d2 < kth]
                ties = cand[d2 == kth][:k - len(nearer)]
                nearest = np.concatenate((nearer, ties))
                votes = np.bincount(self._y_idx[nearest], minlength=k_classes)
                out[lo + i] = int(np.argmax(votes))
        return self.classes_[out]
