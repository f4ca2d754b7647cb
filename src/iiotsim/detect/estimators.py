"""Classifiers implemented from first principles on numpy.

All estimators follow the fit/predict convention, accept string or numeric
labels, and are deterministic for a fixed random_state.
"""

import itertools

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


# ---------------------------------------------------------------------------
# CART decision tree (Gini impurity)
# ---------------------------------------------------------------------------

class _RankedData:
    """A training set in the form the split search reads.

    Built once per fit and shared by all trees of a forest. keys[f, i] packs
    the dense rank of X[i, f] among feature f's distinct values with the class
    of row i as rank * n_classes + y[i], so sorting a node's keys of one
    feature groups its rows by value, then by class. The keys are int16 when
    they fit. values holds each feature's distinct values in ascending
    order, feature f's from first_value[f] on. pair[i] numbers row i's
    distinct (values, class) pair, which its key column spells out, and
    pair_row[p] is a row of pair p.
    """

    def __init__(self, X, y_idx, n_classes):
        values = [np.unique(x) for x in X.T]
        sizes = [len(v) for v in values]
        self.values = np.concatenate(values)
        self.first_value = np.cumsum(sizes) - sizes
        self.n_values = max(sizes)
        self.keys = np.empty(X.T.shape, dtype=np.int16
                             if self.n_values * n_classes <= 2 ** 15
                             else np.int64)
        for f, (v, x) in enumerate(zip(values, X.T)):
            self.keys[f] = v.searchsorted(x) * n_classes + y_idx
        # a pair is a run of equal key columns in lexicographic order, and
        # its row is the first of the run, the lowest of the pair
        order = np.lexsort(self.keys)
        keys = self.keys[:, order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=first[1:])
        self.pair = np.empty(len(order), dtype=np.intp)
        self.pair[order] = first.cumsum() - 1
        self.pair_row = order[first].astype(np.int32)
        self.X = X
        self.y = y_idx
        self.n_classes = n_classes


def _row_sum(rows) -> np.ndarray:
    """Sums the rows of a 2-d float array into its first row, in place, in
    the order numpy's pairwise summation adds the terms of one contiguous
    row, so that the result is bit-equal to rows.T.sum(axis=1): below 8
    terms in index order; up to 128 in 8 interleaved accumulators, added
    pairwise, then the rest in order; beyond that each half apart, the first
    a multiple of 8 long.

    -> rows[0]
    """
    n = len(rows)
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _row_sum(rows[:half])
        total += _row_sum(rows[half:])
        return total
    rest = 1
    if n >= 8:
        rest = n - n % 8
        for i in range(8, rest, 8):
            rows[:8] += rows[i:i + 8]
        for step in (1, 2, 4):
            rows[:8:2 * step] += rows[step:8:2 * step]
    for row in rows[rest:]:
        rows[0] += row
    return rows[0]


def _segment_counts(data, rows, weights, lens, counts, feature_ids) -> tuple:
    """The class counts of the value segments of every (node, feature)
    block, for nodes given as their distinct rows laid end to end with the
    weight of each, their numbers of rows, their class-major counts and
    their candidate features.

    Block s * m + j holds node s's rows keyed by feature feature_ids[s, j].
    A segment is a run of rows of one (block, value), in block, then value
    order. -> (seg_key, left): seg_key[t] is block * n_values + the value
    rank of segment t, and left[c, t] sums the weights of the rows of class
    c in its block up to segment t's end. The keys of every block are sorted
    as one array.
    """
    k, n_values = data.n_classes, data.n_values
    n_nodes, m = feature_ids.shape
    # each key is offset by block * span, so that one sort orders the
    # blocks too, and carries its row's weight in its low bits, so that the
    # weights sort with their keys
    span = n_values * k
    shift = int(weights.max()).bit_length()
    keys = np.arange(0, n_nodes * m * span, span, dtype=np.int32
                     if n_nodes * m * span << shift <= 2 ** 31 else np.int64)
    keys = keys.reshape(-1, m).T.repeat(lens, axis=1)
    at = (feature_ids * data.keys.shape[1]).T.repeat(lens, axis=1)
    at += rows
    keys += data.keys.take(at)
    # the arrays as long as the keys set the peak: each goes once used
    del at
    keys <<= shift
    keys |= weights
    keys = keys.ravel()
    keys.sort()
    weight = np.bitwise_and(keys, (1 << shift) - 1)
    keys >>= shift
    # the first element of each run of one (block, value, class)
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = first.nonzero()[0]
    # tail marks the last run of each segment, and seg numbers them from 0
    seg_key, klass = np.divmod(keys[starts], k)
    weight = np.add.reduceat(weight, starts, dtype=weight.dtype)
    del keys, first
    tail = np.empty(len(starts), dtype=bool)
    np.not_equal(seg_key[1:], seg_key[:-1], out=tail[:-1])
    tail[-1] = True
    seg = tail.cumsum() - tail
    seg_key = seg_key[tail]
    n_seg = len(seg_key)
    # each run's weight goes to its (class, segment), and each block's first
    # segment takes away the counts of the block before, which holds every
    # row of its node once, so one cumsum along a class's row starts again
    # at every block
    left = np.bincount(np.multiply(klass, n_seg, dtype=np.int64) + seg,
                       weights=weight, minlength=k * n_seg).reshape(k, n_seg)
    seg_block = seg_key // n_values
    block_start = (seg_block[1:] != seg_block[:-1]).nonzero()[0] + 1
    left[:, block_start] -= counts.repeat(m, axis=1)[:, :-1]
    left.cumsum(axis=1, out=left)
    return seg_key, left


def _split_nodes(data, nodes, min_leaf) -> list:
    """Splits nodes given as (rows, weights, counts, feature_ids): views of
    the node's distinct rows and of the weight of each, its class counts and
    its candidate features. A row of weight w stands for w equal rows, and
    every size is a sum of weights.

    -> for each node None or (feature, threshold, n_left, left_counts). The
    rows and weights of a split node are reordered in place: the n_left
    distinct rows at or below the threshold first, each side in the order
    it had.

    Each split is the one a scan of every boundary between distinct values
    of every candidate feature finds: the same Gini expression is evaluated
    at the valid boundaries only, ties go to the lower feature and then the
    first boundary, and the threshold is the midpoint of the values around
    it.
    """
    n_values = data.n_values
    rows = np.concatenate([rows for rows, _, _, _ in nodes])
    weights = np.concatenate([weights for _, weights, _, _ in nodes])
    lens = [len(rows) for rows, _, _, _ in nodes]
    counts = np.array([counts for _, _, counts, _ in nodes])
    sizes = counts.sum(axis=1)
    # class-major: counts[c, s] is node s's count of class c
    counts = np.ascontiguousarray(counts.T, dtype=np.float64)
    feature_ids = np.array([feature_ids for _, _, _, feature_ids in nodes])
    n_nodes, m = feature_ids.shape
    seg_key, left = _segment_counts(data, rows, weights, lens, counts,
                                    feature_ids)
    seg_block = seg_key // n_values
    seg_size = left.sum(axis=0)
    seg_node = seg_block // m
    n = sizes[seg_node]
    cand = ((seg_size >= min_leaf)
            & (seg_size <= n - max(min_leaf, 1))).nonzero()[0]
    out = [None] * n_nodes
    if not len(cand):
        return out
    sizes_l = seg_size[cand]
    n = n[cand]
    cand_node = seg_node[cand]
    sizes_r = n - sizes_l
    # each side's squared class shares, summed over the classes in the order
    # .sum(axis=1) adds a row of them, so each Gini value keeps every bit
    shares_l = left.take(cand, axis=1)
    shares_r = counts.take(cand_node, axis=1)
    shares_r -= shares_l
    shares_l /= sizes_l
    shares_r /= sizes_r
    gini_l = 1.0 - _row_sum(np.square(shares_l, out=shares_l))
    gini_r = 1.0 - _row_sum(np.square(shares_r, out=shares_r))
    # the largest arrays of the search go before the per-node minimum
    del shares_l, shares_r
    weighted = (sizes_l * gini_l + sizes_r * gini_r) / n
    # the first minimum of each node: the least index among its candidates
    # that equal its minimum
    first = np.concatenate(([True], cand_node[1:] != cand_node[:-1]))
    group = first.cumsum() - 1
    first = first.nonzero()[0]
    best = np.where(weighted == np.minimum.reduceat(weighted, first)[group],
                    np.arange(len(cand)), len(cand))
    best = cand[np.minimum.reduceat(best, first)]
    f = feature_ids.ravel()[seg_block[best]]
    # the values of the best segment and of the next, and their midpoint
    value = seg_key[best[:, None] + [0, 1]] % n_values
    value = data.values[data.first_value[f][:, None] + value]
    thr = (value[:, 0] + value[:, 1]) / 2.0
    # the rows at or below it are those of the segments up to the best, and
    # of the next one too when the midpoint rounds up to its value
    best += thr >= value[:, 1]
    s = seg_node[best]
    # a midpoint that overflows to +-inf puts every row on one side
    ok = (seg_size[best] < sizes[s]) & np.isfinite(thr)
    s, f, thr, best = s[ok], f[ok], thr[ok], best[ok]
    # a stable sort by (node, side) puts those rows first in each split node;
    # the sort keys are int16 when they fit, which numpy sorts by radix
    feature = np.zeros(n_nodes, dtype=np.int64)
    feature[s] = f
    threshold = np.full(n_nodes, np.inf)
    threshold[s] = thr
    side = np.arange(0, 2 * n_nodes, 2, dtype=np.int16
                     if n_nodes <= 2 ** 14 else np.int64).repeat(lens)
    at = np.multiply(rows, data.X.shape[1], dtype=np.int64)
    at += feature.repeat(lens)
    side += data.X.take(at) > threshold.repeat(lens)
    n_left = np.bincount(side, minlength=2 * n_nodes)[::2]
    order = side.argsort(kind="stable")
    rows, weights = rows[order], weights[order]
    for split in zip(s.tolist(), f.tolist(), thr.tolist(),
                     n_left[s].tolist(),
                     left.take(best, axis=1).T.astype(np.int64)):
        out[split[0]] = split[1:]
    start = 0
    for (view, view_weights, _, _), size, split in zip(nodes, lens, out):
        if split is not None:
            view[:] = rows[start:start + size]
            view_weights[:] = weights[start:start + size]
        start += size
    return out


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


def _leaf_classes(trees, X) -> np.ndarray:
    """-> the class index of the leaf each row of X reaches in each tree, as
    a (trees, rows) array. The trees' nodes are laid end to end, and each
    step takes every (tree, row) pair still at a split one level down."""
    sizes = [len(tree.feature) for tree in trees]
    offset = np.cumsum(sizes) - sizes
    feature, threshold, left, right, klass = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in _Tree.__slots__)
    left += offset.repeat(sizes)
    right += offset.repeat(sizes)
    node = offset.repeat(len(X))
    row = np.tile(np.arange(len(X)), len(trees))
    live = np.arange(len(node))
    while len(live):
        at = node[live]
        f = feature[at]
        split = f >= 0
        live, at = live[split], at[split]
        go_left = X[row[live], f[split]] <= threshold[at]
        node[live] = np.where(go_left, left[at], right[at])
    return klass[node].reshape(len(trees), len(X))


# bytes of sort keys one batched split search holds: 128 K keys of 8 bytes,
# eighteen forest roots of 1,750 distinct rows and 4 features, so the arrays
# made from them stay a few MB however many nodes search
_SPLIT_KEY_BYTES = 1 << 20
# bytes of int32 row order the trees growing together would hold if each
# held every training row: 50 trees of 6,300 rows
_FOREST_ROW_BYTES = 5 << 18


class _GrowingTree:
    """A tree being grown on its distinct (row, class) pairs, each weighted
    by how often the tree's rows hold it. A node is a slice of the tree's
    order of those rows and their weights, and a split reorders its slice in
    place. Nodes are numbered as they are added (next_searches says in
    which order); a descent follows left and right, so any numbering
    serves."""

    def __init__(self, data, rows, rng):
        weights = np.bincount(data.pair[rows], minlength=len(data.pair_row))
        pairs = weights.nonzero()[0]
        self.rows = data.pair_row[pairs]
        self.weights = weights[pairs].astype(np.int32)
        self.rng = rng
        self.feature, self.threshold, self.klass = [], [], []
        self.left, self.right = [], []
        # (lo, hi, depth, class counts, parent, the parent's left or right)
        self.stack = [(0, len(self.rows), 0,
                       np.bincount(data.y[rows], minlength=data.n_classes),
                       0, None)]

    def next_searches(self, every, m, max_depth, min_leaf):
        """Adds nodes up to the next ones that search for a split
        -> a list of (node, lo, hi, depth, counts, feature_ids), empty at
        the end.

        A tree that draws m < len(every) features without replacement at
        each search adds its nodes depth first, left before right, and stops
        at each search, so that its rng draws in that order; feature_ids are
        ascending. A tree that searches every feature adds every node it
        holds and searches them all at once, level by level."""
        searches = []
        while self.stack:
            lo, hi, depth, counts, parent, link = self.stack.pop()
            node = len(self.feature)
            if link is not None:
                link[parent] = node
            self.feature.append(-1)
            self.threshold.append(0.0)
            self.left.append(-1)
            self.right.append(-1)
            self.klass.append(int(counts.argmax()))
            # a node weighs at least its number of distinct rows, so only a
            # node with few of them needs its weight summed
            if np.count_nonzero(counts) == 1 or depth >= max_depth or \
                    hi - lo < 2 * min_leaf and counts.sum() < 2 * min_leaf:
                continue
            if m < len(every):
                feature_ids = self.rng.choice(len(every), size=m,
                                              replace=False)
                feature_ids.sort()
                return [(node, lo, hi, depth, counts, feature_ids)]
            searches.append((node, lo, hi, depth, counts, every))
        if not searches:
            # grown: the forest holds the rows of growing trees only
            self.rows = self.weights = None
        return searches

    def add_split(self, node, lo, hi, depth, counts, f, thr, n_left, left):
        self.feature[node] = f
        self.threshold[node] = thr
        self.stack.append((lo + n_left, hi, depth + 1, counts - left, node,
                           self.right))
        self.stack.append((lo, lo + n_left, depth + 1, left, node,
                           self.left))

    def tree(self) -> _Tree:
        """-> the grown tree, its nodes numbered as they were added."""
        return _Tree(self.feature, self.threshold, self.left, self.right,
                     self.klass)


def _grow_forest(data, draws, max_depth, min_leaf, max_features) -> list:
    """Greedy CART trees, one per (rows, rng) pair of draws, where rows are
    the training rows the tree sees (repeats allowed).

    Each tree is the one grown alone: depth first, left before right, with
    its rng drawn from only at nodes that search for a split, in that order.
    Trees start in the order of draws, as many at once as _FOREST_ROW_BYTES
    holds. In each step every growing tree adds nodes up to its next ones
    that search (_GrowingTree.next_searches), and the searches are split in
    batches of about _SPLIT_KEY_BYTES of keys.
    """
    d, n = data.keys.shape
    if max_features is None:
        m = d
    elif max_features == "sqrt":
        m = max(1, int(np.sqrt(d)))
    else:
        m = max(1, min(d, int(max_features)))
    every = np.arange(d)
    budget = max(1, _SPLIT_KEY_BYTES // 8)
    draws = iter(draws)
    trees, growing = [], []
    while True:
        for rows, rng in itertools.islice(
                draws, max(1, _FOREST_ROW_BYTES // (4 * n)) - len(growing)):
            trees.append(_GrowingTree(data, rows, rng))
            growing.append(trees[-1])
        if not growing:
            return [tree.tree() for tree in trees]
        searches = [(tree,) + search for tree in growing
                    for search in tree.next_searches(every, m, max_depth,
                                                     min_leaf)]
        growing = list(dict.fromkeys(tree for tree, *_ in searches))
        while searches:
            # whole nodes, up to budget keys unless the first alone is more
            keys = itertools.accumulate(len(feature_ids) * (hi - lo)
                                        for _, _, lo, hi, _, _, feature_ids
                                        in searches)
            chunk = searches[:max(1, sum(total <= budget for total in keys))]
            searches = searches[len(chunk):]
            splits = _split_nodes(
                data, [(tree.rows[lo:hi], tree.weights[lo:hi], counts,
                        feature_ids)
                       for tree, _, lo, hi, _, counts, feature_ids in chunk],
                min_leaf)
            for (tree, *search), split in zip(chunk, splits):
                if split is not None:
                    tree.add_split(*search[:5], *split)


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
        self.tree_ = _grow_forest(
            data, [(np.arange(len(X)),
                    np.random.default_rng(self.random_state))],
            self.max_depth, self.min_leaf, self.max_features)[0]
        return self

    def predict(self, X):
        X = check_array(X)
        return self.classes_[_leaf_classes([self.tree_], X)[0]]


class RandomForestClassifier(BaseEstimator):
    """Bagged CART trees with per-node feature subsampling and majority vote.

    The trees grow together, and each is exactly the tree grown alone from
    its bootstrap rows and seed. With n_trees=1, bootstrap=False and
    max_features=None the forest is the plain decision tree.
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

        def draws():
            # each tree's bootstrap rows and then its seed, tree by tree
            for _ in range(self.n_trees):
                rows = rng.integers(0, n, size=n) if self.bootstrap \
                    else np.arange(n)
                yield rows, np.random.default_rng(int(rng.integers(2**31)))

        self.trees_ = _grow_forest(data, draws(), self.max_depth,
                                   self.min_leaf, self.max_features)
        return self

    def predict(self, X):
        X = check_array(X)
        k = len(self.classes_)
        # votes[row, class]; a tie goes to the lower class
        votes = np.bincount((_leaf_classes(self.trees_, X)
                             + np.arange(0, len(X) * k, k)).ravel(),
                            minlength=len(X) * k).reshape(len(X), k)
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
# one-vs-rest logistic regression (Newton's method)
# ---------------------------------------------------------------------------

# a one-vs-rest fit stops after this many Newton steps, or sooner once no
# parameter moves by more than the tolerance
_NEWTON_MAX_STEPS = 50
_NEWTON_TOL = 1e-8


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _logistic_grad(X, t, w, p, l2) -> np.ndarray:
    """The gradient of the mean cross-entropy of sigmoid(X w + b) plus
    l2/2 |w|^2, given the predicted probabilities p = sigmoid(X w + b)."""
    n = len(X)
    grad_w = X.T @ (p - t) / n + l2 * w
    grad_b = np.mean(p - t)
    return np.concatenate([grad_w, [grad_b]])


class LogisticRegressionOvR(BaseEstimator):
    """One binary logistic regression per class, each fitted by Newton's
    method (iteratively reweighted least squares) on the mean cross-entropy
    plus l2/2 |w|^2. The intercept is not penalised; l2 > 0 keeps the
    Hessian positive definite, so a separable class still has a finite fit.
    The class with the highest score wins."""

    def __init__(self, l2=1e-4):
        self.l2 = l2

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        y_idx = self._encode_labels(y)
        n, d = X.shape
        design = np.hstack([X, np.ones((n, 1))])
        ridge = np.diag(np.append(np.full(d, self.l2), 0.0))
        params = np.zeros((len(self.classes_), d + 1))
        for c, theta in enumerate(params):
            t = (y_idx == c).astype(np.float64)
            for _ in range(_NEWTON_MAX_STEPS):
                p = _sigmoid(design @ theta)
                grad = _logistic_grad(X, t, theta[:-1], p, self.l2)
                weighted = design * np.sqrt(p * (1.0 - p))[:, None]
                hessian = weighted.T @ weighted / n + ridge
                step = np.linalg.solve(hessian, grad)
                theta -= step
                if np.abs(step).max() < _NEWTON_TOL:
                    break
        self.coef_ = params[:, :-1]
        self.intercept_ = params[:, -1]
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
        # a prediction depends on the query's values only, so each distinct
        # query is scored once
        X, back = np.unique(check_array(X), axis=0, return_inverse=True)
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
        return self.classes_[out[back.ravel()]]
