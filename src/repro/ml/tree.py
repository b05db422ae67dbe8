"""CART regression trees.

:class:`DecisionTreeRegressor` implements the classic CART algorithm with
variance (MSE) reduction as the split criterion.  Two splitters are
provided:

* ``"best"`` — exhaustive search over all candidate thresholds of each
  considered feature (scikit-learn's default decision tree / random forest
  behaviour);
* ``"random"`` — one uniformly random threshold per considered feature
  (the *extremely randomized trees* splitter of Geurts et al., used by
  :class:`repro.ml.forest.ExtraTreesRegressor`, the best performing model
  in the paper's Figure 3).

Four construction engines are available (see :mod:`repro.ml.engine`):
the original recursive builder (``"legacy"``), a bit-identical presorted
work-stack builder (``"stack"``, the default — no per-node ``argsort``, no
Python recursion), the level-synchronous ``"batched"`` builder shared
with the forest estimators, and its histogram-binned sibling (``"hist"``).
An estimator picks one with ``tree_method`` (``"hist"`` or an exact
engine); which exact engine runs is the process-wide default
(:func:`repro.ml.engine.use_engines`).  :func:`build_forest_per_tree`
runs the two per-tree builders behind the whole-forest builder signature
the engine dispatch returns.  Candidate-split scoring is vectorized with
cumulative sums over the sorted targets, and prediction descends all query
rows through the flat node arrays simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, RegressorMixin
from repro.ml.engine import get_builder, resolve_build_engine
from repro.parallel.threadpool import parallel_map
from repro.utils.rng import check_random_state
from repro.utils.validation import check_array, check_is_fitted, check_X_y

__all__ = ["DecisionTreeRegressor", "Tree", "build_forest_per_tree"]

_NO_CHILD = -1


@dataclass
class Tree:
    """Flat array representation of a fitted regression tree.

    Attributes
    ----------
    feature:
        Split feature index per node (-1 for leaves).
    threshold:
        Split threshold per node (NaN for leaves).
    left, right:
        Child node indices (-1 for leaves).
    value:
        Mean training target of the samples reaching the node.
    n_samples:
        Number of training samples reaching the node.
    impurity:
        Variance of the training targets at the node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    impurity: np.ndarray

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.sum(self.feature == _NO_CHILD))

    @property
    def max_depth(self) -> int:
        """Depth of the deepest leaf (root = depth 0).

        Computed by a vectorized breadth-first frontier walk: one NumPy
        step per tree level instead of a Python loop over every node.
        """
        if not self.node_count:
            return 0
        depth = 0
        frontier = np.array([0], dtype=np.int64)
        while True:
            children = np.concatenate((self.left[frontier], self.right[frontier]))
            children = children[children != _NO_CHILD]
            if children.size == 0:
                return depth
            depth += 1
            frontier = children

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf value for every row of *X*."""
        return self.value[self.apply(X)]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Return the index of the leaf each row of *X* falls into."""
        n = X.shape[0]
        nodes = np.zeros(n, dtype=np.int64)
        active = self.feature[nodes] != _NO_CHILD
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            feat = self.feature[cur]
            thr = self.threshold[cur]
            go_left = X[idx, feat] <= thr
            nodes[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[nodes[idx]] != _NO_CHILD
        return nodes

    def decision_path_lengths(self, X: np.ndarray) -> np.ndarray:
        """Return the depth of the leaf reached by every row of *X*."""
        n = X.shape[0]
        nodes = np.zeros(n, dtype=np.int64)
        depths = np.zeros(n, dtype=np.int64)
        active = self.feature[nodes] != _NO_CHILD
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            feat = self.feature[cur]
            thr = self.threshold[cur]
            go_left = X[idx, feat] <= thr
            nodes[idx] = np.where(go_left, self.left[cur], self.right[cur])
            depths[idx] += 1
            active[idx] = self.feature[nodes[idx]] != _NO_CHILD
        return depths


class _TreeBuilder:
    """Depth-first recursive builder (the ``"legacy"`` reference engine)."""

    def __init__(
        self,
        *,
        splitter: str,
        max_depth: int | None,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features: int,
        min_impurity_decrease: float,
        rng: np.random.Generator,
    ) -> None:
        self.splitter = splitter
        self.max_depth = np.inf if max_depth is None else max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.rng = rng
        # Growing lists; converted to arrays at the end.
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []
        self._n_samples: list[int] = []
        self._impurity: list[float] = []

    # ------------------------------------------------------------------ #
    def build(self, X: np.ndarray, y: np.ndarray) -> Tree:
        self._grow(X, y, np.arange(X.shape[0]), depth=0)
        return Tree(
            feature=np.asarray(self._feature, dtype=np.int64),
            threshold=np.asarray(self._threshold, dtype=np.float64),
            left=np.asarray(self._left, dtype=np.int64),
            right=np.asarray(self._right, dtype=np.int64),
            value=np.asarray(self._value, dtype=np.float64),
            n_samples=np.asarray(self._n_samples, dtype=np.int64),
            impurity=np.asarray(self._impurity, dtype=np.float64),
        )

    def _new_node(self, value: float, n: int, impurity: float) -> int:
        node_id = len(self._feature)
        self._feature.append(_NO_CHILD)
        self._threshold.append(np.nan)
        self._left.append(_NO_CHILD)
        self._right.append(_NO_CHILD)
        self._value.append(value)
        self._n_samples.append(n)
        self._impurity.append(impurity)
        return node_id

    def _grow(self, X: np.ndarray, y: np.ndarray, indices: np.ndarray, depth: int) -> int:
        y_node = y[indices]
        n = len(indices)
        mean = float(y_node.mean())
        impurity = float(y_node.var())
        node_id = self._new_node(mean, n, impurity)

        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or n < 2 * self.min_samples_leaf
            or impurity <= 1e-15
        ):
            return node_id

        split = self._find_split(X, y, indices, impurity)
        if split is None:
            return node_id

        feature, threshold, left_idx, right_idx = split
        left_id = self._grow(X, y, left_idx, depth + 1)
        right_id = self._grow(X, y, right_idx, depth + 1)
        self._feature[node_id] = feature
        self._threshold[node_id] = threshold
        self._left[node_id] = left_id
        self._right[node_id] = right_id
        return node_id

    # ------------------------------------------------------------------ #
    def _find_split(self, X, y, indices, parent_impurity):
        n = len(indices)
        n_features = X.shape[1]
        features = self.rng.permutation(n_features)

        best = None  # (score, feature, threshold)
        n_visited_with_candidates = 0
        y_node = y[indices]
        parent_sse = parent_impurity * n

        for feature in features:
            if n_visited_with_candidates >= self.max_features and best is not None:
                break
            x = X[indices, feature]
            lo, hi = x.min(), x.max()
            if lo == hi:
                continue  # constant feature at this node
            n_visited_with_candidates += 1

            if self.splitter == "random":
                candidate = self._score_random_threshold(x, y_node, lo, hi)
            else:
                candidate = self._score_best_threshold(x, y_node)
            if candidate is None:
                continue
            score, threshold = candidate
            if best is None or score < best[0]:
                best = (score, int(feature), float(threshold))

        if best is None:
            return None
        score, feature, threshold = best
        decrease = (parent_sse - score) / n
        if decrease < self.min_impurity_decrease - 1e-15:
            return None

        mask = X[indices, feature] <= threshold
        left_idx = indices[mask]
        right_idx = indices[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            return None
        return feature, threshold, left_idx, right_idx

    def _score_best_threshold(self, x: np.ndarray, y: np.ndarray):
        """Best (min total SSE) threshold for one feature, or None."""
        order = np.argsort(x, kind="mergesort")
        xs = x[order]
        ys = y[order]
        n = len(xs)
        # Candidate split positions i mean: left = [0..i), right = [i..n).
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        total = csum[-1]
        total2 = csum2[-1]
        pos = np.arange(1, n)
        # Only split between distinct consecutive values and obey min_samples_leaf.
        distinct = xs[1:] != xs[:-1]
        leaf_ok = (pos >= self.min_samples_leaf) & (n - pos >= self.min_samples_leaf)
        valid = distinct & leaf_ok
        if not np.any(valid):
            return None
        left_sum = csum[:-1]
        left_sum2 = csum2[:-1]
        right_sum = total - left_sum
        right_sum2 = total2 - left_sum2
        n_left = pos
        n_right = n - pos
        sse = (left_sum2 - left_sum**2 / n_left) + (right_sum2 - right_sum**2 / n_right)
        sse = np.where(valid, sse, np.inf)
        best_i = int(np.argmin(sse))
        threshold = 0.5 * (xs[best_i] + xs[best_i + 1])
        # Guard against midpoints that round onto the right value.
        if threshold >= xs[best_i + 1]:
            threshold = xs[best_i]
        return float(sse[best_i]), float(threshold)

    def _score_random_threshold(self, x: np.ndarray, y: np.ndarray, lo: float, hi: float):
        """Extra-trees style: draw one uniform threshold and score it."""
        threshold = float(self.rng.uniform(lo, hi))
        if threshold >= hi:  # numerical edge; ensure both sides non-empty
            threshold = np.nextafter(hi, lo)
        mask = x <= threshold
        n_left = int(mask.sum())
        n_right = len(x) - n_left
        if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
            return None
        y_left = y[mask]
        y_right = y[~mask]
        sse = float(y_left.var() * n_left + y_right.var() * n_right)
        return sse, threshold


class _StackTreeBuilder(_TreeBuilder):
    """Work-stack builder with a fit-time feature presort (``"stack"`` engine).

    Bit-identical to :class:`_TreeBuilder`: nodes are created in the same
    depth-first pre-order, the RNG is consumed in the same sequence, and
    every floating-point quantity (thresholds, impurities, split scores)
    is computed from the same arrays in the same order.  The differences
    are purely mechanical:

    * the per-node ``argsort`` of the ``"best"`` splitter is replaced by
      one stable ``argsort`` per feature at fit time, maintained through
      splits with stable index partitioning (a stable partition of a
      stably sorted sequence stays stably sorted);
    * the Python recursion of ``_grow`` is replaced by an explicit
      LIFO work stack (right child pushed first so the left subtree is
      processed next, exactly like the recursive pre-order).
    """

    def build(self, X: np.ndarray, y: np.ndarray) -> Tree:
        presort = self.splitter == "best"
        # Column f of ``sorted_cols`` holds the node's sample indices
        # ordered by feature f (stable, so ties keep ascending index order
        # — the same order the per-node mergesort argsort produced).
        root_sorted = np.argsort(X, axis=0, kind="stable") if presort else None
        root = np.arange(X.shape[0])
        stack = [(root, root_sorted, 0, -1, False)]
        while stack:
            indices, sorted_cols, depth, parent, is_left = stack.pop()
            y_node = y[indices]
            n = len(indices)
            mean = float(y_node.mean())
            impurity = float(y_node.var())
            node_id = self._new_node(mean, n, impurity)
            if parent >= 0:
                if is_left:
                    self._left[parent] = node_id
                else:
                    self._right[parent] = node_id

            if (
                depth >= self.max_depth
                or n < self.min_samples_split
                or n < 2 * self.min_samples_leaf
                or impurity <= 1e-15
            ):
                continue

            split = self._find_split_presorted(X, y, indices, sorted_cols, impurity)
            if split is None:
                continue
            feature, threshold, left, right = split
            self._feature[node_id] = feature
            self._threshold[node_id] = threshold
            stack.append((*right, depth + 1, node_id, False))
            stack.append((*left, depth + 1, node_id, True))

        return Tree(
            feature=np.asarray(self._feature, dtype=np.int64),
            threshold=np.asarray(self._threshold, dtype=np.float64),
            left=np.asarray(self._left, dtype=np.int64),
            right=np.asarray(self._right, dtype=np.int64),
            value=np.asarray(self._value, dtype=np.float64),
            n_samples=np.asarray(self._n_samples, dtype=np.int64),
            impurity=np.asarray(self._impurity, dtype=np.float64),
        )

    def _find_split_presorted(self, X, y, indices, sorted_cols, parent_impurity):
        n = len(indices)
        n_features = X.shape[1]
        features = self.rng.permutation(n_features)

        best = None  # (score, feature, threshold)
        n_visited_with_candidates = 0
        y_node = y[indices]
        parent_sse = parent_impurity * n

        for feature in features:
            if n_visited_with_candidates >= self.max_features and best is not None:
                break
            if self.splitter == "random":
                x = X[indices, feature]
                lo, hi = x.min(), x.max()
                if lo == hi:
                    continue
                n_visited_with_candidates += 1
                candidate = self._score_random_threshold(x, y_node, lo, hi)
            else:
                order = sorted_cols[:, feature]
                xs = X[order, feature]
                if xs[0] == xs[-1]:
                    continue
                n_visited_with_candidates += 1
                candidate = self._score_presorted(xs, y[order])
            if candidate is None:
                continue
            score, threshold = candidate
            if best is None or score < best[0]:
                best = (score, int(feature), float(threshold))

        if best is None:
            return None
        score, feature, threshold = best
        decrease = (parent_sse - score) / n
        if decrease < self.min_impurity_decrease - 1e-15:
            return None

        mask = X[indices, feature] <= threshold
        left_idx = indices[mask]
        right_idx = indices[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            return None
        if sorted_cols is None:
            return feature, threshold, (left_idx, None), (right_idx, None)
        # Stable partition of every per-feature order by the split predicate.
        cols_t = sorted_cols.T  # (n_features, n)
        go_left_t = (X[sorted_cols, feature] <= threshold).T
        left_sorted = cols_t[go_left_t].reshape(n_features, len(left_idx)).T
        right_sorted = cols_t[~go_left_t].reshape(n_features, len(right_idx)).T
        return feature, threshold, (left_idx, left_sorted), (right_idx, right_sorted)

    def _score_presorted(self, xs: np.ndarray, ys: np.ndarray):
        """Same scoring as ``_score_best_threshold`` on pre-sorted inputs."""
        n = len(xs)
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        total = csum[-1]
        total2 = csum2[-1]
        pos = np.arange(1, n)
        distinct = xs[1:] != xs[:-1]
        leaf_ok = (pos >= self.min_samples_leaf) & (n - pos >= self.min_samples_leaf)
        valid = distinct & leaf_ok
        if not np.any(valid):
            return None
        left_sum = csum[:-1]
        left_sum2 = csum2[:-1]
        right_sum = total - left_sum
        right_sum2 = total2 - left_sum2
        n_left = pos
        n_right = n - pos
        sse = (left_sum2 - left_sum**2 / n_left) + (right_sum2 - right_sum**2 / n_right)
        sse = np.where(valid, sse, np.inf)
        best_i = int(np.argmin(sse))
        threshold = 0.5 * (xs[best_i] + xs[best_i + 1])
        if threshold >= xs[best_i + 1]:
            threshold = xs[best_i]
        return float(sse[best_i]), float(threshold)


def build_forest_per_tree(builder_cls: type[_TreeBuilder], X: np.ndarray,
                          y: np.ndarray, *, sample_sets: list[np.ndarray],
                          seeds: list, n_jobs: int = 1, **params) -> list[Tree]:
    """Grow one tree per sample set with a per-tree builder class.

    The ``"legacy"`` / ``"stack"`` engines behind the whole-forest builder
    signature of :func:`repro.ml._batched.build_forest_batched`: tree ``i``
    is built by ``builder_cls`` seeded with ``seeds[i]`` on the rows
    ``sample_sets[i]``, on up to *n_jobs* threads.  A sample set holding
    every row in order is built on *X* itself, uncopied.
    """
    every_row = np.arange(X.shape[0])

    def build_one(i: int) -> Tree:
        rows = sample_sets[i]
        Xi, yi = (X, y) if np.array_equal(rows, every_row) else (X[rows], y[rows])
        return builder_cls(rng=check_random_state(seeds[i]), **params).build(Xi, yi)

    return parallel_map(build_one, range(len(sample_sets)), n_jobs=n_jobs,
                        chunked=True)


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or smaller
        than ``min_samples_split``.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each leaf.
    max_features:
        Number of features examined per split: an int, a float fraction in
        (0, 1], ``"sqrt"``, ``"log2"``, or ``None`` (all features).
    splitter:
        ``"best"`` (exhaustive thresholds) or ``"random"`` (extra-trees).
    min_impurity_decrease:
        Minimum weighted variance reduction required to keep a split.
    random_state:
        Seed controlling feature shuffling and random thresholds.
    tree_method:
        ``None`` (the process-default tree engine, see
        :mod:`repro.ml.engine`), ``"exact"`` (insist on exact threshold
        search) or ``"hist"`` (histogram-binned split search, see
        :mod:`repro.ml._hist`).
    max_bins:
        Quantile bins per feature for the ``"hist"`` method (ignored by
        the exact engines).
    """

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        splitter: str = "best",
        min_impurity_decrease: float = 0.0,
        random_state=None,
        tree_method: str | None = None,
        max_bins: int = 256,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state
        self.tree_method = tree_method
        self.max_bins = max_bins
        self.tree_: Tree | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X, y, _hist_prebinned=None) -> DecisionTreeRegressor:
        """Grow the tree on the training data.

        ``_hist_prebinned`` optionally carries ``(codes, edges_pad)``
        from :func:`repro.ml._hist.bin_dataset` for the rows of *X*, so
        callers fitting many hist trees on the same feature matrix
        (gradient boosting) quantize it once instead of per tree.
        """
        X, y = check_X_y(X, y)
        self._validate_hyperparameters()
        self.n_features_in_ = X.shape[1]
        build = get_builder(resolve_build_engine(self.tree_method, kind="tree"),
                            max_bins=self.max_bins, prebinned=_hist_prebinned)
        self.tree_ = build(X, y, sample_sets=[np.arange(X.shape[0])],
                           seeds=[self.random_state],
                           **self._build_params(X.shape[1]))[0]
        return self

    def predict(self, X) -> np.ndarray:
        """Predict the target for every row of *X*."""
        check_is_fitted(self, "tree_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the tree was fitted with "
                f"{self.n_features_in_}"
            )
        return self.tree_.predict(X)

    def apply(self, X) -> np.ndarray:
        """Return the leaf index each row of *X* lands in."""
        check_is_fitted(self, "tree_")
        X = check_array(X)
        return self.tree_.apply(X)

    def get_depth(self) -> int:
        """Depth of the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.max_depth

    def get_n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.n_leaves

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-based feature importances (sum to 1, or all zeros)."""
        check_is_fitted(self, "tree_")
        tree = self.tree_
        importances = np.zeros(self.n_features_in_, dtype=np.float64)
        for node in range(tree.node_count):
            feat = tree.feature[node]
            if feat == _NO_CHILD:
                continue
            left, right = tree.left[node], tree.right[node]
            n, n_l, n_r = tree.n_samples[node], tree.n_samples[left], tree.n_samples[right]
            decrease = (
                n * tree.impurity[node]
                - n_l * tree.impurity[left]
                - n_r * tree.impurity[right]
            )
            importances[feat] += max(0.0, decrease)
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances

    # ------------------------------------------------------------------ #
    def _validate_hyperparameters(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.splitter not in ("best", "random"):
            raise ValueError(f"splitter must be 'best' or 'random', got {self.splitter!r}")
        if self.min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")
        if self.max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {self.max_bins}")

    def _build_params(self, n_features: int) -> dict:
        """The builders' split-rule arguments, ``max_features`` resolved."""
        return dict(
            splitter=self.splitter,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._resolve_max_features(n_features),
            min_impurity_decrease=self.min_impurity_decrease,
        )

    def _resolve_max_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if isinstance(mf, str):
            if mf == "sqrt":
                return max(1, int(np.sqrt(n_features)))
            if mf == "log2":
                return max(1, int(np.log2(n_features)))
            raise ValueError(f"unknown max_features string {mf!r}")
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError(f"float max_features must be in (0, 1], got {mf}")
            return max(1, int(round(mf * n_features)))
        mf = int(mf)
        if not 1 <= mf <= n_features:
            raise ValueError(
                f"max_features must be in [1, {n_features}], got {mf}"
            )
        return mf
