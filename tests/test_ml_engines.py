"""Tests for the tree/forest construction engines and the packed predictor.

The ``"stack"`` engine must be *bit-identical* to the seed ``"legacy"``
recursive builder (same node numbering, same RNG stream, same floats);
the ``"batched"`` level-synchronous engine must be deterministic and
statistically equivalent; and :class:`~repro.ml._packed.PackedForest`
must reproduce the per-tree Python prediction loop.
"""

import numpy as np
import pytest

from repro.ml import use_engines
from repro.ml._packed import PackedForest
from repro.ml.engine import get_default_engines, set_default_engines
from repro.ml.forest import ExtraTreesRegressor, RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 10.0, size=(400, 5))
    # Duplicate feature values so ties exercise the stable-sort paths.
    X[:, 3] = np.round(X[:, 3])
    y = np.where(X[:, 0] > 5, 10.0, 1.0) + 0.4 * X[:, 1] ** 2 + 0.1 * rng.normal(size=400)
    return X, y


def fit_with(engine, model, X, y):
    """Fit *model* with *engine* as the process default for its kind."""
    kind = "tree" if isinstance(model, DecisionTreeRegressor) else "forest"
    with use_engines(**{kind: engine}):
        return model.fit(X, y)


def assert_trees_identical(a, b):
    np.testing.assert_array_equal(a.feature, b.feature)
    np.testing.assert_array_equal(a.left, b.left)
    np.testing.assert_array_equal(a.right, b.right)
    np.testing.assert_array_equal(a.n_samples, b.n_samples)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    np.testing.assert_array_equal(a.value, b.value)
    np.testing.assert_array_equal(a.impurity, b.impurity)


class TestSeedEquivalence:
    """The stack engine reproduces the seed builder node for node."""

    @pytest.mark.parametrize("splitter", ["best", "random"])
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_stack_matches_legacy(self, data, splitter, seed):
        X, y = data
        legacy = fit_with("legacy", DecisionTreeRegressor(
            splitter=splitter, random_state=seed), X, y)
        stack = fit_with("stack", DecisionTreeRegressor(
            splitter=splitter, random_state=seed), X, y)
        assert_trees_identical(legacy.tree_, stack.tree_)

    @pytest.mark.parametrize("splitter", ["best", "random"])
    @pytest.mark.parametrize("kwargs", [
        dict(max_features="sqrt"),
        dict(max_features=2, max_depth=5),
        dict(min_samples_leaf=7),
        dict(min_samples_split=25, min_impurity_decrease=0.05),
    ])
    def test_stack_matches_legacy_hyperparameters(self, data, splitter, kwargs):
        X, y = data
        legacy = fit_with("legacy", DecisionTreeRegressor(
            splitter=splitter, random_state=3, **kwargs), X, y)
        stack = fit_with("stack", DecisionTreeRegressor(
            splitter=splitter, random_state=3, **kwargs), X, y)
        assert_trees_identical(legacy.tree_, stack.tree_)

    @pytest.mark.parametrize("cls", [RandomForestRegressor, ExtraTreesRegressor])
    def test_stack_forest_matches_legacy_forest(self, data, cls):
        X, y = data
        legacy = fit_with("legacy", cls(n_estimators=6, random_state=0), X, y)
        stack = fit_with("stack", cls(n_estimators=6, random_state=0), X, y)
        for a, b in zip(legacy.estimators_, stack.estimators_, strict=True):
            assert_trees_identical(a.tree_, b.tree_)
        np.testing.assert_allclose(legacy.predict(X), stack.predict(X), rtol=1e-12)


class TestBatchedEngine:
    @pytest.mark.parametrize("splitter", ["best", "random"])
    def test_deterministic_given_seed(self, data, splitter):
        X, y = data
        t1 = fit_with("batched", DecisionTreeRegressor(
            splitter=splitter, random_state=5), X, y)
        t2 = fit_with("batched", DecisionTreeRegressor(
            splitter=splitter, random_state=5), X, y)
        assert_trees_identical(t1.tree_, t2.tree_)

    def test_best_splitter_matches_stack_structure(self, data):
        """With all features and no RNG dependence in scoring, the batched
        best-split tree partitions the data identically (same leaf count,
        depth, and training predictions) even though node numbering is
        level-order instead of depth-first."""
        X, y = data
        batched = fit_with("batched", DecisionTreeRegressor(random_state=0), X, y)
        stack = fit_with("stack", DecisionTreeRegressor(random_state=0), X, y)
        assert batched.tree_.node_count == stack.tree_.node_count
        assert batched.tree_.max_depth == stack.tree_.max_depth
        np.testing.assert_allclose(batched.predict(X), stack.predict(X))

    def test_constraints_respected(self, data):
        X, y = data
        model = fit_with("batched", DecisionTreeRegressor(
            splitter="random", max_depth=4, min_samples_leaf=9, random_state=0), X, y)
        assert model.get_depth() <= 4
        _, counts = np.unique(model.apply(X), return_counts=True)
        assert counts.min() >= 9

    def test_min_impurity_decrease_prunes(self, data):
        X, y = data
        loose = fit_with("batched", DecisionTreeRegressor(random_state=0), X, y)
        strict = fit_with("batched", DecisionTreeRegressor(
            min_impurity_decrease=1.0, random_state=0), X, y)
        assert strict.get_n_leaves() < loose.get_n_leaves()

    @pytest.mark.parametrize("cls", [RandomForestRegressor, ExtraTreesRegressor])
    def test_forest_quality_matches_per_tree_engines(self, data, cls):
        X, y = data
        Xtr, ytr, Xte, yte = X[:300], y[:300], X[300:], y[300:]
        batched = fit_with("batched", cls(n_estimators=20, random_state=0), Xtr, ytr)
        stack = fit_with("stack", cls(n_estimators=20, random_state=0), Xtr, ytr)
        r2_batched = r2_score(yte, batched.predict(Xte))
        r2_stack = r2_score(yte, stack.predict(Xte))
        assert r2_batched > 0.9
        assert abs(r2_batched - r2_stack) < 0.05

    def test_tree_independent_of_forest_size(self, data):
        """A tree's RNG stream depends only on its own frontier, so the
        first trees of differently-sized forests are identical."""
        X, y = data
        small = fit_with("batched", ExtraTreesRegressor(
            n_estimators=2, random_state=0), X, y)
        large = fit_with("batched", ExtraTreesRegressor(
            n_estimators=6, random_state=0), X, y)
        for a, b in zip(small.estimators_, large.estimators_[:2], strict=True):
            assert_trees_identical(a.tree_, b.tree_)

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(1).random((30, 3))
        model = fit_with("batched", DecisionTreeRegressor(), X, np.full(30, 2.5))
        assert model.get_n_leaves() == 1
        np.testing.assert_allclose(model.predict(X), 2.5)

    def test_bootstrap_oob_supported(self, data):
        X, y = data
        model = fit_with("batched", RandomForestRegressor(
            n_estimators=25, oob_score=True, random_state=0), X, y)
        assert model.oob_score_ is not None and model.oob_score_ > 0.5


class TestPackedForest:
    @pytest.mark.parametrize("cls", [RandomForestRegressor, ExtraTreesRegressor])
    def test_predict_matches_per_tree_loop(self, data, cls):
        X, y = data
        forest = cls(n_estimators=12, random_state=0).fit(X, y)
        loop = np.zeros(X.shape[0])
        for tree in forest.estimators_:
            loop += tree.tree_.predict(X)
        loop /= len(forest.estimators_)
        np.testing.assert_allclose(forest.predict(X), loop, rtol=1e-12)

    def test_predict_all_shape_and_values(self, data):
        X, y = data
        forest = ExtraTreesRegressor(n_estimators=5, random_state=0).fit(X, y)
        all_preds = forest.packed_.predict_all(X[:50])
        assert all_preds.shape == (50, 5)
        for i, tree in enumerate(forest.estimators_):
            np.testing.assert_array_equal(all_preds[:, i], tree.tree_.predict(X[:50]))

    def test_predict_std_matches_stack(self, data):
        X, y = data
        forest = ExtraTreesRegressor(n_estimators=8, random_state=0).fit(X, y)
        stacked = np.stack([t.tree_.predict(X) for t in forest.estimators_])
        np.testing.assert_allclose(forest.predict_std(X), stacked.std(axis=0),
                                   rtol=1e-9, atol=1e-12)

    def test_single_node_trees(self):
        X = np.ones((10, 2))
        y = np.full(10, 3.0)
        forest = ExtraTreesRegressor(n_estimators=3, random_state=0).fit(X, y)
        np.testing.assert_allclose(forest.predict(X), 3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PackedForest([])


class TestEngineSelection:
    def test_default_engines(self):
        defaults = get_default_engines()
        assert defaults == {"tree": "stack", "forest": "batched"}

    def test_use_engines_restores(self):
        with use_engines(tree="legacy", forest="legacy"):
            assert get_default_engines() == {"tree": "legacy", "forest": "legacy"}
        assert get_default_engines() == {"tree": "stack", "forest": "batched"}

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            set_default_engines(tree="turbo")
        with pytest.raises(ValueError, match="engine"):
            set_default_engines(forest="turbo")
        assert get_default_engines() == {"tree": "stack", "forest": "batched"}
        with pytest.raises(TypeError, match="engine"):
            DecisionTreeRegressor(engine="stack")
        with pytest.raises(TypeError, match="engine"):
            ExtraTreesRegressor(engine="stack")


class TestVectorizedMaxDepth:
    @pytest.mark.parametrize("engine", ["legacy", "stack", "batched"])
    def test_matches_per_node_reference(self, data, engine):
        X, y = data
        tree = fit_with(engine, DecisionTreeRegressor(random_state=0), X, y).tree_
        depth = np.zeros(tree.node_count, dtype=np.int64)
        for node in range(tree.node_count):
            for child in (tree.left[node], tree.right[node]):
                if child != -1:
                    depth[child] = depth[node] + 1
        assert tree.max_depth == int(depth.max())
