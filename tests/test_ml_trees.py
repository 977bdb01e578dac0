"""Tests for the CART decision trees (classifier and regressor)."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    LEAF,
    NotFittedError,
)

from tests.oracles import decision_path, node_table


def _xor_dataset(rng, n=400):
    features = rng.integers(0, 2, size=(n, 2)).astype(float)
    labels = (features[:, 0].astype(int) ^ features[:, 1].astype(int))
    return features, labels


class TestDecisionTreeClassifier:
    def test_learns_xor(self, rng):
        features, labels = _xor_dataset(rng)
        tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert tree.score(features, labels) == 1.0

    def test_predict_proba_rows_sum_to_one(self, rng):
        features = rng.normal(size=(200, 5))
        labels = (features[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(features, labels)
        proba = tree.predict_proba(features)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert proba.shape == (200, 2)

    def test_max_depth_respected(self, rng):
        features = rng.normal(size=(300, 6))
        labels = (features[:, 0] * features[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(features, labels)
        assert tree.tree_.max_depth <= 2

    def test_min_samples_leaf_respected(self, rng):
        features = rng.normal(size=(100, 3))
        labels = (features[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(features, labels)
        flat = tree.tree_.flat
        leaf_covers = flat.cover[flat.feature == LEAF]
        assert leaf_covers.min() * 100 >= 20 - 1e-9  # weights are normalised

    def test_min_samples_leaf_does_not_discard_feature(self):
        # Regression: when a feature's *best* split violated
        # min_samples_leaf, the whole feature was silently skipped even
        # though a slightly worse split on it was legal.  Here the optimal
        # split (x <= 0.5) strands one sample, but x <= 1.5 still reduces
        # impurity and must be chosen instead of growing no tree at all.
        features = np.arange(8, dtype=float).reshape(-1, 1)
        labels = np.array([1, 0, 0, 0, 0, 0, 0, 0])
        tree = DecisionTreeClassifier(min_samples_leaf=2).fit(features, labels)
        assert tree.tree_.n_nodes == 3
        assert tree.tree_.flat.threshold[0] == pytest.approx(1.5)

    def test_pure_node_becomes_leaf(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([1, 1, 1, 1])
        tree = DecisionTreeClassifier().fit(features, labels)
        assert tree.tree_.n_nodes == 1
        assert tree.tree_.flat.feature[0] == LEAF
        assert tree.tree_.max_depth == 0

    def test_sample_weight_changes_decision(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 0, 1, 1])
        # Heavily weight the first sample as class 1 -> prediction shifts.
        weights = np.array([10.0, 0.1, 0.1, 0.1])
        tree = DecisionTreeClassifier(max_depth=1).fit(
            features, np.array([1, 0, 1, 1]), sample_weight=weights)
        assert tree.predict(np.array([[0.0]]))[0] == 1

    def test_feature_importances_sum_to_one(self, rng):
        features = rng.normal(size=(300, 4))
        labels = (features[:, 2] > 0.3).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(features, labels)
        importances = tree.feature_importances_
        assert importances.sum() == pytest.approx(1.0)
        assert importances.argmax() == 2

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict_proba(np.zeros((1, 2)))

    def test_non_binary_labels_supported(self, rng):
        features = rng.normal(size=(300, 2))
        labels = np.digitize(features[:, 0], [-0.5, 0.5])
        tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert set(np.unique(tree.predict(features))) <= {0, 1, 2}
        assert tree.score(features, labels) > 0.9

    def test_decision_path_starts_at_root_ends_at_leaf(self, rng):
        features, labels = _xor_dataset(rng)
        tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        path = decision_path(node_table(tree.tree_.flat), features[0])
        assert path[0] == 0
        assert tree.tree_.flat.feature[path[-1]] == LEAF
        assert path[-1] == tree.tree_.leaf_indices(features[:1])[0]

    def test_root_impurity_and_importances_read_the_arrays(self):
        # Balanced binary labels: root Gini 0.5; one clean split on
        # column 1 takes every unit of impurity decrease.
        features = np.array([[5.0, 0.0], [3.0, 0.0], [5.0, 1.0], [3.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(features, labels)
        flat = tree.tree_.flat
        assert flat.impurity[0] == pytest.approx(0.5)
        assert flat.feature[0] == 1
        np.testing.assert_array_equal(tree.feature_importances_, [0.0, 1.0])


@pytest.mark.parametrize("estimator", [DecisionTreeClassifier,
                                       DecisionTreeRegressor])
@pytest.mark.parametrize("parameter, value", [
    ("max_depth", 0), ("max_depth", -1),
    ("min_samples_split", 1), ("min_samples_split", 0),
    ("min_samples_leaf", 0), ("min_samples_leaf", -1),
    ("max_features", 0), ("max_features", -1),
])
def test_degenerate_hyperparameters_rejected(estimator, parameter, value):
    # These used to be clamped or to fit a one-leaf tree without a word.
    with pytest.raises(ValueError, match=parameter):
        estimator(**{parameter: value})


class TestDecisionTreeRegressor:
    def test_fits_piecewise_constant_target(self, rng):
        features = rng.uniform(-1, 1, size=(500, 1))
        targets = np.where(features[:, 0] > 0, 2.0, -1.0)
        reg = DecisionTreeRegressor(max_depth=2).fit(features, targets)
        predictions = reg.predict(features)
        assert np.abs(predictions - targets).max() < 0.2

    def test_reduces_error_with_depth(self, rng):
        features = rng.uniform(-2, 2, size=(600, 2))
        targets = features[:, 0] ** 2 + features[:, 1]
        shallow = DecisionTreeRegressor(max_depth=2).fit(features, targets)
        deep = DecisionTreeRegressor(max_depth=6).fit(features, targets)
        err_shallow = np.mean((shallow.predict(features) - targets) ** 2)
        err_deep = np.mean((deep.predict(features) - targets) ** 2)
        assert err_deep < err_shallow

    def test_target_shape_validated(self, rng):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(rng.normal(size=(10, 2)), np.zeros(5))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_feature_importances_identify_informative_column(self, rng):
        features = rng.normal(size=(400, 3))
        targets = 3.0 * features[:, 1]
        reg = DecisionTreeRegressor(max_depth=4).fit(features, targets)
        assert reg.feature_importances_.argmax() == 1
