"""Bit-identity properties: flat-array fast paths vs their per-sample oracles.

These tests pin the oracle pairs registered in
``tools/polaris_lint/contracts.py`` (rule PL002) against their twins in
``tests/oracles``:

- ``tree-predict``: ``FlatTree``-based ``predict_batch`` /
  ``leaf_indices`` vs the per-row ``predict_value`` / ``decision_path``
  walk over a ``node_table``.
- ``tree-shap-expectation``: the bottom-up ``expectation_batch`` sweep vs
  the recursive ``expectation`` oracle.
- ``tree-shap-explain``: the batched ``explain_matrix`` vs the per-sample
  ``PerSampleTreeShap``.

Every assertion is *bitwise* (``np.array_equal`` / ``==`` on floats is
deliberate here): the vectorised paths are required to reproduce the
oracle exactly, not approximately, so the hybrid per-sample/batched code
paths can never disagree.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    FlatTree,
    GradientBoostingClassifier,
    LEAF,
    RandomForestClassifier,
)
from repro.xai.tree_shap import TreeShapExplainer, _extract_trees

from tests.oracles import (
    PerSampleTreeShap,
    decision_path,
    expectation,
    node_table,
    output_table,
    predict_value,
)

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

MODEL_FACTORIES = {
    "tree": lambda depth: DecisionTreeClassifier(max_depth=depth,
                                                 random_state=0),
    "forest": lambda depth: RandomForestClassifier(n_estimators=4,
                                                   max_depth=depth,
                                                   random_state=1),
    "adaboost": lambda depth: AdaBoostClassifier(n_estimators=5,
                                                 max_depth=depth,
                                                 random_state=2),
    "gboost": lambda depth: GradientBoostingClassifier(n_estimators=5,
                                                       learning_rate=0.2,
                                                       max_depth=depth,
                                                       random_state=3),
}


def _dataset(seed, n_samples, n_features, single_class=False,
             constant_feature=False, weighted=False):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_samples, n_features))
    if constant_feature:
        features[:, 0] = 1.5
    if single_class:
        labels = np.ones(n_samples, dtype=int)
    else:
        labels = (features.sum(axis=1) > 0).astype(int)
        labels[0] = 0  # guarantee both classes when possible
        labels[-1] = 1
    weights = rng.uniform(0.1, 2.0, size=n_samples) if weighted else None
    return features, labels, weights


def _fitted_trees(model):
    """Every fitted ``_FittedTree`` inside ``model``."""
    if hasattr(model, "estimators_"):
        return [tree.tree_ for tree in model.estimators_]
    return [model.tree_]


# ----------------------------------------------------------------------
# Oracle pair tree-predict: predict_batch vs predict_value
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(5, 40),
       n_features=st.integers(1, 6), depth=st.integers(1, 4),
       weighted=st.booleans())
def test_predict_batch_matches_predict_value(family, seed, n_samples,
                                             n_features, depth, weighted):
    features, labels, weights = _dataset(seed, n_samples, n_features,
                                         weighted=weighted)
    model = MODEL_FACTORIES[family](depth)
    model.fit(features, labels, sample_weight=weights)
    queries = np.random.default_rng(seed + 1).normal(
        size=(n_samples, n_features))
    for fitted in _fitted_trees(model):
        batch = fitted.predict_batch(queries)
        oracle = predict_value(node_table(fitted.flat), queries)
        assert np.array_equal(batch, oracle)


@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(5, 40),
       n_features=st.integers(1, 5), depth=st.integers(1, 5))
def test_regressor_predict_batch_matches_predict_value(seed, n_samples,
                                                       n_features, depth):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_samples, n_features))
    targets = rng.normal(size=n_samples)
    model = DecisionTreeRegressor(max_depth=depth, random_state=0)
    model.fit(features, targets)
    queries = rng.normal(size=(n_samples, n_features))
    batch = model.tree_.predict_batch(queries)
    oracle = predict_value(node_table(model.tree_.flat), queries)
    assert np.array_equal(batch, oracle)
    assert np.array_equal(model.predict(queries), oracle[:, 0])


@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(5, 30),
       n_features=st.integers(1, 5), depth=st.integers(1, 4))
def test_leaf_indices_match_decision_path(seed, n_samples, n_features, depth):
    features, labels, _ = _dataset(seed, n_samples, n_features)
    model = DecisionTreeClassifier(max_depth=depth, random_state=0)
    model.fit(features, labels)
    queries = np.random.default_rng(seed + 1).normal(
        size=(n_samples, n_features))
    leaves = model.tree_.leaf_indices(queries)
    nodes = node_table(model.tree_.flat)
    for index, row in enumerate(queries):
        assert leaves[index] == decision_path(nodes, row)[-1]


@pytest.mark.parametrize("degenerate", ["single_class", "constant_feature"])
def test_predict_batch_degenerate_corners(degenerate):
    features, labels, _ = _dataset(
        0, 12, 3,
        single_class=degenerate == "single_class",
        constant_feature=degenerate == "constant_feature")
    for family, factory in sorted(MODEL_FACTORIES.items()):
        model = factory(3)
        model.fit(features, labels)
        for fitted in _fitted_trees(model):
            batch = fitted.predict_batch(features)
            oracle = predict_value(node_table(fitted.flat), features)
            assert np.array_equal(batch, oracle), family


def test_flat_tree_is_topologically_ordered():
    features, labels, _ = _dataset(3, 40, 4)
    model = DecisionTreeClassifier(max_depth=4, random_state=0)
    model.fit(features, labels)
    flat = model.tree_.flat
    assert isinstance(flat, FlatTree)
    n_nodes = flat.n_nodes
    for array in (flat.feature, flat.threshold, flat.left, flat.right,
                  flat.value, flat.cover, flat.impurity):
        assert array.shape[0] == n_nodes
    leaf = flat.feature == LEAF
    index = np.arange(n_nodes)
    # Children always sit at larger indices (topological order); the
    # bottom-up SHAP sweep relies on this.
    assert np.all(flat.left[~leaf] > index[~leaf])
    assert np.all(flat.right[~leaf] > index[~leaf])
    assert np.all(flat.left[leaf] == -1) and np.all(flat.right[leaf] == -1)
    # Every non-root node has exactly one parent.
    children = np.concatenate([flat.left[~leaf], flat.right[~leaf]])
    assert sorted(children.tolist()) == list(range(1, n_nodes))
    # Leaves self-loop in the step arrays used by the batch descent.
    assert np.array_equal(flat.step_left[leaf], index[leaf])
    assert np.array_equal(flat.step_right[leaf], index[leaf])
    assert np.all(np.isinf(flat.step_threshold[leaf]))
    # A split's children share its cover.
    np.testing.assert_allclose(
        flat.cover[~leaf], flat.cover[flat.left[~leaf]]
        + flat.cover[flat.right[~leaf]])


# ----------------------------------------------------------------------
# Oracle pair tree-shap-expectation: expectation_batch vs expectation
# ----------------------------------------------------------------------
@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(3, 20),
       n_features=st.integers(2, 5), known_seed=st.integers(0, 100))
def test_expectation_batch_matches_expectation(seed, n_samples, n_features,
                                               known_seed):
    features, labels, _ = _dataset(seed, max(n_samples, 8), n_features)
    model = RandomForestClassifier(n_estimators=3, max_depth=3,
                                   random_state=0).fit(features, labels)
    trees, _, _ = _extract_trees(model)
    known_rng = np.random.default_rng(known_seed)
    queries = np.random.default_rng(seed + 1).normal(
        size=(n_samples, n_features))
    for tree in trees:
        n_known = int(known_rng.integers(0, n_features + 1))
        known = frozenset(
            int(f) for f in known_rng.choice(n_features, size=n_known,
                                             replace=False))
        batch = tree.expectation_batch(queries, known)
        nodes = output_table(tree)
        for index, row in enumerate(queries):
            assert batch[index] == expectation(nodes, row, known)


# ----------------------------------------------------------------------
# Oracle pair tree-shap-explain: explain_matrix vs explain
# ----------------------------------------------------------------------
def _assert_explanations_identical(batch, oracle):
    assert np.array_equal(batch.shap_values, oracle.shap_values)
    assert batch.base_value == oracle.base_value
    assert batch.prediction == oracle.prediction
    assert np.array_equal(batch.data, oracle.data)


@pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
@SETTINGS
@given(seed=st.integers(0, 10_000), n_samples=st.integers(2, 10),
       n_features=st.integers(2, 5))
def test_explain_matrix_matches_explain(family, seed, n_samples, n_features):
    features, labels, _ = _dataset(seed, 25, n_features)
    model = MODEL_FACTORIES[family](3).fit(features, labels)
    explainer = TreeShapExplainer(model)
    queries = np.random.default_rng(seed + 1).normal(
        size=(n_samples, n_features))
    batch = explainer.explain_matrix(queries)
    assert len(batch) == n_samples
    oracle = PerSampleTreeShap(explainer)
    for index, row in enumerate(queries):
        _assert_explanations_identical(batch[index], oracle.explain(row))


@SETTINGS
@given(seed=st.integers(0, 10_000), n_features=st.integers(2, 4))
def test_explain_matrix_matches_explain_sampled_fallback(seed, n_features):
    features, labels, _ = _dataset(seed, 30, n_features)
    model = DecisionTreeClassifier(max_depth=4, random_state=0).fit(
        features, labels)
    # max_exact_features=1 forces the permutation-sampling path whenever a
    # tree splits on more than one feature.
    explainer = TreeShapExplainer(model, max_exact_features=1,
                                  n_permutations=12, seed=7)
    queries = np.random.default_rng(seed + 1).normal(size=(6, n_features))
    batch = explainer.explain_matrix(queries)
    oracle = PerSampleTreeShap(explainer)
    for index, row in enumerate(queries):
        _assert_explanations_identical(batch[index], oracle.explain(row))


def test_explain_matrix_regressor_and_1d_input():
    rng = np.random.default_rng(5)
    features = rng.normal(size=(40, 4))
    targets = features[:, 0] * 2.0 - features[:, 2]
    model = DecisionTreeRegressor(max_depth=4, random_state=0).fit(
        features, targets)
    explainer = TreeShapExplainer(model)
    row = rng.normal(size=4)
    batch = explainer.explain_matrix(row)
    assert len(batch) == 1
    _assert_explanations_identical(batch[0],
                                   PerSampleTreeShap(explainer).explain(row))


@pytest.mark.parametrize("family", sorted(MODEL_FACTORIES))
def test_explain_is_explain_matrix_on_one_row(family):
    features, labels, _ = _dataset(11, 30, 4)
    model = MODEL_FACTORIES[family](3).fit(features, labels)
    explainer = TreeShapExplainer(model)
    for row in np.random.default_rng(12).normal(size=(4, 4)):
        _assert_explanations_identical(explainer.explain(row),
                                       explainer.explain_matrix(row[None])[0])
    with pytest.raises(ValueError, match="does not match"):
        explainer.explain(np.zeros(5))


def test_newton_step_reaches_prediction_and_shap():
    # Gradient boosting rewrites every leaf of a fitted regression tree
    # with a Newton step sum(g) / sum(h); prediction and Tree SHAP must
    # both read the rewritten leaf, not the leaf mean the tree was grown
    # with.
    features, labels, _ = _dataset(4, 40, 3)
    model = GradientBoostingClassifier(n_estimators=1, learning_rate=1.0,
                                       max_depth=2).fit(features, labels)
    tree = model.estimators_[0]
    probability = 1.0 / (1.0 + np.exp(-model.initial_score_))
    gradient = labels - probability
    hessian = probability * (1.0 - probability)
    leaves = tree.tree_.leaf_indices(features)
    for leaf in np.unique(leaves):
        in_leaf = leaves == leaf
        newton = gradient[in_leaf].sum() / (hessian * in_leaf.sum())
        assert tree.tree_.flat.value[leaf, 0] == pytest.approx(newton)
        assert newton != pytest.approx(gradient[in_leaf].mean())
    expected = model.initial_score_ + tree.tree_.flat.value[leaves, 0]
    np.testing.assert_allclose(model.decision_function(features), expected,
                               rtol=0, atol=1e-12)
    for explanation, score in zip(
            TreeShapExplainer(model).explain_matrix(features), expected):
        assert explanation.prediction == pytest.approx(score, abs=1e-12)
        assert explanation.base_value + explanation.shap_values.sum() \
            == pytest.approx(score, abs=1e-9)


def test_explain_matrix_rejects_wrong_width():
    features, labels, _ = _dataset(0, 20, 3)
    model = DecisionTreeClassifier(max_depth=2, random_state=0).fit(
        features, labels)
    explainer = TreeShapExplainer(model)
    with pytest.raises(ValueError, match="does not match"):
        explainer.explain_matrix(np.zeros((2, 5)))
