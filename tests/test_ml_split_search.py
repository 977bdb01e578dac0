"""The histogram split search against the sorted scan it replaced.

``repro.ml.tree._TreeBuilder._histogram_split`` finds a node's split from
per-bin sums over a matrix binned once per fit; ``tests/oracles``
:class:`ScanTreeBuilder` argsorts every column of the node and scans a
cumulative sum (oracle pair ``tree-split``).  Both consider the same
candidate splits; their scores are the same expressions summed in another
order, so they agree to the last ulps, and the chosen split is the same
whenever the scan's best is unique beyond that.  Whole ensemble fits with
the repo's model settings are bitwise equal on the bench cognition matrix.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ModelConfig,
    PolarisConfig,
    generate_cognition,
    train_masking_model,
)
from repro.ml import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.tree import _BinnedFeatures, _TreeBuilder
from repro.tvla import TvlaConfig
from repro.workloads import WorkloadConfig, training_designs

from tests.oracles import ScanTreeBuilder, scan_split_search

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Relative tolerance between a histogram score and the scan's.
REL_TOL = 1e-12

#: The column kinds the generated matrices mix.
COLUMN_KINDS = ("discrete", "constant", "near", "continuous")


def _column(rng, kind, n_rows):
    if kind == "discrete":
        return rng.integers(0, 4, n_rows).astype(float)
    if kind == "constant":
        return np.full(n_rows, 2.5)
    if kind == "near":
        # Distinct values closer than 1e-12 may not be split apart.
        base = rng.integers(0, 3, n_rows).astype(float)
        return base + 4e-13 * rng.integers(0, 3, n_rows)
    return rng.normal(size=n_rows)


def _problem(seed, n_rows, kinds, criterion, zero_fraction):
    rng = np.random.default_rng(seed)
    features = np.column_stack([_column(rng, kind, n_rows) for kind in kinds])
    weights = rng.uniform(0.1, 10.0, n_rows)
    weights[rng.random(n_rows) < zero_fraction] = 0.0
    if weights.sum() == 0.0:
        weights[0] = 1.0
    weights /= weights.sum()
    if criterion == "gini":
        targets = rng.integers(0, 3, n_rows)
    else:
        targets = rng.normal(size=n_rows)
    return features, targets, weights


def _root_splits(criterion, features, targets, weights, min_samples_leaf,
                 max_features, seed, rows=None):
    """Root split of the histogram search and of the scan on the same node,
    the scan's candidates, and whether both consumed the same draws."""
    n_classes = 3 if criterion == "gini" else 1
    binned = _BinnedFeatures.from_matrix(features)
    if rows is not None:  # a bootstrap: binned once, rows indexed
        binned = binned.take(rows)
        features, targets, weights = features[rows], targets[rows], weights[rows]

    def builder(cls):
        return cls(criterion, None, 2, min_samples_leaf, max_features,
                   np.random.default_rng(seed))

    histogram = builder(_TreeBuilder)
    histogram._binned = binned
    split = histogram._histogram_split(np.arange(features.shape[0]), targets,
                                       weights, n_classes)
    scan = builder(ScanTreeBuilder)
    expected = scan._best_split(features, targets, weights, n_classes)
    candidates = builder(ScanTreeBuilder).candidates(features, targets,
                                                     weights, n_classes)
    same_draws = (histogram.rng.bit_generator.state
                  == scan.rng.bit_generator.state)
    return features, split, expected, candidates, same_draws


def _close(score, reference):
    return math.isclose(score, reference, rel_tol=REL_TOL, abs_tol=1e-15)


def _check_root_split(criterion, seed, n_rows, kinds, zero_fraction,
                      min_samples_leaf, max_features, bootstrap):
    features, targets, weights = _problem(seed, n_rows, kinds, criterion,
                                          zero_fraction)
    rows = None
    if bootstrap:
        rows = np.random.default_rng(seed + 1).integers(0, n_rows, n_rows)
    features, split, expected, candidates, same_draws = _root_splits(
        criterion, features, targets, weights, min_samples_leaf,
        max_features, seed, rows)
    assert same_draws
    assert (split is None) == (expected is None)
    if expected is None:
        assert not candidates
        return
    assert _close(split.score, expected.score)
    # The histogram's split is one of the scan's candidates, scored alike.
    matching = [score for score, feature, threshold in candidates
                if (feature, threshold) == (split.feature, split.threshold)]
    assert len(matching) == 1 and _close(split.score, matching[0])
    np.testing.assert_array_equal(
        split.left_mask, features[:, split.feature] <= split.threshold)
    near_best = {(feature, threshold) for score, feature, threshold
                 in candidates if _close(score, expected.score)}
    if len(near_best) == 1:
        assert (split.feature, split.threshold) == (expected.feature,
                                                    expected.threshold)
        np.testing.assert_array_equal(split.left_mask, expected.left_mask)


_split_cases = dict(
    seed=st.integers(min_value=0, max_value=99_999),
    n_rows=st.integers(min_value=2, max_value=48),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6),
    zero_fraction=st.sampled_from((0.0, 0.3)),
    min_samples_leaf=st.integers(min_value=1, max_value=12),
    max_features=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    bootstrap=st.booleans(),
)


@SETTINGS
@given(**_split_cases)
def test_gini_histogram_split_matches_scan(seed, n_rows, kinds, zero_fraction,
                                           min_samples_leaf, max_features,
                                           bootstrap):
    _check_root_split("gini", seed, n_rows, kinds, zero_fraction,
                      min_samples_leaf, max_features, bootstrap)


@SETTINGS
@given(**_split_cases)
def test_mse_histogram_split_matches_scan(seed, n_rows, kinds, zero_fraction,
                                          min_samples_leaf, max_features,
                                          bootstrap):
    _check_root_split("mse", seed, n_rows, kinds, zero_fraction,
                      min_samples_leaf, max_features, bootstrap)


@pytest.mark.parametrize("criterion", ["gini", "mse"])
def test_exact_tie_goes_to_first_feature_then_lowest_bin(criterion):
    # Columns 1 and 2 order the rows as column 0 does: every split of
    # them scores bitwise alike, and the first feature wins.  Within the
    # column, the two mirror-image splits tie too, and the lower bin wins.
    features = np.array([[0.0, 5.0, 0.0], [1.0, 6.0, 1.0], [2.0, 7.0, 2.0],
                         [3.0, 8.0, 3.0]])
    targets = (np.array([0, 1, 1, 0]) if criterion == "gini"
               else np.array([0.0, 1.0, 1.0, 0.0]))
    weights = np.full(4, 0.25)
    _, split, expected, candidates, _ = _root_splits(
        criterion, features, targets, weights, 1, None, 0)
    scores = sorted(score for score, _, _ in candidates)
    assert scores[0] == scores[5]  # six tied candidates
    assert (split.feature, split.threshold) == (0, 0.5)
    assert (expected.feature, expected.threshold) == (0, 0.5)
    assert split.score == expected.score


def test_constant_and_near_equal_columns_offer_no_split():
    features = np.column_stack([np.full(6, 3.0),
                                1.0 + 5e-13 * np.arange(6)])
    targets = np.array([0, 1, 0, 1, 0, 1])
    _, split, expected, candidates, _ = _root_splits(
        "gini", features, targets, np.full(6, 1 / 6), 1, None, 0)
    assert split is None and expected is None and not candidates
    tree = DecisionTreeClassifier().fit(features, targets)
    assert tree.tree_.n_nodes == 1


def test_threshold_is_midpoint_of_the_node_values():
    # The matrix holds 1.0 and 3.0 between 0.0 and 4.0, but the node does
    # not: its threshold is the midpoint of its own neighbouring values.
    features = np.array([[0.0], [1.0], [3.0], [4.0], [0.0], [4.0]])
    targets = np.array([0, 1, 1, 0, 0, 1])
    binned = _BinnedFeatures.from_matrix(features).take(np.array([0, 3, 4, 5]))
    tree = DecisionTreeClassifier(max_depth=1).fit(
        binned, targets[[0, 3, 4, 5]])
    assert tree.tree_.flat.threshold[0] == 2.0


@pytest.mark.parametrize("low", [1e5, 123456.789, 3.0])
def test_split_between_adjacent_floats_separates_them(low):
    # The midpoint of 1e5 and the next float rounds onto 1e5; that of
    # 123456.789 and the next float rounds onto the upper value, and of
    # 3.0 and +inf is +inf.  The threshold must still separate the two
    # values: the sorted scan sent every row left there and recursed
    # until RecursionError.
    high = np.nextafter(low, np.inf) if low != 3.0 else np.inf
    features = np.array([[low], [high], [low], [high]])
    targets = np.array([0, 1, 0, 1])
    tree = DecisionTreeClassifier().fit(features, targets)
    flat = tree.tree_.flat
    assert low <= flat.threshold[0] < high
    np.testing.assert_array_equal(flat.feature, [0, -1, -1])
    np.testing.assert_array_equal(tree.predict(features), targets)


def test_binning_is_exact():
    rng = np.random.default_rng(3)
    features = np.column_stack([rng.normal(size=50),
                                rng.integers(0, 3, 50).astype(float),
                                np.full(50, -1.5)])
    binned = _BinnedFeatures.from_matrix(features)
    np.testing.assert_array_equal(binned.values.ravel()[binned.codes],
                                  features)
    stride = binned.values.shape[1]
    for column in range(features.shape[1]):
        ranks = binned.codes[:, column] - column * stride
        _, expected = np.unique(features[:, column], return_inverse=True)
        np.testing.assert_array_equal(ranks, expected)
    assert np.isnan(binned.values[:, -1]).all()


@pytest.mark.parametrize("estimator", [DecisionTreeClassifier,
                                       DecisionTreeRegressor])
def test_single_tree_fit_equals_scan_fit(estimator, rng):
    features = np.round(rng.normal(size=(120, 5)), 1)
    targets = (features[:, 0] + features[:, 1] > 0).astype(int)
    weights = rng.uniform(0.5, 2.0, 120)
    fast = estimator(max_depth=3, max_features=3, random_state=4).fit(
        features, targets, sample_weight=weights)
    with scan_split_search():
        oracle = estimator(max_depth=3, max_features=3, random_state=4).fit(
            features, targets, sample_weight=weights)
    _assert_trees_equal(fast, oracle)


def _assert_trees_equal(fast, oracle):
    for field in ("feature", "threshold", "left", "right", "value", "cover",
                  "impurity"):
        np.testing.assert_array_equal(getattr(fast.tree_.flat, field),
                                      getattr(oracle.tree_.flat, field),
                                      err_msg=field)


@pytest.fixture(scope="module")
def bench_cognition():
    """The cognition dataset the benches train on (360 x 147)."""
    config = PolarisConfig(
        msize=40, locality=7, iterations=8, theta_r=0.70,
        tvla=TvlaConfig(n_traces=500, n_fixed_classes=4, seed=11,
                        chunk_traces=2048),
        seed=23)
    designs = training_designs(WorkloadConfig(scale=0.5, seed=2025))
    dataset, _ = generate_cognition(designs, config)
    return dataset, config


def _fit_both(dataset, config, family):
    config = replace(config, model=ModelConfig(model_type=family))
    fast = train_masking_model(dataset, config)
    with scan_split_search():
        oracle = train_masking_model(dataset, config)
    assert len(fast.estimators_) == len(oracle.estimators_) > 0
    return fast, oracle


@pytest.mark.parametrize("family", ["adaboost", "xgboost", "random_forest"])
def test_ensemble_fits_on_cognition_matrix_equal_scan_fits(family,
                                                           bench_cognition):
    """Every ``FlatTree`` array of an ensemble fitted with ``build_model``
    settings equals, bit for bit, the same fit grown with the scan."""
    dataset, config = bench_cognition
    fast, oracle = _fit_both(dataset, config, family)
    for fast_tree, oracle_tree in zip(fast.estimators_, oracle.estimators_):
        _assert_trees_equal(fast_tree, oracle_tree)
    if family == "adaboost":
        assert fast.estimator_weights_ == oracle.estimator_weights_
    np.testing.assert_array_equal(fast.predict_proba(dataset.features),
                                  oracle.predict_proba(dataset.features))


@pytest.mark.parametrize("family", ["adaboost", "xgboost"])
def test_tiny_cognition_matrix_ties_keep_the_bipartition(family,
                                                        trained_polaris,
                                                        polaris_config):
    """On the 45-row unit-test matrix several features cut some nodes into
    the same two row sets (some as mirror images, left and right swapped).
    Their scores tie exactly, the two searches break the tie on different
    last-ulp noise, and some trees differ in layout.  The bipartitions
    are the same, so every boosting round sees the same training
    predictions: the fitted models score their training rows bitwise alike.
    """
    dataset = trained_polaris.dataset
    fast, oracle = _fit_both(dataset, polaris_config, family)
    np.testing.assert_array_equal(fast.predict_proba(dataset.features),
                                  oracle.predict_proba(dataset.features))
    if family == "adaboost":
        assert fast.estimator_weights_ == oracle.estimator_weights_
