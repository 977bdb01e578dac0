"""CART decision trees (classification and regression).

The trees are grown with the classic CART procedure: at every node the best
axis-aligned split is chosen by exhaustive search over features and
thresholds, scoring candidate splits with the weighted Gini impurity
(classification) or weighted variance (regression).

A fitted tree is its :class:`FlatTree`: parallel ``feature``/``threshold``/
``left``/``right``/``value``/``cover``/``impurity`` numpy node arrays built
once at the end of ``fit``.  Prediction (:meth:`_FittedTree.predict_batch`,
:meth:`_FittedTree.leaf_indices`) descends them frontier-by-frontier over
the whole ``(n_samples, n_features)`` matrix, introspection reads them, and
the Tree SHAP explainer (:mod:`repro.xai.tree_shap`) sweeps them.  The
per-row node walk that pins the batch descent bit for bit is test code
(``tests/oracles/tree.py``, oracle pair ``tree-predict`` of polaris-lint
PL002).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .base import (
    BaseClassifier,
    NotFittedError,
    check_features,
    check_labels,
    check_sample_weight,
)

#: Sentinel feature index marking a leaf node.
LEAF = -1


@dataclass
class TreeNode:
    """The builder's record of one node, flattened into a :class:`FlatTree`
    when growing ends.

    Attributes:
        feature: Split feature index, or :data:`LEAF` for leaves.
        threshold: Split threshold (samples with ``x <= threshold`` go left).
        left: Index of the left child (or -1).
        right: Index of the right child (or -1).
        value: Node prediction — class-probability vector for classifiers,
            single-element array with the mean target for regressors.
        cover: Total sample weight that reached the node.
        impurity: Node impurity (Gini or variance).
        depth: Node depth (root = 0).
    """

    feature: int
    threshold: float
    left: int
    right: int
    value: np.ndarray
    cover: float
    impurity: float
    depth: int


@dataclass
class _SplitCandidate:
    feature: int
    threshold: float
    score: float
    left_mask: np.ndarray


class _TreeBuilder:
    """Shared CART growing logic for classification and regression."""

    def __init__(self, criterion: str, max_depth: Optional[int],
                 min_samples_split: int, min_samples_leaf: int,
                 max_features: Optional[int],
                 rng: Optional[np.random.Generator]) -> None:
        if criterion not in ("gini", "mse"):
            raise ValueError("criterion must be 'gini' or 'mse'")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._nodes: List[TreeNode] = []

    # -- impurity ------------------------------------------------------
    def _node_value(self, targets: np.ndarray, weights: np.ndarray,
                    n_classes: int) -> np.ndarray:
        if self.criterion == "gini":
            value = np.zeros(n_classes)
            for k in range(n_classes):
                value[k] = weights[targets == k].sum()
            total = value.sum()
            return value / total if total > 0 else np.full(n_classes, 1.0 / n_classes)
        total = weights.sum()
        mean = float(np.average(targets, weights=weights)) if total > 0 else 0.0
        return np.array([mean])

    def _impurity(self, targets: np.ndarray, weights: np.ndarray,
                  n_classes: int) -> float:
        total = weights.sum()
        if total <= 0:
            return 0.0
        if self.criterion == "gini":
            probabilities = np.array(
                [weights[targets == k].sum() for k in range(n_classes)]) / total
            return float(1.0 - np.sum(probabilities ** 2))
        mean = np.average(targets, weights=weights)
        return float(np.average((targets - mean) ** 2, weights=weights))

    # -- split search --------------------------------------------------
    def _best_split(self, features: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray, n_classes: int) -> Optional[_SplitCandidate]:
        n_samples, n_features = features.shape
        feature_indices = np.arange(n_features)
        if self.max_features is not None and self.max_features < n_features:
            feature_indices = self.rng.choice(
                n_features, size=self.max_features, replace=False)

        best: Optional[_SplitCandidate] = None
        for feature in feature_indices:
            column = features[:, feature]
            order = np.argsort(column, kind="mergesort")
            sorted_values = column[order]
            sorted_weights = weights[order]
            sorted_targets = targets[order]
            # Candidate split positions: between distinct consecutive values.
            distinct = np.nonzero(np.diff(sorted_values) > 1e-12)[0]
            if distinct.size == 0:
                continue
            score, position = self._scan_splits(
                sorted_targets, sorted_weights, distinct, n_classes)
            if position is None:
                continue
            if best is None or score < best.score:
                threshold = 0.5 * (sorted_values[position]
                                   + sorted_values[position + 1])
                best = _SplitCandidate(int(feature), float(threshold), float(score),
                                       column <= threshold)
        return best

    def _scan_splits(self, targets: np.ndarray, weights: np.ndarray,
                     positions: np.ndarray,
                     n_classes: int) -> Tuple[float, Optional[int]]:
        """Vectorised scan of candidate split positions on a sorted column.

        Positions whose left/right child would fall below
        ``min_samples_leaf`` are masked out *before* the argmin, so a
        feature whose best-scoring position violates the leaf constraint
        still yields its best valid position rather than being discarded.
        """
        n_samples = targets.size
        # Split at position p sends samples [0, p] left and (p, n) right.
        leaf_ok = ((positions + 1 >= self.min_samples_leaf)
                   & (n_samples - positions - 1 >= self.min_samples_leaf))
        total_weight = weights.sum()
        if self.criterion == "gini":
            # Cumulative weighted class counts.
            one_hot = np.zeros((targets.size, n_classes))
            one_hot[np.arange(targets.size), targets] = weights
            left_counts = np.cumsum(one_hot, axis=0)[positions]
            total_counts = one_hot.sum(axis=0)
            right_counts = total_counts - left_counts
            left_weight = left_counts.sum(axis=1)
            right_weight = right_counts.sum(axis=1)
            valid = (left_weight > 0) & (right_weight > 0) & leaf_ok
            if not np.any(valid):
                return np.inf, None
            with np.errstate(divide="ignore", invalid="ignore"):
                gini_left = 1.0 - np.sum(
                    (left_counts / np.maximum(left_weight[:, None], 1e-300)) ** 2,
                    axis=1)
                gini_right = 1.0 - np.sum(
                    (right_counts / np.maximum(right_weight[:, None], 1e-300)) ** 2,
                    axis=1)
            score = (left_weight * gini_left + right_weight * gini_right) / total_weight
        else:
            cum_weight = np.cumsum(weights)[positions]
            cum_target = np.cumsum(weights * targets)[positions]
            cum_square = np.cumsum(weights * targets ** 2)[positions]
            total_target = float(np.sum(weights * targets))
            total_square = float(np.sum(weights * targets ** 2))
            left_weight = cum_weight
            right_weight = total_weight - cum_weight
            valid = (left_weight > 0) & (right_weight > 0) & leaf_ok
            if not np.any(valid):
                return np.inf, None
            with np.errstate(divide="ignore", invalid="ignore"):
                var_left = cum_square - cum_target ** 2 / np.maximum(left_weight, 1e-300)
                var_right = ((total_square - cum_square)
                             - (total_target - cum_target) ** 2
                             / np.maximum(right_weight, 1e-300))
            score = (var_left + var_right) / total_weight
        score = np.where(valid, score, np.inf)
        best_index = int(np.argmin(score))
        if not np.isfinite(score[best_index]):
            return np.inf, None
        return float(score[best_index]), int(positions[best_index])

    # -- recursion ------------------------------------------------------
    def build(self, features: np.ndarray, targets: np.ndarray,
              weights: np.ndarray, n_classes: int) -> "FlatTree":
        self._nodes = []
        self._grow(features, targets, weights, n_classes, depth=0)
        return FlatTree.from_nodes(self._nodes)

    def _grow(self, features: np.ndarray, targets: np.ndarray,
              weights: np.ndarray, n_classes: int, depth: int) -> int:
        node_index = len(self._nodes)
        value = self._node_value(targets, weights, n_classes)
        impurity = self._impurity(targets, weights, n_classes)
        node = TreeNode(feature=LEAF, threshold=0.0, left=-1, right=-1,
                        value=value, cover=float(weights.sum()),
                        impurity=impurity, depth=depth)
        self._nodes.append(node)

        n_samples = features.shape[0]
        stop = (
            n_samples < self.min_samples_split
            or impurity <= 1e-12
            or (self.max_depth is not None and depth >= self.max_depth)
        )
        if stop:
            return node_index
        split = self._best_split(features, targets, weights, n_classes)
        if split is None or split.score >= impurity - 1e-12:
            return node_index

        left_mask = split.left_mask
        right_mask = ~left_mask
        node.feature = split.feature
        node.threshold = split.threshold
        node.left = self._grow(features[left_mask], targets[left_mask],
                               weights[left_mask], n_classes, depth + 1)
        node.right = self._grow(features[right_mask], targets[right_mask],
                                weights[right_mask], n_classes, depth + 1)
        return node_index


@dataclass
class FlatTree:
    """Structure-of-arrays form of a fitted tree (one entry per node).

    Attributes:
        feature: Split feature per node (:data:`LEAF` for leaves).
        threshold: Split threshold per node (``x <= threshold`` goes left).
        left: Left-child index per node (-1 for leaves).
        right: Right-child index per node (-1 for leaves).
        value: ``(n_nodes, n_outputs)`` node predictions.
        cover: Total sample weight that reached each node.
        impurity: Node impurity (Gini or variance).
        step_feature: Like ``feature`` but 0 at leaves — safe to gather.
        step_threshold: Like ``threshold`` but ``+inf`` at leaves.
        step_left: Like ``left`` but leaves point back at themselves.
        step_right: Like ``right`` but leaves point back at themselves.
        max_depth: Depth of the deepest node (descent iteration count).

    The ``step_*`` views make leaves self-looping: a row already on its
    leaf compares ``x <= +inf``, goes "left" and stays put, so the batch
    descent can sweep all rows level-synchronously for ``max_depth``
    iterations with no per-level active-set bookkeeping.

    Children always have larger indices than their parent (the builder
    appends parents before recursing), so index order is a topological
    order — the vectorised Tree SHAP expectation relies on this.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray
    impurity: np.ndarray
    step_feature: np.ndarray
    step_threshold: np.ndarray
    step_left: np.ndarray
    step_right: np.ndarray
    max_depth: int

    @classmethod
    def from_nodes(cls, nodes: List[TreeNode]) -> "FlatTree":
        """Flatten a builder node list into parallel arrays."""
        feature = np.array([node.feature for node in nodes], dtype=np.intp)
        threshold = np.array([node.threshold for node in nodes], dtype=float)
        left = np.array([node.left for node in nodes], dtype=np.intp)
        right = np.array([node.right for node in nodes], dtype=np.intp)
        leaf = feature == LEAF
        self_index = np.arange(len(nodes), dtype=np.intp)
        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            value=np.vstack([node.value for node in nodes]).astype(float),
            cover=np.array([node.cover for node in nodes], dtype=float),
            impurity=np.array([node.impurity for node in nodes], dtype=float),
            step_feature=np.where(leaf, 0, feature),
            step_threshold=np.where(leaf, np.inf, threshold),
            step_left=np.where(leaf, self_index, left),
            step_right=np.where(leaf, self_index, right),
            max_depth=max(node.depth for node in nodes),
        )

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self.feature.shape[0]


class _FittedTree:
    """Prediction and introspection over a fitted tree's :class:`FlatTree`."""

    def __init__(self, flat: FlatTree, n_features: int) -> None:
        self.flat = flat
        self.n_features = n_features

    def set_node_value(self, index: int, value: np.ndarray) -> None:
        """Replace one node's prediction (gradient boosting rewrites leaf
        values with Newton steps after fitting)."""
        self.flat.value[index] = value

    def _descend(self, features: np.ndarray) -> np.ndarray:
        """Level-synchronous descent: leaf index reached by every row.

        Rows that reach a leaf early self-loop via the ``step_*`` arrays
        (see :class:`FlatTree`), so the sweep runs exactly ``max_depth``
        full-width iterations — for the shallow trees on the scoring hot
        path that beats filtering a shrinking active set every level.
        """
        flat = self.flat
        indices = np.zeros(features.shape[0], dtype=np.intp)
        rows = np.arange(features.shape[0])
        for _ in range(flat.max_depth):
            go_left = (features[rows, flat.step_feature[indices]]
                       <= flat.step_threshold[indices])
            indices = np.where(go_left, flat.step_left[indices],
                               flat.step_right[indices])
        return indices

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Leaf value per sample via iterative descent over the flat arrays.

        One ``(n_samples,)``-wide comparison per tree level instead of a
        Python loop per row; bit-identical to the per-row node walk.
        """
        features = check_features(features)
        return self.flat.value[self._descend(features)]

    def leaf_indices(self, features: np.ndarray) -> np.ndarray:
        """Leaf node index reached by every row."""
        return self._descend(check_features(features))

    def feature_importances(self) -> np.ndarray:
        """Impurity-decrease feature importances (normalised to sum to 1)."""
        flat = self.flat
        split = np.flatnonzero(flat.feature != LEAF)
        weighted = flat.cover * flat.impurity
        decrease = (weighted[split] - weighted[flat.left[split]]
                    - weighted[flat.right[split]])
        importances = np.zeros(self.n_features)
        # Unbuffered, in node order: the same sums as a per-node loop.
        np.add.at(importances, flat.feature[split], np.maximum(decrease, 0.0))
        total = importances.sum()
        return importances / total if total > 0 else importances

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the tree."""
        return self.flat.n_nodes

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node."""
        return self.flat.max_depth


def _check_tree_parameters(max_depth: Optional[int], min_samples_split: int,
                           min_samples_leaf: int,
                           max_features: Optional[int]) -> None:
    """Reject hyperparameters that would silently grow a degenerate tree."""
    if max_depth is not None and max_depth < 1:
        raise ValueError(f"max_depth must be >= 1 or None, got {max_depth}")
    if min_samples_split < 2:
        raise ValueError(
            f"min_samples_split must be >= 2, got {min_samples_split}")
    if min_samples_leaf < 1:
        raise ValueError(
            f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    if max_features is not None and max_features < 1:
        raise ValueError(
            f"max_features must be >= 1 or None, got {max_features}")


class DecisionTreeClassifier(BaseClassifier):
    """CART classification tree with Gini impurity.

    Args:
        max_depth: Maximum tree depth (``None`` = unlimited).
        min_samples_split: Minimum samples required to attempt a split.
        min_samples_leaf: Minimum samples required in each child.
        max_features: Features considered per split (``None`` = all); used
            by the random forest for decorrelation.
        random_state: Seed for the per-split feature subsampling.
    """

    def __init__(self, max_depth: Optional[int] = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features: Optional[int] = None,
                 random_state: int = 0) -> None:
        _check_tree_parameters(max_depth, min_samples_split, min_samples_leaf,
                               max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: Optional[_FittedTree] = None
        self.classes_: np.ndarray = np.array([])
        self.n_features_: int = 0

    def fit(self, features: np.ndarray, labels: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "DecisionTreeClassifier":
        features = check_features(features)
        labels = check_labels(labels, features.shape[0])
        weights = check_sample_weight(sample_weight, features.shape[0])
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self.n_features_ = features.shape[1]
        builder = _TreeBuilder("gini", self.max_depth, self.min_samples_split,
                               self.min_samples_leaf, self.max_features,
                               np.random.default_rng(self.random_state))
        self.tree_ = _FittedTree(
            builder.build(features, encoded, weights, len(self.classes_)),
            self.n_features_)
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self.tree_ is None:
            raise NotFittedError("DecisionTreeClassifier is not fitted")
        return self.tree_.predict_batch(features)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-based feature importances."""
        if self.tree_ is None:
            raise NotFittedError("DecisionTreeClassifier is not fitted")
        return self.tree_.feature_importances()


class DecisionTreeRegressor:
    """CART regression tree with variance (MSE) splitting."""

    def __init__(self, max_depth: Optional[int] = None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features: Optional[int] = None,
                 random_state: int = 0) -> None:
        _check_tree_parameters(max_depth, min_samples_split, min_samples_leaf,
                               max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.tree_: Optional[_FittedTree] = None
        self.n_features_: int = 0

    def fit(self, features: np.ndarray, targets: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "DecisionTreeRegressor":
        features = check_features(features)
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (features.shape[0],):
            raise ValueError("targets must match the number of feature rows")
        weights = check_sample_weight(sample_weight, features.shape[0])
        self.n_features_ = features.shape[1]
        builder = _TreeBuilder("mse", self.max_depth, self.min_samples_split,
                               self.min_samples_leaf, self.max_features,
                               np.random.default_rng(self.random_state))
        self.tree_ = _FittedTree(
            builder.build(features, targets, weights, n_classes=1),
            self.n_features_)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.tree_ is None:
            raise NotFittedError("DecisionTreeRegressor is not fitted")
        return self.tree_.predict_batch(features)[:, 0]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-based feature importances."""
        if self.tree_ is None:
            raise NotFittedError("DecisionTreeRegressor is not fitted")
        return self.tree_.feature_importances()
