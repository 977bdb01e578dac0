"""CART decision trees (classification and regression).

The trees are grown with the classic CART procedure: at every node the best
axis-aligned split over every feature and threshold is chosen, scoring
candidate splits with the weighted Gini impurity (classification) or
weighted variance (regression).

The search is an exact histogram search.  ``fit`` bins the feature matrix
once, each value becoming its rank among its column's distinct values (no
quantisation; the ensembles bin once per ensemble fit and hand every tree
the codes of its rows), and every node finds its split from one weighted
``np.bincount`` per statistic over the flat codes, a cumsum over the bins
and one argmin over (feature, bin).  It considers the same candidates as
a per-feature sorted scan and scores them with the same expressions
summed in another order, so scores can differ from the scan's in the last
ulp.  Where several splits tie exactly (features that cut a node into
the same two row sets) that ulp can pick a different one of them: the
depth-2 trees of the repo's model settings are bitwise equal to the scan
on the repo's cognition matrices, while deep trees, such as an
unlimited-depth forest, resolve some ties differently.  The scan is test
code (``tests/oracles/tree.py``, oracle pair ``tree-split`` of
polaris-lint PL002).

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
from typing import List, Optional, Union

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


class _BinnedFeatures:
    """A feature matrix binned exactly: each value becomes its rank.

    ``codes[i, f]`` is ``f * stride + r``, where ``r`` is the rank of
    ``features[i, f]`` among the distinct values of column ``f`` and
    ``values[f, r]`` is that value.  No value is quantised, so a split
    after rank ``r`` separates the same rows as the threshold between
    ``values[f, r]`` and the next value, and one flat ``np.bincount`` over
    ``codes`` histograms every column at once.  The last column of
    ``values`` (and every rank a column does not use) is NaN and holds no
    sample.

    An ensemble bins its matrix once per ``fit`` and hands each tree the
    codes of its rows (:meth:`take`): boosting rounds reuse them, forest
    bootstraps and boosting subsamples index them.
    """

    def __init__(self, codes: np.ndarray, values: np.ndarray) -> None:
        self.codes = codes
        self.values = values

    @classmethod
    def from_matrix(cls, features: np.ndarray) -> "_BinnedFeatures":
        n_features = features.shape[1]
        order = np.argsort(features, axis=0, kind="stable")
        ordered = np.take_along_axis(features, order, axis=0)
        new_value = np.ones(ordered.shape, dtype=bool)
        new_value[1:] = ordered[1:] != ordered[:-1]
        ranks = np.cumsum(new_value, axis=0) - 1
        stride = int(ranks.max(initial=-1)) + 2
        codes = np.empty(ordered.shape, dtype=np.intp)
        np.put_along_axis(codes, order,
                          ranks + np.arange(n_features) * stride, axis=0)
        values = np.full((n_features, stride), np.nan)
        columns = np.broadcast_to(np.arange(n_features), ordered.shape)
        values[columns[new_value], ranks[new_value]] = ordered[new_value]
        return cls(codes, values)

    @property
    def n_samples(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]

    def take(self, rows: np.ndarray) -> "_BinnedFeatures":
        """The binned rows ``rows`` (a bootstrap or subsample)."""
        return _BinnedFeatures(self.codes[rows], self.values)


#: What a tree's ``fit`` accepts: a raw matrix, or one binned by an ensemble.
_Matrix = Union[np.ndarray, _BinnedFeatures]


def _features_for_fit(features: _Matrix) -> _BinnedFeatures:
    """Bin ``features`` unless an ensemble already binned them."""
    if isinstance(features, _BinnedFeatures):
        return features
    return _BinnedFeatures.from_matrix(check_features(features))


class _TreeBuilder:
    """Shared CART growing logic for classification and regression.

    Nodes carry the row indices that reached them into the binned matrix;
    no node copies the feature matrix.
    """

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
        self._binned: Optional[_BinnedFeatures] = None

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
    def _histogram_split(self, rows: np.ndarray, targets: np.ndarray,
                         weights: np.ndarray,
                         n_classes: int) -> Optional[_SplitCandidate]:
        """Best split of the node holding ``rows``, from its histograms.

        ``targets`` and ``weights`` are the node's own (``[rows]``).  One
        ``np.bincount`` over the flat codes per statistic (the weight of
        each class for Gini; ``w``, ``w*y`` and ``w*y**2`` for mse) plus
        one unweighted count give every considered feature's per-bin sums;
        a cumsum over bins makes them the left-child sums of every split
        position.  A position is a candidate when its bin holds a row of
        the node, the next such bin's value is more than 1e-12 higher,
        both children keep ``min_samples_leaf`` rows and a positive
        weight.  One row-major argmin over (feature, bin) picks the best:
        ties go to the first considered feature, then the lowest bin.  The
        threshold is the midpoint of the two node values around the split
        (the lower one where the midpoint rounds onto the upper), and the
        left child is the rows with ``x <= threshold``.
        """
        binned = self._binned
        n_features, stride = binned.values.shape
        considered = np.arange(n_features)
        if self.max_features is not None and self.max_features < n_features:
            considered = self.rng.choice(
                n_features, size=self.max_features, replace=False)
            codes = binned.codes[np.ix_(rows, considered)]
        else:
            codes = binned.codes[rows]
        flat = codes.ravel()
        size = n_features * stride

        def histogram(statistic: Optional[np.ndarray]) -> np.ndarray:
            repeated = (None if statistic is None
                        else np.repeat(statistic, considered.size))
            counts = np.bincount(flat, weights=repeated, minlength=size)
            return counts.reshape(n_features, stride)[considered]

        if self.criterion == "gini":
            statistics = [np.where(targets == k, weights, 0.0)
                          for k in range(n_classes)]
        else:
            statistics = [weights, weights * targets, weights * targets ** 2]
        left = np.cumsum([histogram(statistic) for statistic in statistics],
                         axis=-1)
        count = histogram(None)
        total_weight = weights.sum()
        # Bins past a node's last row give empty children whose sums are
        # rounding residue; their scores may overflow and are masked below.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.criterion == "gini":
                # Each feature's totals are its own last cumulative bin,
                # so a class wholly on one side leaves exactly 0 on the
                # other, as in a sorted scan, and pure children tie at 0.
                right = left[..., -1:] - left
                left_weight = left.sum(axis=0)
                right_weight = right.sum(axis=0)
                gini_left = 1.0 - np.sum(
                    (left / np.maximum(left_weight, 1e-300)) ** 2, axis=0)
                gini_right = 1.0 - np.sum(
                    (right / np.maximum(right_weight, 1e-300)) ** 2, axis=0)
                score = ((left_weight * gini_left + right_weight * gini_right)
                         / total_weight)
            else:
                cum_weight, cum_target, cum_square = left
                total_target = float(np.sum(statistics[1]))
                total_square = float(np.sum(statistics[2]))
                left_weight = cum_weight
                right_weight = total_weight - cum_weight
                var_left = (cum_square - cum_target ** 2
                            / np.maximum(left_weight, 1e-300))
                var_right = ((total_square - cum_square)
                             - (total_target - cum_target) ** 2
                             / np.maximum(right_weight, 1e-300))
                score = (var_left + var_right) / total_weight

            # The next bin holding a row of the node, after each bin (the
            # NaN pad column when there is none).
            present = count > 0
            held = np.where(present, np.arange(stride), stride - 1)
            following = np.full(held.shape, stride - 1)
            following[:, :-1] = np.minimum.accumulate(
                held[:, :0:-1], axis=1)[:, ::-1]
            values = binned.values[considered]
            gap = np.take_along_axis(values, following, axis=1) - values
            count_left = np.cumsum(count, axis=1)
            valid = (present & (gap > 1e-12)
                     & (count_left >= self.min_samples_leaf)
                     & (rows.size - count_left >= self.min_samples_leaf)
                     & (left_weight > 0) & (right_weight > 0))
        score = np.where(valid, score, np.inf)
        best = int(np.argmin(score))
        column, position = divmod(best, stride)
        if not np.isfinite(score[column, position]):
            return None
        lower = values[column, position]
        upper = values[column, following[column, position]]
        threshold = 0.5 * (lower + upper)
        if threshold >= upper:
            # The midpoint of two adjacent floats (or of a value and +inf)
            # rounds onto the upper one, and x <= threshold would send
            # every row left, the same node again without end.
            threshold = lower
        feature = int(considered[column])
        return _SplitCandidate(feature, float(threshold),
                               float(score[column, position]),
                               codes[:, column] <= feature * stride + position)

    # -- recursion ------------------------------------------------------
    def build(self, binned: _BinnedFeatures, targets: np.ndarray,
              weights: np.ndarray, n_classes: int) -> "FlatTree":
        self._binned = binned
        self._nodes = []
        self._grow(np.arange(binned.n_samples), targets, weights, n_classes,
                   depth=0)
        return FlatTree.from_nodes(self._nodes)

    def _grow(self, rows: np.ndarray, targets: np.ndarray,
              weights: np.ndarray, n_classes: int, depth: int) -> int:
        node_index = len(self._nodes)
        node_targets = targets[rows]
        node_weights = weights[rows]
        value = self._node_value(node_targets, node_weights, n_classes)
        impurity = self._impurity(node_targets, node_weights, n_classes)
        node = TreeNode(feature=LEAF, threshold=0.0, left=-1, right=-1,
                        value=value, cover=float(node_weights.sum()),
                        impurity=impurity, depth=depth)
        self._nodes.append(node)

        stop = (
            rows.size < self.min_samples_split
            or impurity <= 1e-12
            or (self.max_depth is not None and depth >= self.max_depth)
        )
        if stop:
            return node_index
        split = self._histogram_split(rows, node_targets, node_weights,
                                      n_classes)
        if split is None or split.score >= impurity - 1e-12:
            return node_index

        node.feature = split.feature
        node.threshold = split.threshold
        node.left = self._grow(rows[split.left_mask], targets, weights,
                               n_classes, depth + 1)
        node.right = self._grow(rows[~split.left_mask], targets, weights,
                                n_classes, depth + 1)
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

    def fit(self, features: _Matrix, labels: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "DecisionTreeClassifier":
        """Grow the tree on ``features`` (an ``(n_samples, n_features)``
        matrix; the ensembles pass the rows of a matrix they binned once)."""
        binned = _features_for_fit(features)
        labels = check_labels(labels, binned.n_samples)
        weights = check_sample_weight(sample_weight, binned.n_samples)
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self.n_features_ = binned.n_features
        builder = _TreeBuilder("gini", self.max_depth, self.min_samples_split,
                               self.min_samples_leaf, self.max_features,
                               np.random.default_rng(self.random_state))
        self.tree_ = _FittedTree(
            builder.build(binned, encoded, weights, len(self.classes_)),
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

    def fit(self, features: _Matrix, targets: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "DecisionTreeRegressor":
        """Grow the tree on ``features`` (as
        :meth:`DecisionTreeClassifier.fit`)."""
        binned = _features_for_fit(features)
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (binned.n_samples,):
            raise ValueError("targets must match the number of feature rows")
        weights = check_sample_weight(sample_weight, binned.n_samples)
        self.n_features_ = binned.n_features
        builder = _TreeBuilder("mse", self.max_depth, self.min_samples_split,
                               self.min_samples_leaf, self.max_features,
                               np.random.default_rng(self.random_state))
        self.tree_ = _FittedTree(
            builder.build(binned, targets, weights, n_classes=1),
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
