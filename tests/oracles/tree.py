"""Per-row node walk and per-feature split scan of the CART trees.

Production descends a fitted tree's :class:`repro.ml.FlatTree` arrays for
a whole sample matrix at once (``_FittedTree.predict_batch`` and
``leaf_indices``).  The walk here follows one row at a time from the root
to its leaf over a table of node records, the way the trees were first
evaluated; the batch descent must match it bit for bit (oracle pair
``tree-predict``).  Build the table once with :func:`node_table` and walk it
as often as needed.

Production grows trees with a histogram split search over a matrix binned
once per ensemble fit (``_TreeBuilder._histogram_split``).
:class:`ScanTreeBuilder` is the builder it replaced: at every node it
copies the node's rows, argsorts every column and scans a cumulative sum
over the sorted samples (oracle pair ``tree-split``).  Both pick the same
splits up to ties that the last ulp of a score decides;
:func:`scan_split_search` grows every tree fitted inside it with the scan,
so whole ensemble fits can be compared.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.ml import LEAF, FlatTree
from repro.ml import tree as tree_module
from repro.ml.base import check_features
from repro.ml.tree import (TreeNode, _BinnedFeatures, _SplitCandidate,
                           _TreeBuilder)


class Node(NamedTuple):
    """One node record: split, children, cover and output."""

    feature: int
    threshold: float
    left: int
    right: int
    cover: float
    value: np.ndarray

    @property
    def is_leaf(self) -> bool:
        return self.feature == LEAF


def node_table(flat: FlatTree,
               values: Optional[np.ndarray] = None) -> List[Node]:
    """Node records of ``flat``, indexed like its arrays.

    ``value`` is each node's row of ``flat.value``, or of ``values`` (one
    row per node) when given.
    """
    values = flat.value if values is None else values
    return [Node(*fields) for fields in zip(
        flat.feature.tolist(), flat.threshold.tolist(), flat.left.tolist(),
        flat.right.tolist(), flat.cover.tolist(), values)]


def predict_value(nodes: List[Node], features: np.ndarray) -> np.ndarray:
    """Leaf value of every row of ``features``, walking one row at a time."""
    features = check_features(features)
    outputs = np.zeros((features.shape[0], len(nodes[0].value)))
    for row in range(features.shape[0]):
        node = nodes[0]
        while not node.is_leaf:
            if features[row, node.feature] <= node.threshold:
                node = nodes[node.left]
            else:
                node = nodes[node.right]
        outputs[row] = node.value
    return outputs


def decision_path(nodes: List[Node], sample: np.ndarray) -> List[int]:
    """Indices of the nodes ``sample`` visits, root to leaf."""
    sample = np.asarray(sample, dtype=float).ravel()
    path = [0]
    node = nodes[0]
    while not node.is_leaf:
        if sample[node.feature] <= node.threshold:
            next_index = node.left
        else:
            next_index = node.right
        path.append(next_index)
        node = nodes[next_index]
    return path


class ScanTreeBuilder(_TreeBuilder):
    """The per-feature sorted-scan CART builder.

    Takes the constructor arguments of ``repro.ml.tree._TreeBuilder`` and
    shares its node value and impurity; it grows the tree by copying each
    child's rows and finds every split with the scan.  :meth:`build`
    accepts a raw feature matrix or a binned one (decoded back to its
    exact values).
    """

    # -- split search --------------------------------------------------
    def _considered(self, n_features: int) -> np.ndarray:
        if self.max_features is not None and self.max_features < n_features:
            return self.rng.choice(n_features, size=self.max_features,
                                   replace=False)
        return np.arange(n_features)

    def _sorted_column(self, features: np.ndarray, targets: np.ndarray,
                       weights: np.ndarray, feature: int):
        column = features[:, feature]
        order = np.argsort(column, kind="mergesort")
        sorted_values = column[order]
        # Candidate split positions: between distinct consecutive values.
        distinct = np.nonzero(np.diff(sorted_values) > 1e-12)[0]
        return column, sorted_values, targets[order], weights[order], distinct

    def _best_split(self, features: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray, n_classes: int) -> Optional[_SplitCandidate]:
        best: Optional[_SplitCandidate] = None
        for feature in self._considered(features.shape[1]):
            column, sorted_values, sorted_targets, sorted_weights, distinct = \
                self._sorted_column(features, targets, weights, feature)
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

    def candidates(self, features: np.ndarray, targets: np.ndarray,
                   weights: np.ndarray,
                   n_classes: int) -> List[Tuple[float, int, float]]:
        """``(score, feature, threshold)`` of every valid split of one node
        (the considered features draw from ``rng`` as a split search does)."""
        found = []
        for feature in self._considered(features.shape[1]):
            _, sorted_values, sorted_targets, sorted_weights, distinct = \
                self._sorted_column(features, targets, weights, feature)
            if distinct.size == 0:
                continue
            scores = self._position_scores(sorted_targets, sorted_weights,
                                           distinct, n_classes)
            for position, score in zip(distinct, scores):
                if np.isfinite(score):
                    found.append((float(score), int(feature), float(
                        0.5 * (sorted_values[position]
                               + sorted_values[position + 1]))))
        return found

    def _scan_splits(self, targets: np.ndarray, weights: np.ndarray,
                     positions: np.ndarray,
                     n_classes: int) -> Tuple[float, Optional[int]]:
        """Best candidate position on a sorted column, or ``(inf, None)``."""
        score = self._position_scores(targets, weights, positions, n_classes)
        best_index = int(np.argmin(score))
        if not np.isfinite(score[best_index]):
            return np.inf, None
        return float(score[best_index]), int(positions[best_index])

    def _position_scores(self, targets: np.ndarray, weights: np.ndarray,
                         positions: np.ndarray, n_classes: int) -> np.ndarray:
        """Score of every candidate position on a sorted column (``inf``
        where a child would be empty or below ``min_samples_leaf``)."""
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
                return np.full(positions.size, np.inf)
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
                return np.full(positions.size, np.inf)
            with np.errstate(divide="ignore", invalid="ignore"):
                var_left = cum_square - cum_target ** 2 / np.maximum(left_weight, 1e-300)
                var_right = ((total_square - cum_square)
                             - (total_target - cum_target) ** 2
                             / np.maximum(right_weight, 1e-300))
            score = (var_left + var_right) / total_weight
        return np.where(valid, score, np.inf)

    # -- recursion ------------------------------------------------------
    def build(self, features, targets: np.ndarray, weights: np.ndarray,
              n_classes: int) -> FlatTree:
        if isinstance(features, _BinnedFeatures):
            features = features.values.ravel()[features.codes]
        self._nodes = []
        self._grow(np.asarray(features, dtype=float), targets, weights,
                   n_classes, depth=0)
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


@contextlib.contextmanager
def scan_split_search() -> Iterator[None]:
    """Grow every tree fitted inside the block with :class:`ScanTreeBuilder`."""
    histogram_builder = tree_module._TreeBuilder
    tree_module._TreeBuilder = ScanTreeBuilder
    try:
        yield
    finally:
        tree_module._TreeBuilder = histogram_builder
