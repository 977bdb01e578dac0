"""Per-row node walk over a fitted tree.

Production descends a fitted tree's :class:`repro.ml.FlatTree` arrays for
a whole sample matrix at once (``_FittedTree.predict_batch`` and
``leaf_indices``).  The walk here follows one row at a time from the root
to its leaf over a table of node records, the way the trees were first
evaluated; the batch descent must match it bit for bit (oracle pair
``tree-predict``).  Build the table once with :func:`node_table` and walk it
as often as needed.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

import numpy as np

from repro.ml import LEAF, FlatTree
from repro.ml.base import check_features


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
