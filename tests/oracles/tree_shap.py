"""Per-sample Tree SHAP: the recursive walk behind the batched explainer.

Production evaluates every coalition expectation as one bottom-up sweep
over a tree's flat arrays for a whole sample matrix
(``_WeightedTree.expectation_batch``, ``TreeShapExplainer.explain_matrix``).
The twins here recurse from the root for one sample at a time, with the
same cover ratios and the same operation order, so the two must agree bit
for bit (oracle pairs ``tree-shap-expectation`` and ``tree-shap-explain``):

* :func:`output_table` — an explainer tree's node records, each carrying
  the tree's output for that node;
* :func:`expectation` — the path-dependent conditional expectation of one
  tree for one sample and one coalition of known features;
* :class:`PerSampleTreeShap` — an explainer's Shapley values, base value
  and prediction for one sample, built on :func:`expectation`.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Dict, List, Tuple

import numpy as np

from repro.xai import Explanation, TreeShapExplainer
from repro.xai.tree_shap import _WeightedTree

from .tree import Node, node_table


def output_table(tree: _WeightedTree) -> List[Node]:
    """Node records of an explainer tree, each value row its one output."""
    return node_table(tree.flat, tree.output[:, None])


def expectation(nodes: List[Node], sample: np.ndarray,
                known: frozenset) -> float:
    """E[tree(x)] when the features in ``known`` follow ``sample``.

    Unknown split features are marginalised with the per-branch training
    cover.  Each node's value row holds its one output (see
    :func:`output_table`).
    """
    def recurse(index: int) -> float:
        node = nodes[index]
        if node.is_leaf:
            return float(node.value[0])
        if node.feature in known:
            if sample[node.feature] <= node.threshold:
                return recurse(node.left)
            return recurse(node.right)
        left = nodes[node.left]
        right = nodes[node.right]
        total = left.cover + right.cover
        if total <= 0:
            return 0.5 * (recurse(node.left) + recurse(node.right))
        return (left.cover / total * recurse(node.left)
                + right.cover / total * recurse(node.right))

    return recurse(0)


class PerSampleTreeShap:
    """Explain one sample at a time with the recursive :func:`expectation`.

    Mirrors a :class:`TreeShapExplainer` (its trees, weights, output link
    and sampling settings).  Node tables are built once here, so
    :meth:`explain` times only the walks.
    """

    def __init__(self, explainer: TreeShapExplainer) -> None:
        self.explainer = explainer
        self.trees = [(tree.weight, output_table(tree))
                      for tree in explainer._trees]
        n_features = len(explainer.feature_names)
        total = explainer._offset
        for weight, nodes in self.trees:
            total += weight * expectation(nodes, np.zeros(n_features),
                                          frozenset())
        self.base_value = float(total)

    def explain(self, sample: np.ndarray) -> Explanation:
        explainer = self.explainer
        sample = np.asarray(sample, dtype=float).ravel()
        n_features = len(explainer.feature_names)
        if sample.shape[0] != n_features:
            raise ValueError("sample length does not match the model")
        phi = np.zeros(n_features)
        for weight, nodes in self.trees:
            phi += weight * self._tree_shapley(nodes, sample)
        return Explanation(base_value=self.base_value, shap_values=phi,
                           data=sample,
                           feature_names=explainer.feature_names,
                           prediction=self._predict_output(sample))

    def _predict_output(self, sample: np.ndarray) -> float:
        explainer = self.explainer
        row = sample.reshape(1, -1)
        if explainer.link == "logit":
            return float(explainer.model.decision_function(row)[0])
        if explainer.link == "identity":
            return float(explainer.model.predict(row)[0])
        total = explainer._offset
        known = frozenset(range(sample.shape[0]))
        for weight, nodes in self.trees:
            total += weight * expectation(nodes, sample, known)
        return float(total)

    def _tree_shapley(self, nodes: List[Node],
                      sample: np.ndarray) -> np.ndarray:
        used = tuple(sorted({node.feature for node in nodes
                             if not node.is_leaf}))
        phi = np.zeros(sample.shape[0])
        if not used:
            return phi
        if len(used) <= self.explainer.max_exact_features:
            contributions = self._exact_shapley(nodes, used, sample)
        else:
            contributions = self._sampled_shapley(nodes, used, sample)
        for feature, value in contributions.items():
            phi[feature] = value
        return phi

    def _exact_shapley(self, nodes: List[Node], used: Tuple[int, ...],
                       sample: np.ndarray) -> Dict[int, float]:
        n_used = len(used)
        cache: Dict[frozenset, float] = {}

        def value(subset: frozenset) -> float:
            if subset not in cache:
                cache[subset] = expectation(nodes, sample, subset)
            return cache[subset]

        contributions = {feature: 0.0 for feature in used}
        factorials = [factorial(k) for k in range(n_used + 1)]
        denominator = factorials[n_used]
        for feature in used:
            others = tuple(f for f in used if f != feature)
            for size in range(n_used):
                weight = (factorials[size] * factorials[n_used - size - 1]
                          / denominator)
                for subset in combinations(others, size):
                    base = frozenset(subset)
                    contributions[feature] += weight * (
                        value(base | {feature}) - value(base))
        return contributions

    def _sampled_shapley(self, nodes: List[Node], used: Tuple[int, ...],
                         sample: np.ndarray) -> Dict[int, float]:
        explainer = self.explainer
        rng = np.random.default_rng(explainer.seed)
        contributions = {feature: 0.0 for feature in used}
        used_array = np.array(used)
        for _ in range(explainer.n_permutations):
            order = rng.permutation(used_array)
            current: frozenset = frozenset()
            previous_value = expectation(nodes, sample, current)
            for feature in order:
                current = current | {int(feature)}
                new_value = expectation(nodes, sample, current)
                contributions[int(feature)] += new_value - previous_value
                previous_value = new_value
        for feature in used:
            contributions[feature] /= explainer.n_permutations
        return contributions
