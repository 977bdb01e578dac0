"""Tree SHAP: Shapley values for the tree ensembles of :mod:`repro.ml`.

The paper highlights SHAP's model-specific Tree SHAP variant as one reason
for choosing SHAP over LIME/Captum.  This implementation computes exact
Shapley values per tree under the *path-dependent* value function used by
Tree SHAP: the value of a feature coalition ``S`` is the expectation of the
tree output when features in ``S`` follow the explained sample and all other
split decisions are marginalised according to the training cover of each
branch.  Shapley values of an ensemble are the sum of the per-tree values
(linearity).

Exactness is achieved by enumerating coalitions over only the features a
tree actually splits on (for POLARIS's shallow AdaBoost learners that is at
most a handful per tree); when a single tree uses more features than
``max_exact_features`` the explainer falls back to an unbiased permutation-
sampling estimate for that tree.

Every coalition expectation is one bottom-up sweep over the tree's
:class:`~repro.ml.tree.FlatTree` arrays for a whole sample matrix, and a
single sample is a one-row matrix.  The per-sample recursive walk that pins
this path bit for bit is test code (``tests/oracles/tree_shap.py``, oracle
pairs ``tree-shap-expectation`` and ``tree-shap-explain`` of polaris-lint
PL002).
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ml.adaboost import AdaBoostClassifier
from ..ml.forest import RandomForestClassifier
from ..ml.gradient_boosting import GradientBoostingClassifier
from ..ml.tree import (LEAF, DecisionTreeClassifier, DecisionTreeRegressor,
                       FlatTree)
from .explain import Explanation


class _WeightedTree:
    """A fitted tree's flat arrays, its ensemble weight and its output.

    ``output`` holds one scalar per node in the explainer's output
    convention: the positive-class probability, a 0/1 AdaBoost vote or the
    raw regression value.  Node indices are topologically ordered
    (children after parents), so one reverse pass over the arrays visits
    every child before its parent.
    """

    def __init__(self, flat: FlatTree, weight: float,
                 output: np.ndarray) -> None:
        self.flat = flat
        self.weight = weight
        self.output = output

    def used_features(self) -> Tuple[int, ...]:
        feature = self.flat.feature
        return tuple(int(f) for f in np.unique(feature[feature != LEAF]))

    def expectation_batch(self, samples: np.ndarray,
                          known: frozenset) -> np.ndarray:
        """E[tree(x)] for every row ``x`` of ``samples`` when the features
        in ``known`` follow the row.

        Unknown split features are marginalised with the per-branch
        training cover, which is the path-dependent Tree SHAP convention.
        One bottom-up pass over the node arrays: each node's conditional
        expectation is an ``(n_samples,)`` vector computed from its
        children's vectors.
        """
        flat = self.flat
        feature, threshold, cover = flat.feature, flat.threshold, flat.cover
        values = np.empty((flat.n_nodes, samples.shape[0]))
        for index in range(flat.n_nodes - 1, -1, -1):
            split = feature[index]
            if split < 0:
                values[index] = self.output[index]
                continue
            left = flat.left[index]
            right = flat.right[index]
            if split in known:
                go_left = samples[:, split] <= threshold[index]
                values[index] = np.where(go_left, values[left], values[right])
                continue
            total = cover[left] + cover[right]
            if total <= 0:
                values[index] = 0.5 * (values[left] + values[right])
            else:
                values[index] = (cover[left] / total * values[left]
                                 + cover[right] / total * values[right])
        return values[0]


def _extract_trees(model: object, positive_class: int = 1) -> Tuple[List[_WeightedTree], float, str]:
    """Pull (tree, weight) pairs out of a supported ensemble.

    Returns:
        ``(trees, offset, link)`` where ``offset`` is an additive constant
        (e.g. the boosting initial score) and ``link`` names the output
        space (``"probability"`` or ``"logit"``).
    """
    if isinstance(model, DecisionTreeClassifier):
        label = _positive_label(model.classes_, positive_class)
        return ([_WeightedTree(model.tree_.flat, 1.0,
                               _positive_output(model, label))],
                0.0, "probability")
    if isinstance(model, DecisionTreeRegressor):
        flat = model.tree_.flat
        return [_WeightedTree(flat, 1.0, flat.value[:, 0])], 0.0, "identity"
    if isinstance(model, RandomForestClassifier):
        label = _positive_label(model.classes_, positive_class)
        weight = 1.0 / len(model.estimators_)
        return ([_WeightedTree(tree.tree_.flat, weight,
                               _positive_output(tree, label))
                 for tree in model.estimators_], 0.0, "probability")
    if isinstance(model, AdaBoostClassifier):
        # AdaBoost's probability is the normalised weighted *hard* vote, so
        # each weak learner outputs 1 where its argmax is the positive
        # class and 0 elsewhere; the weighted sum of those trees then
        # equals ``predict_proba`` exactly.
        label = _positive_label(model.classes_, positive_class)
        total_alpha = float(sum(model.estimator_weights_)) or 1.0
        return ([_WeightedTree(tree.tree_.flat, alpha / total_alpha,
                               _positive_output(tree, label, hard=True))
                 for tree, alpha in zip(model.estimators_,
                                        model.estimator_weights_)],
                0.0, "probability")
    if isinstance(model, GradientBoostingClassifier):
        return ([_WeightedTree(tree.tree_.flat, model.learning_rate,
                               tree.tree_.flat.value[:, 0])
                 for tree in model.estimators_],
                model.initial_score_, "logit")
    raise TypeError(f"unsupported model type {type(model).__name__} for Tree SHAP")


def _positive_label(classes: np.ndarray, positive_class: int) -> int:
    """The label explained as positive: ``positive_class``, or the model's
    last class when it has none (as :meth:`BaseClassifier.positive_score`)."""
    return positive_class if positive_class in classes else classes[-1]


def _positive_output(tree: DecisionTreeClassifier, label: int,
                     hard: bool = False) -> np.ndarray:
    """Per-node output of one classification tree for the positive label.

    The label's probability column, or with ``hard`` a 0/1 vote for it.
    A tree whose training sample never held the label outputs 0, which is
    how :meth:`RandomForestClassifier.predict_proba` aligns its trees.
    """
    flat = tree.tree_.flat
    classes = list(tree.classes_)
    if label not in classes:
        return np.zeros(flat.n_nodes)
    column = classes.index(label)
    if hard:
        return (np.argmax(flat.value, axis=1) == column).astype(float)
    return flat.value[:, column]


class TreeShapExplainer:
    """Shapley-value explainer for the tree models of :mod:`repro.ml`.

    The explained quantity is the model's positive-class score in its
    natural output space: probabilities for AdaBoost / Random Forest /
    single trees, raw log-odds for gradient boosting (where probabilities
    are not additive across trees).

    Args:
        model: A fitted tree-based model.
        feature_names: Column names for the explanations.
        max_exact_features: Per-tree limit on exact coalition enumeration.
        n_permutations: Sampling budget for trees exceeding the exact limit.
        positive_class: Label treated as the positive class.
        seed: RNG seed for the sampling fallback.
    """

    def __init__(self, model: object,
                 feature_names: Optional[Sequence[str]] = None,
                 max_exact_features: int = 12,
                 n_permutations: int = 128,
                 positive_class: int = 1,
                 seed: int = 0) -> None:
        self.model = model
        self.max_exact_features = max_exact_features
        self.n_permutations = n_permutations
        self.seed = seed
        self._trees, self._offset, self.link = _extract_trees(model, positive_class)
        if not self._trees:
            raise ValueError("model has no fitted trees to explain")
        self._n_features = self._infer_n_features()
        if feature_names is None:
            feature_names = [f"f{i}" for i in range(self._n_features)]
        if len(feature_names) != self._n_features:
            raise ValueError("feature_names length does not match the model")
        self.feature_names = tuple(feature_names)
        self._base_value = self._compute_base_value()

    # ------------------------------------------------------------------
    @property
    def base_value(self) -> float:
        """Expected model output (cover-weighted root expectation)."""
        return self._base_value

    def _infer_n_features(self) -> int:
        model = self.model
        for attribute in ("n_features_",):
            if hasattr(model, attribute) and getattr(model, attribute):
                return int(getattr(model, attribute))
        if hasattr(model, "estimators_") and model.estimators_:
            return int(model.estimators_[0].n_features_)
        raise ValueError("cannot determine the model's feature count")

    def _compute_base_value(self) -> float:
        total = self._offset
        dummy = np.zeros((1, self._n_features))
        for tree in self._trees:
            total += tree.weight * tree.expectation_batch(dummy, frozenset())[0]
        return float(total)

    # ------------------------------------------------------------------
    def explain(self, sample: np.ndarray) -> Explanation:
        """Compute Shapley values for one sample (a one-row
        :meth:`explain_matrix`)."""
        return self.explain_matrix(np.reshape(sample, (1, -1)))[0]

    def explain_matrix(self, samples: np.ndarray) -> List[Explanation]:
        """Explain every row of ``samples`` in one batched pass.

        Coalition expectations are evaluated once per (tree, coalition)
        for the whole matrix via :meth:`_WeightedTree.expectation_batch`
        instead of once per row, which collapses the dominant cost of
        explaining a gate-feature matrix.  A row's result does not depend
        on the other rows: it equals :meth:`explain` of that row bitwise.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples.reshape(1, -1)
        if samples.shape[1] != self._n_features:
            raise ValueError("sample length does not match the model")
        phi = np.zeros((samples.shape[0], self._n_features))
        for tree in self._trees:
            phi += tree.weight * self._tree_shapley_batch(tree, samples)
        predictions = self._predict_output_batch(samples)
        return [
            Explanation(
                base_value=self._base_value,
                shap_values=phi[index],
                data=samples[index],
                feature_names=self.feature_names,
                prediction=float(predictions[index]),
            )
            for index in range(samples.shape[0])
        ]

    def _predict_output_batch(self, samples: np.ndarray) -> np.ndarray:
        """Model output in the explainer's output space, per row."""
        if self.link == "logit":
            return np.asarray(self.model.decision_function(samples), dtype=float)
        if self.link == "identity":
            return np.asarray(self.model.predict(samples), dtype=float)
        total = np.full(samples.shape[0], self._offset)
        known = frozenset(range(self._n_features))
        for tree in self._trees:
            total += tree.weight * tree.expectation_batch(samples, known)
        return total

    # ------------------------------------------------------------------
    def _tree_shapley_batch(self, tree: _WeightedTree,
                            samples: np.ndarray) -> np.ndarray:
        """One tree's Shapley values, an ``(n_samples, n_features)``
        matrix: exact when the tree splits on at most
        ``max_exact_features`` features, permutation-sampled otherwise."""
        used = tree.used_features()
        phi = np.zeros((samples.shape[0], self._n_features))
        if not used:
            return phi
        if len(used) <= self.max_exact_features:
            contributions = self._exact_shapley_batch(tree, samples, used)
        else:
            contributions = self._sampled_shapley_batch(tree, samples, used)
        for feature, values in contributions.items():
            phi[:, feature] = values
        return phi

    def _exact_shapley_batch(self, tree: _WeightedTree, samples: np.ndarray,
                             used: Tuple[int, ...]) -> Dict[int, np.ndarray]:
        """Exact Shapley values by coalition enumeration over ``used``.

        Each coalition's expectation is cached as an ``(n_samples,)``
        vector keyed by frozenset, so every coalition is swept once.
        """
        n_used = len(used)
        cache: Dict[frozenset, np.ndarray] = {}

        def value(subset: frozenset) -> np.ndarray:
            if subset not in cache:
                cache[subset] = tree.expectation_batch(samples, subset)
            return cache[subset]

        contributions = {feature: np.zeros(samples.shape[0]) for feature in used}
        others: Dict[int, Tuple[int, ...]] = {
            feature: tuple(f for f in used if f != feature) for feature in used
        }
        factorials = [factorial(k) for k in range(n_used + 1)]
        denominator = factorials[n_used]
        for feature in used:
            for size in range(n_used):
                weight = factorials[size] * factorials[n_used - size - 1] / denominator
                for subset in combinations(others[feature], size):
                    base = frozenset(subset)
                    contributions[feature] += weight * (
                        value(base | {feature}) - value(base))
        return contributions

    def _sampled_shapley_batch(self, tree: _WeightedTree, samples: np.ndarray,
                               used: Tuple[int, ...]) -> Dict[int, np.ndarray]:
        """Permutation-sampling estimate over ``used``.

        A fresh ``default_rng(self.seed)`` per tree: every row sees the
        same permutation sequence, so a row's estimate does not depend on
        the other rows of the matrix.
        """
        rng = np.random.default_rng(self.seed)
        contributions = {feature: np.zeros(samples.shape[0]) for feature in used}
        used_array = np.array(used)
        for _ in range(self.n_permutations):
            order = rng.permutation(used_array)
            current: frozenset = frozenset()
            previous_value = tree.expectation_batch(samples, current)
            for feature in order:
                current = current | {int(feature)}
                new_value = tree.expectation_batch(samples, current)
                contributions[int(feature)] += new_value - previous_value
                previous_value = new_value
        for feature in used:
            contributions[feature] /= self.n_permutations
        return contributions
