"""A QUEST-style non-impurity split selection method [LS97].

Section 5 of the BOAT paper reports results with a non-impurity-based
split selection method; QUEST is the cited example.  We implement the
QUEST recipe in its two-class-friendly form:

* **Attribute selection** by statistical tests — one-way ANOVA F test for
  numerical attributes, chi-square independence test for categorical ones.
  The attribute with the smallest p-value wins (earlier schema index on
  ties), an *unbiased* selection that never compares impurity values.
* **Split point** by quadratic discriminant analysis between two
  superclasses (classes grouped by 2-means on their attribute means):
  fit one Gaussian per superclass, split at the QDA boundary root that
  lies between the two means, with documented fallbacks for degenerate
  variances.
* **Categorical subsets** via a per-category discriminant score (class-0
  proportion), thresholded by the same QDA machinery — a simplification
  of QUEST's CRIMCOORD transform that preserves its behaviour for binary
  classes.

Everything is computed from *sufficient statistics* (per-class counts,
sums, sums of squares, contingency tables), which is what lets BOAT
instantiate this method scalably: the cleanup scan accumulates the same
statistics and the finalization recomputes the identical decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import SplitConfig
from ..exceptions import SplitSelectionError
from ..kernels import DEFAULT_KERNELS, KernelBackend, get_kernels
from ..storage import CLASS_COLUMN, Schema
from .base import (
    CategoricalSplit,
    NumericSplit,
    Split,
    SplitDecision,
    canonical_subset,
    majority_label,
)


@dataclass
class QuestSufficientStats:
    """Streaming sufficient statistics for QUEST at one node.

    Attributes:
        class_counts: (k,) tuple counts per class.
        numeric_sums / numeric_sumsq: (n_numeric, k) per-attribute
            per-class sums and sums of squares.
        contingency: list of (domain, k) matrices, one per categorical
            attribute.
    """

    schema: Schema
    class_counts: np.ndarray
    numeric_sums: np.ndarray
    numeric_sumsq: np.ndarray
    contingency: list[np.ndarray]

    @classmethod
    def empty(cls, schema: Schema) -> "QuestSufficientStats":
        k = schema.n_classes
        n_num = len(schema.numerical_attributes)
        return cls(
            schema=schema,
            class_counts=np.zeros(k, dtype=np.int64),
            numeric_sums=np.zeros((n_num, k)),
            numeric_sumsq=np.zeros((n_num, k)),
            contingency=[
                np.zeros((a.domain_size, k), dtype=np.int64)
                for a in schema.categorical_attributes
            ],
        )

    def update(
        self,
        batch: np.ndarray,
        sign: int = 1,
        kernels: KernelBackend = DEFAULT_KERNELS,
    ) -> None:
        """Accumulate (``sign=+1``) or retract (``sign=-1``) a batch."""
        if batch.size == 0:
            return
        labels = batch[CLASS_COLUMN]
        k = self.schema.n_classes
        self.class_counts += sign * kernels.class_histogram(labels, k)
        for i, attr in enumerate(self.schema.numerical_attributes):
            sums, sumsq = kernels.quest_numeric_moments(batch[attr.name], labels, k)
            self.numeric_sums[i] += sign * sums
            self.numeric_sumsq[i] += sign * sumsq
        for j, attr in enumerate(self.schema.categorical_attributes):
            self.contingency[j] += sign * kernels.category_class_counts(
                batch[attr.name], labels, attr.domain_size, k
            )

    @classmethod
    def from_family(
        cls,
        family: np.ndarray,
        schema: Schema,
        kernels: KernelBackend = DEFAULT_KERNELS,
    ) -> "QuestSufficientStats":
        stats = cls.empty(schema)
        stats.update(family, kernels=kernels)
        return stats


def anova_p_value(
    counts: np.ndarray, sums: np.ndarray, sumsq: np.ndarray
) -> float:
    """One-way ANOVA F-test p-value from per-class (n, sum, sumsq).

    Returns 1.0 when the test is undefined (fewer than two non-empty
    classes, no residual degrees of freedom, or zero within-class
    variance), which deterministically deprioritizes the attribute.
    """
    # Imported here so processes that never run QUEST skip scipy.special.
    from scipy.special import fdtrc

    active = counts > 0
    g = int(active.sum())
    n = int(counts.sum())
    if g < 2 or n <= g:
        return 1.0
    grand_mean = sums.sum() / n
    means = np.where(active, sums / np.where(active, counts, 1), 0.0)
    ss_between = float((counts * np.square(means - grand_mean))[active].sum())
    ss_total = float(sumsq.sum() - n * grand_mean * grand_mean)
    ss_within = max(ss_total - ss_between, 0.0)
    df_between = g - 1
    df_within = n - g
    if ss_within <= 0.0:
        return 0.0 if ss_between > 0.0 else 1.0
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    return float(fdtrc(df_between, df_within, f_stat))


def chi_square_p_value(contingency: np.ndarray) -> float:
    """Chi-square independence p-value from a (domain, k) contingency table.

    Returns 1.0 when undefined (fewer than two non-empty rows/columns).
    """
    from scipy.special import chdtrc

    table = contingency[contingency.sum(axis=1) > 0][
        :, contingency.sum(axis=0) > 0
    ]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 1.0
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    chi2 = float((np.square(table - expected) / expected).sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    return float(chdtrc(dof, chi2))


def select_attribute(stats: QuestSufficientStats) -> tuple[int, float]:
    """(schema attribute index, p-value) of the winning attribute."""
    schema = stats.schema
    best_index = -1
    best_p = math.inf
    numeric_pos = 0
    categorical_pos = 0
    for index, attr in enumerate(schema.attributes):
        if attr.is_numerical:
            p = anova_p_value(
                stats.class_counts,
                stats.numeric_sums[numeric_pos],
                stats.numeric_sumsq[numeric_pos],
            )
            numeric_pos += 1
        else:
            p = chi_square_p_value(stats.contingency[categorical_pos])
            categorical_pos += 1
        if p < best_p:
            best_p = p
            best_index = index
    if best_index < 0:
        raise SplitSelectionError("no attributes to select from")
    return best_index, best_p


def _two_superclasses(
    counts: np.ndarray, means: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group classes into two superclasses by their attribute means.

    Deterministic 1-D 2-means: classes sorted by mean, split at the gap
    that maximizes between-group separation.  Returns boolean masks.
    """
    active = np.flatnonzero(counts > 0)
    if len(active) < 2:
        raise SplitSelectionError("need at least two non-empty classes")
    order = active[np.argsort(means[active], kind="stable")]
    best_cut = 1
    best_sep = -math.inf
    for cut in range(1, len(order)):
        a, b = order[:cut], order[cut:]
        wa, wb = counts[a].sum(), counts[b].sum()
        ma = (counts[a] * means[a]).sum() / wa
        mb = (counts[b] * means[b]).sum() / wb
        sep = wa * wb * (mb - ma) ** 2
        if sep > best_sep:
            best_sep = sep
            best_cut = cut
    group_a = np.zeros(len(counts), dtype=bool)
    group_a[order[:best_cut]] = True
    group_b = np.zeros(len(counts), dtype=bool)
    group_b[order[best_cut:]] = True
    return group_a, group_b


def qda_boundary(
    n_a: float, mean_a: float, var_a: float, n_b: float, mean_b: float, var_b: float
) -> float:
    """QDA decision boundary between two 1-D Gaussians.

    Solves ``log N(x; a) + log prior_a = log N(x; b) + log prior_b`` and
    returns the root lying between the means; falls back to the
    prior-weighted LDA threshold when variances (nearly) coincide or no
    root is bracketed.
    """
    if mean_a > mean_b:
        return qda_boundary(n_b, mean_b, var_b, n_a, mean_a, var_a)
    var_floor = 1e-12 * max(1.0, abs(mean_a), abs(mean_b)) ** 2
    var_a = max(var_a, var_floor)
    var_b = max(var_b, var_floor)
    log_prior_a = math.log(n_a / (n_a + n_b))
    log_prior_b = math.log(n_b / (n_a + n_b))
    # Quadratic a2 x^2 + a1 x + a0 = 0 from equating log densities.
    a2 = 0.5 * (1.0 / var_b - 1.0 / var_a)
    a1 = mean_a / var_a - mean_b / var_b
    a0 = (
        0.5 * (mean_b**2 / var_b - mean_a**2 / var_a)
        + 0.5 * math.log(var_b / var_a)
        + log_prior_a
        - log_prior_b
    )
    if mean_b > mean_a:
        pooled_var = (n_a * var_a + n_b * var_b) / (n_a + n_b)
        lda = 0.5 * (mean_a + mean_b) + pooled_var * (
            log_prior_b - log_prior_a
        ) / (mean_b - mean_a)
        lda = min(max(lda, mean_a), mean_b)
    else:
        lda = mean_a
    if abs(a2) < 1e-18:
        if abs(a1) < 1e-300:
            return 0.5 * (mean_a + mean_b)
        root = -a0 / a1
        return root if mean_a <= root <= mean_b else lda
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0:
        return lda
    sqrt_disc = math.sqrt(disc)
    roots = ((-a1 - sqrt_disc) / (2 * a2), (-a1 + sqrt_disc) / (2 * a2))
    inside = [r for r in roots if mean_a <= r <= mean_b]
    if inside:
        return min(inside)
    return lda


def quest_numeric_threshold(
    stats: QuestSufficientStats, numeric_pos: int
) -> float:
    """The QDA split threshold for the ``numeric_pos``-th numeric attribute."""
    counts = stats.class_counts.astype(np.float64)
    sums = stats.numeric_sums[numeric_pos]
    sumsq = stats.numeric_sumsq[numeric_pos]
    safe = np.where(counts > 0, counts, 1.0)
    means = sums / safe
    variances = np.maximum(sumsq / safe - np.square(means), 0.0)
    group_a, group_b = _two_superclasses(stats.class_counts, means)

    def pooled(mask: np.ndarray) -> tuple[float, float, float]:
        n = float(counts[mask].sum())
        mean = float(sums[mask].sum()) / n
        var = float(sumsq[mask].sum()) / n - mean * mean
        return n, mean, max(var, 0.0)

    return qda_boundary(*pooled(group_a), *pooled(group_b))


def quest_categorical_subset(
    contingency: np.ndarray,
) -> frozenset[int] | None:
    """Left subset for a categorical attribute via discriminant scores.

    Categories are scored by their class-0 proportion and thresholded at
    the tuple-weighted mean score; the lower-scoring group goes left after
    canonical orientation.  Returns ``None`` if fewer than two categories
    are present or the scores do not separate.
    """
    row_totals = contingency.sum(axis=1)
    present = np.flatnonzero(row_totals > 0)
    if len(present) < 2:
        return None
    scores = contingency[present, 0] / row_totals[present]
    threshold = float(
        (scores * row_totals[present]).sum() / row_totals[present].sum()
    )
    low = present[scores <= threshold]
    if len(low) == 0 or len(low) == len(present):
        # Degenerate scores: fall back to splitting off the single
        # lowest-scoring category (deterministic by (score, code)).
        order = np.lexsort((present, scores))
        low = present[order[:1]]
    return canonical_subset(
        (int(c) for c in low), (int(c) for c in present)
    )


class QuestSplitSelection:
    """QUEST-style CL: test-based attribute selection + QDA split points."""

    def __init__(
        self,
        alpha: float = 1.0,
        kernels: KernelBackend | str | None = None,
    ):
        """``alpha``: stop splitting when the best p-value exceeds it.

        ``kernels`` selects the columnar kernel backend the sufficient
        statistics are collected on (:mod:`repro.kernels`).
        """
        if not 0.0 < alpha <= 1.0:
            raise SplitSelectionError("alpha must be in (0, 1]")
        self._alpha = alpha
        self._kernels = get_kernels(kernels)

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def kernels(self) -> KernelBackend:
        return self._kernels

    def choose_split(
        self, family: np.ndarray, schema: Schema, config: SplitConfig
    ) -> SplitDecision | None:
        if len(family) < config.min_samples_split:
            return None
        stats = QuestSufficientStats.from_family(family, schema, self._kernels)
        if np.count_nonzero(stats.class_counts) <= 1:
            return None
        decision = self.decide_from_stats(stats, config)
        if decision is None:
            return None
        # Leaf-size admissibility needs actual side counts.
        go_left = decision.split.evaluate(family, schema)
        n_left = int(go_left.sum())
        if (
            n_left < config.min_samples_leaf
            or len(family) - n_left < config.min_samples_leaf
        ):
            return None
        return decision

    def decide_from_stats(
        self, stats: QuestSufficientStats, config: SplitConfig
    ) -> SplitDecision | None:
        """The (attribute, predicate) decision from sufficient statistics.

        BOAT's finalization calls this with statistics accumulated during
        the cleanup scan; side-count admissibility is checked by the
        caller, which knows the exact side counts.
        """
        index, p_value = select_attribute(stats)
        if p_value > self._alpha and p_value < 1.0:
            return None
        if p_value >= 1.0:
            return None
        schema = stats.schema
        attr = schema[index]
        split: Split | None
        if attr.is_numerical:
            numeric_pos = [
                a.name for a in schema.numerical_attributes
            ].index(attr.name)
            threshold = quest_numeric_threshold(stats, numeric_pos)
            split = NumericSplit(index, float(threshold))
        else:
            categorical_pos = [
                a.name for a in schema.categorical_attributes
            ].index(attr.name)
            subset = quest_categorical_subset(stats.contingency[categorical_pos])
            split = None if subset is None else CategoricalSplit(index, subset)
        if split is None:
            return None
        return SplitDecision(split=split, impurity=p_value)

    def __repr__(self) -> str:
        return f"QuestSplitSelection(alpha={self._alpha})"


__all__ = [
    "QuestSplitSelection",
    "QuestSufficientStats",
    "anova_p_value",
    "chi_square_p_value",
    "majority_label",
    "qda_boundary",
    "quest_categorical_subset",
    "quest_numeric_threshold",
    "select_attribute",
]
