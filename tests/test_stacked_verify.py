"""The stacked §3.4 check equals the per-attribute loop it replaced.

``Finalizer._verify`` bounds every numeric attribute in one stacked
``bucket_lower_bounds`` call.  :func:`per_attribute_verify` below is the
per-attribute loop it replaced, kept as the oracle: on random nodes both
must give the same verdict and the same reason string, including exact
ties at the threshold on both sides of the coarse interval.
"""

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import BoatNode, CoarseCategorical, CoarseNumeric, Finalizer
from repro.core.bounds import admissible_bucket_mask, bucket_lower_bounds
from repro.core.discretize import (
    interval_bucket_range,
    interval_forced_edges,
    point_bucket_mask,
)
from repro.core.state import effective_stats
from repro.splits import ImpuritySplitSelection
from repro.splits.categorical import best_categorical_split_from_counts
from repro.storage import Attribute, Schema

CONFIG = BoatConfig(sample_size=100, bootstrap_repetitions=2)
GINI = ImpuritySplitSelection("gini")


def per_attribute_verify(finalizer, node, stats, counts, threshold, is_leaf_decision):
    """The per-attribute §3.4 loop: one bound, mask and tie rule per attribute."""
    schema = finalizer._schema
    impurity = finalizer._impurity
    config = finalizer._config
    criterion = node.criterion
    coarse_index = criterion.attribute_index
    for index, attr in enumerate(schema.attributes):
        if attr.is_categorical:
            if index == coarse_index:
                continue
            found = best_categorical_split_from_counts(
                stats.cat_counts[index],
                impurity,
                config.min_samples_leaf,
                config.max_categorical_exhaustive,
            )
            if found is None:
                continue
            if finalizer._beats(found[0], index, coarse_index, threshold, is_leaf_decision):
                return (
                    f"categorical attribute {attr.name} reaches impurity "
                    f"{found[0]:.6g} vs threshold {threshold:.6g}"
                )
            continue
        edges = node.bucket_edges[index]
        bucket_counts = stats.bucket_counts[index]
        bounds = bucket_lower_bounds(bucket_counts, counts, impurity)
        point = point_bucket_mask(edges)
        if point.any():
            cum = np.cumsum(bucket_counts, axis=0)
            bounds = bounds.copy()
            bounds[point] = impurity.weighted(cum[point], counts)
        admissible = admissible_bucket_mask(bucket_counts, config.min_samples_leaf)
        if index == coarse_index and isinstance(criterion, CoarseNumeric):
            first, last = interval_bucket_range(edges, criterion.low, criterion.high)
            below = admissible.copy()
            below[first:] = False
            above = admissible.copy()
            above[:last] = False
            if is_leaf_decision:
                if np.any((below | above) & (bounds < threshold)):
                    return (
                        f"split attribute {attr.name}: leaf decision but a "
                        f"bucket bound < node impurity {threshold:.6g}"
                    )
            else:
                if np.any(below & (bounds <= threshold)):
                    return (
                        f"split attribute {attr.name}: bucket below the "
                        f"confidence interval bounds <= {threshold:.6g}"
                    )
                if np.any(above & (bounds < threshold)):
                    return (
                        f"split attribute {attr.name}: bucket above the "
                        f"confidence interval bounds < {threshold:.6g}"
                    )
            continue
        if is_leaf_decision or index > coarse_index:
            beaten = bounds < threshold
        else:
            beaten = bounds <= threshold
        if np.any(admissible & beaten):
            return (
                f"numerical attribute {attr.name}: a bucket lower bound "
                f"undercuts threshold {threshold:.6g}"
            )
    return None


def mixed_schema(k: int) -> Schema:
    """Numeric and categorical attributes interleaved in schema order."""
    return Schema(
        [
            Attribute.numerical("a"),
            Attribute.categorical("c", 4),
            Attribute.numerical("b"),
            Attribute.numerical("d"),
            Attribute.categorical("e", 3),
            Attribute.numerical("f"),
        ],
        n_classes=k,
    )


def random_edges(rng, forced=()) -> np.ndarray:
    edges = set(np.round(rng.uniform(0, 100, int(rng.integers(0, 12))), 1).tolist())
    for _ in range(int(rng.integers(0, 3))):  # point buckets around spike values
        value = float(np.round(rng.uniform(0, 100), 1))
        edges.update({value, float(np.nextafter(value, -np.inf))})
    edges.update(forced)
    return np.array(sorted(edges), dtype=np.float64)


def spread(rng, class_counts: np.ndarray, n_cells: int) -> np.ndarray:
    """(n_cells, k) counts whose columns sum to ``class_counts``."""
    cells = np.zeros((n_cells, len(class_counts)), dtype=np.int64)
    for j, total in enumerate(class_counts):
        weights = rng.random(n_cells) * (rng.random(n_cells) < 0.7)
        if weights.sum() == 0:
            weights[int(rng.integers(n_cells))] = 1.0
        cells[:, j] = rng.multinomial(int(total), weights / weights.sum())
    return cells


def random_node(rng, schema: Schema):
    numeric = [i for i, a in enumerate(schema.attributes) if a.is_numerical]
    categorical = [i for i, a in enumerate(schema.attributes) if a.is_categorical]
    if rng.random() < 0.75:
        index = int(rng.choice(numeric))
        low = float(np.round(rng.uniform(20, 60), 1))
        criterion = CoarseNumeric(index, low, low + float(np.round(rng.uniform(0, 20), 1)))
    else:
        index = int(rng.choice(categorical))
        criterion = CoarseCategorical(index, frozenset({0}))
    edges = {
        i: random_edges(
            rng,
            interval_forced_edges(criterion.low, criterion.high)
            if i == criterion.attribute_index
            else (),
        )
        for i in numeric
    }
    node = BoatNode(0, 0, criterion, schema, edges, CONFIG)
    class_counts = rng.integers(0, 60, schema.n_classes).astype(np.int64)
    node.class_counts[:] = class_counts
    for i, matrix in node.bucket_counts.items():
        matrix[:] = spread(rng, class_counts, len(matrix))
    for i, matrix in node.cat_counts.items():
        matrix[:] = spread(rng, class_counts, len(matrix))
    return node


def candidate_thresholds(rng, finalizer, node, stats, counts):
    """Bounds of buckets on both sides of the coarse interval, other
    attributes' bounds, categorical optima and plain random values."""
    impurity = finalizer._impurity
    values = [float(rng.uniform(0.0, 1.2)), impurity.node_impurity(counts)]
    for index, edges in node.bucket_edges.items():
        bounds = bucket_lower_bounds(stats.bucket_counts[index], counts, impurity)
        point = point_bucket_mask(edges)
        cum = np.cumsum(stats.bucket_counts[index], axis=0)
        if point.any():
            bounds[point] = impurity.weighted(cum[point], counts)
        criterion = node.criterion
        if index == criterion.attribute_index:
            first, last = interval_bucket_range(edges, criterion.low, criterion.high)
            sides = [bounds[:first], bounds[last:]]
        else:
            sides = [bounds]
        for side in sides:
            if len(side):
                values.append(float(side[int(rng.integers(len(side)))]))
    for index, matrix in stats.cat_counts.items():
        found = best_categorical_split_from_counts(
            matrix, impurity, finalizer._config.min_samples_leaf, 12
        )
        if found is not None:
            values.append(found[0])
    return values


@pytest.mark.parametrize("impurity", ["gini", "entropy"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_stacked_verify_matches_per_attribute_loop(impurity, k):
    rng = np.random.default_rng(100 * k + len(impurity))
    schema = mixed_schema(k)
    method = ImpuritySplitSelection(impurity)
    seen = set()
    for _ in range(150):
        node = random_node(rng, schema)
        config = SplitConfig(min_samples_leaf=int(rng.choice([1, 5, 20])))
        finalizer = Finalizer(schema, method, config)
        stats = effective_stats(node, schema.empty(0), schema)
        counts = np.asarray(stats.class_counts, dtype=np.int64)
        for threshold in candidate_thresholds(rng, finalizer, node, stats, counts):
            for leaf in (False, True):
                expected = per_attribute_verify(
                    finalizer, node, stats, counts, threshold, leaf
                )
                got = finalizer._verify(node, stats, counts, threshold, leaf)
                assert got == expected, (threshold, leaf, node.criterion)
                seen.add(None if expected is None else expected.split(":")[0].split()[0])
                if expected is not None and "confidence interval" in expected:
                    seen.add("below" if "below" in expected else "above")
                if expected is not None and "leaf decision" in expected:
                    seen.add("leaf")
    # Every verdict kind was exercised.
    assert {None, "categorical", "numerical", "split", "below", "above", "leaf"} <= seen


def test_min_samples_leaf_excludes_tied_edge_buckets():
    """A below-interval bucket tying the threshold refutes the split only
    while it could hold an admissible candidate."""
    schema = Schema([Attribute.numerical("a")], n_classes=2)
    edges = {0: np.array(sorted({10.0, 20.0, *interval_forced_edges(40.0, 60.0)}))}
    node = BoatNode(0, 0, CoarseNumeric(0, 40.0, 60.0), schema, edges, CONFIG)
    node.bucket_counts[0][:] = [[3, 0], [5, 5], [10, 2], [20, 20], [2, 33]]
    node.class_counts[:] = node.bucket_counts[0].sum(axis=0)
    stats = effective_stats(node, schema.empty(0), schema)
    counts = node.class_counts
    tie = float(bucket_lower_bounds(node.bucket_counts[0], counts, GINI.impurity)[0])
    verdicts = set()
    for min_leaf in range(1, 40):
        finalizer = Finalizer(schema, GINI, SplitConfig(min_samples_leaf=min_leaf))
        got = finalizer._verify(node, stats, counts, tie, False)
        assert got == per_attribute_verify(finalizer, node, stats, counts, tie, False)
        verdicts.add(got)
    # Bucket 0 ties the threshold while admissible, and drops out of the
    # check once min_samples_leaf exceeds its 3 rows.
    assert len(verdicts) > 1 and None in verdicts
