"""Level-synchronous exact split search (the numpy reference builder).

:func:`grow_levelwise` builds exactly the tree the per-node recursion of
:func:`repro.tree.builder.grow_subtree` builds with
:class:`~repro.splits.methods.ImpuritySplitSelection` — byte-identical once
serialized — but grows it one depth at a time, so a level costs a fixed
number of whole-array numpy calls per attribute instead of a few dozen per
node.  The per-level state is a row→node array plus, per numeric
attribute, the attribute's row order (SLIQ's presorted attribute list):
argsorted once at the root and, after every level, stably partitioned by
child node.  Within each node a list therefore stays sorted by (value,
original row), which is exactly the order of the recursion's per-node
stable argsort.  Per level:

* numeric attributes: segmented class cumsums over the presorted list,
  one ``weighted_impurity`` call with per-row family totals for every
  admissible candidate of every frontier node, and a segmented first
  minimum;
* categorical attributes: one ``bincount`` keyed by (node, code, class).
  The exhaustive subsets of all nodes are scored against one padded
  selector matrix (its first ``2^(p-1) - 1`` rows are the p-category
  enumeration), in chunks of at most :data:`CHUNK_ROWS` candidate rows;
  the prefix search is one lexsort plus a segmented cumsum.

:func:`grow_resamples` grows several trees — BOAT's bootstrap resamples
of one sample — as roots of one such grow over *virtual rows* that map to
the sample's rows, presorted once by dense rank; an ``expand`` callback
can stop it below chosen nodes.

Why the floats agree bit for bit (see docs/KERNELS.md): every count is an
integer sum, which is order-free; every float is the measure's own
row-local formula applied to the same integer rows; ties resolve to the
first candidate of the per-node enumeration and then to the earlier
attribute, as in the recursion; and node ids are allocated at the end in
the recursion's order (a node's two children, then its left subtree, then
its right subtree).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..config import SplitConfig
from ..kernels import KernelBackend
from ..splits.base import CategoricalSplit, NumericSplit, Split, canonical_subset
from ..splits.categorical import exhaustive_selectors
from ..splits.impurity import ImpurityMeasure
from ..storage import CLASS_COLUMN, Schema
from .model import DecisionTree, Node

#: Bound on the candidate rows of one exhaustive-categorical evaluation
#: (nodes x selector rows), which bounds the padded working arrays.
CHUNK_ROWS = 2048

#: One attribute's search result over a frontier: the best admissible
#: weighted impurity per node (``inf`` where there is none) and a factory
#: for the split that achieves it at a given node.
_Search = tuple[np.ndarray, Callable[[int], Split]]


def grow_levelwise(
    family: np.ndarray,
    schema: Schema,
    measure: ImpurityMeasure,
    kernels: KernelBackend,
    config: SplitConfig,
) -> DecisionTree:
    """Grow the impurity-method reference tree of ``family`` level by level."""
    ids = _row_dtype(len(family))
    orders = {
        index: np.argsort(family[attr.name], kind="stable").astype(ids)
        for index, attr in enumerate(schema.attributes)
        if attr.is_numerical
    }
    (tree,) = _grow_roots(
        family, None, [len(family)], orders, schema, measure, kernels, config
    )
    return tree


def grow_resamples(
    family: np.ndarray,
    ranks: dict[int, np.ndarray],
    draws: list[np.ndarray],
    schema: Schema,
    measure: ImpurityMeasure,
    kernels: KernelBackend,
    config: SplitConfig,
    expand: Callable[[list[Node]], np.ndarray] | None = None,
) -> list[DecisionTree]:
    """Grow the tree of every resample ``family[draw]`` in one level-wise grow.

    Each resample is one root; its rows are *virtual rows* mapped to rows
    of ``family``, in draw order, so no resample is ever materialized.
    ``ranks`` is :func:`rank_columns` of ``family``: a root's presorted
    list per numeric attribute is a stable radix sort of its draw's
    gathered ranks.  Without ``expand`` every tree is byte-identical to
    ``grow_levelwise(family[draw], ...)``.

    ``expand``, when given, bounds the grow: after each level it receives
    the nodes split at that level (in frontier order) and returns a mask
    over them; the children of unmasked nodes stay leaves, unsearched.
    """
    offsets = np.cumsum([0] + [len(draw) for draw in draws])
    n = int(offsets[-1])
    # Narrow row numbers make the per-level ``take`` gathers cheaper.
    small = len(family) <= np.iinfo(np.int16).max
    rows_of = np.concatenate(draws).astype(
        np.int16 if small else _row_dtype(len(family))
    )
    orders = {}
    for index, column_ranks in ranks.items():
        gathered = column_ranks[rows_of]
        order = np.empty(n, dtype=_row_dtype(n))
        for start, stop in zip(offsets[:-1], offsets[1:]):
            order[start:stop] = np.argsort(gathered[start:stop], kind="stable")
            order[start:stop] += start
        orders[index] = order
    return _grow_roots(
        family, rows_of, np.diff(offsets), orders, schema, measure, kernels,
        config, expand,
    )


def rank_columns(family: np.ndarray, schema: Schema) -> dict[int, np.ndarray]:
    """:func:`dense_ranks` of every numeric column of ``family``."""
    return {
        index: dense_ranks(family[attr.name])
        for index, attr in enumerate(schema.attributes)
        if attr.is_numerical
    }


def dense_ranks(column: np.ndarray) -> np.ndarray:
    """Integer ranks that sort exactly as ``column``'s stable float argsort.

    Equal values share a rank — so do ``-0.0`` and ``0.0``, which compare
    equal — and every NaN gets the one last rank, since the argsort puts
    NaNs last in row order.  The ranks are int16 when they fit, which
    numpy's stable argsort radix-sorts.
    """
    order = np.argsort(column, kind="stable")
    ordered = column[order]
    new = np.ones(len(column), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    new[1:] &= ~np.isnan(ordered[:-1])
    ranks = np.cumsum(new) - 1
    fits = len(ranks) == 0 or ranks[-1] <= np.iinfo(np.int16).max
    out = np.empty(len(column), dtype=np.int16 if fits else np.int32)
    out[order] = ranks
    return out


def _row_dtype(n: int) -> type:
    """Row ids are int32 (half the memory of intp) where they fit."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.intp


def _grow_roots(
    family: np.ndarray,
    rows_of: np.ndarray | None,
    sizes: list[int] | np.ndarray,
    orders: dict[int, np.ndarray],
    schema: Schema,
    measure: ImpurityMeasure,
    kernels: KernelBackend,
    config: SplitConfig,
    expand: Callable[[list[Node]], np.ndarray] | None = None,
) -> list[DecisionTree]:
    """Grow one tree per run of ``sizes`` consecutive (virtual) rows.

    ``rows_of`` maps virtual rows to rows of ``family`` (``None``: the
    identity); ``orders`` holds each numeric attribute's virtual rows
    grouped by root and stably sorted by value within a root.
    """
    n_classes = schema.n_classes
    labels = family[CLASS_COLUMN]
    if rows_of is not None:
        labels = labels[rows_of]
    ids = _row_dtype(len(labels))
    counts = _node_class_counts(
        np.repeat(np.arange(len(sizes), dtype=ids), sizes),
        labels, len(sizes), n_classes,
    )
    roots = [Node(0, 0, root_counts.copy()) for root_counts in counts]
    grows = _grows(counts, 0, config)
    if grows.any():
        node_of = np.repeat(np.where(grows, np.cumsum(grows) - 1, -1).astype(ids), sizes)
        rows = np.arange(len(labels), dtype=ids)
        if not grows.all():
            rows = rows[node_of >= 0]
            orders = {
                index: order[node_of[order] >= 0] for index, order in orders.items()
            }
        _grow(
            family, rows_of, labels, schema, measure, kernels, config,
            [roots[r] for r in np.flatnonzero(grows).tolist()], counts[grows],
            node_of, rows, orders, expand,
        )
    for root in roots:
        _number_preorder(root)
    return [DecisionTree(schema, root) for root in roots]


def _grows(counts: np.ndarray, depth: int, config: SplitConfig) -> np.ndarray:
    """Which nodes the search may split: the recursion's certain-leaf rules."""
    if config.max_depth is not None and depth >= config.max_depth:
        return np.zeros(len(counts), dtype=bool)
    return (counts.sum(axis=1) >= config.min_samples_split) & (
        np.count_nonzero(counts, axis=1) > 1
    )


def _grow(
    family: np.ndarray,
    rows_of: np.ndarray | None,
    labels: np.ndarray,
    schema: Schema,
    measure: ImpurityMeasure,
    kernels: KernelBackend,
    config: SplitConfig,
    frontier: list[Node],
    counts: np.ndarray,
    node_of: np.ndarray,
    rows: np.ndarray,
    orders: dict[int, np.ndarray],
    expand: Callable[[list[Node]], np.ndarray] | None,
) -> None:
    """Split ``frontier`` (class counts ``counts``) level by level, in place.

    ``node_of`` maps every virtual row to its frontier node (-1: none);
    ``rows`` and ``orders`` list the frontier's rows grouped by node.
    """
    n_classes = schema.n_classes
    n = len(labels)

    def gather(name: str, at: np.ndarray) -> np.ndarray:
        # ``take`` gathers through int32/int16 indices without an intp copy.
        column = family[name]
        return column[at] if rows_of is None else column.take(rows_of.take(at))

    # One selector matrix, as wide as any exhaustive search can be.
    domains = [attr.domain_size for attr in schema.attributes if not attr.is_numerical]
    selectors = exhaustive_selectors(
        min(config.max_categorical_exhaustive, max(domains, default=1))
    )
    depth = 0
    while frontier:
        n_nodes = len(frontier)
        sizes = counts.sum(axis=1)
        search_rows, search_sizes = _search_rows(rows, sizes, config.split_sample_rows)
        if search_rows is rows:
            in_search = None
            search_counts = counts
        else:
            in_search = np.zeros(n, dtype=bool)
            in_search[search_rows] = True
            search_counts = _node_class_counts(
                node_of[search_rows], labels[search_rows], n_nodes, n_classes
            )
        live = np.count_nonzero(search_counts, axis=1) > 1
        search_starts = np.concatenate(([0], np.cumsum(search_sizes)[:-1]))
        best_value = np.full(n_nodes, np.inf)
        best_attr = np.full(n_nodes, -1)
        makers: dict[int, Callable[[int], Split]] = {}
        for index, attr in enumerate(schema.attributes):
            if attr.is_numerical:
                order = orders[index]
                if in_search is not None:
                    order = order[in_search[order]]
                value, makers[index] = _numeric_search(
                    index, gather(attr.name, order), labels[order], node_of[order],
                    search_counts, search_starts, measure, kernels,
                    config.min_samples_leaf,
                )
            else:
                value, makers[index] = _categorical_search(
                    index, gather(attr.name, search_rows), attr.domain_size,
                    labels[search_rows], node_of[search_rows], search_counts,
                    measure, kernels, config.min_samples_leaf,
                    config.max_categorical_exhaustive, selectors,
                )
            better = value < best_value
            best_value[better] = value[better]
            best_attr[better] = index
        node_impurity = measure.node_impurities(search_counts)
        split_nodes = (live & (best_value < node_impurity)).nonzero()[0]
        if len(split_nodes) == 0:
            return
        splits = {int(j): makers[int(best_attr[j])](int(j)) for j in split_nodes}

        # Route the frontier's rows: child 2s / 2s+1 of the s-th split node.
        row_node = node_of[rows]
        split_rank = np.full(n_nodes, -1)
        split_rank[split_nodes] = np.arange(len(split_nodes))
        go_left = np.zeros(len(rows), dtype=bool)
        for index in sorted(set(best_attr[split_nodes].tolist())):
            on_attr = np.zeros(n_nodes, dtype=bool)
            on_attr[split_nodes[best_attr[split_nodes] == index]] = True
            at = on_attr[row_node].nonzero()[0]
            go_left[at] = _route(
                schema, index, gather(schema[index].name, rows[at]),
                row_node[at], splits, n_nodes,
            )
        rank = split_rank[row_node]
        routed = rank >= 0
        child = np.where(routed, 2 * rank + ~go_left, -1)
        child_counts = _node_class_counts(
            child[routed], labels[rows[routed]], 2 * len(split_nodes), n_classes
        )
        children: list[Node] = []
        for s, j in enumerate(split_nodes.tolist()):
            left = Node(-1, depth + 1, child_counts[2 * s].copy())
            right = Node(-1, depth + 1, child_counts[2 * s + 1].copy())
            frontier[j].make_internal(splits[j], left, right)
            children += (left, right)

        grows = _grows(child_counts, depth + 1, config)
        if expand is not None:
            grows &= np.repeat(expand([frontier[j] for j in split_nodes]), 2)
        next_index = np.where(grows, np.cumsum(grows) - 1, -1)
        node_of[rows] = np.where(routed, next_index[child], -1)
        n_next = int(grows.sum())
        rows = _partition(rows, node_of, n_next)
        for index in orders:
            orders[index] = _partition(orders[index], node_of, n_next)
        frontier = [children[c] for c in np.flatnonzero(grows).tolist()]
        counts = child_counts[grows]
        depth += 1


def _search_rows(
    rows: np.ndarray, sizes: np.ndarray, sample_rows: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """The rows each node's candidate search runs on, and their counts.

    Under ``split_sample_rows`` a node with more than that many rows keeps
    the stride subsample of :func:`repro.splits.methods.sampled_search_rows`
    (positions ``(arange(k) * n) // k`` of its rows in family order);
    ``rows`` itself is returned when no node is sampled.
    """
    if sample_rows is None or not (sizes > sample_rows).any():
        return rows, sizes
    sampled = sizes > sample_rows
    kept = np.where(sampled, sample_rows, sizes)
    node = np.repeat(np.arange(len(sizes)), kept)
    j = np.arange(len(node)) - np.repeat(np.cumsum(kept) - kept, kept)
    stride = np.where(sampled[node], (j * sizes[node]) // sample_rows, j)
    starts = np.cumsum(sizes) - sizes
    return rows[starts[node] + stride], kept


def _node_class_counts(
    node: np.ndarray, labels: np.ndarray, n_nodes: int, n_classes: int
) -> np.ndarray:
    """(n_nodes, k) int64 class counts of rows keyed by node index."""
    flat = np.bincount(node * n_classes + labels, minlength=n_nodes * n_classes)
    return flat.astype(np.int64, copy=False).reshape(n_nodes, n_classes)


def _partition(order: np.ndarray, node_of: np.ndarray, n_nodes: int) -> np.ndarray:
    """``order`` stably regrouped by node, dropping rows whose node is -1."""
    key = node_of[order]
    keep = key >= 0
    order = order[keep]
    key = key[keep]
    if n_nodes <= np.iinfo(np.int16).max:
        key = key.astype(np.int16)  # numpy radix-sorts 16-bit keys
    return order[np.argsort(key, kind="stable")]


def _first_min(
    segment: np.ndarray, values: np.ndarray, n_segments: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per run of equal ``segment`` ids: (segment id, index of its first minimum).

    ``segment`` must be non-decreasing and below ``n_segments``; ``values``
    must be NaN-free.  The first occurrence of the minimum is
    ``np.argmin``'s tie rule.
    """
    if len(segment) == 0:
        return segment, segment
    heads = np.concatenate(([True], segment[1:] != segment[:-1])).nonzero()[0]
    minima = np.full(n_segments, np.inf)
    minima[segment[heads]] = np.minimum.reduceat(values, heads)
    hits = (values == minima[segment]).nonzero()[0]
    hit_segment = segment[hits]
    first = hits[np.concatenate(([True], hit_segment[1:] != hit_segment[:-1]))]
    return segment[first], first


def _numeric_search(
    index: int,
    values: np.ndarray,
    sorted_labels: np.ndarray,
    node: np.ndarray,
    counts: np.ndarray,
    starts: np.ndarray,
    measure: ImpurityMeasure,
    kernels: KernelBackend,
    min_samples_leaf: int,
) -> _Search:
    """Best ``X <= x`` split per node from the node-grouped sorted order.

    ``values``, ``sorted_labels`` and ``node`` are the attribute values,
    labels and frontier nodes of the rows in that order.
    """
    n_nodes, n_classes = counts.shape
    # A candidate is the last row of each run of equal values in a node.
    last = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=last[:-1])
    last[:-1] |= node[1:] != node[:-1]
    candidate = last.nonzero()[0]
    cand_node = node[candidate]
    n_left = candidate - starts[cand_node] + 1
    n_total = counts.sum(axis=1)[cand_node]
    admissible = (
        (n_left >= min_samples_leaf)
        & (n_total - n_left >= min_samples_leaf)
        & ~np.isnan(values[candidate])
    )
    candidate = candidate[admissible]
    cand_node = cand_node[admissible]
    left = np.empty((len(candidate), n_classes), dtype=np.int64)
    running = np.zeros(len(values) + 1, dtype=np.int64)
    for c in range(n_classes - 1):
        np.cumsum(sorted_labels == c, out=running[1:])
        left[:, c] = running[candidate + 1] - running[starts[cand_node]]
    left[:, -1] = n_left[admissible] - left[:, :-1].sum(axis=1)
    impurities = kernels.weighted_impurity(measure, left, counts[cand_node])
    nodes, first = _first_min(cand_node, impurities, n_nodes)
    best = np.full(n_nodes, np.inf)
    best[nodes] = impurities[first]
    threshold = np.zeros(n_nodes)
    threshold[nodes] = values[candidate[first]]
    return best, lambda j: NumericSplit(index, float(threshold[j]))


def _categorical_search(
    index: int,
    codes: np.ndarray,
    domain_size: int,
    labels: np.ndarray,
    node: np.ndarray,
    counts: np.ndarray,
    measure: ImpurityMeasure,
    kernels: KernelBackend,
    min_samples_leaf: int,
    max_exhaustive: int,
    selectors: np.ndarray,
) -> _Search:
    """Best ``X in Y`` split per node from one (node, code, class) bincount.

    ``codes``, ``labels`` and ``node`` describe the searched rows.
    ``selectors`` is ``exhaustive_selectors(w)`` for a ``w`` at least as
    large as any node's present-category count searched exhaustively.
    """
    n_nodes, n_classes = counts.shape
    key = (node * domain_size + codes) * n_classes + labels
    joint = np.bincount(key, minlength=n_nodes * domain_size * n_classes).reshape(
        n_nodes, domain_size, n_classes
    )
    present = joint.any(axis=2)
    n_present = present.sum(axis=1)
    best = np.full(n_nodes, np.inf)
    # The winning candidate per node: a selector row (exhaustive search)
    # or the end of a prefix of ``ranked`` (prefix search).
    chosen = np.full(n_nodes, -1)

    exhaustive = (n_present >= 2) & (n_present <= max_exhaustive)
    for p in sorted(set(n_present[exhaustive].tolist())):
        group = (exhaustive & (n_present == p)).nonzero()[0]
        # The first 2^(p-1) - 1 rows over the first p columns of the widest
        # enumeration are the p-category enumeration, in the same order.
        n_rows = (1 << (p - 1)) - 1
        as_int = selectors[:n_rows, :p].astype(np.int64)
        at, code = np.nonzero(present[group])
        cells = joint[group[at], code].reshape(len(group), p, n_classes)
        step = max(1, CHUNK_ROWS // n_rows)
        for lo in range(0, len(group), step):
            nodes = group[lo : lo + step]
            lefts = np.matmul(as_int, cells[lo : lo + step])
            n_left = lefts.sum(axis=2)
            n_total = counts[nodes].sum(axis=1)[:, np.newaxis]
            at, row = np.nonzero(
                (n_left >= min_samples_leaf) & (n_total - n_left >= min_samples_leaf)
            )
            impurities = kernels.weighted_impurity(
                measure, lefts[at, row], counts[nodes[at]]
            )
            segs, first = _first_min(at, impurities, len(nodes))
            best[nodes[segs]] = impurities[first]
            chosen[nodes[segs]] = row[first]

    prefix = (n_present > max_exhaustive).nonzero()[0]
    ranked = heads = np.empty(0, dtype=np.intp)
    if len(prefix):
        at, code = np.nonzero(present[prefix])
        cells = joint[prefix[at], code]
        p_first = cells[:, 0] / cells.sum(axis=1).astype(np.float64)
        order = np.lexsort((code, p_first, at))
        at, ranked, cells = at[order], code[order], cells[order]
        # Prefix of length i+1 at position i; each node's full set is dropped.
        heads = np.cumsum(n_present[prefix]) - n_present[prefix]
        running = np.cumsum(cells, axis=0)
        base = np.zeros((len(prefix), n_classes), dtype=np.int64)
        base[1:] = running[heads[1:] - 1]
        lefts = running - base[at]
        n_left = lefts.sum(axis=1)
        n_total = counts[prefix].sum(axis=1)[at]
        proper = np.ones(len(at), dtype=bool)
        proper[heads + n_present[prefix] - 1] = False
        kept = (
            proper & (n_left >= min_samples_leaf) & (n_total - n_left >= min_samples_leaf)
        ).nonzero()[0]
        impurities = kernels.weighted_impurity(
            measure, lefts[kept], counts[prefix[at[kept]]]
        )
        segs, first = _first_min(at[kept], impurities, len(prefix))
        best[prefix[segs]] = impurities[first]
        chosen[prefix[segs]] = kept[first]
    head_of = np.zeros(n_nodes, dtype=np.intp)
    head_of[prefix] = heads

    def make(j: int) -> Split:
        codes = np.flatnonzero(present[j])
        if len(codes) <= max_exhaustive:
            subset = codes[selectors[chosen[j], : len(codes)]]
        else:
            subset = ranked[head_of[j] : chosen[j] + 1]
        return CategoricalSplit(
            index,
            canonical_subset((int(c) for c in subset), (int(c) for c in codes)),
        )

    return best, make


def _route(
    schema: Schema,
    index: int,
    values: np.ndarray,
    node: np.ndarray,
    splits: dict[int, Split],
    n_nodes: int,
) -> np.ndarray:
    """Go-left mask of rows at nodes that split on attribute ``index``."""
    attr = schema[index]
    if attr.is_numerical:
        threshold = np.zeros(n_nodes)
        for j, split in splits.items():
            if split.attribute_index == index:
                threshold[j] = split.value
        return values <= threshold[node]
    member = np.zeros((n_nodes, attr.domain_size), dtype=bool)
    for j, split in splits.items():
        if split.attribute_index == index:
            member[j, sorted(split.subset)] = True
    return member[node, values]


def _number_preorder(root: Node) -> None:
    """Assign ids as the recursion allocates them: both children, then subtrees."""
    next_id = 1
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        node.left.node_id = next_id
        node.right.node_id = next_id + 1
        next_id += 2
        stack.append(node.right)
        stack.append(node.left)
