"""The cleanup scan as grouped aggregation inside the database.

Every tuple streamed down the skeleton terminates in exactly one
*terminal*: the held store of a :class:`CoarseNumeric` node (value inside
the confidence interval, or NaN) or the family store of a frontier node.
That makes the terminal a GROUP BY key: routing is a nested SQL ``CASE``
expression mapping each row to its terminal's node id
(:func:`routing_expression`), and every per-node statistic the cleanup
scan accumulates is a sum of per-terminal grouped counts over the node's
subtree range (the preorder terminal numbering of
:mod:`repro.core.terminals`, shared with the streamed scan's batch
kernel) —

* ``class_counts(n)``      = Σ histograms over terminals in subtree(n),
* ``below_counts(n)``      = Σ over subtree(n.left)  (``above``: right),
* ``cat_counts[a](n)``     = Σ contingency matrices over subtree(n),
* ``bucket_counts[a](n)``  = one grouped query per (node, attribute),
  since bucket edges are per-node.

So the statistics never leave the database.  What must still be exported
are the rows themselves that the skeleton *holds* — held and family
tuples feed the exact split refinement of the finalize phase — and they
are fetched in one ordered pass that partitions each batch by terminal,
preserving global scan order per store, which keeps spill files (and
therefore the finished tree) byte-identical to the streamed scan.

Cost model: the export pass charges per-batch reads plus one
``record_full_scan()`` — the algorithm's one logical cleanup scan.  The
aggregation queries charge nothing; they are work the database does
where the data lives (see docs/SQL.md for the honesty argument).
"""

from __future__ import annotations

import numpy as np

from ..kernels.sql import SqlAggregations
from ..storage.schema import Schema
from .coarse import CoarseCategorical, CoarseNumeric
from .state import BoatNode
from .terminals import SkeletonPlan, compile_skeleton


def routing_expression(
    node: BoatNode, schema: Schema, quote
) -> tuple[str, list]:
    """Nested CASE mapping a row to the node id of its terminal.

    Mirrors the streaming router exactly: a ``CoarseNumeric`` node sends
    ``v < low`` left and ``v > high`` right, everything else — including
    NaN, which sqlite stores as NULL so both comparisons evaluate to
    NULL/false — is held *at this node*; a ``CoarseCategorical`` node
    routes by subset membership; a frontier node is its own terminal.
    Returns ``(sql, params)`` with parameters in textual order.
    """
    if node.is_frontier:
        return str(node.node_id), []
    column = quote(schema[node.criterion.attribute_index].name)
    left_sql, left_params = routing_expression(node.left, schema, quote)
    right_sql, right_params = routing_expression(node.right, schema, quote)
    if isinstance(node.criterion, CoarseCategorical):
        if not node.criterion.subset:
            return right_sql, right_params
        codes = ", ".join(str(int(c)) for c in sorted(node.criterion.subset))
        return (
            f"(CASE WHEN {column} IN ({codes}) "
            f"THEN {left_sql} ELSE {right_sql} END)",
            left_params + right_params,
        )
    return (
        f"(CASE WHEN {column} < ? THEN {left_sql} "
        f"WHEN {column} > ? THEN {right_sql} "
        f"ELSE {node.node_id} END)",
        [float(node.criterion.low)]
        + left_params
        + [float(node.criterion.high)]
        + right_params,
    )


def sql_pushdown_scan(
    root: BoatNode,
    table,
    schema: Schema,
    batch_rows: int,
) -> None:
    """Run the cleanup scan in-database over a ``SqlTable``.

    Equivalent to streaming every row through
    :func:`~repro.core.state.stream_batch` — same counts, same store
    contents in the same order — with the counting done by grouped
    aggregation queries and only held/family rows exported.
    """
    aggregations = SqlAggregations(table)
    quote = table.dialect.quote
    route_sql, route_params = routing_expression(root, schema, quote)
    k = schema.n_classes
    plan = compile_skeleton(root, schema)
    nodes = plan.nodes
    terminals = {
        node.node_id: [t.node_id for t in plan.subtree_terminals(node)]
        for node in nodes
    }

    histograms = aggregations.grouped_class_histograms(
        route_sql, route_params, k
    )

    def subtree_sum(ids: list[int]) -> np.ndarray:
        total = np.zeros(k, dtype=np.int64)
        for terminal in ids:
            hist = histograms.get(terminal)
            if hist is not None:
                total += hist
        return total

    for node in nodes:
        node.dirty = True
        node.class_counts += subtree_sum(terminals[node.node_id])
        if isinstance(node.criterion, CoarseNumeric):
            node.below_counts += subtree_sum(terminals[node.left.node_id])
            node.above_counts += subtree_sum(terminals[node.right.node_id])

    # One grouped contingency query per categorical attribute any internal
    # node tracks; each node then sums its subtree's terminals.
    cat_indices = sorted({i for node in nodes for i in node.cat_counts})
    for index in cat_indices:
        attribute = schema[index]
        per_terminal = aggregations.grouped_category_class_counts(
            route_sql, route_params, attribute.name, attribute.domain_size, k
        )
        for node in nodes:
            if index not in node.cat_counts:
                continue
            for terminal in terminals[node.node_id]:
                counts = per_terminal.get(terminal)
                if counts is not None:
                    node.cat_counts[index] += counts

    # Bucket edges are per-node, so bucket counts need one query per
    # (node, numerical attribute), restricted to the node's subtree.
    for node in nodes:
        for index, edges in node.bucket_edges.items():
            node.bucket_counts[index] += aggregations.bucket_class_counts(
                schema[index].name,
                edges,
                k,
                route_sql,
                route_params,
                terminals[node.node_id],
            )

    _export_held_rows(plan, table, batch_rows, route_sql, route_params)


def _export_held_rows(
    plan: SkeletonPlan,
    table,
    batch_rows: int,
    route_sql: str,
    route_params: list,
) -> None:
    """The one row-export pass: held/family tuples, in global scan order."""
    stores = {
        node.node_id: node.held if node.held is not None else node.family_store
        for node in plan.terminals
    }
    cursor = table.execute(
        f"SELECT {route_sql} AS __node, {table.select_columns_sql} "
        f"FROM {table.source_sql} ORDER BY {table.order_sql}",
        route_params,
    )
    io = table.io_stats
    try:
        while True:
            rows = cursor.fetchmany(batch_rows)
            if not rows:
                break
            routed = np.asarray([row[0] for row in rows], dtype=np.int64)
            batch = table.decode_rows([row[1:] for row in rows])
            if io is not None:
                io.record_read(len(batch), batch.nbytes)
            for terminal in np.unique(routed):
                slice_ = batch[routed == terminal]
                stores[int(terminal)].append(slice_)
    finally:
        cursor.close()
    if io is not None:
        io.record_full_scan()
