"""SQL backend contract tests: scans, round-trips, and pushdown kernels.

Three layers, matching the backend's structure:

* :class:`SqlTable` honors the ``Table`` contract — hypothesis holds its
  scans byte-identical to :class:`MemoryTable` over every
  ``start_row``/``stop_row`` cut (modulo sqlite's canonicalization of
  NaN and ``-0.0``, which the strategies canonicalize up front);
* :class:`SqlAggregations` grouped queries match the numpy counting
  kernels group by group;
* :func:`sql_pushdown_scan` leaves a hand-built skeleton in exactly the
  state the streamed serial cleanup scan does — counts and store bytes.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BoatConfig
from repro.core import (
    BoatNode,
    CoarseCategorical,
    CoarseNumeric,
    cleanup_scan,
    routing_expression,
    sql_pushdown_scan,
)
from repro.exceptions import SchemaError, StorageError
from repro.kernels import NumpyKernels, SqlAggregations
from repro.storage import (
    CLASS_COLUMN,
    Attribute,
    IOStats,
    MemoryTable,
    Schema,
    SqlTable,
    get_dialect,
    reservoir_sample,
)

pytestmark = pytest.mark.sql


def make_schema() -> Schema:
    return Schema(
        [
            Attribute.numerical("x"),
            Attribute.numerical("y"),
            Attribute.categorical("color", 4),
        ],
        n_classes=3,
    )


# sqlite canonicalizes NaN (stored as NULL, decoded to the canonical
# float64 NaN) and -0.0 (stored as +0.0); the strategies generate only
# the canonical forms so byte-comparisons are exact.
def canonical_floats():
    finite = st.floats(allow_nan=False, allow_infinity=True, width=64).map(
        lambda v: 0.0 if v == 0.0 else v
    )
    return st.one_of(finite, st.just(float("nan")))


@st.composite
def table_data(draw, schema):
    n = draw(st.integers(min_value=0, max_value=60))
    batch = schema.empty(n)
    batch["x"] = draw(
        st.lists(canonical_floats(), min_size=n, max_size=n)
    )
    batch["y"] = draw(
        st.lists(canonical_floats(), min_size=n, max_size=n)
    )
    batch["color"] = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
    )
    batch[CLASS_COLUMN] = draw(
        st.lists(st.integers(0, schema.n_classes - 1), min_size=n, max_size=n)
    )
    return batch


def filled_pair(batch):
    """The same rows in a MemoryTable and a fresh in-memory SqlTable."""
    schema = make_schema()
    memory = MemoryTable(schema, io_stats=IOStats())
    sql = SqlTable.create(":memory:", schema, io_stats=IOStats())
    if len(batch):
        memory.append(batch)
        sql.append(batch)
    return memory, sql


class TestScanEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scans_byte_identical_to_memory_table(self, data):
        schema = make_schema()
        batch = data.draw(table_data(schema))
        memory, sql = filled_pair(batch)
        n = len(batch)
        start = data.draw(st.integers(0, n + 2), label="start_row")
        stop = data.draw(
            st.one_of(st.none(), st.integers(0, n + 2)), label="stop_row"
        )
        batch_rows = data.draw(st.integers(1, 7), label="batch_rows")
        expected = list(
            memory.scan(batch_rows, start_row=start, stop_row=stop)
        )
        got = list(sql.scan(batch_rows, start_row=start, stop_row=stop))
        assert [len(b) for b in got] == [len(b) for b in expected]
        for ours, theirs in zip(got, expected):
            assert ours.tobytes() == theirs.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_scan_columns_matches_memory_table(self, data):
        schema = make_schema()
        batch = data.draw(table_data(schema))
        memory, sql = filled_pair(batch)
        columns = data.draw(
            st.lists(st.sampled_from(["x", "y", "color"]), min_size=1, max_size=3),
            label="columns",
        )
        start = data.draw(st.integers(0, len(batch) + 1), label="start_row")
        expected = list(memory.scan_columns(columns, 5, start_row=start))
        got = list(sql.scan_columns(columns, 5, start_row=start))
        assert [len(b) for b in got] == [len(b) for b in expected]
        for ours, theirs in zip(got, expected):
            assert ours.dtype == theirs.dtype
            for name in ours.dtype.names:
                assert ours[name].tobytes() == theirs[name].tobytes()


class TestTableContract:
    def test_create_append_open_round_trip(self, tmp_path):
        schema = make_schema()
        path = tmp_path / "train.db"
        rows = schema.empty(7)
        rows["x"] = np.arange(7, dtype=np.float64)
        rows["y"] = [0.5, np.nan, -np.inf, np.inf, 4.0, 5.0, 6.0]
        rows["color"] = [0, 1, 2, 3, 0, 1, 2]
        rows[CLASS_COLUMN] = [0, 1, 2, 0, 1, 2, 0]
        with SqlTable.create(path, schema) as table:
            table.append(rows)
            assert len(table) == 7
        with SqlTable.open(path) as reopened:
            assert reopened.schema == schema
            assert reopened.read_all().tobytes() == rows.tobytes()

    def test_open_missing_table_errors(self, tmp_path):
        schema = make_schema()
        SqlTable.create(tmp_path / "t.db", schema, name="other").close()
        with pytest.raises(StorageError, match="no BOAT training table"):
            SqlTable.open(tmp_path / "t.db", name="training")

    def test_open_non_boat_database_errors(self, tmp_path):
        path = tmp_path / "foreign.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(StorageError, match="not a BOAT SQL database"):
            SqlTable.open(path)

    def test_reserved_column_names_rejected(self):
        schema = Schema(
            [Attribute.numerical("RowId"), Attribute.numerical("x")],
            n_classes=2,
        )
        with pytest.raises(SchemaError, match="reserved"):
            SqlTable.create(":memory:", schema)

    def test_full_and_partial_scan_charging(self):
        schema = make_schema()
        io = IOStats()
        table = SqlTable.create(":memory:", schema, io_stats=io)
        batch = schema.empty(20)
        batch["x"] = batch["y"] = np.arange(20, dtype=np.float64)
        batch["color"] = 1
        batch[CLASS_COLUMN] = 0
        table.append(batch)
        io.reset()
        list(table.scan(8))
        assert io.full_scans == 1
        assert io.tuples_read == 20
        assert io.bytes_read == 20 * schema.dtype().itemsize
        io.reset()
        list(table.scan(8, start_row=5))
        assert io.full_scans == 0
        assert io.tuples_read == 15
        io.reset()
        # stop_row at the end still covers the whole table from row 0.
        list(table.scan(8, stop_row=20))
        assert io.full_scans == 1
        io.reset()
        list(table.scan_columns(["x"], 8))
        projected = schema.dtype()["x"].itemsize + schema.dtype()[CLASS_COLUMN].itemsize
        assert io.bytes_read == 20 * projected
        assert io.full_scans == 1

    def test_from_query_is_read_only(self):
        schema = Schema([Attribute.numerical("x")], n_classes=2)
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE src (x REAL, class_label INTEGER)")
        conn.executemany(
            "INSERT INTO src VALUES (?, ?)", [(float(i), i % 2) for i in range(9)]
        )
        conn.commit()
        table = SqlTable.from_query(
            conn,
            "SELECT x, class_label, rowid AS row_key FROM src",
            schema,
            order_sql="row_key",
        )
        assert len(table) == 9
        assert np.array_equal(table.read_all()["x"], np.arange(9.0))
        with pytest.raises(StorageError, match="read-only"):
            table.append(schema.empty(1))

    def test_reservoir_sample_over_sql_table(self):
        schema = make_schema()
        table = SqlTable.create(":memory:", schema)
        batch = schema.empty(200)
        rng = np.random.default_rng(0)
        batch["x"] = rng.uniform(0, 1, 200)
        batch["y"] = rng.uniform(0, 1, 200)
        batch["color"] = rng.integers(0, 4, 200, dtype=np.int32)
        batch[CLASS_COLUMN] = rng.integers(0, 3, 200, dtype=np.int32)
        table.append(batch)
        sample = reservoir_sample(
            table.scan(32), 50, schema, np.random.default_rng(1)
        )
        assert len(sample) == 50
        pool = {r.tobytes() for r in table.read_all()}
        assert all(r.tobytes() in pool for r in sample)

    def test_closed_table_rejects_use(self):
        table = SqlTable.create(":memory:", make_schema())
        table.close()
        with pytest.raises(StorageError):
            len(table)

    def test_unknown_dialect_errors(self):
        with pytest.raises(StorageError, match="unknown SQL dialect"):
            get_dialect("oracle")

    def test_gated_dialects_error_without_drivers(self):
        with pytest.raises(StorageError):
            get_dialect("postgres").connect("ignored")
        try:
            import duckdb  # noqa: F401
        except ImportError:
            with pytest.raises(StorageError, match="duckdb is not installed"):
                get_dialect("duckdb").connect(":memory:")


def fill_sql(schema, batch):
    table = SqlTable.create(":memory:", schema, io_stats=IOStats())
    if len(batch):
        table.append(batch)
    return table


class TestSqlAggregations:
    """Grouped queries ≡ numpy counting kernels, group by group."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_grouped_class_histograms(self, data):
        schema = make_schema()
        batch = data.draw(table_data(schema))
        table = fill_sql(schema, batch)
        agg = SqlAggregations(table)
        kernels = NumpyKernels()
        hists = agg.grouped_class_histograms('"color"', [], schema.n_classes)
        labels = batch[CLASS_COLUMN]
        for group in range(4):
            expected = kernels.class_histogram(
                labels[batch["color"] == group], schema.n_classes
            )
            got = hists.get(group, np.zeros(schema.n_classes, dtype=np.int64))
            assert np.array_equal(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_grouped_bucket_class_counts(self, data):
        schema = make_schema()
        batch = data.draw(table_data(schema))
        finite = np.unique(batch["x"][np.isfinite(batch["x"])])
        edges = data.draw(
            st.lists(
                st.sampled_from(list(finite)) if len(finite) else st.just(0.0),
                max_size=5,
                unique=True,
            ).map(sorted),
            label="edges",
        )
        groups = data.draw(
            st.sets(st.integers(0, 3), min_size=1), label="groups"
        )
        table = fill_sql(schema, batch)
        agg = SqlAggregations(table)
        got = agg.bucket_class_counts(
            "x", edges, schema.n_classes, '"color"', [], sorted(groups)
        )
        mask = np.isin(batch["color"], sorted(groups))
        expected = NumpyKernels().bucket_class_counts(
            np.asarray(edges, dtype=np.float64),
            batch["x"][mask],
            batch[CLASS_COLUMN][mask],
            schema.n_classes,
        )
        assert np.array_equal(got, expected)

    def test_grouped_category_class_counts(self):
        schema = make_schema()
        rng = np.random.default_rng(3)
        batch = schema.empty(300)
        batch["x"] = rng.uniform(-1, 1, 300)
        batch["y"] = rng.uniform(-1, 1, 300)
        batch["color"] = rng.integers(0, 4, 300, dtype=np.int32)
        batch[CLASS_COLUMN] = rng.integers(0, 3, 300, dtype=np.int32)
        table = fill_sql(schema, batch)
        per_group = SqlAggregations(table).grouped_category_class_counts(
            f'"{CLASS_COLUMN}" >= 0', [], "color", 4, schema.n_classes
        )
        # The constant group expression folds everything into group 1.
        expected = NumpyKernels().category_class_counts(
            batch["color"], batch[CLASS_COLUMN], 4, schema.n_classes
        )
        assert np.array_equal(per_group[1], expected)


def build_skeleton(schema, config):
    """Root CoarseNumeric on x → (CoarseCategorical on color, frontier)."""
    root = BoatNode(
        0,
        0,
        CoarseNumeric(0, 30.0, 60.0),
        schema,
        {0: np.array([10.0, 30.0, 60.0, 80.0]), 1: np.array([45.0])},
        config,
    )
    left = BoatNode(
        1,
        1,
        CoarseCategorical(2, frozenset({0, 2})),
        schema,
        {0: np.array([15.0]), 1: np.array([], dtype=np.float64)},
        config,
    )
    leaf_a = BoatNode(2, 2, None, schema, {}, config)
    leaf_b = BoatNode(3, 2, None, schema, {}, config)
    right = BoatNode(4, 1, None, schema, {}, config)
    root.left, root.right = left, right
    left.left, left.right = leaf_a, leaf_b
    left.parent = right.parent = root
    leaf_a.parent = leaf_b.parent = left
    return root


def skeleton_data(schema, n=400, seed=9):
    rng = np.random.default_rng(seed)
    batch = schema.empty(n)
    batch["x"] = rng.uniform(0, 100, n)
    batch["y"] = rng.uniform(0, 100, n)
    # Boundary values and NaN exercise the held-at-node routing and the
    # NULL bucket exactly where sqlite semantics could diverge.
    batch["x"][:6] = [30.0, 60.0, np.nan, 10.0, 80.0, 45.0]
    batch["y"][:3] = [45.0, np.nan, np.nan]
    batch["color"] = rng.integers(0, 4, n, dtype=np.int32)
    batch[CLASS_COLUMN] = rng.integers(0, 3, n, dtype=np.int32)
    return batch


class TestPushdownCleanup:
    def test_pushdown_matches_streamed_scan(self):
        schema = make_schema()
        config = BoatConfig()
        batch = skeleton_data(schema)
        streamed_root = build_skeleton(schema, config)
        pushdown_root = build_skeleton(schema, config)
        table = fill_sql(schema, batch)
        cleanup_scan(streamed_root, table, schema, batch_rows=64)
        sql_pushdown_scan(pushdown_root, table, schema, batch_rows=64)
        for ours, theirs in zip(pushdown_root.nodes(), streamed_root.nodes()):
            assert ours.node_id == theirs.node_id
            assert np.array_equal(ours.class_counts, theirs.class_counts)
            if theirs.below_counts is not None:
                assert np.array_equal(ours.below_counts, theirs.below_counts)
                assert np.array_equal(ours.above_counts, theirs.above_counts)
            assert ours.cat_counts.keys() == theirs.cat_counts.keys()
            for index in theirs.cat_counts:
                assert np.array_equal(
                    ours.cat_counts[index], theirs.cat_counts[index]
                )
            for index in theirs.bucket_counts:
                assert np.array_equal(
                    ours.bucket_counts[index], theirs.bucket_counts[index]
                )
            for store_name in ("held", "family_store"):
                theirs_store = getattr(theirs, store_name)
                if theirs_store is None:
                    continue
                assert (
                    getattr(ours, store_name).read_all().tobytes()
                    == theirs_store.read_all().tobytes()
                )

    def test_pushdown_counts_one_logical_scan(self):
        schema = make_schema()
        config = BoatConfig()
        root = build_skeleton(schema, config)
        io = IOStats()
        table = SqlTable.create(":memory:", schema, io_stats=io)
        table.append(skeleton_data(schema))
        io.reset()
        sql_pushdown_scan(root, table, schema, batch_rows=128)
        assert io.full_scans == 1
        assert io.tuples_read == 400

    @pytest.mark.parametrize("bounds", [{"start_row": 64}, {"stop_row": 200}])
    def test_pushdown_refuses_a_sub_range(self, bounds):
        schema = make_schema()
        root = build_skeleton(schema, BoatConfig())
        table = fill_sql(schema, skeleton_data(schema))
        with pytest.raises(ValueError, match="sub-range"):
            cleanup_scan(root, table, schema, 64, sql_pushdown=True, **bounds)
        assert root.n_tuples == 0

    def test_non_sql_table_falls_back_to_the_streamed_scan(self):
        schema = make_schema()
        batch = skeleton_data(schema)
        roots = []
        for pushdown in (False, True):
            root = build_skeleton(schema, BoatConfig())
            table = MemoryTable(schema, batch)
            cleanup_scan(root, table, schema, 64, sql_pushdown=pushdown)
            roots.append(root)
        for ours, theirs in zip(*(r.nodes() for r in roots)):
            assert np.array_equal(ours.class_counts, theirs.class_counts)
            for store_name in ("held", "family_store"):
                store = getattr(theirs, store_name)
                if store is not None:
                    assert (
                        getattr(ours, store_name).read_all().tobytes()
                        == store.read_all().tobytes()
                    )

    def test_routing_expression_parameter_order(self):
        schema = make_schema()
        root = build_skeleton(schema, BoatConfig())
        sql, params = routing_expression(root, schema, get_dialect("sqlite").quote)
        assert params == [30.0, 60.0]
        assert sql.count("CASE") == 2
        assert '"color" IN (0, 2)' in sql
