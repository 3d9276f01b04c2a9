"""Out-of-core storage substrate: schemas, tables, spills, sampling, I/O stats."""

from .io_stats import IOStats
from .sampling import (
    bootstrap_indices,
    bootstrap_resample,
    choose_sample_indices,
    gather_rows,
    reservoir_sample,
    sample_known_size,
    sample_table,
    split_into_chunks,
)
from .schema import CLASS_COLUMN, Attribute, AttributeKind, Schema
from .sharded import (
    ShardedTable,
    ShardManifest,
    partition_table,
    replicate_shards,
    reshard,
    schema_digest,
)
from .spill import SpillFile, TupleStore
from .sql import SqlDialect, SqliteDialect, SqlTable, get_dialect
from .table import (
    DiskTable,
    MemoryTable,
    Table,
    bounded_scan,
    read_json_sidecar,
    write_json_sidecar,
)
from .csv_io import CategoryEncoder, infer_schema, read_csv, write_csv
from .testing import FAULT_KINDS, FaultyTable
from .views import Dimension, StarJoinView, materialize_view

__all__ = [
    "Attribute",
    "AttributeKind",
    "CLASS_COLUMN",
    "CategoryEncoder",
    "Dimension",
    "DiskTable",
    "FAULT_KINDS",
    "FaultyTable",
    "IOStats",
    "MemoryTable",
    "Schema",
    "ShardManifest",
    "ShardedTable",
    "SpillFile",
    "SqlDialect",
    "SqlTable",
    "SqliteDialect",
    "StarJoinView",
    "Table",
    "TupleStore",
    "bounded_scan",
    "get_dialect",
    "materialize_view",
    "bootstrap_indices",
    "bootstrap_resample",
    "choose_sample_indices",
    "gather_rows",
    "infer_schema",
    "partition_table",
    "read_csv",
    "read_json_sidecar",
    "replicate_shards",
    "reshard",
    "reservoir_sample",
    "sample_known_size",
    "sample_table",
    "schema_digest",
    "split_into_chunks",
    "write_csv",
    "write_json_sidecar",
]
