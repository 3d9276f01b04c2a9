"""A delete that names a row never inserted changes nothing.

``IncrementalBoat.delete`` locates every retracted row in every touched
store before it retracts a count or removes a row, so a refused delete
raises :class:`StorageError` and leaves the counts, the stores, ``n_rows``
and the tree exactly as they were — and the next update is still exact.
The streaming service then fails only that update and stays healthy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import IncrementalBoat
from repro.exceptions import StorageError, StreamError
from repro.serve import ServeConfig
from repro.splits import ImpuritySplitSelection
from repro.storage import MemoryTable
from repro.stream import StreamConfig, StreamService
from repro.tree import build_reference_tree, tree_diff

from .conftest import simple_xy_data

GINI = ImpuritySplitSelection("gini")
SPLIT = SplitConfig(min_samples_split=40, min_samples_leaf=10, max_depth=8)
#: Small scan batches, so one delete spans several batches.
BOAT = BoatConfig(sample_size=800, bootstrap_repetitions=6, seed=2, batch_rows=100)


def refused_chunk(schema, base: np.ndarray, valid_rows: int) -> np.ndarray:
    """``valid_rows`` stored rows followed by one row never inserted."""
    foreign = simple_xy_data(schema, 1, seed=999)
    foreign["y"] = -12345.0
    return np.concatenate([base[:valid_rows], foreign])


def snapshot(inc: IncrementalBoat) -> list:
    """Every node's statistics and store bytes, in preorder."""
    state = []
    for node in inc.skeleton.nodes():
        arrays = [node.class_counts]
        arrays += [node.cat_counts[i] for i in sorted(node.cat_counts)]
        arrays += [node.bucket_counts[i] for i in sorted(node.bucket_counts)]
        arrays += [a for a in (node.below_counts, node.above_counts) if a is not None]
        stores = [s.read_all() for s in (node.held, node.family_store) if s is not None]
        state.append(
            (node.node_id, [a.tobytes() for a in arrays], [s.tobytes() for s in stores])
        )
    return state


@pytest.mark.parametrize("valid_rows", [0, 250])
def test_refused_delete_leaves_the_maintainer_unchanged(small_schema, valid_rows):
    base = simple_xy_data(small_schema, 3000, seed=12, rule="xy")
    inc = IncrementalBoat.build(MemoryTable(small_schema, base), GINI, SPLIT, BOAT)
    before, tree = snapshot(inc), inc.tree
    with pytest.raises(StorageError):
        inc.delete(refused_chunk(small_schema, base, valid_rows))
    assert snapshot(inc) == before
    assert inc.n_rows == inc.stored_rows() == 3000
    assert int(inc.skeleton.class_counts.sum()) == 3000
    assert tree_diff(inc.tree, tree) is None

    chunk = simple_xy_data(small_schema, 400, seed=13, rule="xy")
    inc.insert(chunk)
    reference = build_reference_tree(
        np.concatenate([base, chunk]), small_schema, GINI, SPLIT
    )
    assert tree_diff(inc.tree, reference) is None
    inc.close()


@pytest.mark.parametrize("valid_rows", [0, 250])
def test_service_fails_the_update_and_stays_healthy(small_schema, valid_rows):
    base = simple_xy_data(small_schema, 3000, seed=12, rule="xy")
    maintainer = IncrementalBoat.from_chunk(base, small_schema, GINI, SPLIT, BOAT)
    service = StreamService(
        maintainer,
        StreamConfig(serve=ServeConfig(max_batch_size=512, max_delay_ms=1.0)),
    )
    with service:
        with pytest.raises(StreamError):
            service.update("delete", refused_chunk(small_schema, base, valid_rows))
        assert service.loop.degraded is None
        assert service.version == 1
        assert maintainer.n_rows == maintainer.stored_rows() == 3000

        chunk = simple_xy_data(small_schema, 400, seed=13, rule="xy")
        service.update("insert", chunk)
        assert service.version == 2
        assert int(maintainer.skeleton.class_counts.sum()) == 3400
        reference = build_reference_tree(
            np.concatenate([base, chunk]), small_schema, GINI, SPLIT
        )
        assert tree_diff(maintainer.tree, reference) is None
        probe = simple_xy_data(small_schema, 200, seed=50)
        assert service.predict(probe).tobytes() == reference.predict(probe).tobytes()
    maintainer.close()
