"""Task functions executed inside worker processes (or threads).

Process workers cannot share the parent's heap, so everything a task
needs is either shipped once per worker through the pool initializer
(:func:`init_build_context` — the in-memory sample, schema, method and
split configuration) or carried in the task's own picklable arguments.
Trees travel back as the plain dicts of :mod:`repro.tree.serialize`,
whose ``float.hex`` encoding preserves split points bit for bit.

The same functions run unchanged under the thread and serial backends:
there the initializer runs once in the parent and the "transport"
serialization is a cheap identity-preserving round trip, keeping every
backend on one code path (and therefore bit-identical).
"""

from __future__ import annotations

import numpy as np

from ..config import SplitConfig, config_at_depth
from ..storage import Schema, bootstrap_resample
from ..tree import build_reference_tree, tree_to_dict
from .state import BoatMethod

#: Per-worker build context, set by :func:`init_build_context`.
_CONTEXT: dict = {}


def init_build_context(
    sample: np.ndarray,
    schema: Schema,
    method: BoatMethod,
    split_config: SplitConfig,
    subsample: int,
) -> None:
    """Pool initializer: stash the shared build state in this worker."""
    _CONTEXT["sample"] = sample
    _CONTEXT["schema"] = schema
    _CONTEXT["method"] = method
    _CONTEXT["split_config"] = split_config
    _CONTEXT["subsample"] = subsample


def bootstrap_trees_task(seed_children: list[np.random.SeedSequence]) -> list[dict]:
    """Grow one bootstrap tree per seed child; return serialized trees.

    This is the per-repetition bootstrap of the methods the lock-step
    grower does not reproduce (QUEST, the ``python`` backend, subclasses
    with their own ``choose_split``).

    Each repetition gets its own generator seeded from a deterministically
    spawned :class:`~numpy.random.SeedSequence` child, so the resample —
    and therefore the tree — depends only on the child, never on which
    worker ran it or in what order.
    """
    sample = _CONTEXT["sample"]
    subsample = _CONTEXT["subsample"]
    out = []
    for child in seed_children:
        rng = np.random.default_rng(child)
        resample = bootstrap_resample(sample, subsample, rng)
        tree = build_reference_tree(
            resample, _CONTEXT["schema"], _CONTEXT["method"], _CONTEXT["split_config"]
        )
        out.append(tree_to_dict(tree))
    return out


def frontier_subtree_task(item: tuple[np.ndarray, int]) -> dict:
    """Finish one frontier family in memory; return the serialized subtree.

    ``item`` is ``(family, depth)`` — the depth positions the subtree's
    remaining ``max_depth`` budget exactly as an inline completion would.
    """
    family, depth = item
    tree = build_reference_tree(
        family,
        _CONTEXT["schema"],
        _CONTEXT["method"],
        config_at_depth(_CONTEXT["split_config"], depth),
    )
    return tree_to_dict(tree)
