"""Elastic shard dispatch: failover, retries, speculation, work units.

The plain coordinator (``repro.shard.coordinator``) dispatches one
request per shard and aborts the build on the first delivery failure.
This module upgrades dispatch to an **elastic** model built on one fact
about shard requests: :func:`repro.shard.worker.execute_shard_request`
is a pure function of (shard file, request), so any attempt may be
retried, re-routed, or raced against a duplicate without changing the
result — the statistics a unit returns are identical no matter which
placement produced them, and applying them once is idempotent by
construction (first result wins, duplicates are discarded).

Three capabilities, all driven by :class:`ElasticDispatcher`:

* **Failover** — when an attempt fails to deliver (TCP drop, dead pool
  worker, killed shard server) or comes back as an ``error`` verdict,
  the work unit is relaunched on its next placement: the transport
  primary again, a replica copy from the manifest
  (:func:`repro.storage.replicate_shards`), and finally a coordinator-
  local re-read of the source partition.  Attempts are bounded by a
  :class:`~repro.recovery.retry.RetryPolicy` and surfaced as
  ``shard_failover`` trace spans.  Only when *every* placement of a unit
  is exhausted does the build fail — with a single clean
  :class:`~repro.exceptions.ShardError` naming each dead unit.
* **Speculation** — a unit whose attempt has been running longer than
  ``speculate_after_s`` gets a backup attempt on its next placement;
  whichever finishes first wins, the loser is drained and discarded
  (``duplicates_discarded``) before the dispatcher returns, so no
  speculative attempt can spill after the coordinator sweeps scratch.
* **Work units** — dispatch operates on :class:`WorkUnit`\\ s: a global
  row interval ``[lo, hi)`` mapped onto one shard's local row range.  A
  fresh build uses whole-shard units; a resumed build dispatches only
  the *uncovered complement* of its checkpoint
  (:func:`repro.recovery.uncovered_intervals`), intersected with the
  current shard boundaries — which is what makes a checkpoint taken at
  K shards resumable at K' after :func:`repro.storage.reshard`
  (:func:`~repro.shard.coordinator.resume_sharded_build`).

Checkpointing hooks in at the unit level: the dispatcher's ``on_result``
callback fires on the driving thread the moment a unit wins, so
:meth:`~repro.recovery.CheckpointManager.checkpoint_unit` persists
completed intervals as they land and a SIGKILL'd coordinator never
re-scans a completed unit on resume.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable

from ..exceptions import ShardError
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..recovery.retry import RetryPolicy
from .stats import ShardVerdict
from .transport import ShardTransport
from .worker import execute_shard_request

#: Exceptions an attempt may raise that mean "delivery failed, the shard
#: may be fine" — these trigger failover, not a build abort.  Shard-side
#: failures never raise: they come back as ``error``-status responses
#: (see ``repro.shard.worker``).
DELIVERY_FAILURES = (ShardError, OSError, EOFError, pickle.PickleError)


@dataclass(frozen=True)
class ElasticPolicy:
    """Knobs for elastic dispatch.

    The default policy turns failover *on*: a shard death mid-cleanup is
    recovered from replicas or the source partition instead of aborting
    the build.  ``ElasticPolicy(failover=False, local_fallback=False)``
    restores the strict one-attempt behaviour of the plain coordinator.
    """

    #: Relaunch failed units on their next placement.
    failover: bool = True
    #: Allow the coordinator to re-read the source partition locally as
    #: the placement of last resort (after transport primary + replicas).
    local_fallback: bool = True
    #: Bounds total attempts per unit (``max_retries + 1``) and paces
    #: relaunches with exponential backoff.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Launch a backup attempt for a unit still running after this many
    #: seconds (``None`` disables speculation).
    speculate_after_s: float | None = None
    #: Cap on backup attempts per unit.
    max_speculative_per_unit: int = 1

    def attempt_budget(self, n_placements: int) -> int:
        """Total attempts a unit may consume before it is exhausted."""
        budget = self.retry.max_retries + 1 if self.failover else 1
        if self.speculate_after_s is not None:
            budget += self.max_speculative_per_unit
        return max(budget, 1)


@dataclass(frozen=True)
class WorkUnit:
    """One dispatchable slice of the cleanup (or sample) scan.

    ``[lo, hi)`` is the unit's *global* row interval; ``local_start`` /
    ``local_stop`` are the same interval in shard-local rows
    (``local_stop=None`` means "to the shard's end", preserving the
    whole-shard scan's ``full_scans`` accounting).
    """

    shard_id: int
    lo: int
    hi: int
    local_start: int = 0
    local_stop: int | None = None

    @property
    def rows(self) -> int:
        return self.hi - self.lo


def whole_shard_units(offsets: list[int]) -> list[WorkUnit]:
    """One whole-shard unit per shard (the fresh build's unit plan)."""
    return [
        WorkUnit(shard_id=i, lo=offsets[i], hi=offsets[i + 1])
        for i in range(len(offsets) - 1)
    ]


def units_for_intervals(
    intervals: list[tuple[int, int]], offsets: list[int]
) -> list[WorkUnit]:
    """Intersect global row intervals with shard ranges into work units.

    This is the resume planner: the uncovered complement of a checkpoint
    is cut at the *current* shard boundaries — which may differ from the
    boundaries the checkpoint was taken under, because units are keyed
    by global interval and :func:`repro.storage.reshard` preserves global
    row order.  A unit that happens to cover its whole shard is emitted
    as ``(0, None)`` so the shard still records one full scan.
    """
    units: list[WorkUnit] = []
    for lo, hi in intervals:
        for shard_id in range(len(offsets) - 1):
            shard_lo, shard_hi = offsets[shard_id], offsets[shard_id + 1]
            take_lo, take_hi = max(lo, shard_lo), min(hi, shard_hi)
            if take_lo >= take_hi:
                continue
            whole = take_lo == shard_lo and take_hi == shard_hi
            units.append(
                WorkUnit(
                    shard_id=shard_id,
                    lo=take_lo,
                    hi=take_hi,
                    local_start=take_lo - shard_lo,
                    local_stop=None if whole else take_hi - shard_lo,
                )
            )
    units.sort(key=lambda unit: unit.lo)
    return units


@dataclass(frozen=True)
class Placement:
    """One way to execute a unit's request: a name plus an executor."""

    name: str
    execute: Callable[[dict], dict]


def unit_placements(
    unit: WorkUnit,
    transport: ShardTransport,
    shard_paths: list[str],
    replica_paths: list[list[str]],
    policy: ElasticPolicy,
) -> list[Placement]:
    """The ordered placements a unit fails over across.

    ``[transport primary, replica copies..., local source re-read]`` —
    fallbacks are only materialized when the policy can use them
    (failover or speculation on).  The local re-read is skipped for the
    in-process transport, whose primary *is* a local read of the same
    file, and replicas are opened lazily at attempt time, so a missing
    replica file is an attempt failure rather than a dispatch error.
    """
    shard_id = unit.shard_id
    placements = [
        Placement(
            name=f"{transport.name}:{shard_id}",
            execute=lambda request: transport.request_one(shard_id, request),
        )
    ]
    if not policy.failover and policy.speculate_after_s is None:
        return placements
    replicas = (
        replica_paths[shard_id] if shard_id < len(replica_paths) else []
    )
    for path in replicas:
        placements.append(
            Placement(
                name=f"replica:{path}",
                execute=lambda request, path=path: execute_shard_request(
                    path, request
                ),
            )
        )
    if policy.local_fallback and transport.name != "inprocess":
        path = shard_paths[shard_id]
        placements.append(
            Placement(
                name=f"local:{path}",
                execute=lambda request, path=path: execute_shard_request(
                    path, request
                ),
            )
        )
    return placements


class ElasticDispatcher:
    """Drives a set of work units to completion across their placements.

    One :class:`~concurrent.futures.ThreadPoolExecutor` carries every
    in-flight attempt; the driving thread settles completions as they
    land (``as_completed`` semantics via :func:`concurrent.futures.wait`
    on ``FIRST_COMPLETED``), relaunches failures, and launches backups
    for stragglers.  First result wins per unit; late duplicates are
    drained and counted before :meth:`run` returns, so the caller's
    scratch sweep races nothing.

    Counters (read after :meth:`run`): ``failovers`` — failure-triggered
    relaunches; ``speculative_launches`` — straggler backups;
    ``duplicates_discarded`` — completed attempts whose unit had already
    resolved; ``recovered_units`` — units won by a non-first attempt.
    """

    def __init__(
        self,
        units: list[WorkUnit],
        transport: ShardTransport,
        shard_paths: list[str],
        replica_paths: list[list[str]] | None = None,
        policy: ElasticPolicy | None = None,
        tracer: Tracer | NullTracer = NULL_TRACER,
    ):
        self._units = list(units)
        self._policy = policy or ElasticPolicy()
        self._tracer = tracer
        self._placements = [
            unit_placements(
                unit, transport, shard_paths, replica_paths or [], self._policy
            )
            for unit in self._units
        ]
        n = len(self._units)
        self._responses: list[dict | None] = [None] * n
        self._verdict_slots: list[ShardVerdict | None] = [None] * n
        self._failures: list[list[str]] = [[] for _ in range(n)]
        self._launched = [0] * n
        self._inflight = [0] * n
        self._speculated = [0] * n
        self._exhausted = [False] * n
        self._last_launch = [0.0] * n
        self._futures: dict = {}
        self._pending = n
        #: Per-unit verdicts in unit order (ok winners + exhaustions).
        self.verdicts: list[ShardVerdict] = []
        self.failovers = 0
        self.speculative_launches = 0
        self.duplicates_discarded = 0
        self.recovered_units = 0

    # -- attempt lifecycle --------------------------------------------------

    def _budget(self, index: int) -> int:
        return self._policy.attempt_budget(len(self._placements[index]))

    def _placement_for(self, index: int, attempt: int) -> Placement:
        placements = self._placements[index]
        return placements[min(attempt, len(placements) - 1)]

    def _launch(
        self,
        executor: ThreadPoolExecutor,
        index: int,
        request: dict,
        speculative: bool,
    ) -> None:
        attempt = self._launched[index]
        placement = self._placement_for(index, attempt)
        # Failure-triggered relaunches back off per the retry policy;
        # first attempts and speculative backups go out immediately.
        delay = 0.0
        if attempt > 0 and not speculative:
            delay = self._policy.retry.delay(attempt)
        self._launched[index] += 1
        self._inflight[index] += 1
        self._last_launch[index] = time.monotonic()
        future = executor.submit(_attempt, placement, request, delay)
        self._futures[future] = (index, attempt, placement, speculative)

    def _settle(self, future, requests, executor, on_result) -> None:
        index, attempt, placement, speculative = self._futures.pop(future)
        self._inflight[index] -= 1
        unit = self._units[index]
        response: dict | None = None
        failure: str | None = None
        try:
            response = future.result()
        except DELIVERY_FAILURES as exc:
            failure = f"{placement.name}: {type(exc).__name__}: {exc}"
        if self._responses[index] is not None or self._exhausted[index]:
            # First result won already: this is a speculation loser or a
            # post-exhaustion straggler — discard, never merge.
            self.duplicates_discarded += 1
            return
        if response is not None and response.get("status") == "ok":
            self._responses[index] = response
            self._pending -= 1
            verdict = response.get("verdict")
            if verdict is None:
                verdict = ShardVerdict(unit.shard_id, ok=True)
            self._verdict_slots[index] = verdict
            if attempt > 0 or speculative:
                self.recovered_units += 1
            if on_result is not None:
                on_result(index, response)
            return
        if failure is None:
            verdict = response.get("verdict") if response else None
            reason = (
                verdict.reason
                if verdict is not None and verdict.reason
                else "shard returned an error"
            )
            failure = f"{placement.name}: {reason}"
        self._failures[index].append(failure)
        self._tracer.event(
            "shard_attempt_failed",
            shard=unit.shard_id,
            lo=unit.lo,
            hi=unit.hi,
            attempt=attempt,
            detail=failure,
        )
        if self._launched[index] < self._budget(index):
            self.failovers += 1
            next_placement = self._placement_for(index, self._launched[index])
            if self._tracer.enabled:
                span = self._tracer.worker_span(
                    "shard_failover",
                    shard=unit.shard_id,
                    lo=unit.lo,
                    hi=unit.hi,
                    attempt=self._launched[index],
                    placement=next_placement.name,
                )
                self._tracer.adopt(span)
            self._launch(executor, index, requests[index], speculative=False)
        elif self._inflight[index] == 0:
            self._exhausted[index] = True
            self._pending -= 1
            self._verdict_slots[index] = ShardVerdict(
                unit.shard_id,
                ok=False,
                reason=(
                    f"all {len(self._placements[index])} placement(s) "
                    f"exhausted after {self._launched[index]} attempt(s) — "
                    f"{self._failures[index][-1]}"
                ),
            )

    def _maybe_speculate(self, executor, requests) -> None:
        after = self._policy.speculate_after_s
        if after is None:
            return
        now = time.monotonic()
        for index, unit in enumerate(self._units):
            if self._responses[index] is not None or self._exhausted[index]:
                continue
            if self._inflight[index] != 1:
                continue
            if self._speculated[index] >= self._policy.max_speculative_per_unit:
                continue
            if self._launched[index] >= self._budget(index):
                continue
            if len(self._placements[index]) <= 1:
                continue
            if now - self._last_launch[index] < after:
                continue
            self._speculated[index] += 1
            self.speculative_launches += 1
            backup = self._placement_for(index, self._launched[index])
            self._tracer.event(
                "shard_speculate",
                shard=unit.shard_id,
                lo=unit.lo,
                hi=unit.hi,
                placement=backup.name,
            )
            if self._tracer.enabled:
                span = self._tracer.worker_span(
                    "shard_speculate",
                    shard=unit.shard_id,
                    lo=unit.lo,
                    hi=unit.hi,
                    placement=backup.name,
                )
                self._tracer.adopt(span)
            self._launch(executor, index, requests[index], speculative=True)

    # -- driving loop -------------------------------------------------------

    def run(
        self,
        requests: list[dict],
        on_result: Callable[[int, dict], None] | None = None,
    ) -> list[dict]:
        """Drive every unit to a result; responses in unit order.

        ``on_result(index, response)`` fires on the driving thread the
        moment unit ``index`` resolves successfully — the checkpoint
        hook.  Raises one :class:`~repro.exceptions.ShardError` naming
        every unit whose placements were all exhausted (after *all*
        units have resolved one way or the other, so the error reflects
        the whole round, not the first casualty).
        """
        n = len(self._units)
        if len(requests) != n:
            raise ShardError(
                f"dispatcher has {n} unit(s) but received "
                f"{len(requests)} request(s)"
            )
        if n == 0:
            return []
        after = self._policy.speculate_after_s
        tick = None if after is None else min(max(after / 4.0, 0.01), 0.25)
        executor = ThreadPoolExecutor(
            max_workers=max(2, min(32, 2 * n)),
            thread_name_prefix="elastic-shard",
        )
        try:
            for index in range(n):
                self._launch(executor, index, requests[index], speculative=False)
            while self._pending:
                done, _ = wait(
                    set(self._futures),
                    timeout=tick,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    self._settle(future, requests, executor, on_result)
                self._maybe_speculate(executor, requests)
        finally:
            # Wait out (or cancel) every straggler before returning:
            # a speculative loser must not spill into scratch after the
            # caller's sweep.  shutdown(wait=True) blocks on running
            # attempts; queued ones are cancelled.
            executor.shutdown(wait=True, cancel_futures=True)
            for future in list(self._futures):
                self._drain(future)
            self._futures.clear()
            self.verdicts = [v for v in self._verdict_slots if v is not None]
        failed = [i for i in range(n) if self._exhausted[i]]
        if failed:
            parts = [
                f"shard {self._units[i].shard_id} rows "
                f"[{self._units[i].lo}, {self._units[i].hi}): "
                f"{self._verdict_slots[i].reason}"
                for i in failed
            ]
            raise ShardError(
                f"{len(failed)} of {n} shard work unit(s) failed "
                f"permanently — " + "; ".join(parts)
            )
        return [response for response in self._responses if response is not None]

    def _drain(self, future) -> None:
        index, *_ = self._futures[future]
        if not future.cancelled():
            try:
                future.exception()
            except CancelledError:
                pass
            if self._responses[index] is not None:
                self.duplicates_discarded += 1


def _attempt(placement: Placement, request: dict, delay: float) -> dict:
    if delay > 0:
        time.sleep(delay)
    return placement.execute(request)
