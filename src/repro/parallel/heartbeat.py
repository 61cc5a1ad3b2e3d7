"""Worker heartbeats: live progress, straggler and silence detection.

The process-parallel engine's workers are invisible between fork and
join — a stalled worker used to mean the parent blocked forever in
``result_queue.get()`` with nothing on screen.  This module is the
parent-side fix:

* workers publish a tiny :class:`Heartbeat` record on a dedicated
  multiprocessing queue at start, after every chunk, and at drain;
* the parent's monitor loop drains that queue into a
  :class:`HeartbeatMonitor`, which folds per-worker progress into the
  telemetry pipeline (as a tick provider — the ``workers`` section
  ``repro top`` renders) and runs two detections per poll:

  1. **straggler** — a live worker whose chunk progress has fallen below
     a configurable fraction of the median worker's progress is flagged
     once: ``parallel.straggler`` counter + ``parallel.straggler`` trace
     instant.  The run still completes; the flag is for the operator and
     the imbalance analytics.
  2. **silence** — a worker that has not heartbeat for longer than the
     policy deadline is presumed hung; the monitor raises
     :class:`~repro.errors.ParallelError` so the run fails *now*, with a
     message naming the worker, instead of hanging at join.

Detection thresholds live in :class:`StragglerPolicy`, which also
carries the fault-injection hooks the tests use to make a worker slow or
silent on demand.  Heartbeats are wall-clock by nature and the whole
channel is opt-in: sim-clock runs and the determinism gates never see
it.
"""

from __future__ import annotations

import queue as queue_mod
from dataclasses import dataclass, replace
from statistics import median
from typing import Mapping

from repro.errors import ParallelError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import EventTracer

__all__ = ["Heartbeat", "HeartbeatMonitor", "StragglerPolicy"]


@dataclass(frozen=True)
class Heartbeat:
    """One worker progress report.  Plain data — crosses a process
    boundary by pickle, so keep it tiny and stable."""

    worker_id: int
    chunks_done: int = 0
    ops: int = 0
    steals: int = 0
    #: Seconds since the run anchor (the parent's ``perf_counter`` epoch).
    ts: float = 0.0
    #: True on the final beat, after the worker drained the task queue.
    done: bool = False


@dataclass(frozen=True)
class StragglerPolicy:
    """Detection thresholds and fault-injection hooks.

    ``fraction`` and ``min_chunks`` tune the imbalance detector: a
    worker is a straggler when the median worker has finished at least
    ``min_chunks`` chunks and this worker has finished fewer than
    ``fraction * median`` (workers that finished without taking a chunk
    are left out of the median).  ``grace`` suppresses that detector for the
    first seconds of a run — at startup the fastest worker can lap the
    others before they even fetch a task, which is scheduling noise, not
    imbalance.  ``deadline`` (seconds of heartbeat silence) arms the
    hang detector; ``None`` leaves it off, so a monitor used purely for
    live progress can never kill a run.  The grace period does *not*
    gate the deadline detector: a hang is a hang from second zero.

    ``inject_worker`` / ``inject_chunk_delay`` are test hooks: the
    engine makes worker ``inject_worker`` sleep ``inject_chunk_delay``
    seconds per chunk.  A sleeping worker stops beating, so a delay
    modest next to the deadline yields a flagged-but-finishing
    straggler, while a delay past the deadline yields the hang path —
    the fault matrix gets both deterministically without patching the
    worker code.
    """

    poll_interval: float = 0.05
    fraction: float = 0.5
    grace: float = 1.0
    deadline: float | None = None
    min_chunks: int = 2
    inject_worker: int | None = None
    inject_chunk_delay: float = 0.0


class HeartbeatMonitor:
    """Parent-side fold of worker heartbeats into telemetry + detection.

    Single-threaded by design: the engine's monitor loop owns
    :meth:`drain` and :meth:`check`, while the telemetry sampler (possibly
    on its background thread) reads :meth:`provider` — so state access
    takes a lock, but no method holds it while calling out.
    """

    def __init__(
        self,
        policy: StragglerPolicy,
        *,
        workers: int,
        total_chunks: int,
        registry: MetricsRegistry | None = None,
        tracer: EventTracer | None = None,
    ):
        import threading

        self.policy = policy
        self.workers = workers
        self.total_chunks = total_chunks
        self.registry = registry
        self.tracer = tracer
        self._lock = threading.Lock()
        self._latest: dict[int, Heartbeat] = {
            worker_id: Heartbeat(worker_id=worker_id)
            for worker_id in range(workers)
        }
        self._seen: dict[int, bool] = {w: False for w in range(workers)}
        self._flagged: set[int] = set()

    # -- ingest ---------------------------------------------------------------

    def observe(self, beat: Heartbeat) -> None:
        """Fold one heartbeat into the per-worker state."""
        with self._lock:
            known = self._latest.get(beat.worker_id)
            # A late-arriving beat never rolls progress backwards.
            if known is not None and known.chunks_done > beat.chunks_done:
                beat = replace(beat, chunks_done=known.chunks_done,
                               done=known.done or beat.done)
            if known is not None and known.done:
                beat = replace(beat, done=True)
            self._latest[beat.worker_id] = beat
            self._seen[beat.worker_id] = True
        if self.registry is not None:
            self.registry.counter("parallel.heartbeats").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "parallel.heartbeat", ts=beat.ts,
                track=f"parallel/w{beat.worker_id}",
                worker=beat.worker_id, chunks=beat.chunks_done,
                done=beat.done,
            )

    def drain(self, hb_queue) -> int:
        """Drain every pending heartbeat from *hb_queue*; returns count."""
        drained = 0
        while True:
            try:
                beat = hb_queue.get_nowait()
            except queue_mod.Empty:
                return drained
            self.observe(beat)
            drained += 1

    # -- detection ------------------------------------------------------------

    def check(self, now: float) -> list[int]:
        """Run both detections at time *now*; returns newly flagged workers.

        Raises :class:`ParallelError` when a worker has been silent past
        the policy deadline — after flagging it, so the straggler counter
        and trace event land even on the failing path.
        """
        with self._lock:
            beats = dict(self._latest)
            seen = dict(self._seen)
        # A worker that finished without a single chunk found the queue
        # already empty: it says nothing about typical throughput, and
        # counting it pins the median at zero whenever one fast worker
        # drains the queue before its peers start.
        progress = [beat.chunks_done for beat in beats.values()
                    if beat.chunks_done or not beat.done]
        typical = median(progress) if progress else 0
        newly: list[int] = []
        hung: tuple[int, float] | None = None
        for worker_id, beat in sorted(beats.items()):
            if beat.done:
                continue
            silence = now - beat.ts if seen[worker_id] else now
            # The deadline detection runs even for already-flagged
            # workers: a straggler that then goes fully silent must
            # still fail the run.
            if (self.policy.deadline is not None
                    and silence > self.policy.deadline):
                if worker_id not in self._flagged:
                    self._flag(worker_id, beat, now, reason="silent",
                               silence=silence)
                    newly.append(worker_id)
                if hung is None:
                    hung = (worker_id, silence)
                continue
            if worker_id in self._flagged:
                continue
            if (now >= self.policy.grace
                    and typical >= self.policy.min_chunks
                    and beat.chunks_done < self.policy.fraction * typical):
                self._flag(worker_id, beat, now, reason="behind",
                           median=typical)
                newly.append(worker_id)
        if hung is not None:
            worker_id, silence = hung
            raise ParallelError(
                f"worker w{worker_id} has sent no heartbeat for "
                f"{silence:.2f}s (deadline {self.policy.deadline:.2f}s); "
                f"presumed hung"
            )
        return newly

    def _flag(self, worker_id: int, beat: Heartbeat, now: float, *,
              reason: str, **detail) -> None:
        self._flagged.add(worker_id)
        if self.registry is not None:
            self.registry.counter("parallel.straggler").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "parallel.straggler", ts=now,
                track=f"parallel/w{worker_id}",
                worker=worker_id, reason=reason,
                chunks=beat.chunks_done, **detail,
            )

    def mark_done(self, worker_id: int) -> None:
        """Record that *worker_id*'s final report arrived (join-safe)."""
        with self._lock:
            beat = self._latest[worker_id]
            self._latest[worker_id] = replace(beat, done=True)
            self._seen[worker_id] = True

    # -- exposition -----------------------------------------------------------

    @property
    def flagged(self) -> frozenset[int]:
        with self._lock:
            return frozenset(self._flagged)

    def chunks_done(self) -> int:
        with self._lock:
            return sum(beat.chunks_done for beat in self._latest.values())

    def all_done(self) -> bool:
        with self._lock:
            return all(beat.done for beat in self._latest.values())

    def provider(self, now: float) -> Mapping:
        """The telemetry tick's ``workers`` section (see ``render_top``)."""
        with self._lock:
            beats = dict(self._latest)
            seen = dict(self._seen)
            flagged = set(self._flagged)
        per: dict[str, dict] = {}
        for worker_id, beat in sorted(beats.items()):
            if beat.done:
                status = "done"
            elif worker_id in flagged:
                status = "straggler"
            else:
                status = "run"
            per[str(worker_id)] = {
                "chunks": beat.chunks_done,
                "ops": beat.ops,
                "steals": beat.steals,
                "age": round(now - beat.ts, 6) if seen[worker_id] else None,
                "status": status,
            }
        return {
            "per": per,
            "chunks_done": sum(b.chunks_done for b in beats.values()),
            "total_chunks": self.total_chunks,
            "stragglers": len(flagged),
        }
