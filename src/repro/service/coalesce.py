"""In-flight request coalescing keyed on content fingerprints.

The exploration service's contract is that *identical work runs once*:
when several clients ask for the same sweep — same kernels, same grid,
same device axes, byte-identical canonical configuration — exactly one
underlying computation executes and every client streams its results.
Two layers make that hold regardless of how the requests interleave:

:class:`CoalescedTask`
    One underlying computation.  Its event log holds each event's
    canonical NDJSON line as bytes, encoded once by the *leader* (the
    request that arrived first), which publishes lines as points complete
    and finishes the task with the final report line; *followers* attach
    to the task and replay its log — lines already published arrive
    immediately, later ones as the leader lands them (a
    ``threading.Condition`` broadcast per publish).

:class:`RequestCoalescer`
    The registry.  ``lease(key)`` hands back the in-flight task for
    ``key`` (role ``follower``), a completed task from the bounded
    results cache (role ``replay``), or a fresh task the caller must
    drive (role ``leader``).  The results cache is what makes the
    "exactly one sweep" guarantee *deterministic*: a second identical
    request arriving a microsecond after the first completed still joins
    the original computation instead of starting its own.

Failures are never cached — a leader that raises poisons only the
clients already attached; the next request for the same key becomes a
fresh leader and retries.

A *transient* leader failure need not poison anyone: ``abandon(...,
promote=True)`` marks the leadership lost instead of the task dead, and
a waiting follower claims it and recomputes.  The computation is
deterministic, so the promoted leader's republished events are
byte-identical to the originals — :meth:`CoalescedTask.publish` skips
the already-published prefix and every client's stream continues
seamlessly from wherever the dead leader stopped.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.cost.cache import BoundedCache
from repro.resilience import MetricFamily

__all__ = ["CoalescedTask", "RequestCoalescer", "TaskFailedError"]


class TaskFailedError(RuntimeError):
    """Raised to followers when the leader's computation failed."""


class CoalescedTask:
    """One underlying computation, streamed to every attached client."""

    #: leadership claims (original leader included) before a task gives
    #: up and fails for real — the retry budget for "the leader died"
    MAX_LEADER_CLAIMS = 3

    def __init__(self, key: str):
        self.key = key
        self._cond = threading.Condition()
        self._events: list[bytes] = []
        self._done = False
        self._error: str | None = None
        #: the leadership is up for grabs (the leader failed transiently)
        self._leader_lost = False
        #: republished-event prefix a promoted leader must skip
        self._skip = 0
        #: leadership claims consumed so far (the original lease is #1)
        self.claims = 1
        #: the final report line (set by :meth:`finish`)
        self.result: bytes | None = None
        #: clients that attached instead of computing (leader excluded)
        self.followers = 0

    # ------------------------------------------------------------------
    # leader side
    # ------------------------------------------------------------------
    def publish(self, line: bytes) -> bool:
        """Append one encoded progress event and wake every follower.

        Returns whether the line was actually appended: a promoted
        leader recomputes from scratch, and the deterministic prefix it
        regenerates — lines the dead leader already published — is
        skipped, so no client ever sees a duplicate.
        """
        with self._cond:
            if self._skip > 0:
                self._skip -= 1
                return False
            self._events.append(line)
            self._cond.notify_all()
        return True

    def finish(self, result: bytes) -> None:
        """Mark the computation complete with its final report line."""
        with self._cond:
            self.result = result
            self._done = True
            self._cond.notify_all()

    def fail(self, error: BaseException | str) -> None:
        """Mark the computation failed; followers raise on stream end."""
        with self._cond:
            self._error = str(error)
            self._done = True
            self._leader_lost = False
            self._cond.notify_all()

    def leader_failed(self, error: BaseException | str) -> bool:
        """The leader died transiently; offer the leadership to a waiter.

        Returns True when the leadership is up for promotion, False when
        the claim budget is spent — the task then fails for real and
        every attached client gets the error.
        """
        with self._cond:
            if self._done:
                return False
            if self.claims >= self.MAX_LEADER_CLAIMS:
                self._error = str(error)
                self._done = True
                self._leader_lost = False
                self._cond.notify_all()
                return False
            self._error = str(error)   # provisional; cleared on promotion
            self._leader_lost = True
            self._cond.notify_all()
            return True

    def claim_leadership(self) -> bool:
        """Atomically take over a lost leadership (first claimant wins).

        The winner must recompute and publish; the deterministic prefix
        the dead leader already landed is deduplicated by
        :meth:`publish`.
        """
        with self._cond:
            if self._done or not self._leader_lost:
                return False
            self._leader_lost = False
            self._error = None
            self.claims += 1
            self._skip = len(self._events)
            return True

    # ------------------------------------------------------------------
    # follower side
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        with self._cond:
            return self._done

    @property
    def error_message(self) -> str | None:
        with self._cond:
            return self._error

    def next_events(self, cursor: int) -> tuple[list[bytes], str]:
        """Block for lines past ``cursor``; return them plus the state.

        States: ``running`` (more lines may come), ``done`` (the batch
        is the rest of the log and ``result`` is set), ``failed`` (the
        batch is the rest of the log and ``error_message`` is set) and
        ``leader_lost`` (the leader died transiently — the caller may
        :meth:`claim_leadership` and recompute, or loop to wait for
        whoever does).  A finished task hands back its whole remaining
        log at once, so a replay takes one call.  Pending lines always
        drain before ``leader_lost`` is reported, so a successful
        claimant's cursor equals the published-line count.
        """
        with self._cond:
            while (cursor >= len(self._events) and not self._done
                   and not self._leader_lost):
                self._cond.wait()
            batch = self._events[cursor:]
            if self._done:
                return batch, "failed" if self._error is not None else "done"
            if batch:
                return batch, "running"
            return [], "leader_lost"

    def stream(self) -> Iterator[bytes]:
        """Yield every progress line, blocking until the task finishes.

        Lines published before the follower attached replay immediately;
        later ones arrive as the leader lands them.  Raises
        :class:`TaskFailedError` after the last line when the leader
        failed.
        """
        cursor = 0
        while True:
            with self._cond:
                while cursor >= len(self._events) and not self._done:
                    self._cond.wait()
                batch = self._events[cursor:]
                cursor = len(self._events)
                finished = self._done and cursor >= len(self._events)
                error = self._error
            yield from batch
            if finished:
                if error is not None:
                    raise TaskFailedError(error)
                return

    def wait(self) -> bytes:
        """Block until the task completes; return the final report line."""
        with self._cond:
            while not self._done:
                self._cond.wait()
            if self._error is not None:
                raise TaskFailedError(self._error)
            assert self.result is not None
            return self.result


class RequestCoalescer:
    """Deduplicate identical requests onto one underlying computation."""

    def __init__(self, results_capacity: int = 64):
        self._lock = threading.Lock()
        self._inflight: dict[str, CoalescedTask] = {}
        self._results = BoundedCache(maxsize=results_capacity,
                                     name="service-results")
        #: cumulative ``joined`` (followers attached to an in-flight
        #: task), ``replayed`` (served from the completed-results cache)
        #: and ``leaders_lost`` (to a transient leader failure)
        self.events = MetricFamily(
            "tybec_service_coalesce_total", ("event",),
            "Requests coalesced onto another's computation, and lost leaders.")
        for event in ("joined", "replayed", "leaders_lost"):
            self.events.bump(event, 0)

    def lease(self, key: str) -> tuple[CoalescedTask, str]:
        """The task for ``key`` plus this caller's role.

        ``leader``
            A fresh task: the caller must compute, publish and either
            :meth:`complete` or :meth:`abandon` it.
        ``follower``
            The computation is in flight; stream it.
        ``replay``
            The computation already completed; its task replays the full
            stream without blocking.
        """
        with self._lock:
            finished = self._results.get(key)
            if finished is not None:
                self.events.bump("replayed")
                return finished, "replay"
            task = self._inflight.get(key)
            if task is not None:
                task.followers += 1
                self.events.bump("joined")
                return task, "follower"
            task = CoalescedTask(key)
            self._inflight[key] = task
            return task, "leader"

    def complete(self, task: CoalescedTask, result: bytes) -> None:
        """Publish the leader's final report line and cache the task."""
        task.finish(result)
        with self._lock:
            self._results.put(task.key, task)
            self._inflight.pop(task.key, None)

    def abandon(self, task: CoalescedTask, error: BaseException | str,
                promote: bool = False) -> bool:
        """Fail the task; the key becomes leasable again (no caching).

        With ``promote=True`` (a *transient* leader failure) the task is
        kept in flight and its leadership offered to a waiting client
        instead — followers are never stranded by a dead leader while
        the claim budget lasts.  Returns whether a promotion is pending.
        """
        if promote and task.leader_failed(error):
            self.events.bump("leaders_lost")
            return True
        task.fail(error)
        with self._lock:
            self._inflight.pop(task.key, None)
        return False

    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def info(self) -> dict:
        """Counters for the ``/metrics`` endpoint."""
        return {"in_flight": self.in_flight(), **self.events.snapshot(),
                "results_cache": self._results.info()}
