"""Bounded in-process caches and the persistent warm-start store.

The estimation pipeline's speed rests on never recomputing what a cache
already knows.  Two kinds of cache back that up:

:class:`BoundedCache`
    A thread-safe LRU used for every process-wide memoization layer
    (structural analyses, resource estimates, design families).  Unlike
    the plain dicts it replaces, it is *bounded* — long suite runs across
    many kernels, devices and latency models cannot grow memory without
    limit — and it counts hits/misses/evictions so the pipeline can report
    cache health instead of guessing at it.

:class:`DiskCache`
    A versioned, content-keyed on-disk store for the expensive one-time
    artifacts: per-device calibration (cost database + bandwidth fits) and
    per-family structural analyses.  Entries are pickled under
    ``<root>/v<N>/<namespace>/<sha256>.pkl`` and written with
    write-to-temp + atomic rename, so concurrent writers (e.g. stage-pool
    workers that all miss the same key at once) can never expose a
    torn file; the loser of the race simply overwrites with identical
    content.  An entry carries its token and a SHA-256 of its pickled
    value; reads treat any undecodable, mismatched, damaged, digest-less
    or wrongly-typed entry as a miss.  Each namespace is LRU-bounded by file
    count (access refreshes mtime).

The store location is resolved lazily from ``TYBEC_CACHE_DIR`` (default
``~/.cache/tybec``); setting it to an empty string, ``0`` or ``off``
disables persistence entirely.  Capacity is ``TYBEC_DISK_CACHE_CAPACITY``
entries per namespace.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
import threading
import warnings
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

from repro.obs.logs import get_logger, log_event
from repro.obs.trace import span as trace_span
from repro.resilience import COUNTERS, InjectedFault, MetricFamily, maybe_fail

_LOG = get_logger("cache")

__all__ = [
    "BoundedCache",
    "DiskCache",
    "default_disk_cache",
    "env_int",
    "env_capacity",
    "redirected_cache_dir",
]

#: bump to invalidate every persisted artifact after an incompatible
#: change to the cost model or the pickled payload layout
SCHEMA_VERSION = 1


#: variables whose unusable override was already logged
_ENV_LOGGED: set[str] = set()


def env_int(name: str, default: int) -> int:
    """An integer read from the environment, falling back on garbage.

    Each fallback counts as ``fallbacks.env``; the variable's name is
    logged the first time, so a typo'd override is visible, not silent.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        COUNTERS.bump("fallbacks.env")
        if name not in _ENV_LOGGED:
            _ENV_LOGGED.add(name)
            log_event(_LOG, "fallback.env", level=logging.WARNING,
                      site="env_int", key=name,
                      cause=f"not an integer: {raw!r}", default=default)
        return default


def env_capacity(name: str, default: int) -> int:
    """A cache capacity read from the environment.

    Capacities must be strictly positive: an eviction scan deletes
    ``occupancy - capacity`` entries, so a zero or negative capacity would
    evict *every* entry — including the one the scan was triggered for.
    Such values fall back to the default with a warning instead of
    silently turning the cache into a shredder.
    """
    value = env_int(name, default)
    if value <= 0:
        warnings.warn(
            f"{name}={value} would evict every cache entry as soon as it is "
            f"written; falling back to the default capacity {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return value


_ABSENT = object()


class BoundedCache:
    """A small thread-safe LRU cache with hit/miss/eviction counters."""

    def __init__(self, maxsize: int = 256, name: str = ""):
        self.maxsize = max(1, maxsize)
        self.name = name
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        with self._lock:
            value = self._data.get(key, _ABSENT)
            if value is _ABSENT:
                self.misses += 1
                return None
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def info(self) -> dict:
        """Counters and occupancy, for cache-health reporting.

        Read under the lock so a concurrent ``put`` can never produce a
        snapshot whose counters and occupancy disagree with each other.
        """
        with self._lock:
            return {
                "name": self.name,
                "size": len(self._data),
                "capacity": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class DiskCache:
    """Versioned, content-keyed, atomically-written persistent store."""

    #: puts per namespace between LRU eviction scans (a scan stats every
    #: entry, so it is amortized rather than paid on each write)
    EVICTION_STRIDE = 8

    #: default per-namespace capacity (also the fallback for bad overrides)
    DEFAULT_CAPACITY = 256

    #: decode failures before an entry is quarantined rather than retried.
    #: One torn read can be a transient fs hiccup; an entry that cannot be
    #: unpickled three times is evidence worth keeping off the read path
    #: but on disk (renamed ``.quarantined``) for post-mortem.
    QUARANTINE_AFTER = 3

    #: age (seconds) past which an orphaned ``.tmp`` file — a writer that
    #: died between temp-write and atomic rename — is swept.  Generous
    #: compared to the milliseconds a live writer holds one, so a sweep
    #: can never race a healthy concurrent put.
    ORPHAN_TMP_AGE = 300.0

    def __init__(self, root: Path | str, capacity: int | None = None):
        self.root = Path(root)
        if capacity is None:
            capacity = env_capacity("TYBEC_DISK_CACHE_CAPACITY", self.DEFAULT_CAPACITY)
        elif capacity <= 0:
            warnings.warn(
                f"DiskCache capacity {capacity} would evict every entry as "
                f"soon as it is written; falling back to "
                f"{self.DEFAULT_CAPACITY}",
                RuntimeWarning,
                stacklevel=2,
            )
            capacity = self.DEFAULT_CAPACITY
        self.capacity = capacity
        self.events = MetricFamily(
            "tybec_disk_cache_events_total", ("event",),
            "Disk cache hits, misses, evictions, quarantines and orphan "
            "sweeps in this process.")
        self.entries = MetricFamily(
            "tybec_disk_cache_entries", ("namespace",),
            "Disk cache entries per namespace at the last stats read.",
            kind="gauge")
        self.bytes = MetricFamily(
            "tybec_disk_cache_bytes", ("namespace",),
            "Disk cache bytes per namespace at the last stats read.",
            kind="gauge")
        self.families = (self.events, self.entries, self.bytes)
        self._lock = threading.Lock()
        self._put_counts: dict[str, int] = {}
        #: consecutive decode failures per entry path (reset by a put)
        self._decode_failures: dict[str, int] = {}
        if self.version_dir.is_dir():
            try:
                for ns_dir in self.version_dir.iterdir():
                    if ns_dir.is_dir():
                        self._sweep_orphans(ns_dir)
            except OSError:
                pass

    # ------------------------------------------------------------------
    @property
    def version_dir(self) -> Path:
        return self.root / f"v{SCHEMA_VERSION}"

    def _entry_path(self, namespace: str, token) -> Path:
        digest = hashlib.sha256(repr(token).encode()).hexdigest()
        return self.version_dir / namespace / f"{digest}.pkl"

    # ------------------------------------------------------------------
    def get(self, namespace: str, token, kind: type = object):
        """Load one entry, or None on miss/corruption/schema mismatch.

        A value that is not an instance of ``kind`` is a damaged entry,
        like one that does not decode.
        """
        with trace_span("cache.get", namespace=namespace) as sp:
            value = self._get(namespace, token, kind)
            if sp is not None:
                sp.attrs["outcome"] = "miss" if value is None else "hit"
            return value

    def _get(self, namespace: str, token, kind):
        path = self._entry_path(namespace, token)
        try:
            # before the decode path, so an injected read fault becomes a
            # plain miss and can never strike (or quarantine) a healthy
            # entry the way real corruption does
            maybe_fail("cache.read")
        except InjectedFault:
            self.events.bump("misses")
            return None
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if payload.get("token") != repr(token):
                raise ValueError("key collision or stale entry")
            digest = payload.get("sha256")
            if digest is None:
                # the layout written before entries carried a digest: its
                # value cannot be checked, so the next put rewrites it
                raise ValueError("entry carries no digest")
            if hashlib.sha256(payload["value"]).hexdigest() != digest:
                raise ValueError("entry does not match its digest")
            value = pickle.loads(payload["value"])
            if not isinstance(value, kind):
                raise TypeError(f"entry holds a {type(value).__name__}")
            try:
                # refresh recency for the LRU eviction scan; best-effort —
                # a read-only cache directory must still serve warm starts
                os.utime(path)
            except OSError:
                pass
        except FileNotFoundError:
            self.events.bump("misses")
            return None
        except Exception as exc:
            # torn, corrupt or incompatible entry: a miss, and a strike.
            # A single failure may be a transient fs hiccup (the entry is
            # left alone — a concurrent writer is about to replace it
            # anyway); an entry that keeps failing is quarantined so it
            # stops poisoning the read path but survives for post-mortem.
            self.events.bump("misses")
            with self._lock:
                strikes = self._decode_failures.get(str(path), 0) + 1
                self._decode_failures[str(path)] = strikes
            if strikes >= self.QUARANTINE_AFTER:
                try:
                    path.rename(path.with_suffix(".quarantined"))
                    with self._lock:
                        self._decode_failures.pop(str(path), None)
                    self.events.bump("quarantined")
                    log_event(
                        _LOG,
                        "cache.quarantined",
                        level=logging.WARNING,
                        site="cache.get",
                        namespace=namespace,
                        key=path.name,
                        cause=f"{type(exc).__name__}: {exc}",
                        strikes=strikes,
                    )
                except OSError:
                    pass
            return None
        self.events.bump("hits")
        with self._lock:
            self._decode_failures.pop(str(path), None)
        return value

    def put(self, namespace: str, token, value) -> None:
        """Persist one entry (atomic rename; failures are non-fatal)."""
        with trace_span("cache.put", namespace=namespace):
            self._put(namespace, token, value)

    def _put(self, namespace: str, token, value) -> None:
        path = self._entry_path(namespace, token)
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            keep_orphan = False
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump({"token": repr(token),
                                 "sha256": hashlib.sha256(blob).hexdigest(),
                                 "value": blob}, fh, protocol=pickle.HIGHEST_PROTOCOL)
                try:
                    maybe_fail("cache.write")
                except InjectedFault:
                    # a simulated death between temp-write and rename: the
                    # orphan ``.tmp`` stays behind exactly as a real crash
                    # would leave it, for the eviction sweep to reap
                    keep_orphan = True
                    return
                os.replace(tmp, path)
                with self._lock:
                    self._decode_failures.pop(str(path), None)
            finally:
                if not keep_orphan and os.path.exists(tmp):
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
            # amortize the directory scan: occupancy may overshoot the
            # capacity by at most one stride between scans.  The *first*
            # put of a namespace always scans — the stride counter is
            # per-process, so a fleet of short-lived workers (each writing
            # fewer than EVICTION_STRIDE entries) would otherwise grow the
            # namespace without bound, each process convinced its handful
            # of writes cannot have crossed the threshold
            with self._lock:
                count = self._put_counts.get(namespace, 0) + 1
                self._put_counts[namespace] = count
            if count == 1 or count % self.EVICTION_STRIDE == 0:
                self._evict(path.parent)
        except OSError:
            # a read-only or full cache directory must never break costing
            pass

    @staticmethod
    def _mtime_or_zero(path: Path) -> float:
        """An entry's mtime, or 0.0 when a concurrent eviction removed it.

        Vanished entries sort oldest, so the unlink below is a no-op for
        them instead of an unhandled ``FileNotFoundError`` mid-scan.
        """
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    def _sweep_orphans(self, namespace_dir: Path) -> None:
        """Reap ``.tmp`` files a dead writer left between write and rename.

        Age-gated: a live writer holds its temp file for milliseconds, so
        anything older than :data:`ORPHAN_TMP_AGE` can only be a corpse.
        """
        now = time.time()
        try:
            orphans = [p for p in namespace_dir.iterdir() if p.suffix == ".tmp"]
        except OSError:
            return
        for path in orphans:
            age = now - self._mtime_or_zero(path)
            if age < self.ORPHAN_TMP_AGE:
                continue
            try:
                path.unlink()
                self.events.bump("orphans_removed")
                log_event(
                    _LOG,
                    "cache.orphan_removed",
                    site="cache.sweep",
                    namespace=namespace_dir.name,
                    key=path.name,
                    cause="stale tmp left by a dead writer",
                    age_seconds=round(age, 3),
                )
            except OSError:
                pass

    def _evict(self, namespace_dir: Path) -> None:
        self._sweep_orphans(namespace_dir)
        try:
            entries = sorted(
                (p for p in namespace_dir.iterdir() if p.suffix == ".pkl"),
                key=self._mtime_or_zero,
            )
        except OSError:
            return
        excess = len(entries) - self.capacity
        for path in entries[:max(0, excess)]:
            try:
                path.unlink()
                self.events.bump("evictions")
            except OSError:
                pass

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Remove every cached entry (all schema versions); returns count."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in sorted(self.root.rglob("*.pkl"), reverse=True):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # debris never counts toward `removed` (quarantined evidence,
        # orphaned temp files) but a clear leaves nothing behind
        for pattern in ("*.quarantined", "*.tmp"):
            for path in sorted(self.root.rglob(pattern), reverse=True):
                try:
                    path.unlink()
                except OSError:
                    pass
        for directory in sorted(self.root.rglob("*"), reverse=True):
            if directory.is_dir():
                try:
                    directory.rmdir()
                except OSError:
                    pass
        return removed

    @staticmethod
    def _size_or_zero(path: Path) -> int:
        """An entry's size, or 0 when a concurrent eviction removed it.

        The occupancy scan walks a live directory: any entry listed by
        ``iterdir`` may be unlinked (eviction, ``clear``, another process)
        before ``stat`` reaches it.  A vanished file contributes no bytes;
        it must never turn a read-only stats call into a crash.
        """
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def stats(self) -> dict:
        """On-disk occupancy per namespace plus this process's counters.

        Also re-reads the ``entries``/``bytes`` gauges, so a scrape that
        calls this first exports the occupancy it just measured.
        """
        namespaces: dict[str, dict] = {}
        if self.version_dir.exists():
            try:
                ns_dirs = sorted(self.version_dir.iterdir())
            except OSError:
                ns_dirs = []
            for ns_dir in ns_dirs:
                if not ns_dir.is_dir():
                    continue
                try:
                    listing = list(ns_dir.iterdir())
                except OSError:
                    # the whole namespace vanished mid-scan (clear())
                    continue
                files = [p for p in listing if p.suffix == ".pkl"]
                namespaces[ns_dir.name] = {
                    "entries": len(files),
                    "bytes": sum(self._size_or_zero(p) for p in files),
                    "quarantined": sum(
                        1 for p in listing if p.suffix == ".quarantined"),
                    "orphan_tmp": sum(
                        1 for p in listing if p.suffix == ".tmp"),
                }
        self.entries.reset({ns: info["entries"] for ns, info in namespaces.items()})
        self.bytes.reset({ns: info["bytes"] for ns, info in namespaces.items()})
        events = self.events.snapshot()
        return {
            "root": str(self.root),
            "schema_version": SCHEMA_VERSION,
            "capacity_per_namespace": self.capacity,
            "namespaces": namespaces,
            **{event: events.get(event, 0) for event in (
                "hits", "misses", "evictions", "quarantined", "orphans_removed")},
        }


# ----------------------------------------------------------------------
# The default store (resolved lazily so tests/CLI can redirect it)
# ----------------------------------------------------------------------

_INSTANCES: dict[str, DiskCache] = {}
_INSTANCES_LOCK = threading.Lock()


def cache_location() -> str | None:
    """The configured cache directory, or None when persistence is off."""
    raw = os.environ.get("TYBEC_CACHE_DIR")
    if raw is None:
        return str(Path.home() / ".cache" / "tybec")
    raw = raw.strip()
    if raw in ("", "0") or raw.lower() == "off":
        return None
    return raw


@contextmanager
def redirected_cache_dir(path):
    """Temporarily point the persistent store at ``path``.

    Used by the test and benchmark harnesses to stay hermetic: nothing
    reads artifacts a previous run persisted under the user's real cache,
    and nothing pollutes it.  Pass ``"off"`` (or ``""``) to disable
    persistence inside the block.
    """
    previous = os.environ.get("TYBEC_CACHE_DIR")
    os.environ["TYBEC_CACHE_DIR"] = str(path)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("TYBEC_CACHE_DIR", None)
        else:
            os.environ["TYBEC_CACHE_DIR"] = previous


def default_disk_cache() -> DiskCache | None:
    """The process's shared persistent store (None when disabled).

    Resolved from the environment on every call so a test or CLI run can
    redirect (or disable) persistence without re-importing anything; one
    :class:`DiskCache` instance is shared per resolved path so the
    hit/miss counters are process-wide.
    """
    location = cache_location()
    if location is None:
        return None
    with _INSTANCES_LOCK:
        cache = _INSTANCES.get(location)
        if cache is None:
            cache = _INSTANCES[location] = DiskCache(location)
        return cache
