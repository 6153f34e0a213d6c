"""Exploration-service load benchmark -> BENCH_service.json.

Boots the service in-process on an ephemeral port, drives it with a
threaded load generator over real HTTP, and records the latency
distribution as a CI artifact:

* **cold** — the first request on a fresh service pays device
  calibration and family analysis (what every CLI invocation used to pay
  on every run).
* **warm** — subsequent *distinct* sweeps (different iteration counts,
  so nothing replays from the results cache) reuse the shared
  calibration/family/session caches and pay only per-point work.
* **replay** — a byte-identical request served from the coalescer's
  results cache: the latency floor.
* **sustained** — 8 concurrent clients hammering a small pool of
  configurations; p50/p99 latency and requests/second, plus the
  coalescing counters that prove identical work ran once.

The warm-vs-cold ratio is the service's reason to exist: one process
owns the warm state, every client shares it.

``encode`` records the leader's encode of a 306-point sweep: its entry
lines, then its report line, which takes each row's text from the row's
entry line.  The report line must cost a small share of the entry lines.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

from benchmarks.test_suite_throughput import (
    FULL_GRID_CONFIG,
    _collector_paused,
    _median_iqr,
)
from repro.compiler.lanescale import clear_family_caches
from repro.compiler.pipeline import clear_calibration_cache
from repro.service import ExplorationService, ServiceClient, ServiceServer
from repro.service.server import _encode, _row_texts
from repro.suite.report import canonicalize

#: the benchmark grid: one kernel, tiny grid — per-request work is small
#: so the measured numbers are service overhead + cache behaviour, not
#: sweep size
BASE_SPEC = {"tiny": True, "kernels": ["sor"], "max_lanes": 4}

LOAD_THREADS = 8
LOAD_REQUESTS_PER_THREAD = 12

#: cold pays calibration + family analysis; warm must visibly not
MIN_WARM_SPEEDUP = 1.5

#: leader encode trials (interleaved entry-lines/report-line pairs), and
#: the gate on the report line's time over the entry lines' time: 0.13-0.15
#: on a shared 2-vCPU VM, ~0.6 when the report line spells every row again
ENCODE_TRIALS = 15
MAX_REPORT_TO_ENTRIES = 0.35


def _spec(iterations: int) -> dict:
    return {**BASE_SPEC, "iterations": iterations}


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _timed_suite(client: ServiceClient, spec: dict) -> tuple[float, str]:
    started = time.perf_counter()
    response = client.suite(spec)
    return time.perf_counter() - started, response.role


def test_service_load_artifact(results_dir, tmp_path, monkeypatch):
    # the cold measurement must actually be cold: earlier benchmarks in
    # the same pytest process leave the process-wide calibration/family
    # caches and the shared persistent store warm
    monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "service-cache"))
    clear_calibration_cache()
    clear_family_caches()
    server = ServiceServer(("127.0.0.1", 0),
                           ExplorationService(max_concurrency=4))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(port=server.port)
    try:
        # -- cold: first request on a fresh service ---------------------
        cold_seconds, cold_role = _timed_suite(client, _spec(10))
        assert cold_role == "leader"

        # -- warm: distinct sweeps over the now-warm caches -------------
        warm_samples = []
        for iterations in range(11, 17):
            seconds, role = _timed_suite(client, _spec(iterations))
            assert role == "leader", "distinct configs must not coalesce"
            warm_samples.append(seconds)
        warm_seconds = statistics.median(warm_samples)

        # -- replay: identical request, served from the results cache ---
        replay_seconds, replay_role = _timed_suite(client, _spec(10))
        assert replay_role == "replay"

        # -- sustained concurrent load ----------------------------------
        pool = [_spec(i) for i in (10, 11, 12, 13)]
        latencies: list[float] = []
        roles: list[str] = []
        errors: list[BaseException] = []
        lock = threading.Lock()
        barrier = threading.Barrier(LOAD_THREADS)

        def load_worker(tid: int) -> None:
            worker_client = ServiceClient(port=server.port)
            try:
                barrier.wait()
                for i in range(LOAD_REQUESTS_PER_THREAD):
                    seconds, role = _timed_suite(
                        worker_client, pool[(tid + i) % len(pool)])
                    with lock:
                        latencies.append(seconds)
                        roles.append(role)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(exc)

        workers = [threading.Thread(target=load_worker, args=(tid,))
                   for tid in range(LOAD_THREADS)]
        load_started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        load_wall = time.perf_counter() - load_started
        assert not errors, f"load generator saw failures: {errors[:3]}"
        total = LOAD_THREADS * LOAD_REQUESTS_PER_THREAD
        assert len(latencies) == total

        metrics = client.metrics()
        coalesced = (metrics["coalesce"]["joined"]
                     + metrics["coalesce"]["replayed"])
        # the pool holds 4 distinct configs (all already computed during
        # the warm phase for 3 of them): nearly every load request must
        # ride an existing computation instead of starting a sweep
        assert coalesced >= total - len(pool)
        assert metrics["queue"]["depth"] == 0

        payload = {
            "grid": BASE_SPEC,
            "cold": {"seconds": cold_seconds},
            "warm": {
                "seconds_median": warm_seconds,
                "samples": warm_samples,
                "speedup_vs_cold": cold_seconds / warm_seconds,
            },
            "replay": {"seconds": replay_seconds},
            "sustained": {
                "threads": LOAD_THREADS,
                "requests": total,
                "wall_seconds": load_wall,
                "requests_per_second": total / load_wall,
                "p50_seconds": _percentile(latencies, 0.50),
                "p99_seconds": _percentile(latencies, 0.99),
                "max_seconds": max(latencies),
                "roles": {role: roles.count(role) for role in set(roles)},
            },
            "metrics": {
                "sweeps": metrics["sweeps"],
                "coalesce": {k: v for k, v in metrics["coalesce"].items()
                             if k != "results_cache"},
            },
        }
        (results_dir / "BENCH_service.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")

        assert cold_seconds / warm_seconds >= MIN_WARM_SPEEDUP, (
            f"warm requests ({warm_seconds:.3f}s) must beat the cold start "
            f"({cold_seconds:.3f}s) by at least {MIN_WARM_SPEEDUP}x — the "
            f"shared warm caches are the service's reason to exist")
        assert payload["sustained"]["p99_seconds"] < cold_seconds * 10, \
            "p99 under load blew past any per-request cost we can explain"
    finally:
        server.shutdown()
        server.server_close()


def _compact(event) -> bytes:
    """The reference line: one stdlib dump of the expanded event."""
    return (json.dumps(canonicalize(event), sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def test_leader_encodes_each_row_once(results_dir, tmp_path, monkeypatch):
    """The leader's entry lines and report line of a 306-point sweep.

    The calls are the leader path of ``_ServiceHandler._drive``: one
    ``_encode`` per entry event, then the report event with the row texts
    cut out of those lines.  Every line must equal the reference dump, and
    the report line must take at most ``MAX_REPORT_TO_ENTRIES`` of the
    entry lines' time, as the median of ``ENCODE_TRIALS`` interleaved
    pairs.  Recorded under ``encode`` in BENCH_service.json.
    """
    monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "encode-cache"))
    service = ExplorationService()
    _, role, request = service.lease_suite(FULL_GRID_CONFIG.as_dict())
    assert role == "leader"
    events: list = []
    result = service.run_suite(request, events.append)
    assert len(events) == result["evaluated"] == 306

    def entry_lines(floats: dict) -> list:
        return [(event, _encode(event, floats=floats)) for event in events]

    floats: dict = {}
    published = entry_lines(floats)
    line = _encode(result, _row_texts(published), floats)
    assert [text for _, text in published] == \
        [_compact(event.as_dict()) for event in events]
    assert line == _compact(result)

    entries_ms, report_ms = [], []
    with _collector_paused():
        for _ in range(ENCODE_TRIALS):
            started = time.perf_counter()
            floats = {}
            published = entry_lines(floats)
            middle = time.perf_counter()
            _encode(result, _row_texts(published), floats)
            entries_ms.append((middle - started) * 1e3)
            report_ms.append((time.perf_counter() - middle) * 1e3)
    record = {
        "points": len(events),
        "report_bytes": len(line),
        "entry_lines_ms": _median_iqr(entries_ms),
        "report_line_ms": _median_iqr(report_ms),
        "report_to_entries": statistics.median(
            r / e for r, e in zip(report_ms, entries_ms)),
        "max_ratio": MAX_REPORT_TO_ENTRIES,
        "bytes_identical": True,
    }
    path = results_dir / "BENCH_service.json"
    payload = json.loads(path.read_text()) if path.exists() else {}
    payload["encode"] = record
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert record["report_to_entries"] <= MAX_REPORT_TO_ENTRIES, record
