"""The one counter type, its Prometheus text exposition, and the real
stat surfaces rendered through it."""

from __future__ import annotations

import re
import sys
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.resilience import MetricFamily, sum_families
from tests.conftest import FAST_POLL

# One exposition line: comment, blank, or `name{labels} value` where the
# value is a prometheus float (including +Inf/-Inf/NaN).
_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (?:[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf)|NaN)$"
)
_COMMENT_LINE = re.compile(r"^# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")


def assert_valid_exposition(text: str) -> None:
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.splitlines():
        if not line or line.startswith("#"):
            assert not line or _COMMENT_LINE.match(line), line
        else:
            assert _METRIC_LINE.match(line), f"malformed sample line: {line!r}"


def declared_types(text: str) -> dict[str, str]:
    """Family name -> kind, from the exposition's ``# TYPE`` lines."""
    return dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.MULTILINE))


def sample(text: str, series: str) -> float:
    """The value of one exposition series (``name{labels}``); a series
    never bumped is absent, which reads as 0."""
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name == series:
            return float(value)
    return 0.0


def hammer(step, threads: int = 16, repeats: int = 2000) -> None:
    """Run ``step(worker)`` ``repeats`` times on each of ``threads``
    threads, with a tiny switch interval so lost updates surface."""

    def spin(worker: int) -> None:
        for _ in range(repeats):
            step(worker)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=spin, args=(i,))
                   for i in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in workers)


class TestMetricFamily:
    def test_bump_get_and_snapshot(self):
        family = MetricFamily("hits_total", ("layer", "result"))
        family.bump(("parse", "hit"))
        family.bump(("parse", "hit"), 2)
        family.bump(("parse", "miss"))
        assert family.get(("parse", "hit")) == 3
        assert family.get(("never", "seen")) == 0
        assert family.snapshot() == {("parse", "hit"): 3, ("parse", "miss"): 1}

    def test_one_label_families_take_the_bare_value(self):
        family = MetricFamily("events_total", ("counter",))
        family.bump("retries")
        family.bump("retries", 4)
        assert family.snapshot() == {"retries": 5}

    def test_only_gauges_are_set(self):
        gauge = MetricFamily("depth", ("state",), kind="gauge")
        gauge.set("queued", 3)
        gauge.set("queued", 1)
        assert gauge.get("queued") == 1
        with pytest.raises(TypeError, match="only gauges"):
            MetricFamily("x_total").set((), 1)
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricFamily("x", kind="summary")

    def test_reset_replaces_every_series_in_one_step(self):
        gauge = MetricFamily("entries", ("namespace",), kind="gauge")
        gauge.set("old", 3)
        gauge.reset({"a": 1, "b": 2})
        assert gauge.snapshot() == {"a": 1, "b": 2}
        gauge.reset()
        assert gauge.snapshot() == {}

    def test_sum_families_adds_same_named_snapshots(self):
        a = MetricFamily("req_total", ("layer", "result"))
        b = MetricFamily("req_total", ("layer", "result"))
        other = MetricFamily("points_total")
        a.bump(("variant", "hit"), 2)
        b.bump(("variant", "hit"))
        b.bump(("variant", "miss"))
        other.bump(n=7)
        totals = sum_families([a, b, other])
        assert totals["req_total"].snapshot() == {
            ("variant", "hit"): 3, ("variant", "miss"): 1}
        assert totals["points_total"].get() == 7
        assert a.get(("variant", "hit")) == 2  # inputs are untouched

    def test_no_bump_is_lost_under_contention(self):
        family = MetricFamily("spins_total", ("worker",))
        hammer(lambda worker: family.bump(str(worker % 2)))
        assert family.snapshot() == {"0": 16000, "1": 16000}


class TestRegistry:
    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        lat = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            lat.labels().observe(value)
        text = reg.render_prometheus()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 4' in text
        assert "lat_seconds_count 4" in text
        assert "lat_seconds_sum 6.05" in text

    def test_histogram_labels_are_checked_and_registered_once(self):
        reg = MetricsRegistry()
        lat = reg.histogram("lat_seconds", labelnames=("code",))
        assert lat.labels(code=200) is lat.labels(code=200)
        with pytest.raises(ValueError, match="expected labels"):
            lat.labels(status=200)
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("lat_seconds")

    def test_no_observation_is_lost_under_contention(self):
        reg = MetricsRegistry()
        lat = reg.histogram("spin_seconds", buckets=(0.1,))
        hammer(lambda worker: lat.labels().observe(0.01))
        text = reg.render_prometheus()
        assert "spin_seconds_count 32000" in text
        assert 'spin_seconds_bucket{le="+Inf"} 32000' in text
        assert 'spin_seconds_bucket{le="0.1"} 32000' in text

    def test_families_render_as_declared(self):
        reg = MetricsRegistry()
        reg.histogram("c_seconds").labels().observe(0.2)
        events = MetricFamily("a_total", ("k",), "With help.")
        events.bump('tri"cky\\path\n')
        depth = MetricFamily("b", kind="gauge")
        depth.set((), 2.5)
        text = reg.render_prometheus([events, depth])
        assert_valid_exposition(text)
        assert declared_types(text) == {
            "a_total": "counter", "b": "gauge", "c_seconds": "histogram"}
        assert "# HELP a_total With help." in text
        assert r'a_total{k="tri\"cky\\path\n"} 1' in text
        assert "b 2.5" in text

    def test_a_declared_family_renders_before_its_first_sample(self):
        text = MetricsRegistry().render_prometheus(
            [MetricFamily("never_touched_total")])
        assert text == "# TYPE never_touched_total counter\n"
        assert MetricsRegistry().render_prometheus() == ""


def test_cost_after_clearing_the_calibration_recalibrates_its_live_session(
        monkeypatch, tmp_path):
    """``clear_calibration_cache()`` reaches a session that already
    calibrated: with no pinned clock, ``/cost`` runs in the sweep's own
    device-fmax session, and resolves its three models again from the
    disk store instead of costing with the ones it held."""
    from repro.compiler.pipeline import clear_calibration_cache
    from repro.ir import print_module
    from repro.kernels import get_kernel
    from repro.service import ExplorationService, ServiceClient, ServiceServer

    monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "cache"))
    clear_calibration_cache()
    srv = ServiceServer(("127.0.0.1", 0), ExplorationService(max_concurrency=2))
    thread = threading.Thread(target=srv.serve_forever, kwargs=FAST_POLL,
                              daemon=True)
    thread.start()
    try:
        client = ServiceClient(port=srv.port)
        client.suite({"tiny": True, "kernels": ["sor"], "max_lanes": 2})
        before = srv.service.metrics()["pipeline"]
        assert before["disk"] == [0, 3]  # calibrated from scratch, stored
        clear_calibration_cache()
        design = print_module(get_kernel("sor").build_module(
            lanes=2, grid=(8, 8, 8)))
        client.cost(design, grid=(8, 8, 8), iterations=10)
        after = srv.service.metrics()["pipeline"]
        assert after["disk"] == [3, 3]  # cost db + dram + host, from disk
        assert after["calibration"][0] == before["calibration"][0] + 1
    finally:
        srv.shutdown()
        srv.server_close()
        clear_calibration_cache()


class TestRealSurfaces:
    """A real service, driven through a sweep, two ``"dense"`` replays of
    it and a warm start from the disk cache, renders every surface
    correctly."""

    @pytest.fixture
    def driven(self, monkeypatch, tmp_path):
        from repro.compiler.pipeline import clear_calibration_cache
        from repro.ir import print_module
        from repro.kernels import get_kernel
        from repro.service import ExplorationService, ServiceClient, ServiceServer

        monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "cache"))
        clear_calibration_cache()
        srv = ServiceServer(("127.0.0.1", 0), ExplorationService(max_concurrency=2))
        thread = threading.Thread(target=srv.serve_forever, kwargs=FAST_POLL,
                                  daemon=True)
        thread.start()
        try:
            client = ServiceClient(port=srv.port)
            # a pinned clock keeps the sweep's sessions apart from the
            # device-fmax session /cost runs in, so /cost below opens a
            # fresh session and calibrates from the disk cache
            spec = {"tiny": True, "kernels": ["sor"], "max_lanes": 2,
                    "clocks_mhz": [150.0]}
            client.suite(dict(spec))
            client.suite(dict(spec, dense=True))  # replays: no new sweep
            client.suite(dict(spec, dense=True))
            clear_calibration_cache()  # memory cold, disk warm
            design = print_module(get_kernel("sor").build_module(
                lanes=2, grid=(8, 8, 8)))
            client.cost(design, grid=(8, 8, 8), iterations=10)
            deadline = time.monotonic() + 5.0
            while True:  # the handler observes latency after its last chunk
                text = srv.service.prometheus_metrics()
                if 'endpoint="/cost"' in text or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
            yield srv.service, text
        finally:
            srv.shutdown()
            srv.server_close()
            clear_calibration_cache()

    def test_every_surface_renders_with_its_declared_kind(self, driven):
        _, text = driven
        assert_valid_exposition(text)
        types = declared_types(text)
        for name, kind in {
            "tybec_resilience_events_total": "counter",
            "tybec_service_requests_total": "counter",
            "tybec_service_sweeps_total": "counter",
            "tybec_service_coalesce_total": "counter",
            "tybec_service_queue": "gauge",
            "tybec_service_in_flight": "gauge",
            "tybec_service_uptime_seconds": "gauge",
            "tybec_pipeline_cache_requests_total": "counter",
            "tybec_pipeline_stage_seconds_total": "counter",
            "tybec_dense_cache_requests_total": "counter",
            "tybec_dense_points_total": "counter",
            "tybec_disk_cache_events_total": "counter",
            "tybec_disk_cache_entries": "gauge",
            "tybec_disk_cache_bytes": "gauge",
            "tybec_request_seconds": "histogram",
        }.items():
            assert types.get(name) == kind, (name, types.get(name))
        assert len(types) == len(set(types)), "one # TYPE line per family"

    def test_values_agree_with_the_json_payload(self, driven):
        service, text = driven
        payload = service.metrics()
        pipeline = payload["pipeline"]
        for layer in ("variant", "resource", "calibration"):
            hits, misses = pipeline[layer]
            assert sample(text, "tybec_pipeline_cache_requests_total"
                          f'{{layer="{layer}",result="hit"}}') == hits
            assert sample(text, "tybec_pipeline_cache_requests_total"
                          f'{{layer="{layer}",result="miss"}}') == misses
        assert pipeline["variant"][1] > 0
        # "dense" on /suite selects nothing: both dense requests replay the
        # serial sweep of the same config, and no arrays answered any point
        assert pipeline["dense"] == {"sweeps": 0, "points": 0}
        assert "tybec_dense_cache_requests_total{" not in text
        assert sample(text, "tybec_dense_points_total") == 0
        assert sample(text, 'tybec_service_sweeps_total{event="completed"}') == 1
        assert sample(text, 'tybec_service_coalesce_total{event="replayed"}') == 2
        assert sample(text, "tybec_service_in_flight") == 0
        assert sample(text, 'tybec_service_queue{state="capacity"}') == 2

    def test_disk_cache_counts_once_and_exports_occupancy(self, driven):
        service, text = driven
        disk = service.metrics()["disk_cache"]
        assert disk["hits"] >= 3  # cost db + dram + host on the warm start
        for event in ("hits", "misses", "evictions", "quarantined",
                      "orphans_removed"):
            assert sample(text, "tybec_disk_cache_events_total"
                          f'{{event="{event}"}}') == disk[event]
        assert disk["namespaces"]
        for namespace, info in disk["namespaces"].items():
            assert info["entries"] > 0
            assert sample(text, f'tybec_disk_cache_entries{{namespace="{namespace}"}}'
                          ) == info["entries"]
            assert sample(text, f'tybec_disk_cache_bytes{{namespace="{namespace}"}}'
                          ) == info["bytes"]
        # one count per event: the resilience counters no longer repeat them
        assert "cache." not in "".join(service.metrics()["resilience"]["counters"])
