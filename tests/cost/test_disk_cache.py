"""Tests for the persistent warm-start store and the bounded LRU caches."""

from __future__ import annotations

import logging
import os
import pickle
import subprocess
import sys

from repro.cost import cache as cache_module
from repro.cost.cache import (
    SCHEMA_VERSION,
    BoundedCache,
    DiskCache,
    cache_location,
    default_disk_cache,
    env_int,
)
from repro.resilience import COUNTERS


class TestBoundedCache:
    def test_lru_eviction_with_counters(self):
        cache = BoundedCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refresh "a" — "b" is now oldest
        cache.put("c", 3)               # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        info = cache.info()
        assert info["evictions"] == 1
        assert info["hits"] == 3
        assert info["misses"] == 1
        assert info["size"] == info["capacity"] == 2

    def test_clear(self):
        cache = BoundedCache(maxsize=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path, capacity=8)
        token = ("calibration", "device-x", 0.025)
        cache.put("calibration", token, {"alut": [1.0, 2.0]})
        assert cache.get("calibration", token) == {"alut": [1.0, 2.0]}
        assert cache.events.get("hits") == 1 and cache.events.get("misses") == 0

    def test_miss_on_absent_and_corrupt_entries(self, tmp_path):
        cache = DiskCache(tmp_path, capacity=8)
        assert cache.get("ns", "missing") is None
        cache.put("ns", "key", 42)
        path = cache._entry_path("ns", "key")
        path.write_bytes(b"definitely not a pickle")
        assert cache.get("ns", "key") is None
        # one torn read could be a transient hiccup — the entry survives
        assert path.exists()

    def test_repeatedly_corrupt_entries_are_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path, capacity=8)
        cache.put("ns", "key", 42)
        path = cache._entry_path("ns", "key")
        path.write_bytes(b"definitely not a pickle")
        for _ in range(DiskCache.QUARANTINE_AFTER):
            assert cache.get("ns", "key") is None
        assert not path.exists()
        quarantined = path.with_suffix(".quarantined")
        assert quarantined.exists()     # evidence kept, off the read path
        stats = cache.stats()
        assert stats["quarantined"] == 1
        assert stats["namespaces"]["ns"]["quarantined"] == 1
        # the slot is usable again: a fresh put resets the strikes
        cache.put("ns", "key", 43)
        assert cache.get("ns", "key") == 43
        assert cache.clear() == 1
        assert not quarantined.exists()  # clear leaves no debris behind

    def test_put_resets_decode_strikes(self, tmp_path):
        cache = DiskCache(tmp_path, capacity=8)
        cache.put("ns", "key", 1)
        path = cache._entry_path("ns", "key")
        for _ in range(DiskCache.QUARANTINE_AFTER - 1):
            path.write_bytes(b"garbage")
            assert cache.get("ns", "key") is None
            cache.put("ns", "key", 2)   # strike counter back to zero
        assert cache.get("ns", "key") == 2
        assert cache.events.get("quarantined") == 0

    def test_orphan_tmp_sweep(self, tmp_path):
        cache = DiskCache(tmp_path, capacity=8)
        cache.EVICTION_STRIDE = 1
        cache.put("ns", "key", 1)
        ns_dir = cache.version_dir / "ns"
        fresh = ns_dir / "writer-alive.tmp"
        fresh.write_bytes(b"partial")
        stale = ns_dir / "writer-died.tmp"
        stale.write_bytes(b"partial")
        old = 12345.0
        os.utime(stale, (old, old))
        cache.put("ns", "key2", 2)      # stride-1 triggers the sweep
        assert not stale.exists()       # the corpse is reaped
        assert fresh.exists()           # a live writer's file is not
        assert cache.events.get("orphans_removed") == 1
        assert cache.stats()["orphans_removed"] == 1

    def test_init_sweeps_orphans(self, tmp_path):
        first = DiskCache(tmp_path, capacity=8)
        first.put("ns", "key", 1)
        stale = first.version_dir / "ns" / "corpse.tmp"
        stale.write_bytes(b"partial")
        os.utime(stale, (1.0, 1.0))
        second = DiskCache(tmp_path, capacity=8)   # "new process"
        assert not stale.exists()
        assert second.events.get("orphans_removed") == 1

    def test_token_mismatch_is_a_miss(self, tmp_path):
        """A hash collision (or tampered file) must never alias keys."""
        cache = DiskCache(tmp_path, capacity=8)
        cache.put("ns", "key", "value")
        path = cache._entry_path("ns", "key")
        path.write_bytes(pickle.dumps({"token": repr("other"), "value": "evil"}))
        assert cache.get("ns", "key") is None

    def test_lru_eviction_by_capacity(self, tmp_path):
        cache = DiskCache(tmp_path, capacity=3)
        cache.EVICTION_STRIDE = 1   # scan on every put for the test
        for i in range(6):
            cache.put("ns", f"k{i}", i)
            os.utime(cache._entry_path("ns", f"k{i}"), (i, i))
        files = list((cache.version_dir / "ns").glob("*.pkl"))
        assert len(files) <= 3
        assert cache.events.get("evictions") >= 3

    def test_eviction_scan_is_amortized(self, tmp_path):
        """Occupancy may overshoot capacity by at most one stride."""
        cache = DiskCache(tmp_path, capacity=2)
        for i in range(cache.EVICTION_STRIDE):
            cache.put("ns", f"k{i}", i)
        files = list((cache.version_dir / "ns").glob("*.pkl"))
        assert len(files) <= 2 + cache.EVICTION_STRIDE
        # the stride boundary triggered a scan
        assert cache.events.get("evictions") > 0

    def test_clear_and_stats(self, tmp_path):
        cache = DiskCache(tmp_path, capacity=8)
        cache.put("a", "k", 1)
        cache.put("b", "k", 2)
        stats = cache.stats()
        assert stats["schema_version"] == SCHEMA_VERSION
        assert set(stats["namespaces"]) == {"a", "b"}
        assert all(ns["entries"] == 1 for ns in stats["namespaces"].values())
        assert cache.clear() == 2
        assert cache.stats()["namespaces"] == {}

    def test_concurrent_writer_safety_shape(self, tmp_path):
        """Writes go through a temp file + atomic rename in the same dir."""
        cache = DiskCache(tmp_path, capacity=8)
        cache.put("ns", "key", "v1")
        cache.put("ns", "key", "v2")    # overwrite races resolve to a winner
        assert cache.get("ns", "key") == "v2"
        leftovers = list((cache.version_dir / "ns").glob("*.tmp"))
        assert leftovers == []


class TestEnvironmentControl:
    def test_disabled_by_empty_dir(self, monkeypatch):
        monkeypatch.setenv("TYBEC_CACHE_DIR", "")
        assert cache_location() is None
        assert default_disk_cache() is None

    def test_disabled_by_off(self, monkeypatch):
        monkeypatch.setenv("TYBEC_CACHE_DIR", "off")
        assert default_disk_cache() is None

    def test_shared_instance_per_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path))
        assert default_disk_cache() is default_disk_cache()


class TestEnvInt:
    def test_garbage_override_is_counted_and_logged_once(self, monkeypatch,
                                                         caplog):
        monkeypatch.setenv("TYBEC_FAMILY_CACHE_SIZE", "abc")
        monkeypatch.setattr(cache_module, "_ENV_LOGGED", set())
        before = COUNTERS.get("fallbacks.env")
        with caplog.at_level(logging.WARNING, logger="tybec.cache"):
            assert env_int("TYBEC_FAMILY_CACHE_SIZE", 256) == 256
            assert env_int("TYBEC_FAMILY_CACHE_SIZE", 256) == 256
        assert COUNTERS.get("fallbacks.env") == before + 2
        logged = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("fallback.env")]
        assert len(logged) == 1
        assert "TYBEC_FAMILY_CACHE_SIZE" in logged[0]

    def test_a_valid_override_is_not_a_fallback(self, monkeypatch):
        monkeypatch.setenv("TYBEC_FAMILY_CACHE_SIZE", "17")
        before = COUNTERS.get("fallbacks.env")
        assert env_int("TYBEC_FAMILY_CACHE_SIZE", 256) == 17
        assert COUNTERS.get("fallbacks.env") == before

    def test_import_time_caches_fall_back_visibly(self):
        probe = ("import repro.compiler.lanescale as ls\n"
                 "from repro.resilience import COUNTERS\n"
                 "print(COUNTERS.get('fallbacks.env'), ls._FAMILY_CACHE.maxsize)")
        env = dict(os.environ, TYBEC_FAMILY_CACHE_SIZE="abc",
                   PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        # the family and recipe caches both read the variable
        assert done.stdout.split() == ["2", "256"]
        assert done.stderr.count("TYBEC_FAMILY_CACHE_SIZE") == 1


class TestWarmStartIntegration:
    def test_new_process_simulation_loads_calibration_from_disk(
        self, tmp_path, monkeypatch
    ):
        """clear in-memory caches + warm disk == a fresh process starting warm."""
        from repro.compiler import CompilationOptions, EstimationPipeline
        from repro.compiler.pipeline import clear_calibration_cache
        from repro.substrate import SMALL_EDU_DEVICE

        monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "cache"))
        clear_calibration_cache()
        first = EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE))
        first.calibrate()
        assert first.cache_requests.get(("calibration", "miss")) == 1

        clear_calibration_cache()   # "new process": memory cold, disk warm
        second = EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE))
        second.calibrate()
        # cost db + dram + host load from disk; nothing is recomputed
        assert second.cache_requests.get(("disk", "hit")) == 3
        assert second.cache_requests.get(("calibration", "miss")) == 0
        assert second.cost_db.as_dict() == first.cost_db.as_dict()

        clear_calibration_cache()

    def test_pipeline_results_identical_with_and_without_persistence(
        self, tmp_path, monkeypatch
    ):
        from repro.compiler import CompilationOptions, EstimationPipeline
        from repro.compiler.pipeline import clear_calibration_cache
        from repro.explore import canonical_report_dict
        from repro.kernels import get_kernel

        kernel = get_kernel("sor")
        workload = kernel.workload((8, 8, 8), iterations=10)
        module = kernel.build_module(lanes=2, grid=(8, 8, 8))

        monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "cache"))
        clear_calibration_cache()
        with_disk = EstimationPipeline(CompilationOptions()).cost(module, workload)

        monkeypatch.setenv("TYBEC_CACHE_DIR", "off")
        clear_calibration_cache()
        without_disk = EstimationPipeline(CompilationOptions()).cost(module, workload)
        assert canonical_report_dict(with_disk) == canonical_report_dict(without_disk)

        clear_calibration_cache()

    def test_a_store_of_the_previous_layout_is_not_read(self, tmp_path, monkeypatch):
        """The previous layout persisted each design's structural bundle in
        an ``analysis`` namespace keyed by module content and latency
        model, and schema 1 pickled it as a 5-tuple.  Nothing reads that
        namespace any more: a store that still holds such entries costs
        exactly what a clean store does, and leaves them as they were."""
        from repro.compiler import CompilationOptions, EstimationPipeline
        from repro.compiler.pipeline import (
            _latency_key,
            clear_calibration_cache,
            module_content_key,
        )
        from repro.explore import canonical_report_dict
        from repro.kernels import get_kernel

        options = CompilationOptions(lane_scaling=False)
        kernel = get_kernel("sor")
        workload = kernel.workload((8, 8, 8), iterations=10)
        modules = [kernel.build_module(lanes=lanes, grid=(8, 8, 8)) for lanes in (1, 2, 4)]

        def costs(store):
            monkeypatch.setenv("TYBEC_CACHE_DIR", str(store))
            clear_calibration_cache()
            pipeline = EstimationPipeline(options)
            return [canonical_report_dict(pipeline.cost(module, workload))
                    for module in modules]

        clean = costs(tmp_path / "clean")
        old = DiskCache(tmp_path / "old")
        for module in modules:
            old.put("analysis", (module_content_key(module), _latency_key(options)),
                    ("structure", "tree", "classification", "schedules", "family"))
        entries = sorted(old.version_dir.joinpath("analysis").glob("*.pkl"))
        assert len(entries) == len(modules)
        before = [path.read_bytes() for path in entries]

        assert costs(tmp_path / "old") == clean
        assert sorted(old.version_dir.joinpath("analysis").glob("*.pkl")) == entries
        assert [path.read_bytes() for path in entries] == before
        clear_calibration_cache()

    def test_structural_analyses_are_not_persisted(self, tmp_path, monkeypatch):
        """A cold run with lane scaling off takes the full analysis path
        for every design; the store it leaves holds the calibration but
        no ``analysis`` namespace."""
        from repro.compiler import CompilationOptions, EstimationPipeline
        from repro.compiler.pipeline import clear_calibration_cache
        from repro.kernels import get_kernel

        monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "cache"))
        clear_calibration_cache()
        pipeline = EstimationPipeline(CompilationOptions(lane_scaling=False))
        kernel = get_kernel("sor")
        workload = kernel.workload((8, 8, 8), iterations=10)
        for lanes in (1, 2, 4):
            pipeline.cost(kernel.build_module(lanes=lanes, grid=(8, 8, 8)), workload)
        store = tmp_path / "cache" / f"v{SCHEMA_VERSION}"
        assert pipeline.cache_requests.get(("variant", "miss")) == 3
        assert any(store.joinpath("calibration").glob("*.pkl"))
        assert not store.joinpath("analysis").exists()
        clear_calibration_cache()
