"""Mutation fuzzing of persistent-store entries.

A warm store holds pickled records: calibration models, family analyses
and recipe aliases.  Hypothesis takes the entries one costing call wrote
and damages one of them: truncates it, overwrites some of its bytes,
re-types its value (in a well-formed entry, or in the digest-less layout
older stores hold), rewrites it in that layout with its own value, or
swaps its token (the whole file, or only the token the entry claims) with
another entry's.  Whatever comes out,
the store rejects the entry — a miss and a decode strike, quarantined
after :attr:`DiskCache.QUARANTINE_AFTER` strikes — and costing the design
again from cleared process caches gives the clean report, without
raising.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilationOptions, EstimationPipeline
from repro.compiler.lanescale import FamilyAnalysis, LaneFamilyHandle, clear_family_caches
from repro.compiler.pipeline import clear_calibration_cache
from repro.cost.bandwidth import SustainedBandwidthModel
from repro.cost.cache import DiskCache, default_disk_cache, redirected_cache_dir
from repro.cost.calibration import DeviceCostDB
from repro.explore import canonical_report_dict
from repro.kernels import get_kernel
from repro.substrate import SMALL_EDU_DEVICE
from repro.substrate.synthesis import ResourceUsage
from tests.conftest import fuzz_examples

GRID = (8, 8, 8)

#: re-typed values (each entry draws among those not of its own type)
WRONG_VALUES = (None, 0, 1.5, "fingerprint", b"", (), [], {}, ResourceUsage(1.0))


def expected_kind(namespace: str, token) -> type:
    """The type the pipeline asks the store for under ``token``."""
    if namespace == "family":
        return FamilyAnalysis
    if namespace == "recipe":
        return str
    return DeviceCostDB if token[0] == "costdb" else SustainedBandwidthModel


def cost_sor(lanes: int = 2) -> dict:
    """Cost one SOR lane-family member from cleared process caches."""
    clear_calibration_cache()
    clear_family_caches()
    kernel = get_kernel("sor")
    report = EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE)).cost(
        LaneFamilyHandle(kernel, lanes, GRID), kernel.workload(GRID, iterations=10))
    return canonical_report_dict(report)


@lru_cache(maxsize=None)
def clean_store() -> tuple[Path, tuple, dict]:
    """A store warmed by one costing call: its directory, the ``(namespace,
    token)`` of every entry the call wrote, and the clean report."""
    root = Path(tempfile.mkdtemp(prefix="tybec-fuzz-store-"))
    written = []
    put = DiskCache.put

    def recording_put(self, namespace, token, value):
        written.append((namespace, token))
        put(self, namespace, token, value)

    DiskCache.put = recording_put
    try:
        with redirected_cache_dir(root):
            report = cost_sor()
    finally:
        DiskCache.put = put
    return root, tuple(written), report


@pytest.fixture(scope="module", autouse=True)
def _remove_clean_store():
    yield
    if clean_store.cache_info().currsize:
        shutil.rmtree(clean_store()[0], ignore_errors=True)
        clean_store.cache_clear()


@st.composite
def mutations(draw) -> tuple[int, str, object]:
    _, entries, _ = clean_store()
    index = draw(st.integers(min_value=0, max_value=len(entries) - 1))
    kind = draw(st.sampled_from(("truncate", "corrupt", "retype", "retype-legacy",
                                 "legacy", "swap-file", "swap-token")))
    if kind == "truncate":
        arg = draw(st.floats(min_value=0.0, max_value=0.999))
    elif kind == "corrupt":
        arg = draw(st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.999),
                                      st.integers(min_value=0, max_value=255)),
                            min_size=1, max_size=8))
    elif kind.startswith("retype"):
        wanted = expected_kind(*entries[index])
        arg = draw(st.sampled_from([v for v in WRONG_VALUES if not isinstance(v, wanted)]))
    else:
        others = [i for i in range(len(entries)) if i != index]
        arg = draw(st.sampled_from(others))
    return index, kind, arg


def damage(cache: DiskCache, entries: tuple, index: int, kind: str, arg) -> Path:
    path = cache._entry_path(*entries[index])
    data = path.read_bytes()
    if kind == "truncate":
        data = data[:int(arg * len(data))]
    elif kind == "corrupt":
        data = bytearray(data)
        for where, byte in arg:
            data[int(where * len(data))] = byte
        data = bytes(data)
    elif kind == "retype":
        cache.put(*entries[index], arg)
        data = path.read_bytes()
    elif kind == "retype-legacy":
        data = pickle.dumps({"token": repr(entries[index][1]), "value": arg})
    elif kind == "legacy":
        data = legacy_layout(data)
    elif kind == "swap-file":
        data = cache._entry_path(*entries[arg]).read_bytes()
    else:
        payload = pickle.loads(data)
        payload["token"] = repr(entries[arg][1])
        data = pickle.dumps(payload)
    path.write_bytes(data)
    return path


@settings(max_examples=fuzz_examples(50), deadline=None)
@given(mutations())
def test_a_damaged_entry_is_rejected_and_costing_recovers(mutation):
    root, entries, clean = clean_store()
    index, kind, arg = mutation
    with tempfile.TemporaryDirectory(prefix="tybec-fuzz-") as scratch:
        store = Path(scratch) / "store"
        shutil.copytree(root, store)
        with redirected_cache_dir(store):
            cache = default_disk_cache()
            path = damage(cache, entries, index, kind, arg)
            damaged = path.read_bytes()
            if decodes_alike(damaged, clean_bytes(root, cache, path)):
                return  # the bytes changed, the entry did not
            namespace, token = entries[index]
            for strike in range(1, DiskCache.QUARANTINE_AFTER + 1):
                assert cache.get(namespace, token, expected_kind(namespace, token)) is None
                assert path.exists() == (strike < DiskCache.QUARANTINE_AFTER)
            assert path.with_suffix(".quarantined").read_bytes() == damaged

            path.with_suffix(".quarantined").rename(path)
            assert cost_sor() == clean
    clear_calibration_cache()
    clear_family_caches()


def legacy_layout(data: bytes) -> bytes:
    """An entry as stores wrote it before entries carried a digest."""
    payload = pickle.loads(data)
    return pickle.dumps({"token": payload["token"], "value": pickle.loads(payload["value"])})


def clean_bytes(root: Path, cache: DiskCache, path: Path) -> bytes:
    return (root / path.relative_to(cache.root)).read_bytes()


def decodes_alike(damaged: bytes, clean: bytes) -> bool:
    try:
        return pickle.loads(damaged) == pickle.loads(clean)
    except Exception:
        return False


def test_the_corpus_holds_every_namespace_a_costing_call_reads():
    """Calibration, family and recipe entries are all in the corpus, and
    an undamaged copy serves costing with no new entries written."""
    root, entries, clean = clean_store()
    assert {namespace for namespace, _ in entries} == {"calibration", "family", "recipe"}
    with tempfile.TemporaryDirectory(prefix="tybec-fuzz-") as scratch:
        store = Path(scratch) / "store"
        shutil.copytree(root, store)
        with redirected_cache_dir(store):
            cache = default_disk_cache()
            for namespace, token in entries:
                assert cache.get(namespace, token, expected_kind(namespace, token))
            before = sorted(p.name for p in store.rglob("*.pkl"))
            assert cost_sor() == clean
            assert sorted(p.name for p in store.rglob("*.pkl")) == before
    clear_calibration_cache()
    clear_family_caches()


def test_a_digest_less_entry_is_a_miss_that_the_next_put_rewrites():
    """Every entry of the corpus, rewritten in the digest-less layout with
    its own value: one strike each, then costing writes it back with its
    digest and the store serves it again."""
    root, entries, clean = clean_store()
    with tempfile.TemporaryDirectory(prefix="tybec-fuzz-") as scratch:
        store = Path(scratch) / "store"
        shutil.copytree(root, store)
        with redirected_cache_dir(store):
            cache = default_disk_cache()
            entries = list(dict.fromkeys(entries))  # a token may be put twice
            paths = []
            for namespace, token in entries:
                path = cache._entry_path(namespace, token)
                path.write_bytes(legacy_layout(path.read_bytes()))
                assert cache.get(namespace, token, expected_kind(namespace, token)) is None
                assert cache._decode_failures[str(path)] == 1
                paths.append(path)
            assert cost_sor() == clean
            for (namespace, token), path in zip(entries, paths):
                assert "sha256" in pickle.loads(path.read_bytes())
                assert str(path) not in cache._decode_failures
                assert cache.get(namespace, token, expected_kind(namespace, token)) is not None
    clear_calibration_cache()
    clear_family_caches()
