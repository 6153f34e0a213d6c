"""The row encoder is byte-identical to the reference dump.

``canonical_json`` and ``canonical_json_line`` encode report rows (sweep
entries) through templates cached per row layout, and only the small
frame around them through ``canonicalize`` and the stdlib dump.  The
reference is the one dump of the fully expanded payload:
``json.dumps(canonicalize(payload), sort_keys=True, ...)``.  Hypothesis
builds entries whose leaves take the spellings that differ between
the two routes: exponent forms, integer-valued floats, ints and ``None``
in numeric slots, ``numpy.float64``, the non-finite floats, non-ASCII
and control characters, and empty lists.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import replace
from repro.cost.report import CostReport, FeasibilityCheck
from repro.cost.resource_model import FunctionResourceEstimate, ModuleResourceEstimate
from repro.cost.throughput import EKITEstimate, LimitingFactor, TimeBreakdown
from repro.explore.engine import SweepEntry
from repro.explore.space import DesignPoint
from repro.models.memory_execution import MemoryExecutionForm
from repro.models.streaming import PatternKind
from repro.service.server import _EntryEvent
from repro.substrate import get_device
from repro.substrate.synthesis import ResourceUsage
from repro.suite import SuiteConfig, WorkloadSuite
from repro.suite.report import SuiteReport, canonical_json, canonical_json_line, canonicalize
from tests.conftest import fuzz_examples

DEVICE = get_device("stratix-v")

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([1e16, 1e-07, 1.5e300, 1e22, 5e-324, 0.0, -0.0, 0.1,
                     123456789.0, 1234567890123.0, float("inf"),
                     float("-inf"), float("nan")]),
    st.integers(-10**12, 10**12).map(float),
    st.floats().map(np.float64),
)
NUMBERS = st.one_of(FLOATS, st.integers(-2**70, 2**70))
#: the bandwidth slots feed ``feasible``, which must stay a Python bool
PLAIN = st.one_of(st.floats(), st.integers(-2**70, 2**70))
MAYBE = st.one_of(NUMBERS, st.none())
TEXT = st.one_of(st.text(max_size=12),
                 st.sampled_from(["", "\x00row0", "µs\n\t\"\\", "%s %%",
                                  "\x7f\x1f ", "\U0001f600"]))


def _usage(numbers):
    return st.builds(ResourceUsage, alut=numbers, reg=numbers,
                     bram_bits=numbers, dsp=numbers)


ENTRIES = st.builds(
    SweepEntry,
    point=st.builds(
        DesignPoint, kernel=TEXT, lanes=st.integers(),
        grid=st.lists(st.integers(), max_size=4).map(tuple),
        iterations=st.integers(), clock_mhz=FLOATS,
        form=st.one_of(st.sampled_from(list(MemoryExecutionForm)), TEXT),
        device=st.just(DEVICE), pattern=st.sampled_from(list(PatternKind))),
    report=st.builds(
        CostReport, design=TEXT, device=st.just(DEVICE),
        resources=st.builds(
            ModuleResourceEstimate, design=TEXT, total=_usage(NUMBERS),
            functions=st.lists(st.builds(FunctionResourceEstimate, function=TEXT,
                                         usage=_usage(MAYBE),
                                         instances=st.integers()), max_size=3),
            offset_buffers=_usage(MAYBE), stream_control=_usage(MAYBE)),
        throughput=st.builds(
            EKITEstimate, form=st.sampled_from(list(MemoryExecutionForm)),
            parameters=st.none(),
            breakdown=st.builds(TimeBreakdown, host_transfer=NUMBERS,
                                offset_fill=NUMBERS, pipeline_fill=NUMBERS,
                                dram_streaming=NUMBERS, compute=NUMBERS,
                                reconfiguration=NUMBERS),
            ekit=MAYBE, limiting_factor=st.sampled_from(list(LimitingFactor))),
        feasibility=st.builds(
            FeasibilityCheck, fits_resources=st.booleans(),
            limiting_resource=st.one_of(TEXT, st.none()),
            limiting_resource_utilization=MAYBE, required_dram_gbps=PLAIN,
            available_dram_gbps=PLAIN, required_host_gbps=PLAIN,
            available_host_gbps=PLAIN),
        estimation_seconds=FLOATS, notes=st.lists(TEXT, max_size=3)),
)


def reference(payload, indent: bool) -> str:
    """The one stdlib dump of the fully expanded payload."""
    if indent:
        return json.dumps(canonicalize(payload), sort_keys=True, indent=2) + "\n"
    return json.dumps(canonicalize(payload), sort_keys=True,
                      separators=(",", ":")) + "\n"


def suite_payload(entries: list, frame_text: str = "sor") -> dict:
    """A suite-report payload around ``entries`` (rows 4 deep)."""
    return {"schema": "repro-suite-report/1", "config": {"kernels": [frame_text]},
            "kernels": {frame_text: {"best": None, "entries": entries,
                                     "points": len(entries)}},
            "totals": {"points": len(entries)}}


@lru_cache(maxsize=None)
def tiny_report() -> SuiteReport:
    return WorkloadSuite(SuiteConfig.tiny(kernels=("sor", "matmul"))).run().report


#: numpy.float64 legs may sum inf and -inf: a nan leaf, as wanted
quiet_numpy = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@quiet_numpy
@settings(max_examples=fuzz_examples(50), deadline=None)
@given(entries=st.lists(ENTRIES, max_size=3), frame_text=TEXT)
def test_indented_rows_match_the_reference(entries, frame_text):
    payload = suite_payload(entries, frame_text)
    assert canonical_json(payload) == reference(payload, True)
    # the same rows at the top level and right under a key
    for shallow in entries[:1] + [{"row": entries}]:
        assert canonical_json(shallow) == reference(shallow, True)


@quiet_numpy
@settings(max_examples=fuzz_examples(50), deadline=None)
@given(entry=ENTRIES, index=st.integers(0, 10**6))
def test_compact_events_match_the_reference(entry, index):
    check_compact_events(entry, index)


def check_compact_events(entry, index):
    event = _EntryEvent(index, entry)
    assert canonical_json_line(event) == reference(event.as_dict(), False)
    report_event = {"event": "report", "kind": "suite", "evaluated": 1,
                    "payload": suite_payload([entry])}
    assert canonical_json_line(report_event) == reference(report_event, False)


def test_kernel_payload_and_full_report_match_the_reference():
    report = tiny_report()
    check_compact_events(report.kernels["sor"]["entries"][0], 0)
    assert report.to_json() == reference(report.payload, True)
    assert canonical_json(report.kernel_payload("sor")) == \
        reference(report.kernel_payload("sor"), True)
    # the reference of every golden, diff and client fold: the expanded dicts
    assert report.canonical_dict()["kernels"]["sor"]["entries"][0] == \
        canonicalize(report.kernels["sor"]["entries"][0].as_dict())


def test_a_frame_string_that_spells_the_row_marker_falls_back():
    entries = tiny_report().kernels["sor"]["entries"][:2]
    payload = suite_payload(entries, "\x00row0")
    payload["config"]["note"] = 'x"\x00row1'
    assert canonical_json(payload) == reference(payload, True)


def _leaves(value) -> list:
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in _leaves(value[key])]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_row_leaves_read_every_field_of_as_dict():
    """Fails when ``as_dict()`` gains a field that ``row_leaves()`` omits."""
    for info in tiny_report().kernels.values():
        for entry in info["entries"]:
            expected = _leaves(canonicalize(entry.as_dict()))
            assert [canonicalize(v) for v in entry.row_leaves()] == expected


def test_a_row_whose_reader_lags_its_as_dict_is_refused():
    class GrownEntry(SweepEntry):
        def as_dict(self) -> dict:
            return {**super().as_dict(), "extra": 1.0}

    entry = tiny_report().kernels["sor"]["entries"][0]
    with pytest.raises(AssertionError, match="row_leaves"):
        canonical_json(suite_payload([GrownEntry(entry.point, entry.report)]))


def test_unsupported_leaf_raises_like_canonicalize():
    entry = tiny_report().kernels["sor"]["entries"][0]
    bad = replace(entry, point=replace(entry.point, lanes=np.int64(2)))
    with pytest.raises(TypeError):
        reference(suite_payload([bad]), True)
    with pytest.raises(TypeError):
        canonical_json(suite_payload([bad]))
