"""Mutation fuzzing of the JSON inputs: ``repro-trace/1`` files and fault plans.

Hypothesis takes a valid trace file and a valid fault plan as text and
mutates their characters: deletes one, inserts or substitutes a JSON
character, or duplicates a run.  Whatever comes out, loading it either
succeeds or raises a ``ValueError`` naming the problem: never an
``OverflowError``, ``TypeError`` or ``KeyError`` that a CLI caller would
have to guess at.  A trace that loads also summarizes; a plan that
loads also decides and re-encodes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.trace import TRACE_SCHEMA, load_trace, summarize_trace, validate_trace
from repro.resilience import FaultPlan

#: the characters an insert or substitution may use: JSON punctuation,
#: digits, the letters of the literals, and whitespace
JSON_CHARS = '{}[]",:-+.0123456789eEtrufalsn \n'

TRACE_TEXT = "\n".join(json.dumps(line) for line in (
    {"schema": TRACE_SCHEMA, "trace_id": "t1"},
    {"trace": "t1", "span": "b", "site": "inner", "start": 0.25,
     "duration": 0.5, "pid": 7, "parent": "a", "attrs": {"design": "sor_l2"}},
    {"trace": "t1", "span": "a", "site": "outer", "start": 0.0,
     "duration": 1.0, "pid": 7, "parent": None},
)) + "\n"

PLAN_TEXT = json.dumps({"seed": 3, "sites": {
    "worker": {"rate": 0.5, "indices": [1, 4], "mode": "raise", "max_failures": 2},
    "cache.read": 0.25}})

#: an integer beyond the float range, where a float was expected
HUGE = "1" + "0" * 400


@st.composite
def mutated(draw, text: str) -> str:
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(("delete", "insert", "substitute", "duplicate")))
        if op == "insert":
            chars.insert(i, draw(st.sampled_from(JSON_CHARS)))
        elif i < len(chars):
            if op == "delete":
                del chars[i]
            elif op == "substitute":
                chars[i] = draw(st.sampled_from(JSON_CHARS))
            else:
                chars[i:i] = chars[i:i + draw(st.integers(1, 12))]
    return "".join(chars)


def test_trace_header_needs_a_string_trace_id():
    with pytest.raises(ValueError, match="trace_id"):
        validate_trace({"schema": TRACE_SCHEMA, "trace_id": 5}, [])


@settings(max_examples=50, deadline=None)
@given(mutated(TRACE_TEXT))
@example(TRACE_TEXT.replace('"start": 0.25', f'"start": {HUGE}'))
@example(TRACE_TEXT.replace('"trace_id": "t1"', '"trace_id": 5'))
def test_mutated_trace_files_load_or_raise_a_value_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("trace-fuzz") / "t.ndjson"
    path.write_text(text, encoding="utf-8")
    try:
        _, records = load_trace(path)
    except ValueError:
        return
    json.dumps(summarize_trace(records))


@settings(max_examples=50, deadline=None)
@given(mutated(PLAN_TEXT))
@example(PLAN_TEXT.replace('"rate": 0.5', f'"rate": {HUGE}'))
@example(PLAN_TEXT.replace('"cache.read": 0.25', f'"cache.read": {HUGE}'))
def test_mutated_fault_plans_load_or_raise_a_value_error(text):
    try:
        plan = FaultPlan.from_json(text)
    except ValueError:
        return
    for site in plan.sites:
        plan.should_fail(site)
    assert FaultPlan.from_json(plan.as_json()).sites == plan.sites
