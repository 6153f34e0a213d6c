"""Tracer invariants: nesting, NDJSON round-trip, validation, summaries."""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.trace import (
    NULL_SPAN,
    TRACE_SCHEMA,
    Tracer,
    activate_from_env,
    current_trace_id,
    current_tracer,
    install_tracer,
    load_trace,
    span,
    summarize_trace,
    uninstall_tracer,
    validate_trace,
    worker_trace_context,
)


class TestAmbientSpan:
    def test_disabled_tracing_yields_shared_null_span(self):
        ctx = span("pipeline.cost")
        assert ctx is NULL_SPAN
        with ctx as sp:
            assert sp is None

    def test_install_makes_span_live(self, tmp_path):
        install_tracer(Tracer(tmp_path / "t.ndjson"))
        with span("suite.sweep") as sp:
            assert sp is not None
            assert sp.site == "suite.sweep"
        assert current_tracer().spans_emitted == 1

    def test_uninstall_closes_and_clears(self, tmp_path):
        tracer = install_tracer(Tracer(tmp_path / "t.ndjson"))
        assert uninstall_tracer() is tracer
        assert current_tracer() is None
        assert span("anything") is NULL_SPAN

    def test_activate_from_env_is_idempotent(self, tmp_path):
        env = {"TYBEC_TRACE": str(tmp_path / "t.ndjson")}
        first = activate_from_env(env)
        second = activate_from_env({"TYBEC_TRACE": str(tmp_path / "u.ndjson")})
        assert first is second

    def test_activate_from_env_without_path_is_noop(self):
        assert activate_from_env({}) is None
        assert current_tracer() is None


class TestNesting:
    def test_children_point_at_innermost_open_span(self, tmp_path):
        tracer = install_tracer(Tracer(tmp_path / "t.ndjson", collect=True))
        with span("outer") as outer:
            with span("middle") as middle:
                with span("inner") as inner:
                    pass
        records = {r["site"]: r for r in tracer.drain()}
        assert "parent" not in records["outer"]
        assert records["middle"]["parent"] == outer.span_id
        assert records["inner"]["parent"] == middle.span_id
        assert inner.parent_id == middle.span_id
        assert {r["trace"] for r in records.values()} == {tracer.trace_id}

    def test_sibling_spans_share_a_parent(self, tmp_path):
        tracer = install_tracer(Tracer(tmp_path / "t.ndjson", collect=True))
        with span("outer") as outer:
            with span("first"):
                pass
            with span("second"):
                pass
        records = {r["site"]: r for r in tracer.drain()}
        assert records["first"]["parent"] == outer.span_id
        assert records["second"]["parent"] == outer.span_id

    def test_current_trace_id_follows_open_span(self, tmp_path):
        assert current_trace_id() is None
        tracer = install_tracer(Tracer(tmp_path / "t.ndjson"))
        assert current_trace_id() == tracer.trace_id
        with span("outer", _trace_id="deadbeef"):
            assert current_trace_id() == "deadbeef"
        assert current_trace_id() == tracer.trace_id

    def test_explicit_trace_id_starts_a_fresh_root(self, tmp_path):
        tracer = install_tracer(Tracer(tmp_path / "t.ndjson", collect=True))
        with span("service.request", _trace_id="cafe"):
            with span("suite.sweep"):
                pass
        records = {r["site"]: r for r in tracer.drain()}
        assert records["service.request"]["trace"] == "cafe"
        assert "parent" not in records["service.request"]
        assert records["suite.sweep"]["trace"] == "cafe"
        assert (records["suite.sweep"]["parent"]
                == records["service.request"]["span"])

    def test_new_threads_start_unparented(self, tmp_path):
        tracer = install_tracer(Tracer(tmp_path / "t.ndjson", collect=True))
        seen: list[str | None] = []

        def worker() -> None:
            with span("thread.child") as sp:
                seen.append(sp.parent_id)

        with span("outer"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == [None]
        assert tracer.spans_emitted == 2

    def test_exception_sets_error_attr_and_propagates(self, tmp_path):
        tracer = install_tracer(Tracer(tmp_path / "t.ndjson", collect=True))
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
        (record,) = tracer.drain()
        assert record["attrs"]["error"] == "ValueError"
        assert record["duration"] >= 0


class TestRoundTrip:
    def test_file_round_trip_validates_and_orders(self, tmp_path):
        path = tmp_path / "t.ndjson"
        install_tracer(Tracer(path))
        with span("outer", kernel="sor"):
            with span("inner"):
                pass
        uninstall_tracer()

        header, records = load_trace(path)
        assert header["schema"] == TRACE_SCHEMA
        assert len(records) == 2
        # spans are emitted on exit, so inner precedes outer on disk and
        # validation must tolerate forward parent references
        assert records[0]["site"] == "inner"
        assert records[1]["attrs"] == {"kernel": "sor"}

    def test_spans_buffer_until_flush(self, tmp_path):
        path = tmp_path / "t.ndjson"
        tracer = install_tracer(Tracer(path))
        with span("buffered"):
            pass
        # span exit only buffers; nothing but (at most) the header has
        # reached the file yet
        assert len(path.read_text().splitlines()) <= 1
        tracer.flush()
        assert len(path.read_text().splitlines()) == 2

    def test_load_rejects_truncated_json(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"schema": "repro-trace/1", "trace_id": "x"}\n{"tr')
        with pytest.raises(ValueError, match="invalid JSON"):
            load_trace(path)

    def test_validate_rejects_bad_traces(self):
        header = {"schema": TRACE_SCHEMA, "trace_id": "t"}
        good = {"trace": "t", "span": "a", "site": "s", "start": 0.0,
                "duration": 0.1, "pid": 1}
        with pytest.raises(ValueError, match="schema"):
            validate_trace({"schema": "nope", "trace_id": "t"}, [])
        with pytest.raises(ValueError, match="missing 'duration'"):
            validate_trace(header, [{k: v for k, v in good.items()
                                     if k != "duration"}])
        with pytest.raises(ValueError, match="duplicate span id"):
            validate_trace(header, [good, dict(good)])
        with pytest.raises(ValueError, match="unknown parent"):
            validate_trace(header, [{**good, "parent": "ghost"}])
        with pytest.raises(ValueError, match="negative"):
            validate_trace(header, [{**good, "duration": -1.0}])


class TestWorkerContext:
    def test_context_round_trips_through_a_collecting_tracer(self, tmp_path):
        parent = install_tracer(Tracer(tmp_path / "t.ndjson", collect=True))
        with span("backend.pool.batch") as pool_span:
            ctx = worker_trace_context(pool_span)
        assert ctx == (parent.trace_id, pool_span.span_id)

        # what _evaluate_batch does on the worker side
        worker = Tracer(trace_id=ctx[0], collect=True, root_parent=ctx[1])
        with worker.span("worker.batch", {"points": 3}):
            with worker.span("pipeline.cost", {}):
                pass
        shipped = worker.drain()

        assert parent.emit_foreign(shipped) == 2
        records = {r["site"]: r for r in parent.drain()}
        assert records["worker.batch"]["trace"] == parent.trace_id
        assert records["worker.batch"]["parent"] == pool_span.span_id
        assert (records["pipeline.cost"]["parent"]
                == records["worker.batch"]["span"])

    def test_none_parent_means_no_context(self):
        assert worker_trace_context(None) is None

    def test_emit_foreign_skips_junk(self, tmp_path):
        tracer = Tracer(tmp_path / "t.ndjson")
        assert tracer.emit_foreign(["nope", {"no_span_key": 1}, None]) == 0
        tracer.close()


class TestSummarize:
    def _records(self):
        mk = lambda span_id, site, dur, parent=None: {  # noqa: E731
            "trace": "t", "span": span_id, "site": site, "start": 0.0,
            "duration": dur, "pid": 1,
            **({"parent": parent} if parent else {}),
        }
        return [
            mk("r", "suite.sweep", 1.0),
            mk("a", "optimizer.round", 0.7, "r"),
            mk("b", "optimizer.round", 0.2, "r"),
            mk("c", "pipeline.cost", 0.6, "a"),
        ]

    def test_aggregates_per_site(self):
        summary = summarize_trace(self._records())
        assert summary["span_count"] == 4
        assert summary["wall_seconds"] == 1.0
        rounds = summary["sites"]["optimizer.round"]
        assert rounds["count"] == 2
        assert rounds["total_seconds"] == pytest.approx(0.9)
        assert rounds["max_seconds"] == 0.7

    def test_critical_path_descends_by_duration(self):
        summary = summarize_trace(self._records())
        assert [hop["site"] for hop in summary["critical_path"]] == [
            "suite.sweep", "optimizer.round", "pipeline.cost"]

    def test_slowest_is_sorted_and_capped(self):
        summary = summarize_trace(self._records(), top=2)
        assert [r["span"] for r in summary["slowest"]] == ["r", "a"]

    def test_summary_is_json_serializable(self):
        json.dumps(summarize_trace(self._records()))


class TestLoadTraceFuzz:
    """Any record, however ill-typed, loads or is a ``ValueError``."""

    _VALID = {"trace": "t", "span": "a", "site": "s", "start": 0.0,
              "duration": 0.5, "pid": 1, "parent": None}

    @settings(max_examples=50, deadline=None)
    @given(
        key=st.sampled_from([*_VALID, "attrs"]),
        value=st.recursive(
            st.none() | st.booleans() | st.integers(-2, 2)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(["", "a", "t"]),
            lambda inner: st.lists(inner, max_size=2)
            | st.dictionaries(st.sampled_from(["a", "x"]), inner, max_size=2),
            max_leaves=4),
        drop=st.booleans(),
    )
    def test_mutated_record_loads_or_is_refused(self, tmp_path_factory, key,
                                                value, drop):
        record = dict(self._VALID)
        if drop:
            record.pop(key, None)
        else:
            record[key] = value
        path = tmp_path_factory.mktemp("fuzz") / "t.ndjson"
        header = {"schema": "repro-trace/1", "trace_id": "t"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        try:
            _, records = load_trace(path)
        except ValueError:
            return
        json.dumps(summarize_trace(records))  # a loaded trace summarizes
