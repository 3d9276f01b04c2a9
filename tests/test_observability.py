"""Tests for repro.observability: spans, exporters, and build integration."""

from __future__ import annotations

import io as io_module
import json

import pytest

from repro.config import BoatConfig
from repro.core import boat_build
from repro.exceptions import ReproError
from repro.observability import (
    COUNTER_FIELDS,
    NULL_TRACER,
    NullTracer,
    TraceReport,
    Tracer,
    ensure_tracer,
    format_trace,
    read_jsonl,
    trace_lines,
    write_jsonl,
)
from repro.storage import IOStats, MemoryTable

from .conftest import simple_xy_data


def make_clock(step: float = 1.0):
    """A deterministic clock advancing ``step`` per call."""
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += step
        return state["now"]

    return clock


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("build"):
            with tracer.span("sample"):
                pass
            with tracer.span("cleanup"):
                with tracer.span("inner"):
                    pass
        (root,) = tracer.report().roots
        assert root.name == "build"
        assert [c.name for c in root.children] == ["sample", "cleanup"]
        assert [c.name for c in root.children[1].children] == ["inner"]

    def test_sequential_roots_form_a_forest(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.report().roots] == ["first", "second"]

    def test_status_ok_and_wall_time_recorded(self):
        tracer = Tracer(clock=make_clock(step=0.5))
        with tracer.span("phase"):
            pass
        span = tracer.report().find("phase")
        assert span.status == "ok"
        assert span.wall_seconds == pytest.approx(0.5)

    def test_io_delta_attributed_to_the_span(self):
        io = IOStats()
        tracer = Tracer(io)
        io.record_read(5, 40)  # before the span: not attributed
        with tracer.span("scan"):
            io.record_read(7, 56)
            io.record_full_scan()
        span = tracer.report().find("scan")
        assert span.tuples_read == 7
        assert span.bytes_read == 56
        assert span.full_scans == 1

    def test_parent_counters_include_children(self):
        io = IOStats()
        tracer = Tracer(io)
        with tracer.span("outer"):
            io.record_read(1, 8)
            with tracer.span("inner"):
                io.record_read(2, 16)
        report = tracer.report()
        assert report.find("inner").tuples_read == 2
        assert report.find("outer").tuples_read == 3  # inclusive accounting

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_detached_span_cannot_be_entered(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="detached"):
            with tracer.worker_span("w"):
                pass

    def test_set_and_bump_attributes(self):
        tracer = Tracer()
        with tracer.span("phase", preset=1) as span:
            span.set(nodes=7)
            span.bump("batches")
            span.bump("batches", 2)
        span = tracer.report().find("phase")
        assert span.attributes == {"preset": 1, "nodes": 7, "batches": 3}

    def test_event_records_zero_duration_child(self):
        tracer = Tracer()
        with tracer.span("phase"):
            tracer.event("pool_degraded", backend="process")
        (event,) = tracer.report().find("phase").children
        assert event.status == "event"
        assert event.attributes == {"backend": "process"}


class TestExceptionPropagation:
    def test_exception_closes_span_with_error_status(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        report = tracer.report()
        assert report.find("inner").status == "error:ValueError"
        assert report.find("outer").status == "error:ValueError"

    def test_exception_is_never_swallowed(self):
        tracer = Tracer()
        with pytest.raises(ReproError):
            with tracer.span("phase"):
                raise ReproError("surface me")

    def test_stack_is_clean_after_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failed"):
                raise ValueError
        with tracer.span("next"):
            pass
        assert [r.name for r in tracer.report().roots] == ["failed", "next"]
        assert tracer.current() is None


class TestNullTracer:
    def test_span_returns_the_same_object(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NULL_TRACER.worker_span("w") is NULL_TRACER.span("a")

    def test_null_span_is_a_noop_context_manager(self):
        with NULL_TRACER.span("phase", attr=1) as span:
            assert span.set(x=1) is span
            span.bump("n")
            span.add_io(IOStats())
            assert span.merge(span) is span

    def test_null_span_propagates_exceptions(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("phase"):
                raise ValueError

    def test_report_is_empty(self):
        assert NULL_TRACER.report().roots == []
        assert NULL_TRACER.enabled is False

    def test_ensure_tracer(self):
        tracer = Tracer()
        assert ensure_tracer(None) is NULL_TRACER
        assert ensure_tracer(tracer) is tracer
        assert isinstance(ensure_tracer(None), NullTracer)


class TestWorkerSpanMerge:
    def _worker(self, tracer, tuples, batches):
        span = tracer.worker_span("w")
        stats = IOStats()
        stats.record_read(tuples, tuples * 8)
        span.add_io(stats)
        span.set(batches=batches)
        return span

    def test_merge_adds_counters_and_numeric_attributes(self):
        tracer = Tracer()
        merged = self._worker(tracer, 3, 1).merge(self._worker(tracer, 4, 2))
        assert merged.tuples_read == 7
        assert merged.attributes["batches"] == 3

    def test_merge_is_associative(self):
        tracer = Tracer()

        def spans():
            return [self._worker(tracer, t, b) for t, b in ((3, 1), (4, 2), (5, 3))]

        a1, b1, c1 = spans()
        left = a1.merge(b1).merge(c1)
        a2, b2, c2 = spans()
        right = a2.merge(b2.merge(c2))
        assert left.counters == right.counters
        assert left.attributes == right.attributes
        assert left.wall_seconds == right.wall_seconds

    def test_non_numeric_attributes_first_writer_wins(self):
        tracer = Tracer()
        a = tracer.worker_span("w", backend="thread")
        b = tracer.worker_span("w", backend="process")
        assert a.merge(b).attributes["backend"] == "thread"

    def test_attach_places_worker_spans_under_current(self):
        tracer = Tracer()
        with tracer.span("cleanup"):
            w0 = self._worker(tracer, 2, 1)
            w1 = self._worker(tracer, 3, 1)
            tracer.adopt(w0)
            tracer.adopt(w1)
        children = tracer.report().find("cleanup").children
        assert [c.status for c in children] == ["ok", "ok"]
        assert sum(c.tuples_read for c in children) == 5


class TestExport:
    def _trace(self):
        io = IOStats()
        tracer = Tracer(io, clock=make_clock())
        with tracer.span("build", table_size=100):
            with tracer.span("sample"):
                io.record_read(10, 80)
                io.record_full_scan()
            with tracer.span("cleanup"):
                io.record_read(100, 800)
                io.record_full_scan()
                io.record_spill_file()
        return tracer.report()

    def test_jsonl_lines_have_schema_version_and_preorder_ids(self):
        lines = list(trace_lines(self._trace()))
        assert [line["id"] for line in lines] == [0, 1, 2]
        assert [line["parent"] for line in lines] == [None, 0, 0]
        assert all(line["v"] == 1 for line in lines)
        assert set(COUNTER_FIELDS) <= set(lines[0])

    def test_jsonl_round_trip_preserves_structure(self):
        report = self._trace()
        buffer = io_module.StringIO()
        write_jsonl(report, buffer)
        buffer.seek(0)
        loaded = read_jsonl(buffer)
        assert loaded.to_dicts() == report.to_dicts()

    def test_jsonl_round_trip_via_file(self, tmp_path):
        report = self._trace()
        path = tmp_path / "trace.jsonl"
        write_jsonl(report, path)
        with open(path, encoding="utf-8") as fh:
            assert all(json.loads(line) for line in fh)
        assert read_jsonl(path).to_dicts() == report.to_dicts()

    def test_structure_is_deterministic_modulo_timestamps(self):
        first = self._trace().to_dicts(include_timing=False)
        second = self._trace().to_dicts(include_timing=False)
        assert first == second
        assert "wall_seconds" not in first[0]

    def test_format_trace_mentions_each_span(self):
        text = format_trace(self._trace())
        assert "build" in text
        assert "  sample" in text
        assert "  cleanup" in text
        assert "scans=2" in text  # root totals include children

    def test_total_and_phase_summary(self):
        report = self._trace()
        assert report.total("full_scans") == 2
        summary = report.phase_summary()
        assert summary["full_scans"] == 2
        assert summary["phases"]["sample"]["full_scans"] == 1
        assert summary["phases"]["cleanup"]["spill_files"] == 1


class TestBuildIntegration:
    def _table(self, small_schema):
        io = IOStats()
        data = simple_xy_data(small_schema, 6000, seed=2, rule="x")
        return MemoryTable(small_schema, data, io_stats=io)

    def test_config_trace_flag_populates_report(
        self, small_schema, gini_method, default_split_config
    ):
        table = self._table(small_schema)
        config = BoatConfig(
            sample_size=500, bootstrap_repetitions=4, seed=3, trace=True
        )
        result = boat_build(table, gini_method, default_split_config, config)
        trace = result.report.trace
        assert isinstance(trace, TraceReport)
        for phase in ("sample", "bootstrap", "coarse", "cleanup", "finalize"):
            assert trace.find(phase) is not None, phase
        assert trace.total("full_scans") == 2

    def test_trace_off_by_default(
        self, small_schema, gini_method, default_split_config
    ):
        table = self._table(small_schema)
        config = BoatConfig(sample_size=500, bootstrap_repetitions=4, seed=3)
        result = boat_build(table, gini_method, default_split_config, config)
        assert result.report.trace is None

    def test_tracing_does_not_change_the_tree(
        self, small_schema, gini_method, default_split_config
    ):
        from repro.tree import tree_to_json

        config = BoatConfig(sample_size=500, bootstrap_repetitions=4, seed=3)
        plain = boat_build(
            self._table(small_schema), gini_method, default_split_config, config
        )
        traced = boat_build(
            self._table(small_schema),
            gini_method,
            default_split_config,
            BoatConfig(
                sample_size=500, bootstrap_repetitions=4, seed=3, trace=True
            ),
        )
        assert tree_to_json(plain.tree) == tree_to_json(traced.tree)


class TestFinalizeLayers:
    """The ``finalize`` span's layer timers (``core/finalize.py:LAYERS``)."""

    def _maintainer(self, small_schema, tracer):
        from repro.config import SplitConfig
        from repro.core import IncrementalBoat
        from repro.splits import ImpuritySplitSelection

        data = simple_xy_data(small_schema, 4000, seed=5, rule="xy")
        return IncrementalBoat.build(
            MemoryTable(small_schema, data),
            ImpuritySplitSelection("gini"),
            SplitConfig(min_samples_split=40, min_samples_leaf=10),
            BoatConfig(sample_size=800, bootstrap_repetitions=4, seed=2),
            tracer=tracer,
        )

    def test_traced_update_layers_sum_within_the_span(self, small_schema):
        from repro.core.finalize import LAYERS

        tracer = Tracer()
        inc = self._maintainer(small_schema, tracer)
        inc.insert(simple_xy_data(small_schema, 300, seed=50, rule="xy"))
        update = [s for s in tracer.report().spans() if s.name == "incremental"][-1]
        finalize = update.find("finalize")
        layers = {key: finalize.attributes[key] for key in LAYERS}
        assert all(seconds >= 0.0 for seconds in layers.values())
        assert sum(layers.values()) <= finalize.wall_seconds
        assert sum(layers.values()) > 0.0
        # Timers vary run to run, so the timing-free structure drops them.
        assert not set(LAYERS) & set(finalize.to_dict(False)["attributes"])
        assert set(LAYERS) <= set(finalize.to_dict()["attributes"])

    def test_untraced_update_reads_no_clock(self, small_schema, monkeypatch):
        import types

        import repro.core.finalize as finalize_module

        inc = self._maintainer(small_schema, None)

        def no_clock():
            raise AssertionError("an untraced finalize read the clock")

        monkeypatch.setattr(
            finalize_module, "time", types.SimpleNamespace(perf_counter=no_clock)
        )
        report = inc.insert(simple_xy_data(small_schema, 300, seed=51, rule="xy"))
        assert report.finalize.layer_seconds == {}

    def test_build_finalize_span_carries_layers(
        self, small_schema, gini_method, default_split_config
    ):
        from repro.core.finalize import LAYERS

        config = BoatConfig(
            sample_size=500, bootstrap_repetitions=4, seed=3, trace=True
        )
        table = TestBuildIntegration()._table(small_schema)
        result = boat_build(table, gini_method, default_split_config, config)
        finalize = result.report.trace.find("finalize")
        layers = [finalize.attributes[key] for key in LAYERS]
        assert sum(layers) <= finalize.wall_seconds
