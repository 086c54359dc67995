"""End-to-end span tracing (repro.obs.spans).

Covers the tracer core (stacked + detached spans, context
propagation, the bounded ring), the cross-process merge (serial vs
``jobs=2`` span trees agree on structure; worker segments fold back
under coordinator spans), all three exporters (Perfetto trace-event
JSON + validator, terminal flamegraph, Prometheus span families), the
JSONL span file round-trip, and the CLI verbs
``verify --spans-out`` / ``trace export`` / ``trace flame``.
"""

import json
import time
from collections import Counter

import pytest

from repro.bench.workloads import FAMILIES
from repro.cli import main
from repro.core import verify
from repro.obs import (
    NULL_TRACER,
    Observer,
    SpanTracer,
    build_manifest,
    flame_tree,
    format_flame,
    make_span,
    new_trace_id,
    read_spans,
    span_summary,
    to_perfetto,
    to_prometheus,
    validate_perfetto,
    write_spans,
)
from repro.obs.metrics import MetricsRegistry
from repro.suite import litmus_matrix, program_task, run_suite

NAMES = ["SB", "MP", "LB", "CoRR"]


def by_id(spans):
    return {s["span_id"]: s for s in spans}


class TestTracerCore:
    def test_stacked_spans_nest(self):
        t = SpanTracer()
        with t.span("outer") as outer:
            with t.span("inner", cat="phase", depth=1) as inner:
                assert inner["parent_id"] == outer["span_id"]
        spans = t.snapshot()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["attrs"] == {"depth": 1}
        assert spans[0]["cat"] == "phase"
        assert all(s["trace_id"] == t.trace_id for s in spans)
        assert all(s["dur"] >= 0.0 for s in spans)

    def test_span_ids_unique_and_prefixed(self):
        t = SpanTracer()
        for i in range(50):
            with t.span(f"s{i}"):
                pass
        ids = [s["span_id"] for s in t.snapshot()]
        assert len(set(ids)) == 50

    def test_detached_spans_overlap(self):
        t = SpanTracer()
        a = t.start_span("task:a", cat="task")
        b = t.start_span("task:b", cat="task")
        t.end_span(a, shards=2)
        t.end_span(b)
        spans = t.snapshot()
        assert {s["name"] for s in spans} == {"task:a", "task:b"}
        done_a = next(s for s in spans if s["name"] == "task:a")
        assert done_a["attrs"] == {"shards": 2}

    def test_explicit_parent_on_stacked_span(self):
        t = SpanTracer()
        task = t.start_span("task", cat="task")
        with t.span("child", parent=task) as child:
            assert child["parent_id"] == task["span_id"]
        t.end_span(task)

    def test_end_span_none_is_noop(self):
        t = SpanTracer()
        t.end_span(None)
        t.end_span(None, extra=1)
        assert t.snapshot() == []

    def test_remote_parent_adoption(self):
        coordinator = SpanTracer()
        with coordinator.span("root") as root:
            ctx = coordinator.current_context()
        assert ctx == {
            "trace_id": coordinator.trace_id,
            "span_id": root["span_id"],
        }
        worker = SpanTracer(
            trace_id=ctx["trace_id"], remote_parent=ctx["span_id"]
        )
        with worker.span("subtree"):
            pass
        (sub,) = worker.snapshot()
        assert sub["trace_id"] == coordinator.trace_id
        assert sub["parent_id"] == root["span_id"]

    def test_current_context_falls_back_to_remote(self):
        t = SpanTracer(trace_id="abc", remote_parent="p-1")
        assert t.current_context() == {"trace_id": "abc", "span_id": "p-1"}
        assert SpanTracer().current_context() is None

    def test_absorb_preserves_worker_spans(self):
        coordinator = SpanTracer()
        worker = SpanTracer(trace_id=coordinator.trace_id)
        with worker.span("w"):
            pass
        coordinator.absorb(worker.snapshot())
        (merged,) = coordinator.snapshot()
        (original,) = worker.snapshot()
        assert merged["span_id"] == original["span_id"]
        assert merged["start"] == original["start"]
        assert merged is not original  # copies: later mutation is safe

    def test_absorb_feeds_on_finish(self):
        streamed = []
        coordinator = SpanTracer(on_finish=streamed.append)
        worker = SpanTracer(trace_id=coordinator.trace_id)
        with worker.span("w"):
            pass
        coordinator.absorb(worker.snapshot())
        assert [s["name"] for s in streamed] == ["w"]

    def test_make_span_builds_finished_span(self):
        span = make_span(
            "http:submit",
            trace_id="t1",
            start=123.0,
            dur=0.25,
            cat="http",
            attrs={"job": "j-1"},
        )
        assert span["trace_id"] == "t1"
        assert span["start"] == 123.0 and span["dur"] == 0.25
        assert span["attrs"] == {"job": "j-1"}
        assert span["span_id"]

    def test_new_trace_ids_unique(self):
        assert new_trace_id() != new_trace_id()


class TestRingBounds:
    def test_overflow_trims_oldest_and_counts(self):
        t = SpanTracer(capacity=5)
        for i in range(12):
            with t.span(f"s{i}"):
                pass
        assert len(t.snapshot()) == 5
        assert t.dropped == 7
        assert [s["name"] for s in t.snapshot()] == [
            "s7", "s8", "s9", "s10", "s11",
        ]

    def test_absorb_counts_against_capacity(self):
        t = SpanTracer(capacity=3)
        other = SpanTracer(trace_id=t.trace_id)
        for i in range(5):
            with other.span(f"w{i}"):
                pass
        t.absorb(other.snapshot())
        assert len(t.snapshot()) == 3
        assert t.dropped == 2

    def test_orphaned_children_survive_export(self):
        # parent span lost (trimmed ring / filtered dump): the child is
        # re-parented to the root and the document stays valid
        child = make_span("child", trace_id="t", start=0.0, dur=0.1)
        child["parent_id"] = "gone-from-the-ring"
        doc = to_perfetto([child])
        report = validate_perfetto(doc)
        assert report["events"] == 1
        (event,) = doc["traceEvents"]
        assert event["args"]["parent_id"] is None
        assert event["args"]["orphan_of"] == "gone-from-the-ring"


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x", cat="run", attr=1):
            pass
        assert NULL_TRACER.start_span("y") is None
        NULL_TRACER.end_span(None)
        NULL_TRACER.absorb([{"span_id": "s"}])
        assert NULL_TRACER.snapshot() == []
        assert NULL_TRACER.current_context() is None
        assert NULL_TRACER.enabled is False

    def test_phase_timers_skip_span_work_when_disabled(self):
        registry = MetricsRegistry()
        with registry.phase("alpha"):
            pass
        assert registry.phase_report()["alpha"]["calls"] == 1

    def test_phase_report_records_one_span_per_phase(self):
        tracer = SpanTracer()
        obs = Observer(tracer=tracer)
        with tracer.span("explore", cat="worker") as parent:
            for _ in range(3):
                with obs.phase("alpha"):
                    with obs.phase("beta"):
                        time.sleep(0.001)
                        # a phase timer opens no span
                        assert tracer.current_context()["span_id"] == (
                            parent["span_id"]
                        )
            assert tracer.snapshot() == []
            report = obs.phase_report()
            tracer.record_phases(report)
        phases = [s for s in tracer.snapshot() if s["cat"] == "phase"]
        assert sorted(s["name"] for s in phases) == ["alpha", "beta"]
        for span in phases:
            stat = report[span["name"]]
            assert span["attrs"] == {"calls": 3, "total": stat["total"]}
            assert span["dur"] == stat["self"]
            assert span["parent_id"] == parent["span_id"]
            assert parent["start"] <= span["start"]
            assert span["start"] + span["dur"] <= (
                parent["start"] + parent["dur"]
            )

    def test_observer_defaults_to_null_tracer(self):
        assert Observer().tracer is NULL_TRACER


@pytest.fixture
def tasks():
    return litmus_matrix(NAMES, models=("sc", "tso"))


def suite_spans(tasks, jobs):
    tracer = SpanTracer()
    run_suite(tasks, jobs=jobs, cache=False, observer=Observer(tracer=tracer))
    return tracer


class TestCrossProcessPropagation:
    def test_parallel_suite_joins_one_trace(self, tasks):
        tracer = suite_spans(tasks, jobs=2)
        spans = tracer.snapshot()
        assert {s["trace_id"] for s in spans} == {tracer.trace_id}
        assert len({s["pid"] for s in spans}) >= 2
        cats = {s["cat"] for s in spans}
        assert {"task", "worker", "phase"} <= cats
        # worker explore spans parent into coordinator suite-task spans
        ids = by_id(spans)
        workers = [s for s in spans if s["cat"] == "worker"]
        assert workers
        for span in workers:
            parent = ids[span["parent_id"]]
            assert parent["cat"] == "task"
        # phases recorded inside worker processes nest under explore
        worker_pids = {s["pid"] for s in workers}
        for span in spans:
            if s_cat_phase_in_worker(span, worker_pids):
                assert span["parent_id"] in ids

    def test_serial_and_parallel_trees_agree_on_structure(self, tasks):
        def edges(tracer):
            spans = tracer.snapshot()
            ids = by_id(spans)
            out = set()
            for s in spans:
                if s["cat"] in ("task", "worker"):
                    parent = ids.get(s.get("parent_id"))
                    out.add((s["name"], parent["name"] if parent else None))
            return out

        serial = edges(suite_spans(tasks, jobs=1))
        parallel = edges(suite_spans(tasks, jobs=2))
        assert serial == parallel
        # one suite:* and one explore:* edge per (test, model) task
        assert len(serial) == 2 * 2 * len(NAMES)

    def test_cache_hits_record_instant_spans(self, tasks, tmp_path):
        from repro.suite import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        run_suite(tasks, jobs=1, cache=cache)
        tracer = SpanTracer()
        run_suite(
            tasks, jobs=1, cache=cache, observer=Observer(tracer=tracer)
        )
        cached = [
            s
            for s in tracer.snapshot()
            if s["cat"] == "task" and s["attrs"].get("cached")
        ]
        assert len(cached) == 2 * len(NAMES)


def s_cat_phase_in_worker(span, worker_pids):
    return span["cat"] == "phase" and span["pid"] in worker_pids


def _serial(program, model, obs):
    return verify(program, model, observer=obs, jobs=1)


def _sharded(program, model, obs):
    return verify(program, model, observer=obs, jobs=2)


def _suite(program, model, obs):
    suite = run_suite(
        [program_task(program, model)], jobs=2, cache=False, observer=obs
    )
    return suite.tasks[0].result


class TestAggregatedPhaseSpans:
    """A run records one span per phase, not one per phase call."""

    @pytest.mark.parametrize("run", [_serial, _sharded, _suite])
    @pytest.mark.parametrize(
        "family,n,model", [("sb", 3, "tso"), ("lastzero", 3, "imm")]
    )
    def test_one_phase_span_per_name_per_run(self, run, family, n, model):
        tracer = SpanTracer()
        with tracer.span("verify", cat="run"):
            result = run(FAMILIES[family](n), model, Observer(tracer=tracer))
        spans = tracer.snapshot()
        phases = [s for s in spans if s["cat"] == "phase"]
        assert phases
        children = Counter((s["parent_id"], s["name"]) for s in phases)
        assert max(children.values()) == 1
        calls = Counter()
        for span in phases:
            calls[span["name"]] += span["attrs"]["calls"]
        assert calls == {
            name: stat["calls"] for name, stat in result.phase_times.items()
        }
        assert tracer.dropped == 0


class TestPerfettoExport:
    def make_spans(self):
        t = SpanTracer()
        with t.span("root", cat="run", model="tso"):
            with t.span("child"):
                pass
        return t

    def test_event_shape(self):
        t = self.make_spans()
        doc = to_perfetto(t.snapshot(), trace_id=t.trace_id)
        assert doc["otherData"]["trace_ids"] == [t.trace_id]
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["args"]["span_id"]
        child = next(
            e for e in doc["traceEvents"] if e["name"] == "child"
        )
        root = next(e for e in doc["traceEvents"] if e["name"] == "root")
        assert child["args"]["parent_id"] == root["args"]["span_id"]
        assert root["args"]["attr.model"] == "tso"

    def test_validator_accepts_good_documents(self):
        t = self.make_spans()
        report = validate_perfetto(to_perfetto(t.snapshot()))
        assert report == {
            "events": 2,
            "pids": 1,
            "trace_ids": [t.trace_id],
        }

    def test_validator_rejects_bad_documents(self):
        t = self.make_spans()
        good = to_perfetto(t.snapshot())

        with pytest.raises(ValueError, match="traceEvents"):
            validate_perfetto({})
        with pytest.raises(ValueError, match="no events"):
            validate_perfetto({"traceEvents": []})

        missing = json.loads(json.dumps(good))
        del missing["traceEvents"][0]["ts"]
        with pytest.raises(ValueError, match="no 'ts'"):
            validate_perfetto(missing)

        badtype = json.loads(json.dumps(good))
        badtype["traceEvents"][0]["dur"] = True
        with pytest.raises(ValueError, match="dur"):
            validate_perfetto(badtype)

        dupes = json.loads(json.dumps(good))
        for event in dupes["traceEvents"]:
            event["args"]["span_id"] = "same"
        with pytest.raises(ValueError, match="duplicate span_id"):
            validate_perfetto(dupes)

        unlinked = json.loads(json.dumps(good))
        unlinked["traceEvents"][0]["args"]["parent_id"] = "nowhere"
        unlinked["traceEvents"][1]["args"]["parent_id"] = "nowhere"
        with pytest.raises(ValueError, match="parent"):
            validate_perfetto(unlinked)

        with pytest.raises(ValueError, match="trace_id"):
            validate_perfetto(good, trace_id="not-this-trace")
        with pytest.raises(ValueError, match="process"):
            validate_perfetto(good, min_pids=2)

    def test_trace_id_filter(self):
        t = self.make_spans()
        other = SpanTracer()
        with other.span("noise"):
            pass
        mixed = t.snapshot() + other.snapshot()
        doc = to_perfetto(mixed, trace_id=t.trace_id)
        assert len(doc["traceEvents"]) == 2
        assert doc["otherData"]["trace_ids"] == [t.trace_id]


class TestFlameAndSummary:
    def test_flame_tree_aggregates_same_named_siblings(self):
        t = SpanTracer()
        for _ in range(3):
            with t.span("outer"):
                with t.span("inner"):
                    pass
        spans = t.snapshot()
        # an aggregated phase span counts as its calls
        spans.append(
            make_span("replay", trace_id=t.trace_id, start=0.0, dur=0.0,
                      cat="phase", parent_id=spans[-1]["span_id"],
                      attrs={"calls": 5})
        )
        root = flame_tree(spans)
        outer = root.children["outer"]
        assert outer.calls == 3
        assert outer.children["inner"].calls == 3
        assert outer.children["replay"].calls == 5
        assert outer.self_time >= 0.0

    def test_format_flame_renders(self):
        t = SpanTracer()
        with t.span("a"):
            with t.span("b"):
                pass
        text = format_flame(t.snapshot())
        assert "trace flame: 2 spans" in text
        assert "a" in text and "b" in text
        assert format_flame([]) == "(no spans)"

    def test_min_frac_hides_small_subtrees(self):
        spans = [
            make_span("big", trace_id="t", start=0.0, dur=1.0),
            make_span("tiny", trace_id="t", start=0.0, dur=0.001),
        ]
        text = format_flame(spans, min_frac=0.1)
        assert "big" in text and "tiny" not in text

    def test_span_summary_families(self):
        spans = [
            make_span("explore", trace_id="t", start=0.0, dur=1.5,
                      cat="worker"),
            make_span("explore", trace_id="t", start=0.0, dur=0.5,
                      cat="worker"),
            make_span("check", trace_id="t", start=0.0, dur=0.25),
            make_span("replay", trace_id="t", start=0.0, dur=0.125,
                      cat="phase", attrs={"calls": 5}),
        ]
        summary = span_summary(spans)
        assert summary["explore"] == {
            "calls": 2, "seconds": 2.0, "cat": "worker",
        }
        assert summary["check"]["calls"] == 1
        assert summary["replay"] == {
            "calls": 5, "seconds": 0.125, "cat": "phase",
        }
        assert list(summary) == sorted(summary)

    def test_prometheus_span_families(self):
        t = SpanTracer()
        with t.span("explore:SB", cat="worker"):
            pass

        class FakeResult:
            program = "SB"
            model = "tso"
            executions = 1
            blocked = 0
            duplicates = 0
            errors = ()
            truncated = False
            elapsed = 0.1
            outcomes = {}
            phase_times = {}
            meta = {}

            class stats:
                @staticmethod
                def as_dict():
                    return {}

        manifest = build_manifest(FakeResult(), spans=t.snapshot())
        text = to_prometheus(manifest)
        assert (
            'repro_span_seconds_total{program="SB",model="tso"'
            ',span="explore:SB",cat="worker"}'
        ) in text
        assert "repro_span_calls_total" in text

    def test_manifest_without_spans_has_no_span_key(self):
        t = SpanTracer()
        spans_text = to_prometheus(
            {"program": "p", "model": "m", "result": {}, "metrics": {},
             "phases": {}}
        )
        assert "repro_span_" not in spans_text


class TestSpanFileRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        t = SpanTracer()
        with t.span("a", k="v"):
            with t.span("b"):
                pass
        path = str(tmp_path / "spans.jsonl")
        assert write_spans(path, t.snapshot()) == 2
        back = read_spans(path)
        assert back == t.snapshot()

    def test_read_accepts_event_stream_dumps(self, tmp_path):
        # an NDJSON dump of /v1/jobs/<id>/events mixes span records
        # with ordinary progress events; read_spans picks the spans out
        t = SpanTracer()
        with t.span("a"):
            pass
        (span,) = t.snapshot()
        path = tmp_path / "events.jsonl"
        records = [
            {"seq": 1, "t": "job_queued", "ts": 0.0, "kind": "litmus"},
            {"seq": 2, "t": "span", "ts": 0.0, **span},
            {"seq": 3, "t": "run_end", "ts": 0.0},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        (back,) = read_spans(str(path))
        assert back["span_id"] == span["span_id"]
        assert "seq" not in back and "t" not in back


class TestCli:
    def test_verify_spans_out_export_flame(self, tmp_path, capsys):
        spans_path = str(tmp_path / "spans.jsonl")
        assert (
            main(
                [
                    "verify", "SB", "--model", "tso",
                    "--spans-out", spans_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "spans written to" in out

        trace_path = str(tmp_path / "trace.json")
        assert (
            main(
                [
                    "trace", "export", spans_path, "--perfetto",
                    "-o", trace_path,
                ]
            )
            == 0
        )
        with open(trace_path) as handle:
            doc = json.load(handle)
        validate_perfetto(doc)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "verify:SB" in names

        assert main(["trace", "flame", spans_path]) == 0
        flame = capsys.readouterr().out
        assert "trace flame:" in flame and "verify:SB" in flame

    def test_trace_export_to_stdout(self, tmp_path, capsys):
        spans_path = str(tmp_path / "spans.jsonl")
        t = SpanTracer()
        with t.span("x"):
            pass
        write_spans(spans_path, t.snapshot())
        assert main(["trace", "export", spans_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_perfetto(doc)

    def test_trace_requires_exactly_one_source(self, capsys):
        assert main(["trace", "export"]) == 2
        assert "exactly one span source" in capsys.readouterr().err
        assert main(["trace", "flame", "x.jsonl", "--job", "j1"]) == 2

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", "flame", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_trace_empty_source(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "export", str(path)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_manifest_carries_span_summary(self, tmp_path):
        manifest_path = str(tmp_path / "m.json")
        spans_path = str(tmp_path / "spans.jsonl")
        assert (
            main(
                [
                    "verify", "SB", "--model", "tso",
                    "--spans-out", spans_path,
                    "--manifest", manifest_path,
                ]
            )
            == 0
        )
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert "verify:SB" in manifest["spans"]
        assert manifest["spans"]["verify:SB"]["calls"] == 1
