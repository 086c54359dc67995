"""Tests for the observability layer (repro.obs).

Covers the metrics registry semantics, phase-timer nesting, the trace
round-trip (emit → JSONL → parse → aggregate), the null backend's
no-record guarantee, the progress heartbeat, and the CLI surfacing
(`--stats/--trace-out`, `trace-summary`, `--version`).
"""

import io
import json

import pytest

from repro import ExplorationOptions, ProgramBuilder, verify
from repro.cli import main
from repro.obs import (
    NULL_OBSERVER,
    Histogram,
    MemorySink,
    MetricsRegistry,
    NullObserver,
    Observer,
    ProgressReporter,
    TraceWriter,
    format_summary,
    parse_trace,
    read_trace,
    summarize_file,
    summarize_records,
)


def sb_program():
    p = ProgramBuilder("SB")
    t0 = p.thread()
    t0.store("x", 1)
    a = t0.load("y")
    t1 = p.thread()
    t1.store("y", 1)
    b = t1.load("x")
    p.observe(a, b)
    return p.build()


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.inc("b", 0.5)
        assert reg.counters == {"a": 3, "b": 0.5}

    def test_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.gauge("depth", 3)
        reg.gauge("depth", 7)
        assert reg.gauges["depth"] == 7

    def test_histogram_stats_and_buckets(self):
        reg = MetricsRegistry()
        for v in (1, 2, 3, 100, 1000):
            reg.observe("sizes", v)
        hist = reg.histograms["sizes"]
        assert hist.count == 5
        assert hist.min == 1 and hist.max == 1000
        assert hist.total == 1106
        data = hist.as_dict()
        assert data["buckets"]["le_1"] == 1
        assert data["buckets"]["le_128"] == 1  # the 100
        assert data["buckets"]["inf"] == 1  # the 1000
        assert sum(data["buckets"].values()) == 5

    def test_histogram_overflow_bucket(self):
        h = Histogram(bounds=(1, 2))
        for v in (0.5, 1.5, 99):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.mean == pytest.approx((0.5 + 1.5 + 99) / 3)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with reg.phase("p"):
            pass
        snap = reg.snapshot()
        assert snap["counters"] == {"x": 1}
        assert "p" in snap["phases"]


class TestPhaseTimers:
    def test_single_phase_accumulates(self):
        t = [0.0]

        def clock():
            t[0] += 1.0
            return t[0]

        reg = MetricsRegistry(clock=clock)
        with reg.phase("work"):
            pass  # enter at 1, exit at 2 → 1s
        stat = reg.phase_stats()["work"]
        assert stat.calls == 1
        assert stat.total == pytest.approx(1.0)
        assert stat.self_time == pytest.approx(1.0)

    def test_nesting_attributes_self_time_to_inner(self):
        t = [0.0]

        def clock():
            t[0] += 1.0
            return t[0]

        reg = MetricsRegistry(clock=clock)
        with reg.phase("outer"):      # enter: t=1
            with reg.phase("inner"):  # enter: t=2
                pass                  # exit:  t=3 → inner total/self = 1
        # outer exit: t=4 → outer total 3, self 3 - 1 = 2
        outer = reg.phase_stats()["outer"]
        inner = reg.phase_stats()["inner"]
        assert inner.total == pytest.approx(1.0)
        assert inner.self_time == pytest.approx(1.0)
        assert outer.total == pytest.approx(3.0)
        assert outer.self_time == pytest.approx(2.0)
        # sum of self times never exceeds the outermost total
        assert inner.self_time + outer.self_time == pytest.approx(outer.total)

    def test_sibling_phases_both_charged_to_parent(self):
        t = [0.0]

        def clock():
            t[0] += 1.0
            return t[0]

        reg = MetricsRegistry(clock=clock)
        with reg.phase("parent"):
            with reg.phase("a"):
                pass
            with reg.phase("b"):
                pass
        parent = reg.phase_stats()["parent"]
        assert parent.self_time == pytest.approx(
            parent.total
            - reg.phase_stats()["a"].total
            - reg.phase_stats()["b"].total
        )

    def test_phase_report_is_json_ready(self):
        reg = MetricsRegistry()
        with reg.phase("p"):
            pass
        json.dumps(reg.phase_report())  # must not raise


class TestTraceRoundTrip:
    def test_emit_parse_aggregate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs = Observer.to_file(str(path))
        result = verify(sb_program(), "tso", observer=obs)
        obs.close()
        records = read_trace(str(path))
        # every line parsed back as a dict with a type and a sequence
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)
        assert records[0]["t"] == "trace_start"
        assert records[-1]["t"] == "run_end"
        summary = summarize_records(records)
        assert summary.executions == result.executions == 4
        assert summary.blocked == result.blocked
        assert summary.duplicates == result.duplicates
        assert summary.events_added == result.stats.events_added
        assert summary.revisits_performed == result.stats.revisits_performed
        assert summary.phases  # run_end embeds the phase report
        assert summary.elapsed is not None

    def test_summary_matches_result_on_blocked_run(self, tmp_path):
        p = ProgramBuilder("assume-block")
        t0 = p.thread()
        t0.store("x", 1)
        t1 = p.thread()
        r = t1.load("x")
        t1.assume(r.eq(1))
        program = p.build()
        path = tmp_path / "run.jsonl"
        obs = Observer.to_file(str(path))
        result = verify(program, "sc", observer=obs)
        obs.close()
        summary = summarize_file(str(path))
        assert result.blocked > 0
        assert summary.blocked == result.blocked
        assert summary.executions == result.executions

    def test_memory_sink_bounds_records(self):
        sink = MemorySink(capacity=3)
        writer = TraceWriter(sink)  # writes trace_start
        for i in range(5):
            writer.emit("event_added", tid=0)
        assert len(sink.records) == 3
        assert sink.dropped == 3  # trace_start + 2 events displaced

    def test_parse_trace_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 2"):
            list(parse_trace(['{"t": "ok"}', "not json"]))
        with pytest.raises(ValueError, match="not a trace record"):
            list(parse_trace(['["no", "type"]']))

    def test_format_summary_is_text(self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs = Observer.to_file(str(path))
        verify(sb_program(), "tso", observer=obs)
        obs.close()
        text = format_summary(summarize_file(str(path)))
        assert "executions : 4" in text
        assert "time by phase:" in text


class TestNullBackend:
    def test_null_observer_records_nothing(self):
        obs = NULL_OBSERVER
        obs.emit("event_added", tid=0)
        obs.inc("x")
        obs.tick(executions=1)
        with obs.phase("p"):
            pass
        assert obs.phase_report() == {}
        assert obs.metrics_snapshot() == {}

    def test_default_run_has_no_phase_times(self):
        result = verify(sb_program(), "tso")
        assert result.phase_times == {}
        assert result.executions == 4

    def test_null_and_observed_runs_agree(self):
        plain = verify(sb_program(), "tso")
        obs = Observer.in_memory()
        watched = verify(sb_program(), "tso", observer=obs)
        assert plain.executions == watched.executions
        assert plain.blocked == watched.blocked
        assert plain.stats.as_dict() == watched.stats.as_dict()

    def test_observer_without_trace_adds_no_records(self):
        # metrics-only observer: phases are timed but nothing is traced
        obs = Observer()
        result = verify(sb_program(), "tso", observer=obs)
        assert obs.records() == []
        assert not obs.trace_enabled
        assert result.phase_times  # timing still collected

    def test_model_observer_detached_after_run(self):
        from repro.obs import profile

        obs = Observer()
        verify(sb_program(), "tso", observer=obs)
        assert profile.active() is None

    def test_null_observer_is_shared_and_disabled(self):
        assert isinstance(NULL_OBSERVER, NullObserver)
        assert not NULL_OBSERVER.enabled
        assert not NULL_OBSERVER.trace_enabled


class TestProgress:
    def test_heartbeat_every_n_graphs(self):
        stream = io.StringIO()
        rep = ProgressReporter(every_graphs=2, every_seconds=None, stream=stream)
        for i in range(5):
            rep.tick(executions=i)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2  # after ticks 2 and 4
        assert "graphs" in lines[0] and "executions=1" in lines[0]

    def test_heartbeat_every_t_seconds(self):
        t = [0.0]

        def clock():
            return t[0]

        stream = io.StringIO()
        rep = ProgressReporter(
            every_seconds=1.0, stream=stream, clock=clock
        )
        rep.tick()          # t=0: not due
        t[0] = 1.5
        rep.tick()          # due
        assert rep.beats == 1

    def test_finish_emits_final_line_even_without_beats(self):
        # a run short enough to finish inside one interval still gets
        # its one summary line (previously finish() was silent here)
        stream = io.StringIO()
        rep = ProgressReporter(every_graphs=100, every_seconds=None, stream=stream)
        rep.tick()
        rep.finish(executions=1)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert "done" in lines[0] and "executions=1" in lines[0]

    def test_progress_env_cadence(self, monkeypatch):
        from repro.obs.progress import PROGRESS_ENV, parse_progress_spec

        assert parse_progress_spec("500") == (500, None)
        assert parse_progress_spec("2s") == (None, 2.0)
        assert parse_progress_spec("1000,5s") == (1000, 5.0)
        assert parse_progress_spec("5s 1000") == (1000, 5.0)
        with pytest.raises(ValueError):
            parse_progress_spec("abc")
        with pytest.raises(ValueError):
            parse_progress_spec("-3")
        for bad in ("nans", "infs", "0s"):
            with pytest.raises(ValueError, match=PROGRESS_ENV):
                parse_progress_spec(bad)
        monkeypatch.setenv(PROGRESS_ENV, "2")
        stream = io.StringIO()
        rep = ProgressReporter(stream=stream)
        assert rep.every_graphs == 2 and rep.every_seconds is None
        for i in range(4):
            rep.tick()
        assert rep.beats == 2
        # explicit arguments win over the environment
        rep = ProgressReporter(every_graphs=7, stream=stream)
        assert rep.every_graphs == 7

    def test_both_cadences_follow_one_rule(self):
        # a negative period beat on every tick; NaN never beat at all
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="seconds"):
                ProgressReporter(every_seconds=bad)
        for bad in (-3, 0, 2.5, True):
            with pytest.raises(ValueError, match="graph count"):
                ProgressReporter(every_graphs=bad)

    def test_explorer_ticks_progress(self):
        stream = io.StringIO()
        rep = ProgressReporter(every_graphs=1, every_seconds=None, stream=stream)
        obs = Observer(progress=rep)
        verify(sb_program(), "tso", observer=obs)
        assert rep.beats >= 4  # one per completed graph, plus the final line

    def test_baselines_tick_progress(self):
        from repro.baselines.dpor import explore_dpor
        from repro.baselines.interleaving import explore_interleavings
        from repro.baselines.storebuffer import explore_store_buffers

        for explore in (explore_interleavings, explore_dpor):
            stream = io.StringIO()
            rep = ProgressReporter(
                every_graphs=1, every_seconds=None, stream=stream
            )
            explore(sb_program(), progress=rep)
            assert rep.beats > 0, explore.__name__
        stream = io.StringIO()
        rep = ProgressReporter(every_graphs=1, every_seconds=None, stream=stream)
        explore_store_buffers(sb_program(), "tso", progress=rep)
        assert rep.beats > 0


class TestOptionsValidation:
    def test_rejects_nonpositive_max_events(self):
        with pytest.raises(ValueError, match="max_events"):
            ExplorationOptions(max_events=0)
        with pytest.raises(ValueError, match="max_events"):
            ExplorationOptions(max_events=-5)

    def test_rejects_options_of_the_wrong_type(self):
        # truthiness would read "false" as on, and a bool count is
        # silently 0 or 1
        for flag in ("stop_on_error", "deduplicate", "backward_revisits"):
            for bad in ("false", 0, None):
                with pytest.raises(TypeError, match=flag):
                    ExplorationOptions(**{flag: bad})
        for count in ("max_events", "max_executions", "jobs", "task_retries"):
            for bad in (True, 2.0, "3"):
                with pytest.raises(TypeError, match=count):
                    ExplorationOptions(**{count: bad})
        assert ExplorationOptions(max_executions=None, jobs=None).jobs is None

    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError, match="max_executions"):
            ExplorationOptions(max_executions=-1)
        with pytest.raises(ValueError, match="max_explored"):
            ExplorationOptions(max_explored=-1)

    def test_accepts_valid_options(self):
        opts = ExplorationOptions(
            max_events=10, max_executions=0, max_explored=None
        )
        assert opts.max_events == 10


class TestCliSurface:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_verify_stats_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main(
            [
                "verify",
                "SB",
                "--model",
                "tso",
                "--stats",
                "--trace-out",
                str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "executions: 4" in out
        assert "time by phase:" in out
        assert trace.exists()
        assert summarize_file(str(trace)).executions == 4

    def test_verify_litmus_name_fallback(self, capsys):
        assert main(["verify", "SB", "--model", "sc"]) == 0
        assert "executions: 3" in capsys.readouterr().out

    def test_trace_summary_command(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["verify", "SB", "--model", "tso", "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["trace-summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "executions : 4" in out

    def test_trace_summary_json(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["verify", "SB", "--model", "tso", "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["trace-summary", str(trace), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["executions"] == 4
        assert data["model"] == "tso"

    def test_trace_summary_missing_file(self, capsys):
        assert main(["trace-summary", "/nonexistent/x.jsonl"]) == 2

    def test_verify_progress_flag(self, capsys):
        assert main(["verify", "SB", "--model", "tso", "--progress", "0.001"]) == 0


class TestBenchTelemetry:
    def test_instrumented_row_carries_phases(self):
        from repro.bench import run_hmc, rows_to_json

        row = run_hmc(sb_program(), "tso", instrument=True)
        assert "phases" in row.extra
        assert row.extra["phases"]  # at least one phase timed
        data = json.loads(rows_to_json([row]))
        assert data[0]["extra"]["phases"]

    def test_uninstrumented_row_has_no_phases(self):
        from repro.bench import run_hmc

        row = run_hmc(sb_program(), "tso")
        assert "phases" not in row.extra

    def test_format_phases_shares(self):
        from repro.bench import format_phases

        text = format_phases({"a": 3.0, "b": 1.0})
        assert "a 75%" in text and "b 25%" in text
        assert format_phases({}) == ""

    def test_markdown_report_formats_phases(self):
        from repro.bench.harness import Row
        from repro.bench.report import _rows_to_markdown

        row = Row(
            bench="x",
            model="sc",
            tool="hmc",
            executions=1,
            blocked=0,
            errors=0,
            time=0.1,
            extra={"duplicates": 0, "phases": {"check:coherence": 1.0}},
        )
        text = "\n".join(_rows_to_markdown([row]))
        # per-phase self-times surface as dedicated columns now
        assert "checks (s)" in text
        assert "| 1.000 |" in text
        assert "duplicates=0" in text
