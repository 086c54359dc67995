"""repro.obs — observability for the checker.

A zero-dependency metrics registry (counters, gauges, histograms,
nested phase timers), structured JSONL exploration traces, a progress
heartbeat for long runs, trace aggregation into the paper-style
summary table, deep-profiling hooks for hotspot attribution
(:mod:`repro.obs.profile`), a persistent run store with regression
gating (:mod:`repro.obs.runstore`), and a Prometheus exporter
(:mod:`repro.obs.export`).  The checker is instrumented against the
:class:`Observer` facade; the default :data:`NULL_OBSERVER` makes the
instrumentation cost ~nothing when observability is off.

See docs/OBSERVABILITY.md for the trace schema and metric names.
"""

from .export import service_families, to_prometheus
from .metrics import Histogram, MetricsRegistry, PhaseStat
from .observer import NULL_OBSERVER, NullObserver, Observer, TaskContext
from .profile import format_profile, memo_rates
from .progress import ProgressReporter, parse_progress_spec
from .runstore import (
    MANIFEST_SCHEMA_VERSION,
    MANIFEST_SCHEMAS,
    RUN_MANIFEST_KIND,
    SUITE_MANIFEST_KIND,
    RunStore,
    build_manifest,
    check_manifest,
    diff_manifests,
    format_check,
    format_diff,
)
from .spans import (
    NULL_TRACER,
    SPAN_SCHEMA_VERSION,
    FlameNode,
    NullTracer,
    SpanTracer,
    flame_tree,
    format_flame,
    make_span,
    new_trace_id,
    read_spans,
    span_summary,
    to_perfetto,
    validate_perfetto,
    write_spans,
)
from .summary import (
    TraceSummary,
    format_phase_table,
    format_summary,
    summarize_file,
    summarize_records,
)
from .trace import (
    TRACE_SCHEMA_VERSION,
    FileSink,
    MemorySink,
    TraceWriter,
    parse_trace,
    read_trace,
    read_trace_prefix,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "PhaseStat",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "TaskContext",
    "ProgressReporter",
    "parse_progress_spec",
    "format_profile",
    "memo_rates",
    "service_families",
    "to_prometheus",
    "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_SCHEMAS",
    "RUN_MANIFEST_KIND",
    "SUITE_MANIFEST_KIND",
    "RunStore",
    "build_manifest",
    "check_manifest",
    "diff_manifests",
    "format_check",
    "format_diff",
    "NULL_TRACER",
    "SPAN_SCHEMA_VERSION",
    "FlameNode",
    "NullTracer",
    "SpanTracer",
    "flame_tree",
    "format_flame",
    "make_span",
    "new_trace_id",
    "read_spans",
    "span_summary",
    "to_perfetto",
    "validate_perfetto",
    "write_spans",
    "TraceSummary",
    "format_phase_table",
    "format_summary",
    "summarize_file",
    "summarize_records",
    "TRACE_SCHEMA_VERSION",
    "FileSink",
    "MemorySink",
    "TraceWriter",
    "parse_trace",
    "read_trace",
    "read_trace_prefix",
]
