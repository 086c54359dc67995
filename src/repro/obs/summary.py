"""Aggregate a JSONL exploration trace into the paper-style table.

``repro trace-summary run.jsonl`` reproduces, from the trace alone,
the quantities the paper's tables report: executions, blocked and
deduplicated graphs, revisit acceptance, and the per-phase time
breakdown (taken from the ``run_end`` record's embedded phase report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .trace import read_trace


@dataclass
class TraceSummary:
    """Counts recovered by folding over one trace's records."""

    program: str | None = None
    model: str | None = None
    schema: int | None = None
    records: int = 0
    executions: int = 0
    blocked: int = 0
    duplicates: int = 0
    errors: int = 0
    events_added: int = 0
    rf_branches: int = 0
    rf_candidates: int = 0
    co_branches: int = 0
    co_positions: int = 0
    revisits_considered: int = 0
    revisits_performed: int = 0
    revisits_rejected: dict[str, int] = field(default_factory=dict)
    #: parallel fault-model accounting (see docs/PARALLEL.md): tasks
    #: dispatched to the pool (subtree shards of ``verify(jobs=N)`` and
    #: ``run_suite`` jobs) and what happened to them
    tasks_dispatched: int = 0
    tasks_failed: int = 0
    tasks_retried: int = 0
    tasks_timeout: int = 0
    tasks_fallback: int = 0
    #: worker trace files whose tail had to be discarded mid-record
    traces_truncated: int = 0
    #: finished span records interleaved in the trace (service event
    #: dumps; see repro.obs.spans)
    spans: int = 0
    #: per-worker ``worker_metrics`` records: worker index -> its
    #: sub-result counts, for the load-balance (skew) line
    workers: dict[int, dict] = field(default_factory=dict)
    #: per-phase timing from the run_end record (may be empty when the
    #: run died before completing)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    elapsed: float | None = None
    truncated: bool = False

    @property
    def revisit_acceptance(self) -> float | None:
        if not self.revisits_considered:
            return None
        return self.revisits_performed / self.revisits_considered

    @property
    def worker_skew(self) -> dict | None:
        """Load-balance summary over ``worker_metrics`` records:
        min/max/mean executions per worker task and the imbalance ratio
        (max/mean; 1.0 = perfectly even shards)."""
        if not self.workers:
            return None
        executions = [w.get("executions", 0) for w in self.workers.values()]
        mean = sum(executions) / len(executions)
        return {
            "tasks": len(executions),
            "min_executions": min(executions),
            "max_executions": max(executions),
            "mean_executions": round(mean, 3),
            "imbalance": round(max(executions) / mean, 3) if mean else 1.0,
        }

    def as_dict(self) -> dict:
        out = dict(vars(self))
        out["revisits_rejected"] = dict(self.revisits_rejected)
        out["phases"] = dict(self.phases)
        out["workers"] = {k: dict(v) for k, v in self.workers.items()}
        rate = self.revisit_acceptance
        out["revisit_acceptance"] = None if rate is None else round(rate, 4)
        out["worker_skew"] = self.worker_skew
        return out


def summarize_records(records: Iterable[dict]) -> TraceSummary:
    """Fold trace records into a :class:`TraceSummary`."""
    s = TraceSummary()
    for rec in records:
        s.records += 1
        t = rec.get("t")
        if t == "trace_start":
            s.schema = rec.get("schema")
        elif t == "run_start":
            s.program = rec.get("program")
            s.model = rec.get("model")
        elif t == "event_added":
            s.events_added += 1
        elif t == "rf_branch":
            s.rf_branches += 1
            s.rf_candidates += rec.get("candidates", 0)
        elif t == "co_branch":
            s.co_branches += 1
            s.co_positions += rec.get("positions", 0)
        elif t == "revisit_considered":
            s.revisits_considered += 1
        elif t == "revisit_performed":
            s.revisits_performed += 1
        elif t == "revisit_rejected":
            reason = rec.get("reason", "unknown")
            s.revisits_rejected[reason] = s.revisits_rejected.get(reason, 0) + 1
        elif t == "graph_complete":
            s.executions += 1
        elif t == "graph_blocked":
            s.blocked += 1
        elif t == "graph_duplicate":
            s.duplicates += 1
        elif t == "error":
            s.errors += 1
        elif t in ("parallel_dispatch", "suite_dispatch"):
            s.tasks_dispatched += rec.get("tasks", 0)
        elif t == "task_failed":
            s.tasks_failed += 1
        elif t == "task_retried":
            s.tasks_retried += 1
        elif t == "task_timeout":
            s.tasks_timeout += 1
        elif t == "task_fallback":
            s.tasks_fallback += 1
        elif t == "trace_truncated":
            s.traces_truncated += 1
        elif t == "span":
            s.spans += 1
        elif t == "worker_metrics":
            worker = rec.get("worker")
            if worker is not None:
                s.workers[worker] = {
                    "executions": rec.get("executions", 0),
                    "blocked": rec.get("blocked", 0),
                    "errors": rec.get("errors", 0),
                    "elapsed": rec.get("elapsed"),
                }
        elif t == "run_end":
            s.phases = rec.get("phases", {}) or {}
            s.elapsed = rec.get("elapsed")
            s.truncated = bool(rec.get("truncated", False))
    return s


def summarize_file(path: str) -> TraceSummary:
    return summarize_records(read_trace(path))


def format_phase_table(phases: dict[str, dict[str, float]]) -> list[str]:
    """Render a phase report as aligned text lines."""
    if not phases:
        return ["  (no phase timings recorded)"]
    width = max(len(name) for name in phases)
    lines = []
    for name, stat in phases.items():
        lines.append(
            f"  {name:<{width}}  self={stat.get('self', 0.0):8.4f}s  "
            f"total={stat.get('total', 0.0):8.4f}s  "
            f"calls={int(stat.get('calls', 0))}"
        )
    return lines


def format_summary(s: TraceSummary) -> str:
    """The paper-style table for one trace."""
    lines = [
        f"trace summary (schema {s.schema}, {s.records} records)",
        f"program    : {s.program or '?'}",
        f"model      : {s.model or '?'}",
        f"executions : {s.executions}",
        f"blocked    : {s.blocked}",
        f"duplicates : {s.duplicates}",
        f"errors     : {s.errors}",
        f"events     : {s.events_added} added "
        f"({s.rf_branches} rf branch points / {s.rf_candidates} candidates, "
        f"{s.co_branches} co branch points / {s.co_positions} positions)",
    ]
    rate = s.revisit_acceptance
    revisit = (
        f"revisits   : considered={s.revisits_considered} "
        f"performed={s.revisits_performed}"
    )
    if rate is not None:
        revisit += f" accepted={100 * rate:.1f}%"
    lines.append(revisit)
    if s.revisits_rejected:
        shown = " ".join(
            f"{k}={v}" for k, v in sorted(s.revisits_rejected.items())
        )
        lines.append(f"  rejected : {shown}")
    if s.tasks_dispatched or s.tasks_failed or s.tasks_retried:
        lines.append(
            f"parallel   : dispatched={s.tasks_dispatched} "
            f"failed={s.tasks_failed} retried={s.tasks_retried} "
            f"timeout={s.tasks_timeout} fallback={s.tasks_fallback}"
        )
    if s.traces_truncated:
        lines.append(
            f"  traces   : {s.traces_truncated} worker trace(s) truncated"
        )
    if s.spans:
        lines.append(f"spans      : {s.spans} finished span record(s)")
    skew = s.worker_skew
    if skew is not None:
        lines.append(
            f"  skew     : {skew['tasks']} tasks, executions "
            f"min={skew['min_executions']} max={skew['max_executions']} "
            f"mean={skew['mean_executions']} "
            f"(imbalance {skew['imbalance']}x)"
        )
    if s.truncated:
        lines.append("truncated  : yes (a search limit was hit)")
    lines.append("time by phase:")
    lines.extend(format_phase_table(s.phases))
    if s.elapsed is not None:
        lines.append(f"elapsed    : {s.elapsed:.4f}s")
    return "\n".join(lines)
