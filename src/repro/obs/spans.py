"""End-to-end span tracing: one trace_id across every layer of a run.

A **span** is one timed operation — an HTTP submit, a queued job, a
suite task, a worker subprocess exploring a subtree — recorded as
plain JSON-ready data::

    {"trace_id": ..., "span_id": ..., "parent_id": ...,
     "name": "explore:SB", "cat": "worker",
     "start": <epoch seconds>, "dur": <seconds>,
     "pid": ..., "tid": ..., "attrs": {...}}

A ``cat="phase"`` span (``replay``, ``check:coherence``, ...) stands
for every call of that phase in one run: phase timers fire thousands
of times per program, so :meth:`SpanTracer.record_phases` turns a
run's phase report into one span per phase, with the phase's self
time as ``dur`` and its ``calls`` and inclusive ``total`` in
``attrs``.

``start`` is wall-clock *aligned* but monotonically *measured*: each
tracer pins ``time.time()`` to ``perf_counter()`` once at construction
and derives every timestamp from the perf clock, so spans within one
process never go backwards while spans from different processes still
line up on one timeline (the processes share the system clock).

The tracer is deliberately stdlib-only and NULL-patterned like the
rest of :mod:`repro.obs`: :data:`NULL_TRACER` answers ``enabled``
False and no-ops everything, so instrumentation sites guard span
construction behind one attribute check and cost ~nothing when
tracing is off (the same <5% budget the observer holds).

Context crosses process boundaries inside the coordinator's
:class:`~repro.obs.TaskContext` (a trace id and the parent span id)
riding the pool task payload.  The worker builds its own
:class:`SpanTracer` adopting the remote parent, its finished spans
come back in the task's observer snapshot, and the coordinator's
``Observer.absorb`` folds them in with :meth:`SpanTracer.absorb`.

Three exporters:

* :func:`to_perfetto` — Chrome trace-event JSON (``chrome://tracing``
  / https://ui.perfetto.dev), validated by :func:`validate_perfetto`.
* :func:`flame_tree` / :func:`format_flame` — a terminal
  flamegraph-style self-time tree (``hmc trace flame``).
* :func:`span_summary` — per-name duration families rendered by
  :func:`repro.obs.export.to_prometheus`.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid

#: version stamp carried by exported span documents
SPAN_SCHEMA_VERSION = 2

#: default bounded-ring capacity per tracer (finished spans retained;
#: older spans are dropped and counted once the ring is full)
DEFAULT_SPAN_CAPACITY = 20_000


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


def make_span(
    name: str,
    *,
    trace_id: str,
    start: float,
    dur: float,
    cat: str = "span",
    parent_id: str | None = None,
    attrs: dict | None = None,
) -> dict:
    """A finished span record built outside any tracer (e.g. the HTTP
    submit span, timed by the server before an executor tracer
    exists)."""
    return {
        "trace_id": trace_id,
        "span_id": uuid.uuid4().hex[:12],
        "parent_id": parent_id,
        "name": name,
        "cat": cat,
        "start": start,
        "dur": max(0.0, dur),
        "pid": os.getpid(),
        "tid": threading.get_native_id(),
        "attrs": dict(attrs or {}),
    }


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class NullTracer:
    """Tracer that traces nothing, as cheaply as possible."""

    #: False ⇒ skip span construction (and arg building) entirely
    enabled: bool = False
    trace_id: str | None = None
    dropped: int = 0

    def span(self, name: str, cat: str = "span", **attrs):
        return _NULL_SCOPE

    def start_span(self, name, cat="span", parent=None, **attrs):
        return None

    def end_span(self, span, **attrs) -> None:
        pass

    def current_context(self) -> dict | None:
        return None

    def absorb(self, spans) -> None:
        pass

    def record_phases(self, report: dict) -> None:
        pass

    def snapshot(self) -> list[dict]:
        return []


#: the shared do-nothing tracer; safe to use from anywhere
NULL_TRACER = NullTracer()


class _SpanScope:
    """Context manager for one stacked (nested) span activation."""

    __slots__ = ("tracer", "name", "cat", "attrs", "parent", "span")

    def __init__(
        self, tracer: "SpanTracer", name, cat, attrs, parent=None
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.parent = parent
        self.span = None

    def __enter__(self) -> dict:
        self.span = self.tracer._push(
            self.name, self.cat, self.attrs, self.parent
        )
        return self.span

    def __exit__(self, *exc) -> bool:
        self.tracer._pop(self.span)
        return False


class SpanTracer(NullTracer):
    """Collects spans for one trace into a bounded ring.

    Single-threaded by design (one tracer per coordinator thread or
    worker process — the same ownership model as ``MetricsRegistry``).
    ``remote_parent`` adopts a propagation token from another process:
    spans opened with no local parent attach there, stitching the
    worker's segment under the coordinator's span.

    ``on_finish`` (when given) receives each span dict as it finishes
    — the service streams them onto the job event ring this way.
    """

    enabled = True

    def __init__(
        self,
        trace_id: str | None = None,
        *,
        remote_parent: str | None = None,
        capacity: int = DEFAULT_SPAN_CAPACITY,
        clock=time.perf_counter,
        on_finish=None,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.remote_parent = remote_parent
        self.capacity = max(1, capacity)
        self.on_finish = on_finish
        self.finished: list[dict] = []
        self.dropped = 0
        self._clock = clock
        # per-tracer unique span-id prefix: os.getpid() alone is unsafe
        # (pids recycle across pool rebuilds), a fresh random prefix is
        # unique per tracer regardless
        self._prefix = uuid.uuid4().hex[:8]
        self._seq = 0
        self._stack: list[dict] = []
        self._wall0 = time.time()
        self._perf0 = clock()
        self._pid = os.getpid()
        self._tid = threading.get_native_id()

    # -- internals --------------------------------------------------------

    def _new_id(self) -> str:
        self._seq += 1
        return f"{self._prefix}-{self._seq:x}"

    def _open(self, name, cat, parent_id, attrs) -> dict:
        t0 = self._clock()
        return {
            "trace_id": self.trace_id,
            "span_id": self._new_id(),
            "parent_id": parent_id,
            "name": str(name),
            "cat": str(cat),
            "start": self._wall0 + (t0 - self._perf0),
            "dur": 0.0,
            "pid": self._pid,
            "tid": self._tid,
            "attrs": dict(attrs) if attrs else {},
            "_t0": t0,
        }

    def _finish(self, span: dict, extra_attrs: dict | None = None) -> None:
        t0 = span.pop("_t0", None)
        if t0 is not None:
            span["dur"] = self._clock() - t0
        if extra_attrs:
            span["attrs"].update(extra_attrs)
        self.finished.append(span)
        if len(self.finished) > self.capacity:
            overflow = len(self.finished) - self.capacity
            del self.finished[:overflow]
            self.dropped += overflow
        if self.on_finish is not None:
            self.on_finish(span)

    def _push(self, name, cat, attrs, parent=None) -> dict:
        parent_id = self._parent_id(parent)
        span = self._open(name, cat, parent_id, attrs)
        self._stack.append(span)
        return span

    def _parent_id(self, parent) -> str | None:
        """Resolve an explicit parent (span dict | span_id | None =
        innermost stacked span, else the adopted remote parent)."""
        if parent is None:
            return (
                self._stack[-1]["span_id"]
                if self._stack
                else self.remote_parent
            )
        if isinstance(parent, dict):
            return parent.get("span_id")
        return parent

    def _pop(self, span: dict) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)
        self._finish(span)

    # -- the tracing interface --------------------------------------------

    def span(self, name: str, cat: str = "span", parent=None, **attrs):
        """A ``with``-able span nested under the current span (the
        tracer keeps a stack, like phase timers).  ``parent``
        optionally overrides the stack — e.g. nesting under a
        *detached* span that lifetimes prevent from being stacked."""
        return _SpanScope(self, name, cat, attrs, parent)

    def start_span(self, name, cat="span", parent=None, **attrs) -> dict:
        """Begin a *detached* span: not on the nesting stack, so
        overlapping lifetimes (suite tasks in flight concurrently) are
        fine.  ``parent`` is a span dict, a span_id string, or None
        (= current span / remote parent).  Finish with
        :meth:`end_span`."""
        return self._open(name, cat, self._parent_id(parent), attrs)

    def end_span(self, span, **attrs) -> None:
        """Finish a span from :meth:`start_span` (no-op on None, so
        callers need no guard when tracing was off)."""
        if span is not None:
            self._finish(span, attrs or None)

    def current_context(self) -> dict | None:
        """The propagation token for the innermost active span (falls
        back to the adopted remote parent): ship this dict to another
        process and build its tracer with
        ``SpanTracer(trace_id=ctx["trace_id"],
        remote_parent=ctx["span_id"])``."""
        if self._stack:
            return {
                "trace_id": self.trace_id,
                "span_id": self._stack[-1]["span_id"],
            }
        if self.remote_parent is not None:
            return {"trace_id": self.trace_id, "span_id": self.remote_parent}
        return None

    def absorb(self, spans) -> None:
        """Fold finished span records from another tracer (typically a
        worker's :meth:`snapshot` that crossed the process boundary)
        into this ring, preserving their ids and timestamps."""
        for span in spans or ():
            if isinstance(span, dict) and "span_id" in span:
                self._finish(dict(span))

    def record_phases(self, report: dict) -> None:
        """Record one run's phase report (``name -> {calls, total,
        self}``, see ``MetricsRegistry.phase_report``) as one finished
        ``cat="phase"`` span per phase under the innermost open span.

        A span's ``dur`` is the phase's self time and its attrs carry
        ``calls`` and the inclusive ``total``.  The spans are laid end
        to end, ending now: the self times are disjoint slices of the
        time since the open span began, so the spans nest inside it on
        a timeline.
        """
        parent_id = self._parent_id(None)
        t = self._clock() - sum(stat["self"] for stat in report.values())
        for name, stat in report.items():
            span = self._open(
                name,
                "phase",
                parent_id,
                {"calls": stat["calls"], "total": stat["total"]},
            )
            del span["_t0"]
            span["start"] = self._wall0 + (t - self._perf0)
            span["dur"] = stat["self"]
            t += stat["self"]
            self._finish(span)

    def snapshot(self) -> list[dict]:
        """The finished spans, as picklable plain data (open spans are
        not included — finish them first)."""
        return [dict(span) for span in self.finished]


# -- Chrome/Perfetto export --------------------------------------------------


def to_perfetto(spans, trace_id: str | None = None) -> dict:
    """Render spans as a Chrome trace-event JSON document.

    Every span becomes one complete ("X") event with microsecond
    ``ts``/``dur``; span identity rides in ``args`` so the parent
    chain survives the format.  A span whose parent is not in the
    document (its segment was dropped from a full ring, or the caller
    filtered) is re-parented to the root and marked
    ``args.orphan_of`` — the document stays loadable and
    :func:`validate_perfetto`-clean either way.
    """
    chosen = [
        s
        for s in spans
        if isinstance(s, dict)
        and "span_id" in s
        and (trace_id is None or s.get("trace_id") == trace_id)
    ]
    known = {s["span_id"] for s in chosen}
    events = []
    trace_ids = sorted({s.get("trace_id") for s in chosen if s.get("trace_id")})
    for span in sorted(chosen, key=lambda s: s.get("start", 0.0)):
        args = {
            "trace_id": span.get("trace_id"),
            "span_id": span["span_id"],
            "parent_id": span.get("parent_id"),
        }
        parent = span.get("parent_id")
        if parent is not None and parent not in known:
            args["parent_id"] = None
            args["orphan_of"] = parent
        for key, value in sorted(span.get("attrs", {}).items()):
            args[f"attr.{key}"] = value
        events.append(
            {
                "name": span.get("name", "?"),
                "cat": span.get("cat", "span"),
                "ph": "X",
                "ts": round(span.get("start", 0.0) * 1e6, 3),
                "dur": round(max(0.0, span.get("dur", 0.0)) * 1e6, 3),
                "pid": int(span.get("pid", 0)),
                "tid": int(span.get("tid", 0)),
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": SPAN_SCHEMA_VERSION,
            "generator": "repro.obs.spans",
            "trace_ids": trace_ids,
        },
    }


#: required keys (and types) of every Perfetto "X" event we emit
_PERFETTO_EVENT_SCHEMA = {
    "name": str,
    "cat": str,
    "ph": str,
    "ts": (int, float),
    "dur": (int, float),
    "pid": int,
    "tid": int,
    "args": dict,
}


def validate_perfetto(
    doc: dict, trace_id: str | None = None, min_pids: int = 1
) -> dict:
    """Schema-check a :func:`to_perfetto` document.

    Raises :class:`ValueError` on the first problem; returns a summary
    dict (event/pid/trace counts) on success.  ``trace_id`` asserts
    every event belongs to that trace; ``min_pids`` asserts spans from
    at least that many distinct processes are present (the e2e
    acceptance check: coordinator *and* pool worker on one timeline).
    """
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        raise ValueError("not a trace-event document: traceEvents missing")
    events = doc["traceEvents"]
    if not events:
        raise ValueError("trace-event document has no events")
    span_ids: set[str] = set()
    pids: set[int] = set()
    trace_ids: set[str] = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        for key, kind in _PERFETTO_EVENT_SCHEMA.items():
            if key not in event:
                raise ValueError(f"event {i} ({event.get('name')}): no {key!r}")
            if not isinstance(event[key], kind) or isinstance(
                event[key], bool
            ):
                raise ValueError(
                    f"event {i} ({event.get('name')}): {key!r} has type "
                    f"{type(event[key]).__name__}"
                )
        if event["ph"] != "X":
            raise ValueError(f"event {i}: ph must be 'X', got {event['ph']!r}")
        if event["ts"] < 0 or event["dur"] < 0:
            raise ValueError(f"event {i}: negative ts/dur")
        args = event["args"]
        span_id = args.get("span_id")
        if not isinstance(span_id, str) or not span_id:
            raise ValueError(f"event {i}: args.span_id missing")
        if span_id in span_ids:
            raise ValueError(f"duplicate span_id {span_id!r}")
        span_ids.add(span_id)
        pids.add(event["pid"])
        if args.get("trace_id"):
            trace_ids.add(args["trace_id"])
        if trace_id is not None and args.get("trace_id") != trace_id:
            raise ValueError(
                f"event {i} ({event['name']}): trace_id "
                f"{args.get('trace_id')!r} != expected {trace_id!r}"
            )
    for i, event in enumerate(events):
        parent = event["args"].get("parent_id")
        if parent is not None and parent not in span_ids:
            raise ValueError(
                f"event {i} ({event['name']}): parent_id {parent!r} "
                "resolves to no span in the document"
            )
    if len(pids) < min_pids:
        raise ValueError(
            f"spans from {len(pids)} process(es), expected >= {min_pids}"
        )
    return {
        "events": len(events),
        "pids": len(pids),
        "trace_ids": sorted(trace_ids),
    }


# -- flamegraph / self-time tree ---------------------------------------------


class FlameNode:
    """One aggregation node: all spans sharing a name path."""

    __slots__ = ("name", "cat", "total", "self_time", "calls", "children")

    def __init__(self, name: str, cat: str = "span") -> None:
        self.name = name
        self.cat = cat
        self.total = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.children: dict[str, FlameNode] = {}


def flame_tree(spans) -> FlameNode:
    """Aggregate spans into a flamegraph tree by name path.

    Roots are spans with no (resolvable) parent; a span's self time is
    its duration minus its direct children's durations (clamped at 0 —
    absorbed segments from other processes can overlap their parent).
    Same-named siblings merge, so repeated spans fold into one node
    with a call count, like a collapsed flamegraph; a span counts as
    its ``attrs["calls"]`` calls (an aggregated phase span), else one.
    """
    records = [s for s in spans if isinstance(s, dict) and "span_id" in s]
    by_id = {s["span_id"]: s for s in records}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    for span in records:
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    root = FlameNode("<root>", cat="root")

    def _fold(span: dict, node: FlameNode) -> None:
        name = span.get("name", "?")
        child = node.children.get(name)
        if child is None:
            child = node.children[name] = FlameNode(
                name, span.get("cat", "span")
            )
        dur = max(0.0, span.get("dur", 0.0))
        kids = children.get(span["span_id"], ())
        kid_time = sum(max(0.0, k.get("dur", 0.0)) for k in kids)
        child.total += dur
        child.self_time += max(0.0, dur - kid_time)
        child.calls += span.get("attrs", {}).get("calls", 1)
        for kid in sorted(kids, key=lambda s: s.get("start", 0.0)):
            _fold(kid, child)

    for span in sorted(roots, key=lambda s: s.get("start", 0.0)):
        _fold(span, root)
    root.total = sum(c.total for c in root.children.values())
    root.calls = sum(c.calls for c in root.children.values())
    return root


def format_flame(
    spans, *, width: int = 30, min_frac: float = 0.0
) -> str:
    """Render spans as an indented self-time tree with duration bars.

    ``width`` is the bar width in characters; ``min_frac`` hides
    subtrees below that fraction of the root total (0 shows all).
    """
    spans = list(spans or ())
    root = flame_tree(spans)
    if not root.children:
        return "(no spans)"

    def _max_total(node: FlameNode) -> float:
        return max(
            node.total,
            max((_max_total(c) for c in node.children.values()), default=0.0),
        )

    # an async child can outlive its root (an http:submit span closes at
    # 202-accept while the job it spawned keeps running), so scale bars
    # by the largest node, not the root sum — identical when roots
    # dominate, bounded when they don't
    scale = _max_total(root) or 1.0
    lines = [
        f"trace flame: {len(spans)} spans, {root.total:.4f}s total "
        "(self-time tree; bar = share of total)"
    ]

    def _emit(node: FlameNode, depth: int) -> None:
        frac = node.total / scale
        # prune on the subtree's peak, not the node: a short async
        # parent must not hide the long-running work under it
        if _max_total(node) / scale < min_frac:
            return
        bar = "#" * max(1, round(frac * width))
        lines.append(
            f"  {'  ' * depth}{node.name:<{max(1, 36 - 2 * depth)}} "
            f"total={node.total:9.4f}s self={node.self_time:9.4f}s "
            f"calls={node.calls:<5d} {bar}"
        )
        for child in sorted(
            node.children.values(), key=lambda n: -n.total
        ):
            _emit(child, depth + 1)

    for child in sorted(root.children.values(), key=lambda n: -n.total):
        _emit(child, 0)
    return "\n".join(lines)


# -- Prometheus summary + JSONL IO -------------------------------------------


def span_summary(spans) -> dict:
    """Per-name duration families: ``name -> {calls, seconds, cat}``,
    sorted by name.  This is what run manifests carry and
    :func:`repro.obs.export.to_prometheus` renders as
    ``repro_span_seconds_total`` / ``repro_span_calls_total``.  A span
    counts as its ``attrs["calls"]`` calls (default one), so a phase's
    family holds its call count and its self time."""
    summary: dict[str, dict] = {}
    for span in spans or ():
        if not isinstance(span, dict) or "span_id" not in span:
            continue
        name = span.get("name", "?")
        entry = summary.setdefault(
            name, {"calls": 0, "seconds": 0.0, "cat": span.get("cat", "span")}
        )
        entry["calls"] += span.get("attrs", {}).get("calls", 1)
        entry["seconds"] += max(0.0, span.get("dur", 0.0))
    for entry in summary.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return {name: summary[name] for name in sorted(summary)}


def write_spans(path: str, spans) -> int:
    """Write spans as JSONL; returns the number written."""
    count = 0
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
            count += 1
    return count


def read_spans(path: str) -> list[dict]:
    """Read spans from JSONL written by :func:`write_spans` — or from a
    job event stream dump, whose span records carry ``t == "span"``
    plus ring stamps that are stripped here.  Non-span records (other
    event types, malformed lines) are skipped."""
    spans: list[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if record.get("t") is not None and record.get("t") != "span":
                continue
            record = {
                k: v
                for k, v in record.items()
                if k not in ("t", "seq", "ts", "worker")
            }
            if "span_id" in record and "trace_id" in record:
                spans.append(record)
    return spans
