"""Span tracing of the checker's layers, from outside the package.

:class:`Tracer` wraps public functions of the ``repro`` modules and
records one span per call: the span's name, its start and end on the
``perf_counter`` clock, and the index of the span that was open on the
same thread when it started (its parent).  Spans are kept in compact
per-thread arrays while a workload round runs; :meth:`Tracer.harvest`
takes them out, and :func:`write_spans` writes the first traced
round's spans to a file at the end of the benchmark.  Nothing inside ``src/repro`` changes: the
wrappers are installed by rebinding module and class attributes, and
removed again by :meth:`Tracer.uninstall`.

A name bound with ``from module import name`` is a separate reference,
so every attribute of every loaded ``repro.*`` module (and every value
of a module-level dict) that *is* the original function is rebound.
Model methods are wrapped on each model class that defines them.

Forked pool workers inherit the wrappers but record nothing (the
recorder switches itself off in the child); their spans would never
reach the coordinator.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import threading
import time
from array import array

#: (span name, module, attribute path) of every wrapped callable;
#: graph-cached relations and model ``axiom_holds`` methods are found
#: by :meth:`Tracer.install` and added to these
TARGETS = (
    ("lang.replay", "repro.lang.interpreter", "replay"),
    ("graphs.copy", "repro.graphs.graph", "ExecutionGraph.copy"),
    ("graphs.add", "repro.graphs.graph", "ExecutionGraph.add_read"),
    ("graphs.add", "repro.graphs.graph", "ExecutionGraph.add_write"),
    ("graphs.add", "repro.graphs.graph", "ExecutionGraph.add_fence"),
    ("graphs.add", "repro.graphs.graph", "ExecutionGraph.restricted"),
    ("incremental.acyclic", "repro.graphs.incremental", "acyclic_check"),
    ("incremental.coherent", "repro.graphs.incremental", "coherent_check"),
    ("hashing.canonical_key", "repro.graphs.hashing", "canonical_key"),
    ("models.check", "repro.models.base", "MemoryModel.is_consistent"),
    ("models.coherence", "repro.models.base", "MemoryModel.coherence_ok"),
    ("cat.axiom", "repro.cat.model", "CatModel.axiom_holds"),
    ("revisits", "repro.core.revisits", "backward_revisits"),
    ("explorer", "repro.core.explorer", "Explorer.run"),
    ("parallel.split_frontier", "repro.core.parallel", "split_frontier"),
    ("parallel.pool", "repro.core.parallel", "PoolSupervisor.run"),
    ("parallel.merge", "repro.core.result", "VerificationResult.merge"),
    ("estimate", "repro.core.estimate", "estimate_explorations"),
    ("suite.task_key", "repro.suite.cache", "task_key"),
    ("suite.cache.load", "repro.suite.cache", "ResultCache.load"),
    ("suite.cache.store", "repro.suite.cache", "ResultCache.store"),
    ("litmus.verdict", "repro.litmus.runner", "verdict_from_result"),
    ("service.client", "repro.service.client", "ServiceClient.submit"),
    ("service.client", "repro.service.client", "ServiceClient.wait"),
    ("service.client", "repro.service.client", "ServiceClient.status"),
    ("service.client", "repro.service.client", "ServiceClient.result"),
    ("service.client", "repro.service.client", "ServiceClient.metrics"),
)

#: span names whose calls return a bool; False results are counted so
#: the models layer can report its reject ratio
_VERDICT_SPANS = ("models.check",)


class _Buffer:
    """One thread's spans, as parallel arrays (about 22 bytes a span)."""

    __slots__ = ("names", "parents", "starts", "ends", "stack", "rejects", "thread")

    def __init__(self) -> None:
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.rejects = 0
        self.thread = threading.current_thread()

    def take(self) -> "_Buffer":
        """Move the recorded spans into a new buffer and start empty
        again (the wrappers keep appending to this one); only called
        between rounds, when no span is open."""
        taken = _Buffer()
        taken.thread = self.thread
        for attr in ("names", "parents", "starts", "ends", "rejects"):
            setattr(taken, attr, getattr(self, attr))
        self.__init__()
        self.thread = taken.thread
        return taken


class Tracer:
    """Installs span-recording wrappers around the layer functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.active = False
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        span_id = self._id(name)
        clock = time.perf_counter
        local = self._local
        tracer = self
        counts_rejects = name in _VERDICT_SPANS

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            try:
                buf = local.buf
            except AttributeError:
                buf = tracer._buffer()
            idx = len(buf.starts)
            buf.names.append(span_id)
            buf.parents.append(buf.stack[-1])
            buf.stack.append(idx)
            buf.ends.append(0.0)
            buf.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[idx] = clock()
                buf.stack.pop()
            if counts_rejects and not result:
                buf.rejects += 1
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def _rebind(self, original, replacement) -> None:
        """Point every binding of ``original`` in loaded repro modules
        (module attributes and module-level dict values) at
        ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "repro" or modname.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patched.append((value, key, original))
                            value[key] = replacement

    def _patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name))

    def install(self) -> None:
        """Wrap every target; idempotent until :meth:`uninstall`."""
        if self._patched:
            return
        import importlib

        from repro.models import all_models

        for name, modname, path in TARGETS:
            module = importlib.import_module(modname)
            if "." in path:
                clsname, attr = path.split(".")
                self._patch_method(getattr(module, clsname), attr, name)
            else:
                original = getattr(module, path)
                self._rebind(original, self._wrap(original, name))
        for cls in {type(model) for model in all_models()}:
            if "axiom_holds" in cls.__dict__:
                self._patch_method(cls, "axiom_holds", "models.axiom")
        for original in _graph_cached_functions():
            self._rebind(
                original, self._wrap(original, f"derived.{original.__name__}")
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- harvesting -----------------------------------------------------------

    def harvest(self) -> "SpanSet":
        """Take every span recorded so far (all threads) and reset;
        buffers of threads that have ended are dropped."""
        with self._lock:
            taken = [buf.take() for buf in self._buffers]
            self._buffers = [
                buf for buf in self._buffers if buf.thread.is_alive()
            ]
        return SpanSet(self.names, [buf for buf in taken if len(buf.starts)])


def _graph_cached_functions() -> list:
    """Every ``graph_cached`` relation wrapper in the loaded repro
    modules (recognised by the updater hooks graph_cached attaches)."""
    found = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("repro."):
            continue
        for value in vars(module).values():
            if callable(value) and hasattr(value, "register_delta_pairs"):
                found[id(value)] = value
    return list(found.values())


class SpanSet:
    """The spans of one traced round, with self-time aggregation."""

    def __init__(self, names: list[str], buffers: list[_Buffer]) -> None:
        self.names = list(names)
        self.buffers = buffers

    def __len__(self) -> int:
        return sum(len(buf.starts) for buf in self.buffers)

    @property
    def rejects(self) -> int:
        return sum(buf.rejects for buf in self.buffers)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls", "total_s", "self_s"}}``; a span's self
        time is its duration minus the durations of its children."""
        out: dict[str, dict[str, float]] = {}
        for buf in self.buffers:
            n = len(buf.starts)
            child = [0.0] * n
            durations = [e - s for s, e in zip(buf.starts, buf.ends)]
            for idx, parent in enumerate(buf.parents):
                if parent >= 0:
                    child[parent] += durations[idx]
            for idx in range(n):
                row = out.setdefault(
                    self.names[buf.names[idx]],
                    {"calls": 0, "total_s": 0.0, "self_s": 0.0},
                )
                row["calls"] += 1
                row["total_s"] += durations[idx]
                row["self_s"] += durations[idx] - child[idx]
        return out

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by some root span on any
        thread (the union of root intervals)."""
        intervals = sorted(
            (max(s, start), min(e, end))
            for buf in self.buffers
            for s, e, p in zip(buf.starts, buf.ends, buf.parents)
            if p < 0
        )
        total = 0.0
        cur_s = cur_e = None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        return total


def write_spans(path: str, spans: SpanSet) -> int:
    """Write one round's spans as gzip-compressed JSON lines
    ``{"thread", "id", "name", "start", "end", "parent"}`` (``parent``
    is the id of the enclosing span on the same thread, or -1); returns
    the number written."""
    written = 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for thread, buf in enumerate(spans.buffers):
            for idx in range(len(buf.starts)):
                fh.write(
                    json.dumps(
                        {
                            "thread": thread,
                            "id": idx,
                            "name": spans.names[buf.names[idx]],
                            "start": buf.starts[idx],
                            "end": buf.ends[idx],
                            "parent": buf.parents[idx],
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")
                written += 1
    return written
