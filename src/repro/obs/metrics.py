"""Zero-dependency metrics: counters, gauges, histograms, phase timers.

The registry is the in-process backend of the observability layer
(see docs/OBSERVABILITY.md).  It is deliberately tiny — plain dicts,
no locks, no third-party client — because it sits on the exploration
hot path: the explorer calls into it once or twice per event added.
When observability is disabled the registry is never touched at all
(the :class:`~repro.obs.observer.NullObserver` short-circuits every
call before it reaches here).

Phase timers nest: entering ``phase("revisit")`` while
``phase("co_placement")`` is open attributes the inner duration to
both phases' *total* ("inclusive") time, but only to the inner
phase's *self* ("exclusive") time.  ``sum(self)`` over all phases
therefore never double-counts, which is what makes the per-phase
breakdown in ``VerificationResult.phase_times`` add up to (at most)
the wall clock.

Phase timers open no spans: a timer fires thousands of times per
program, so each run hands its finished
:meth:`MetricsRegistry.phase_report` to the span layer once
(:mod:`repro.obs.spans`), which records one aggregated span per phase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Histogram:
    """A fixed-bucket histogram plus running summary statistics.

    ``bounds`` are the inclusive upper edges of the buckets; one
    overflow bucket is appended automatically.
    """

    bounds: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge_dict(self, snap: dict) -> None:
        """Fold a snapshot produced by :meth:`as_dict` into this
        histogram (bucket-wise, assuming the same ``bounds`` — which
        all histograms created through one metric name share)."""
        self.count += snap.get("count", 0)
        self.total += snap.get("total", 0.0)
        for edge in ("min", "max"):
            theirs = snap.get(edge)
            if theirs is None:
                continue
            ours = getattr(self, edge)
            pick = min if edge == "min" else max
            setattr(self, edge, theirs if ours is None else pick(ours, theirs))
        buckets = snap.get("buckets", {})
        for i, bound in enumerate(self.bounds):
            self.counts[i] += buckets.get(f"le_{bound:g}", 0)
        self.counts[-1] += buckets.get("inf", 0)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": round(self.mean, 6),
            "min": self.min,
            "max": self.max,
            "buckets": {
                **{f"le_{b:g}": c for b, c in zip(self.bounds, self.counts)},
                "inf": self.counts[-1],
            },
        }


@dataclass
class PhaseStat:
    """Accumulated timings of one named phase."""

    calls: int = 0
    #: inclusive seconds (children counted)
    total: float = 0.0
    #: exclusive seconds (children subtracted)
    self_time: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "total": round(self.total, 6),
            "self": round(self.self_time, 6),
        }


class _PhaseContext:
    """Reusable context manager for one phase activation."""

    __slots__ = ("registry", "name", "start", "child_time")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self.registry = registry
        self.name = name
        self.start = 0.0
        self.child_time = 0.0

    def __enter__(self) -> "_PhaseContext":
        self.start = self.registry._clock()
        self.child_time = 0.0
        self.registry._stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        registry = self.registry
        duration = registry._clock() - self.start
        registry._stack.pop()
        stat = registry._phases.get(self.name)
        if stat is None:
            stat = registry._phases[self.name] = PhaseStat()
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - self.child_time
        if registry._stack:
            registry._stack[-1].child_time += duration
        return False


class MetricsRegistry:
    """Counters, gauges, histograms and nested phase timers."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._phases: dict[str, PhaseStat] = {}
        self._stack: list[_PhaseContext] = []

    # -- counters / gauges / histograms ---------------------------------

    def inc(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- phase timers ---------------------------------------------------

    def phase(self, name: str) -> _PhaseContext:
        """A ``with``-able timer; nesting attributes inner durations to
        the inner phase's self time only."""
        return _PhaseContext(self, name)

    def phase_stats(self) -> dict[str, PhaseStat]:
        return dict(self._phases)

    def phase_report(self) -> dict[str, dict[str, float]]:
        """JSON-ready per-phase timing breakdown, ordered by self time."""
        ordered = sorted(
            self._phases.items(), key=lambda kv: kv[1].self_time, reverse=True
        )
        return {name: stat.as_dict() for name, stat in ordered}

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything the registry knows, as plain JSON-ready data.

        The snapshot is built from plain dicts/floats only, so it
        pickles across process boundaries.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.as_dict() for k, h in self.histograms.items()},
            "phases": self.phase_report(),
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's counters, gauges and histograms in.

        Counters and histograms sum; gauges keep the maximum (they are
        point-in-time readings, and "worst seen anywhere" is the only
        aggregation that stays meaningful across workers).  Phase
        timings are never folded: they travel in
        ``VerificationResult.phase_times``, and folding them here too
        would count them twice.
        """
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            if name not in self.gauges or value > self.gauges[name]:
                self.gauges[name] = value
        for name, hist_snap in snap.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge_dict(hist_snap)
