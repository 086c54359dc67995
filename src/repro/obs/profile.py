"""Deep-profiling hooks: hotspot attribution for relations, axioms
and the ``.cat`` evaluator.

The exploration core threads an observer everywhere, but the layers
whose cost actually dominates a run — the models' consistency checks
(:mod:`repro.models.base`, whose models are registry singletons),
derived-relation computation (:mod:`repro.graphs.derived`) and
``.cat`` evaluation (:mod:`repro.cat.eval`) — have no observer in
their signatures.  Threading one through would put a new
argument on every relation call; instead this module keeps **one
process-global active registry** that those hot paths consult with a
single attribute load::

    reg = _STATE.registry
    if reg is not None:            # profiling off: this is the whole cost
        reg.inc("relation:po:memo_hit")

:class:`~repro.core.explorer.Explorer` activates the registry of its
observer for the duration of one run (and always deactivates it), so
the hooks are live exactly when the run is observed and cost one
``None`` check otherwise — the same discipline as ``NULL_OBSERVER``.
Activation nests (a fallback explorer inside a parallel coordinator
restores the outer registry on exit) and is per-process: parallel
workers activate their own observer's registry in their own process,
and the coordinator folds the snapshots back (see
``Observer.absorb``).

Metric names the hooks reserve (all live in the ordinary counter /
histogram / phase namespaces of the registry):

* ``relation:<name>:memo_hit`` — a derived relation was served from the
  per-graph memo (counter);
* ``relation:<name>:incremental_hit`` — a stale cached relation was
  *extended* through the graph's delta log instead of recomputed
  (counter; see :mod:`repro.graphs.incremental`);
* phase ``relation:<name>`` — time spent *computing* a derived
  relation, whether from scratch or incrementally (nests inside
  whatever ``check:`` phase asked for it, so axiom self-time excludes
  relation-building time);
* ``acyclic:incremental_hit`` / ``acyclic:fallback`` — an acyclicity
  check answered from its stored state, or a lineage cut (or an
  ordinal family's exhausted float precision) sent it to the full DFS
  (counters);
* ``coherent:incremental_hit`` / ``coherent:fallback`` — a COH check
  verified only the events appended since its last verdict, or a
  lineage cut sent it to the full scan (counters);
* ``coherence:incremental_hit`` / ``coherence:fallback`` — the same
  for an SC-per-location or RMW atomicity check (counters; see
  :mod:`repro.models.common`);
* ``cat:memo_hit:<binding>`` / ``cat:memo_miss:<binding>`` — per-name
  memo behaviour of one ``.cat`` evaluation environment (counters);
* ``cat:fixpoint_iters:<names>`` — rounds a ``let rec`` group took to
  converge (histogram, one observation per solve);
* ``check:coherence:fail`` / ``check:axiom:<model>:fail`` — failed
  consistency checks (counters; totals come from the phase ``calls``);
* ``rf_fanout`` / ``co_fanout`` — consistent successors per read/write
  branch point (histograms);
* ``revisit_deleted`` — events deleted per performed backward revisit
  (histogram);
* ``graph_events`` — events per recorded complete execution
  (histogram).

See docs/OBSERVABILITY.md ("Deep profiling") for the full catalogue.
"""

from __future__ import annotations

from .metrics import MetricsRegistry


class _ProfileState:
    """Holder for the process-global active registry (a slot attribute
    is one pointer load on the hot path, and monkeypatch-friendly)."""

    __slots__ = ("registry",)

    def __init__(self) -> None:
        self.registry: MetricsRegistry | None = None


_STATE = _ProfileState()


def active() -> MetricsRegistry | None:
    """The registry profiling hooks currently report to (None = off)."""
    return _STATE.registry


class activation:
    """Context manager installing ``observer``'s registry as the active
    profile target (or None for a disabled observer), restoring the
    previous target on exit — so nested runs compose."""

    __slots__ = ("_registry", "_previous")

    def __init__(self, observer) -> None:
        self._registry = (
            getattr(observer, "metrics", None) if observer.enabled else None
        )
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> "activation":
        self._previous = _STATE.registry
        _STATE.registry = self._registry
        return self

    def __exit__(self, *exc) -> bool:
        _STATE.registry = self._previous
        return False


# -- reporting ---------------------------------------------------------------


def memo_rates(counters: dict) -> dict[str, dict]:
    """Per-name memoisation behaviour recovered from hook counters.

    Pairs ``relation:<n>:memo_hit`` with the ``relation:<n>`` phase is
    the caller's job (phases live elsewhere); this handles the cat
    namespace, whose hit *and* miss are both counters:
    ``{name: {"hits": h, "misses": m, "hit_rate": h / (h + m)}}``.
    """
    names: dict[str, dict] = {}
    for key, value in counters.items():
        for kind, prefix in (("hits", "cat:memo_hit:"), ("misses", "cat:memo_miss:")):
            if key.startswith(prefix):
                entry = names.setdefault(
                    key[len(prefix):], {"hits": 0, "misses": 0}
                )
                entry[kind] += int(value)
    for entry in names.values():
        total = entry["hits"] + entry["misses"]
        entry["hit_rate"] = round(entry["hits"] / total, 4) if total else None
    return names


def format_profile(snapshot: dict, top: int = 15) -> str:
    """Render a metrics snapshot as the ``--stats`` profile section."""
    lines = ["profile:"]
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("  counters (top by value):")
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        width = max(len(name) for name, _ in ranked[:top])
        for name, value in ranked[:top]:
            lines.append(f"    {name:<{width}}  {value:g}")
        if len(ranked) > top:
            lines.append(f"    ... {len(ranked) - top} more")
    rates = memo_rates(counters)
    if rates:
        lines.append("  cat memo hit rates:")
        for name in sorted(rates):
            entry = rates[name]
            shown = (
                "n/a"
                if entry["hit_rate"] is None
                else f"{100 * entry['hit_rate']:.1f}%"
            )
            lines.append(
                f"    {name}: {shown} "
                f"({entry['hits']} hit / {entry['misses']} miss)"
            )
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("  histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(
                f"    {name}: n={h.get('count', 0)} "
                f"mean={h.get('mean', 0.0):g} "
                f"min={h.get('min')} max={h.get('max')}"
            )
    if len(lines) == 1:
        lines.append("  (no profile data recorded)")
    return "\n".join(lines)
