"""Derived relations of an execution graph.

Memory models are defined over a standard family of relations derived
from ``po``/``rf``/``co``.  This module computes them as
:class:`~repro.relations.Relation` values.  Naming follows herd/cat:

* ``rfe``/``rfi`` — external/internal (cross-thread/same-thread) reads-from
* ``fr``          — from-read: ``rf⁻¹ ; co``
* ``eco``         — extended coherence order
* ``po_loc``      — program order between same-location accesses

Initialisation writes count as external to every thread.

Relations are memoised *on the graph*, in its one per-lineage cache
(``graph._derived``, which also holds the consistency checks' state
and the ``.cat`` environments), and the memo travels through
:meth:`ExecutionGraph.copy`, so the exploration's
copy-one-event-extend pattern pays per-delta cost: each
:func:`graph_cached` relation carries a *delta function* mapping one
mutation record (see the graph's delta log) to the pairs it adds, and
a stale cache entry is brought current with
:meth:`Relation.extended` instead of recomputed.  Values that are not
extend-only pair sets register a custom incremental updater instead
(``eco``, the hb-predecessor maps and the SC-event lists of
:mod:`repro.models.c11`).

Delta functions are written against the *current* graph state, which
makes late replay safe: every emitted pair involves the delta's own
event, thread prefixes are append-only, and a coherence insertion
never reorders existing writes.  Any mutation that breaks those
guarantees (``set_rf``, bulk ``from_parts``) cuts the delta log, which
forces recomputation.
"""

from __future__ import annotations

from ..events import Event, FenceLabel, ReadLabel, WriteLabel
from ..obs.profile import _STATE as _PROFILE
from ..relations import Relation, same, union
from .graph import ExecutionGraph
from .incremental import _FLAGS, check_equal


def graph_cached(fn):
    """Memoise a Relation-valued function of one graph (or one valued
    in another immutable-by-convention type, like the hb-predecessor
    maps and SC-event tuples of :mod:`repro.models.c11`).

    Entries live in ``graph._derived`` keyed by name and tagged with
    the graph's lineage version, so a copied graph starts out with its
    parent's values.  On lookup: a same-version entry is a memo hit; a
    stale entry is *extended* through the graph's delta log when the
    function has a registered incremental updater (and incremental
    mode is on); otherwise the relation is recomputed from scratch.

    Updaters are registered on the wrapper: ``@fn.register_delta_pairs``
    takes a ``(graph, delta) -> iterable of pairs`` function (the
    common, extend-only case — it also feeds the incremental
    acyclicity checker), while ``@fn.register_incremental`` takes a
    full ``(graph, old, deltas) -> value`` updater for values with
    structure beyond added pairs.  A delta rule registered with
    ``@fn.register_delta_pairs(forward=True)`` promises that every
    pair ``(a, b)`` it emits has ``b`` equal to the delta's event or
    added after it, and ``a`` added before ``b``: such edges can never
    close a cycle, which lets :func:`~repro.graphs.incremental.acyclic_check`
    certify an all-forward family without looking at its deltas.

    When a profiling registry is active (see :mod:`repro.obs.profile`)
    each call is attributed: memo hits bump ``relation:<name>:memo_hit``,
    incremental extensions bump ``relation:<name>:incremental_hit``,
    and both extensions and full computes are timed under a
    ``relation:<name>`` phase, which nests inside whatever ``check:``
    phase asked for the relation — so axiom self-time excludes
    relation-building time.  Disabled cost is one ``None`` check.
    In differential mode every extension is recomputed from scratch
    and compared (:class:`~repro.graphs.incremental.IncrementalMismatch`
    on divergence).
    """
    name = fn.__name__
    hit_counter = f"relation:{name}:memo_hit"
    inc_counter = f"relation:{name}:incremental_hit"
    compute_phase = f"relation:{name}"

    def wrapper(graph: ExecutionGraph):
        version = graph._version
        entry = graph._derived.get(name)
        reg = _PROFILE.registry
        if entry is not None:
            if entry[0] == version:
                if reg is not None:
                    reg.inc(hit_counter)
                return entry[1]
            updater = wrapper.incremental_update
            if updater is not None and _FLAGS.enabled:
                deltas = graph.deltas_since(entry[0])
                if deltas is not None:
                    if reg is not None:
                        with reg.phase(compute_phase):
                            value = updater(graph, entry[1], deltas)
                        reg.inc(inc_counter)
                    else:
                        value = updater(graph, entry[1], deltas)
                    if _FLAGS.differential:
                        check_equal(name, value, fn(graph))
                    graph._derived[name] = (version, value)
                    return value
        if reg is not None:
            with reg.phase(compute_phase):
                value = fn(graph)
        else:
            value = fn(graph)
        graph._derived[name] = (version, value)
        return value

    def register_delta_pairs(pair_fn=None, *, forward=False):
        if pair_fn is None:
            return lambda fn: register_delta_pairs(fn, forward=forward)
        wrapper.delta_pairs = pair_fn
        wrapper.forward = forward

        def update(graph, old, deltas):
            pairs = [
                pair for delta in deltas for pair in pair_fn(graph, delta)
            ]
            return old.extended(pairs) if pairs else old

        wrapper.incremental_update = update
        return pair_fn

    def register_incremental(update_fn):
        wrapper.incremental_update = update_fn
        return update_fn

    wrapper.__name__ = name
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    wrapper.delta_pairs = None
    wrapper.forward = False
    wrapper.incremental_update = None
    wrapper.register_delta_pairs = register_delta_pairs
    wrapper.register_incremental = register_incremental
    return wrapper


def same_thread(a: Event, b: Event) -> bool:
    return a.tid == b.tid and not a.is_initial and not b.is_initial


@graph_cached
def po(graph: ExecutionGraph) -> Relation:
    """Full (transitive) program order, per thread."""
    rel = Relation()
    for tid in graph.thread_ids():
        events = graph.thread_events(tid)
        for i, a in enumerate(events):
            for b in events[i + 1:]:
                rel.add(a, b)
    return rel


@po.register_delta_pairs(forward=True)
def _po_delta(graph, delta):
    if delta[0] != "event":
        return ()
    ev = delta[1]
    return [(p, ev) for p in graph._threads[ev.tid][: ev.index]]


@graph_cached
def po_loc(graph: ExecutionGraph) -> Relation:
    """Program order restricted to same-location accesses."""
    rel = Relation()
    for tid in graph.thread_ids():
        events = graph.thread_events(tid)
        for i, a in enumerate(events):
            la = graph.label(a)
            if not la.is_access:
                continue
            for b in events[i + 1:]:
                lb = graph.label(b)
                if lb.is_access and lb.location == la.location:
                    rel.add(a, b)
    return rel


@po_loc.register_delta_pairs
def _po_loc_delta(graph, delta):
    if delta[0] != "event":
        return ()
    ev = delta[1]
    lab = graph._labels[ev]
    if not lab.is_access:
        return ()
    loc = lab.location
    out = []
    for p in graph._threads[ev.tid][: ev.index]:
        plab = graph._labels[p]
        if plab.is_access and plab.location == loc:
            out.append((p, ev))
    return out


@graph_cached
def rf(graph: ExecutionGraph) -> Relation:
    return Relation((w, r) for r, w in graph.rf_map().items())


@rf.register_delta_pairs(forward=True)
def _rf_delta(graph, delta):
    if delta[0] != "event":
        return ()
    ev = delta[1]
    src = graph._rf.get(ev)
    return ((src, ev),) if src is not None else ()


@graph_cached
def rfe(graph: ExecutionGraph) -> Relation:
    return Relation(
        (w, r) for r, w in graph.rf_map().items() if not same_thread(w, r)
    )


@rfe.register_delta_pairs(forward=True)
def _rfe_delta(graph, delta):
    return [
        (w, r) for w, r in _rf_delta(graph, delta) if not same_thread(w, r)
    ]


@graph_cached
def rfi(graph: ExecutionGraph) -> Relation:
    return Relation(
        (w, r) for r, w in graph.rf_map().items() if same_thread(w, r)
    )


@rfi.register_delta_pairs
def _rfi_delta(graph, delta):
    return [(w, r) for w, r in _rf_delta(graph, delta) if same_thread(w, r)]


@graph_cached
def co(graph: ExecutionGraph) -> Relation:
    rel = Relation()
    for loc in graph.locations():
        order = graph.co_order(loc)
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                rel.add(a, b)
    return rel


@co.register_delta_pairs
def _co_delta(graph, delta):
    if delta[0] != "co":
        return ()
    ev = delta[1]
    order = graph._co[graph._labels[ev].location]
    pos = order.index(ev)
    out = [(w, ev) for w in order[:pos]]
    out.extend((ev, w) for w in order[pos + 1:])
    return out


@graph_cached
def fr(graph: ExecutionGraph) -> Relation:
    """From-read: read r is fr-before every write coherence-after rf(r)."""
    rel = Relation()
    for read, src in graph.rf_map().items():
        loc = graph.label(read).location
        order = graph.co_order(loc)  # type: ignore[arg-type]
        after = order[order.index(src) + 1:]
        for w in after:
            if w != read:
                rel.add(read, w)
    return rel


@fr.register_delta_pairs
def _fr_delta(graph, delta):
    kind, ev = delta[0], delta[1]
    if kind == "event":
        # a new read is fr-before every write coherence-after its source
        src = graph._rf.get(ev)
        if src is None:
            return ()
        order = graph._co[graph._labels[ev].location]
        return [(ev, w) for w in order[order.index(src) + 1:]]
    if kind == "co":
        # a newly placed write gains an fr edge from every read whose
        # source sits coherence-before it
        order = graph._co[graph._labels[ev].location]
        position = {w: i for i, w in enumerate(order)}
        pos = position[ev]
        out = []
        for read, src in graph._rf.items():
            i = position.get(src)
            if i is not None and i < pos:
                out.append((read, ev))
        return out
    return ()


def external(rel: Relation) -> Relation:
    return Relation((a, b) for a, b in rel.pairs() if not same_thread(a, b))


def internal(rel: Relation) -> Relation:
    return Relation((a, b) for a, b in rel.pairs() if same_thread(a, b))


@graph_cached
def coe(graph: ExecutionGraph) -> Relation:
    """External (cross-thread) coherence."""
    return external(co(graph))


@coe.register_delta_pairs
def _coe_delta(graph, delta):
    return [
        (a, b) for a, b in _co_delta(graph, delta) if not same_thread(a, b)
    ]


@graph_cached
def coi(graph: ExecutionGraph) -> Relation:
    """Internal (same-thread) coherence."""
    return internal(co(graph))


@coi.register_delta_pairs
def _coi_delta(graph, delta):
    return [(a, b) for a, b in _co_delta(graph, delta) if same_thread(a, b)]


@graph_cached
def fre(graph: ExecutionGraph) -> Relation:
    """External (cross-thread) from-read."""
    return external(fr(graph))


@fre.register_delta_pairs
def _fre_delta(graph, delta):
    return [
        (a, b) for a, b in _fr_delta(graph, delta) if not same_thread(a, b)
    ]


@graph_cached
def fri(graph: ExecutionGraph) -> Relation:
    """Internal (same-thread) from-read."""
    return internal(fr(graph))


@fri.register_delta_pairs
def _fri_delta(graph, delta):
    return [(a, b) for a, b in _fr_delta(graph, delta) if same_thread(a, b)]


@graph_cached
def eco(graph: ExecutionGraph) -> Relation:
    """Extended coherence order: (rf | co | fr)+."""
    return union(rf(graph), co(graph), fr(graph)).transitive_closure()


@eco.register_incremental
def _eco_incremental(graph, old, deltas):
    # Not a pair-extension: eco is a transitive closure.  But with rf
    # functional, co total per location and fr = rf⁻¹;co, the closure
    # collapses — co;co ⊆ co, fr;co ⊆ fr, rf;fr ⊆ co, and the
    # remaining two-step compositions end in a read, so
    # eco = rf ∪ co ∪ fr ∪ co;rf ∪ fr;rf exactly.  The component
    # relations are themselves incrementally maintained, making this
    # O(pairs) instead of a fresh closure; the identity needs the
    # mutator-kept invariants, which hold on every graph with a live
    # delta log (bulk from_parts construction cuts the log).
    rf_rel, co_rel, fr_rel = rf(graph), co(graph), fr(graph)
    return union(
        rf_rel,
        co_rel,
        fr_rel,
        co_rel.compose(rf_rel),
        fr_rel.compose(rf_rel),
    )


@graph_cached
def rmw_pairs(graph: ExecutionGraph) -> Relation:
    """Exclusive read -> its exclusive write."""
    rel = Relation()
    for ev in graph.events():
        lab = graph.label(ev)
        if isinstance(lab, ReadLabel) and lab.exclusive:
            partner = graph.exclusive_pair(ev)
            if partner is not None:
                rel.add(ev, partner)
    return rel


@rmw_pairs.register_delta_pairs
def _rmw_delta(graph, delta):
    if delta[0] != "event":
        return ()
    ev = delta[1]
    lab = graph._labels[ev]
    if not getattr(lab, "exclusive", False):
        return ()
    partner = graph.exclusive_pair(ev)
    if partner is None:
        return ()
    if isinstance(lab, WriteLabel):
        return ((partner, ev),)
    return ((ev, partner),)


# -- dependency fragments ----------------------------------------------------


def _dep_relation(graph: ExecutionGraph, field: str) -> Relation:
    rel = Relation()
    for ev in graph.events():
        for dep in getattr(graph.label(ev), field):
            rel.add(dep, ev)
    return rel


def _dep_delta(graph, delta, field):
    if delta[0] != "event":
        return ()
    ev = delta[1]
    return [(dep, ev) for dep in getattr(graph._labels[ev], field)]


@graph_cached
def dep_addr(graph: ExecutionGraph) -> Relation:
    """Address-dependency edges recorded on labels."""
    return _dep_relation(graph, "addr_deps")


@dep_addr.register_delta_pairs
def _dep_addr_delta(graph, delta):
    return _dep_delta(graph, delta, "addr_deps")


@graph_cached
def dep_data(graph: ExecutionGraph) -> Relation:
    """Data-dependency edges recorded on labels."""
    return _dep_relation(graph, "data_deps")


@dep_data.register_delta_pairs
def _dep_data_delta(graph, delta):
    return _dep_delta(graph, delta, "data_deps")


@graph_cached
def dep_ctrl(graph: ExecutionGraph) -> Relation:
    """Control-dependency edges recorded on labels."""
    return _dep_relation(graph, "ctrl_deps")


@dep_ctrl.register_delta_pairs
def _dep_ctrl_delta(graph, delta):
    return _dep_delta(graph, delta, "ctrl_deps")


_DEP_FRAGMENTS = (("a", dep_addr), ("d", dep_data), ("c", dep_ctrl))


def dependency(graph: ExecutionGraph, kinds: str = "adc") -> Relation:
    """Syntactic dependency edges recorded on labels.

    ``kinds`` selects which: ``a``\\ ddr, ``d``\\ ata, ``c``\\ trl.
    Single-kind requests return the cached fragment directly (do not
    mutate it); combinations are unioned fresh.
    """
    parts = [frag(graph) for key, frag in _DEP_FRAGMENTS if key in kinds]
    if not parts:
        return Relation()
    if len(parts) == 1:
        return parts[0]
    return union(*parts)


# -- whole-universe relations (the cat ``loc``/``ext``/``int``/``id``) -------


@graph_cached
def same_loc(graph: ExecutionGraph) -> Relation:
    """All pairs of distinct same-location accesses (both directions)."""
    accesses = [e for e in graph.events() if graph.label(e).is_access]
    return same(lambda e: graph.label(e).location, accesses)


@same_loc.register_delta_pairs
def _same_loc_delta(graph, delta):
    if delta[0] not in ("event", "init"):
        return ()
    ev = delta[1]
    lab = graph._labels[ev]
    if not lab.is_access:
        return ()
    loc = lab.location
    out = []
    for other, olab in graph._labels.items():
        if other != ev and olab.is_access and olab.location == loc:
            out.append((ev, other))
            out.append((other, ev))
    return out


@graph_cached
def ext_rel(graph: ExecutionGraph) -> Relation:
    """All pairs of distinct events of different threads (init counts
    as external to every thread)."""
    events = list(graph.events())
    return Relation(
        (a, b)
        for a in events
        for b in events
        if a != b and not same_thread(a, b)
    )


@ext_rel.register_delta_pairs
def _ext_rel_delta(graph, delta):
    if delta[0] not in ("event", "init"):
        return ()
    ev = delta[1]
    out = []
    for other in graph._labels:
        if other != ev and not same_thread(ev, other):
            out.append((ev, other))
            out.append((other, ev))
    return out


@graph_cached
def int_rel(graph: ExecutionGraph) -> Relation:
    """All pairs of distinct same-thread events."""
    events = list(graph.events())
    return Relation(
        (a, b) for a in events for b in events if a != b and same_thread(a, b)
    )


@int_rel.register_delta_pairs
def _int_rel_delta(graph, delta):
    if delta[0] != "event":
        return ()
    ev = delta[1]
    out = []
    for other in graph._threads.get(ev.tid, ()):
        if other != ev:
            out.append((ev, other))
            out.append((other, ev))
    return out


@graph_cached
def id_rel(graph: ExecutionGraph) -> Relation:
    """The identity relation over all events."""
    return Relation.identity(graph.events())


@id_rel.register_delta_pairs
def _id_rel_delta(graph, delta):
    if delta[0] not in ("event", "init"):
        return ()
    ev = delta[1]
    return ((ev, ev),)


# -- event-set helpers -------------------------------------------------------


def reads(graph: ExecutionGraph) -> list[Event]:
    return [e for e in graph.events() if isinstance(graph.label(e), ReadLabel)]


def writes(graph: ExecutionGraph) -> list[Event]:
    return [e for e in graph.events() if isinstance(graph.label(e), WriteLabel)]


def fences(graph: ExecutionGraph) -> list[Event]:
    return [e for e in graph.events() if isinstance(graph.label(e), FenceLabel)]


def accesses(graph: ExecutionGraph) -> list[Event]:
    return [e for e in graph.events() if graph.label(e).is_access]


def is_read(graph: ExecutionGraph, e: Event) -> bool:
    return isinstance(graph.label(e), ReadLabel)


def is_write(graph: ExecutionGraph, e: Event) -> bool:
    return isinstance(graph.label(e), WriteLabel)

