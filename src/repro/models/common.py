"""Axioms and relation fragments shared between memory models.

Every supported model includes *coherence* (SC-per-location) and
*atomicity*; hardware models additionally share the shape of their
fence- and dependency-induced orderings, collected here so each model
file reads like its paper definition.
"""

from __future__ import annotations

from ..events import Event, FenceKind, FenceLabel, MemOrder, ReadLabel, WriteLabel
from ..graphs import ExecutionGraph
from ..graphs.derived import (
    co,
    dependency,
    fr,
    graph_cached,
    po_loc,
    rf,
    rmw_pairs,
    same_thread,
)
from ..graphs.incremental import verified
from ..relations import Relation, union

_COHERENCE = ("coherence:incremental_hit", "coherence:fallback")


def coherence_relation(graph: ExecutionGraph) -> Relation:
    """po-loc ∪ rf ∪ co ∪ fr, the union SC-per-location requires
    acyclic: the ``REPRO_INCREMENTAL=0`` check, the differential
    oracle, and the relation diagnosis extracts a cycle from."""
    return union(po_loc(graph), rf(graph), co(graph), fr(graph))


def sc_per_location(graph: ExecutionGraph) -> bool:
    """Coherence: po-loc ∪ rf ∪ co ∪ fr is acyclic.

    Checked by *coherence keys*, not by a cycle search.  A write at
    index i of its location's co list has key 2i; a read whose rf
    source sits at index i has key 2i+1.  The union is acyclic iff,
    in every thread, the keys of the thread's accesses to each
    location never decrease in program order:

    * rf, co and fr edges strictly raise the key, and the only edge
      between equal keys is po-loc between two reads of one write, so
      a cycle would be a po cycle;
    * a decrease between consecutive same-location accesses of one
      thread is one of herd's SC-PER-LOCATION shapes (CoWW, CoWR,
      CoRW1, CoRW2, CoRR), each a cycle.

    On a live delta log only an appended event's pair with its
    thread's previous access to the same location can newly decrease:
    events are appended at the end of their thread, a co insertion
    keeps the existing writes' relative order (so every older
    comparison keeps its sign), and rf never changes.  The
    verified-version rule (:func:`~repro.graphs.incremental.verified`)
    applies it.
    """
    return verified(
        graph, "coh-keys", _COHERENCE, _keys_rise_since, _keys_rise,
        oracle=_coherence_acyclic,
    )


def _coherence_acyclic(graph: ExecutionGraph, _=None) -> bool:
    return coherence_relation(graph).is_acyclic()


def atomicity_ok(graph: ExecutionGraph) -> bool:
    """RMW atomicity: no write intervenes, in coherence order, between
    an exclusive read's source and its exclusive write.

    On a live delta log only a coherence insertion can break it: the
    inserted write is an RMW's write and lands apart from its read's
    source, or it lands right before an RMW's write, between that
    RMW's source and its write.  Each ``co`` delta checks those two
    writes, under the verified-version rule."""
    return verified(
        graph, "atomicity", _COHERENCE, _atomic_since, _atomicity_scan
    )


def _coherence_key(graph: ExecutionGraph, ev: Event, lab) -> int:
    order = graph._co[lab.loc]
    if isinstance(lab, WriteLabel):
        return 2 * order.index(ev)
    return 2 * order.index(graph._rf[ev]) + 1


def _keys_rise(graph: ExecutionGraph, _=None) -> bool:
    """The key rule over the whole graph: one pass over the threads
    with a per-location position map.  An access with no position (a
    read without an rf source, or a write or rf source missing from
    its co list: only ``from_parts`` with inconsistent inputs builds
    one) is not coherent, as :func:`atomicity_ok` holds an RMW outside
    its co list to be not atomic."""
    position = {
        w: 2 * i for order in graph._co.values() for i, w in enumerate(order)
    }
    labels, rf_map = graph._labels, graph._rf
    for thread in graph._threads.values():
        last: dict = {}
        for ev in thread:
            lab = labels[ev]
            if isinstance(lab, WriteLabel):
                key = position.get(ev)
            elif isinstance(lab, ReadLabel):
                key = position.get(rf_map.get(ev))
                if key is not None:
                    key += 1
            else:
                continue
            if key is None or key < last.get(lab.loc, 0):
                return False
            last[lab.loc] = key
    return True


def _keys_rise_since(graph: ExecutionGraph, deltas: list, _=None) -> bool:
    """The key rule for the appended events: each one's key is no lower
    than that of its thread's previous access to the same location."""
    labels = graph._labels
    for delta in deltas:
        if delta[0] != "event":
            continue
        ev = delta[1]
        lab = labels[ev]
        if not isinstance(lab, (ReadLabel, WriteLabel)):
            continue
        loc = lab.loc
        thread = graph._threads[ev.tid]
        for index in range(ev.index - 1, -1, -1):
            prev = thread[index]
            plab = labels[prev]
            if isinstance(plab, (ReadLabel, WriteLabel)) and plab.loc == loc:
                if _coherence_key(graph, prev, plab) > _coherence_key(
                    graph, ev, lab
                ):
                    return False
                break
    return True


def _atomicity_scan(graph: ExecutionGraph, _=None) -> bool:
    for read, write in rmw_pairs(graph).pairs():
        src = graph.rf(read)
        order = graph.co_order(graph.label(write).location)  # type: ignore[arg-type]
        try:
            i, j = order.index(src), order.index(write)
        except ValueError:
            # the rf source or the exclusive write is not in the
            # location's coherence order — only constructible through
            # from_parts with inconsistent inputs, and certainly not
            # an atomic RMW
            return False
        if j != i + 1:
            return False
    return True


def _atomic_since(graph: ExecutionGraph, deltas: list, _=None) -> bool:
    """Atomicity after the coherence insertions: each inserted write
    and the write now co-after it sit right after their read's source
    if they are RMW writes.  That covers several insertions since the
    verified version too: an older RMW was atomic there and older
    writes keep their relative order, so if anything now separates it
    from its source, the write right before it is an inserted one."""
    for delta in deltas:
        if delta[0] != "co":
            continue
        ev = delta[1]
        order = graph._co[graph._labels[ev].loc]
        pos = order.index(ev)
        if not _rmw_adjacent(graph, order, pos):
            return False
        if pos + 1 < len(order) and not _rmw_adjacent(graph, order, pos + 1):
            return False
    return True


def _rmw_adjacent(graph: ExecutionGraph, order: list, pos: int) -> bool:
    write = order[pos]
    if not graph._labels[write].exclusive:
        return True
    read = graph.exclusive_pair(write)
    return read is None or order[pos - 1] == graph._rf.get(read)


# -- classifying events -------------------------------------------------------


def is_read(graph: ExecutionGraph, e: Event) -> bool:
    return isinstance(graph.label(e), ReadLabel)


def is_write(graph: ExecutionGraph, e: Event) -> bool:
    return isinstance(graph.label(e), WriteLabel)


def is_acquire_read(graph: ExecutionGraph, e: Event) -> bool:
    lab = graph.label(e)
    return isinstance(lab, ReadLabel) and lab.order.is_acquire()


def is_release_write(graph: ExecutionGraph, e: Event) -> bool:
    lab = graph.label(e)
    return isinstance(lab, WriteLabel) and lab.order.is_release()


def fence_orders(kind: FenceKind, order: MemOrder, before: str, after: str) -> bool:
    """Does a fence of this kind order an access class ``before`` it
    against an access class ``after`` it?  Classes are ``"R"``/``"W"``.
    """
    if kind.is_full():
        return True
    if kind is FenceKind.LWSYNC:
        return not (before == "W" and after == "R")
    if kind is FenceKind.DMB_LD:
        return before == "R"
    if kind is FenceKind.DMB_ST:
        return before == "W" and after == "W"
    if kind is FenceKind.ISYNC:
        # approximation of the ctrl+isync idiom: reads before the
        # barrier are ordered against everything after it
        return before == "R"
    if kind is FenceKind.C11:
        if order is MemOrder.SC or order is MemOrder.ACQ_REL:
            return True
        if order is MemOrder.ACQ:
            return before == "R"
        if order is MemOrder.REL:
            return after == "W"
    return False


def _access_class(graph: ExecutionGraph, e: Event) -> str | None:
    lab = graph.label(e)
    if isinstance(lab, ReadLabel):
        return "R"
    if isinstance(lab, WriteLabel):
        return "W"
    return None


@graph_cached
def fence_ordered_po(graph: ExecutionGraph) -> Relation:
    """All po pairs (a, b) with an ordering fence strictly between them."""
    rel = Relation()
    for tid in graph.thread_ids():
        events = graph.thread_events(tid)
        fence_positions = [
            (i, graph.label(e))
            for i, e in enumerate(events)
            if isinstance(graph.label(e), FenceLabel)
        ]
        if not fence_positions:
            continue
        for i, a in enumerate(events):
            cls_a = _access_class(graph, a)
            if cls_a is None:
                continue
            for j in range(i + 1, len(events)):
                b = events[j]
                cls_b = _access_class(graph, b)
                if cls_b is None:
                    continue
                for k, flab in fence_positions:
                    if i < k < j and fence_orders(
                        flab.kind, flab.order, cls_a, cls_b  # type: ignore[union-attr]
                    ):
                        rel.add(a, b)
                        break
    return rel


@fence_ordered_po.register_delta_pairs(forward=True)
def _fence_ordered_po_delta(graph, delta):
    # thread prefixes are append-only, so a new event only gains pairs
    # in which it is the *later* access
    if delta[0] != "event":
        return ()
    ev = delta[1]
    cls_b = _access_class(graph, ev)
    if cls_b is None:
        return ()
    events = graph._threads[ev.tid]
    j = ev.index
    fence_positions = [
        (k, graph._labels[e])
        for k, e in enumerate(events[:j])
        if isinstance(graph._labels[e], FenceLabel)
    ]
    if not fence_positions:
        return ()
    out = []
    for i in range(j):
        a = events[i]
        cls_a = _access_class(graph, a)
        if cls_a is None:
            continue
        for k, flab in fence_positions:
            if i < k and fence_orders(flab.kind, flab.order, cls_a, cls_b):
                out.append((a, ev))
                break
    return out


@graph_cached
def acquire_release_po(graph: ExecutionGraph) -> Relation:
    """po edges induced by access annotations: everything after an
    acquire read is ordered, everything before a release write is."""
    rel = Relation()
    for tid in graph.thread_ids():
        events = graph.thread_events(tid)
        for i, a in enumerate(events):
            for b in events[i + 1:]:
                if is_acquire_read(graph, a) and graph.label(b).is_access:
                    rel.add(a, b)
                elif graph.label(a).is_access and is_release_write(graph, b):
                    rel.add(a, b)
    return rel


@acquire_release_po.register_delta_pairs(forward=True)
def _acquire_release_po_delta(graph, delta):
    if delta[0] != "event":
        return ()
    ev = delta[1]
    if not graph._labels[ev].is_access:
        return ()
    ev_is_release_write = is_release_write(graph, ev)
    out = []
    for a in graph._threads[ev.tid][: ev.index]:
        if is_acquire_read(graph, a):
            out.append((a, ev))
        elif ev_is_release_write and graph._labels[a].is_access:
            out.append((a, ev))
    return out


@graph_cached
def ppo_dependencies(graph: ExecutionGraph) -> Relation:
    """Hardware preserved program order from syntactic dependencies.

    addr and data dependencies order a read before the dependent
    access; ctrl dependencies only order reads before *writes* (reads
    may be satisfied speculatively past a branch).  The relation is
    transitively closed together with internal reads-from, since values
    flow through same-thread memory too.
    """
    addr_data = dependency(graph, "ad")
    ctrl = dependency(graph, "c").filter(
        target=lambda e: is_write(graph, e)
    )
    from ..graphs.derived import rfi as rfi_rel

    base = union(addr_data, ctrl, rmw_pairs(graph), rfi_rel(graph))
    return base.transitive_closure()


@ppo_dependencies.register_delta_pairs(forward=True)
def _ppo_dependencies_delta(graph, delta):
    # closure pairs always end at the newer event (base edges only
    # point *into* a new event), so the pairs a delta contributed are
    # exactly the new event's in-edges in the maintained closure.
    # ppo_dependencies(graph) is current-version here: the wrapper's
    # custom updater (below) runs first, so no recursion.
    if delta[0] != "event":
        return ()
    ev = delta[1]
    closure = ppo_dependencies(graph)
    return [(x, ev) for x, succs in closure._succ.items() if ev in succs]


@ppo_dependencies.register_incremental
def _ppo_dependencies_incremental(graph, old, deltas):
    # A new event has no outgoing base edges (deps point backwards,
    # its rfi readers and rmw write partner arrive later — each with a
    # delta of its own), so the closure gains exactly the pairs
    # (ancestor, new event).  Direct in-edges mirror the base union
    # above; ancestors are the direct predecessors' predecessors in the
    # already-closed relation.
    new = old
    for delta in deltas:
        if delta[0] != "event":
            continue
        ev = delta[1]
        lab = graph._labels[ev]
        direct = set(lab.addr_deps | lab.data_deps)
        if isinstance(lab, WriteLabel):
            direct.update(lab.ctrl_deps)
            if lab.exclusive:
                partner = graph.exclusive_pair(ev)
                if partner is not None:
                    direct.add(partner)
        elif isinstance(lab, ReadLabel):
            src = graph._rf.get(ev)
            if src is not None and same_thread(src, ev):
                direct.add(src)
        if not direct:
            continue
        preds = set(direct)
        for x, succs in new._succ.items():
            if x not in preds and not succs.isdisjoint(direct):
                preds.add(x)
        new = new.extended((x, ev) for x in preds)
    return new


def minimal_prefix_preds(graph: ExecutionGraph, ev: Event) -> list[Event]:
    """One-step causal predecessors under a coherence-only model.

    The weakest sound prefix: reads-from sources, RMW pairing, and
    same-location program order — nothing else, so revisits across
    dependencies and fences stay possible (see
    :class:`repro.models.coherence.CoherenceOnly`, whose notion this
    is; declarative models select it with ``prefix=minimal``).
    """
    preds: list[Event] = []
    lab = graph.label(ev)
    if isinstance(lab, ReadLabel):
        src = graph.rf(ev)
        if not src.is_initial:
            preds.append(src)
    if isinstance(lab, WriteLabel) and lab.exclusive:
        partner = graph.exclusive_pair(ev)
        if partner is not None:
            preds.append(partner)
    if not ev.is_initial and lab.is_access:
        for p in graph.thread_events(ev.tid)[: ev.index]:
            plab = graph.label(p)
            if plab.is_access and plab.location == lab.location:
                preds.append(p)
    return preds


def hardware_prefix_preds(
    graph: ExecutionGraph, ev: Event, annotations: bool = True
) -> list[Event]:
    """One-step causal predecessors of ``ev`` under a hardware model.

    This is the relation HMC substitutes for po ∪ rf: reads-from
    sources, syntactic dependencies, RMW pairing, same-location program
    order, fence-induced order and — when the model respects them
    (``annotations``) — acquire/release access annotations.  A
    program-order predecessor *not* related by any of these is absent —
    which is precisely what allows load-buffering revisits.  Models
    that ignore C11 annotations (POWER, coherence-only) must pass
    ``annotations=False`` or they would lose RMW-chained load-buffering
    executions involving annotated accesses.

    The program-order part is one backward pass over the thread that
    carries, per access class, whether a fence passed so far orders
    that class before ``ev``.
    """
    preds: list[Event] = []
    lab = graph.label(ev)
    if isinstance(lab, ReadLabel):
        src = graph.rf(ev)
        if not src.is_initial:
            preds.append(src)
    # addr/data dependencies always order; a ctrl dependency only
    # orders the dependent *writes* — reads may be satisfied
    # speculatively past a branch, so they stay revisitable across one
    # (the revisit's replay validation rejects any revisit that would
    # actually change the control flow)
    preds.extend(d for d in (lab.addr_deps | lab.data_deps) if d in graph)
    if isinstance(lab, WriteLabel):
        preds.extend(d for d in lab.ctrl_deps if d in graph)
    if isinstance(lab, WriteLabel) and lab.exclusive:
        partner = graph.exclusive_pair(ev)
        if partner is not None:
            preds.append(partner)
    cls_e = _access_class(graph, ev)
    if ev.is_initial or cls_e is None:
        return preds
    loc = lab.location
    labels = graph._labels
    earlier = graph._threads[ev.tid][: ev.index]
    if annotations and is_release_write(graph, ev):
        preds.extend(p for p in earlier if labels[p].is_access)
        return preds
    fenced_r = fenced_w = False
    for p in reversed(earlier):
        plab = labels[p]
        if isinstance(plab, FenceLabel):
            kind, order = plab.kind, plab.order
            fenced_r = fenced_r or fence_orders(kind, order, "R", cls_e)
            fenced_w = fenced_w or fence_orders(kind, order, "W", cls_e)
        elif isinstance(plab, ReadLabel):
            if (
                fenced_r
                or plab.loc == loc
                or (annotations and plab.order.is_acquire())
            ):
                preds.append(p)
        elif isinstance(plab, WriteLabel):
            if fenced_w or plab.loc == loc:
                preds.append(p)
    return preds
