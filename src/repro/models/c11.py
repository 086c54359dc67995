"""C11-style synchronisation: release sequences, sw and hb.

Shared between the RA and RC11 models.  The definitions follow the
post-C++20 fixes adopted by RC11: a release sequence is the write
itself plus any chain of RMWs reading from it.
"""

from __future__ import annotations

from ..events import Event, FenceKind, FenceLabel, MemOrder, ReadLabel, WriteLabel
from ..graphs import ExecutionGraph
from ..graphs.derived import eco, graph_cached, po, rf
from ..graphs.incremental import _FLAGS, AcyclicFamily, check_equal
from ..relations import Relation, bracket, optional, seq, union

#: the C11 strength of each hardware fence, following the standard
#: compilation correspondences (sync/mfence <-> seq_cst fence,
#: lwsync <-> acq_rel, dmb ld / isync <-> acquire, dmb st <-> release)
_FENCE_C11: dict[FenceKind, MemOrder] = {
    FenceKind.MFENCE: MemOrder.SC,
    FenceKind.SYNC: MemOrder.SC,
    FenceKind.LWSYNC: MemOrder.ACQ_REL,
    FenceKind.DMB_LD: MemOrder.ACQ,
    FenceKind.ISYNC: MemOrder.ACQ,
    FenceKind.DMB_ST: MemOrder.REL,
}


def fence_c11_order(label: FenceLabel) -> MemOrder:
    """The C11 ordering a fence contributes under language models."""
    if label.kind is FenceKind.C11:
        return label.order
    return _FENCE_C11[label.kind]


def release_sequence(graph: ExecutionGraph, write: Event) -> set[Event]:
    """``write`` plus every RMW write reachable through rf ∘ rmw."""
    out = {write}
    frontier = [write]
    while frontier:
        w = frontier.pop()
        for r in graph.readers_of(w):
            lab = graph.label(r)
            if isinstance(lab, ReadLabel) and lab.exclusive:
                partner = graph.exclusive_pair(r)
                if partner is not None and partner not in out:
                    out.add(partner)
                    frontier.append(partner)
    return out


def _release_source(graph: ExecutionGraph, write: Event) -> Event | None:
    """The hb source for synchronisation through ``write``: the write
    itself when it is a release, else a po-earlier release fence."""
    lab = graph.label(write)
    assert isinstance(lab, WriteLabel)
    if lab.order.is_release():
        return write
    if write.is_initial:
        return None
    for e in reversed(graph.thread_events(write.tid)[: write.index]):
        elab = graph.label(e)
        if isinstance(elab, FenceLabel) and fence_c11_order(elab).is_release():
            return e
    return None


def _acquire_target(graph: ExecutionGraph, read: Event) -> Event | None:
    """The hb target: the read itself when acquire, else a po-later
    acquire fence."""
    lab = graph.label(read)
    assert isinstance(lab, ReadLabel)
    if lab.order.is_acquire():
        return read
    for e in graph.thread_events(read.tid)[read.index + 1:]:
        elab = graph.label(e)
        if isinstance(elab, FenceLabel) and fence_c11_order(elab).is_acquire():
            return e
    return None


@graph_cached
def synchronizes_with(graph: ExecutionGraph) -> Relation:
    """The C11 sw relation over the graph."""
    sw = Relation()
    for write in graph.writes():
        source = _release_source(graph, write)
        if source is None:
            continue
        for member in release_sequence(graph, write):
            for read in graph.readers_of(member):
                target = _acquire_target(graph, read)
                if target is not None and source != target:
                    sw.add(source, target)
    return sw


def _chain_back(graph: ExecutionGraph, member: Event) -> list[Event]:
    """Every write whose release sequence ``member`` belongs to: walk
    the RMW chain backwards through exclusive-pair and rf edges."""
    out = [member]
    w = member
    while True:
        lab = graph.label(w)
        if not (isinstance(lab, WriteLabel) and lab.exclusive):
            return out
        partner = graph.exclusive_pair(w)
        if partner is None:
            return out
        prev = graph.rf(partner)
        if prev is None or prev in out:
            return out
        out.append(prev)
        w = prev


def _sync_sources(graph: ExecutionGraph, member: Event) -> set[Event]:
    """Release sources synchronising through a read of ``member``."""
    sources: set[Event] = set()
    for base in _chain_back(graph, member):
        source = _release_source(graph, base)
        if source is not None:
            sources.add(source)
    return sources


@synchronizes_with.register_delta_pairs(forward=True)
def _sw_delta(graph, delta):
    # sw pairs only ever *appear* as events are added, and a pair's
    # last-added constituent is either the reader (when the acquire
    # target already exists: the read itself) or a po-later acquire
    # fence.  Pairs a read contributes towards a fence added later are
    # emitted by both deltas; duplicates are harmless.
    if delta[0] != "event":
        return ()
    ev = delta[1]
    lab = graph._labels[ev]
    out = []
    if isinstance(lab, ReadLabel):
        target = _acquire_target(graph, ev)
        if target is not None:
            member = graph._rf.get(ev)
            if member is not None:
                out.extend(
                    (source, target)
                    for source in _sync_sources(graph, member)
                    if source != target
                )
    elif isinstance(lab, FenceLabel) and fence_c11_order(lab).is_acquire():
        for rd in graph._threads[ev.tid][: ev.index]:
            if not isinstance(graph._labels[rd], ReadLabel):
                continue
            if _acquire_target(graph, rd) != ev:
                continue
            member = graph._rf.get(rd)
            if member is None:
                continue
            out.extend(
                (source, ev)
                for source in _sync_sources(graph, member)
                if source != ev
            )
    return out


def happens_before(graph: ExecutionGraph, sw: Relation | None = None) -> Relation:
    """hb = (po ∪ sw)+."""
    if sw is None:
        return hb_c11(graph)
    return union(po(graph), sw).transitive_closure()


@graph_cached
def hb_c11(graph: ExecutionGraph) -> Relation:
    """The cached C11 hb = (po ∪ sw)+."""
    return union(po(graph), synchronizes_with(graph)).transitive_closure()


def _closure_extend(new: Relation, ev: Event, direct: set) -> Relation:
    """Extend a transitive closure whose base edges only point *into*
    ``ev``: the closure gains (x, ev) for every direct predecessor and
    every node that already reaches one."""
    if not direct:
        return new
    preds = set(direct)
    for x, succs in new._succ.items():
        if x not in preds and not succs.isdisjoint(direct):
            preds.add(x)
    return new.extended((x, ev) for x in preds)


@hb_c11.register_incremental
def _hb_c11_incremental(graph, old, deltas):
    new = old
    for delta in deltas:
        if delta[0] != "event":
            continue
        ev = delta[1]
        direct = set(graph._threads[ev.tid][: ev.index])
        direct.update(a for a, b in _sw_delta(graph, delta) if b == ev)
        new = _closure_extend(new, ev, direct)
    return new


@graph_cached
def strong_happens_before(graph: ExecutionGraph) -> Relation:
    """hb where *every* rf edge synchronises (the RA model's hb)."""
    return union(po(graph), rf(graph)).transitive_closure()


@strong_happens_before.register_incremental
def _strong_hb_incremental(graph, old, deltas):
    new = old
    for delta in deltas:
        if delta[0] != "event":
            continue
        ev = delta[1]
        direct = set(graph._threads[ev.tid][: ev.index])
        if isinstance(graph._labels[ev], ReadLabel):
            src = graph._rf.get(ev)
            if src is not None:
                direct.add(src)
        new = _closure_extend(new, ev, direct)
    return new


#: (po ∪ rf) acyclicity — RC11's porf axiom, and (by the equivalence
#: irreflexive((po ∪ rf)+) ⟺ acyclic(po ∪ rf)) the RA model's
#: strong-hb irreflexivity check
PORF_FAMILY = AcyclicFamily(
    "porf", (po, rf), build=lambda g: union(po(g), rf(g))
)

#: (po ∪ sw) acyclicity ⟺ hb irreflexivity, for RC11 and IMM
HB_FAMILY = AcyclicFamily(
    "hb",
    (po, synchronizes_with),
    build=lambda g: union(po(g), synchronizes_with(g)),
)


def sc_events(graph: ExecutionGraph, accesses: bool = True) -> list[Event]:
    """Events participating in the SC axiom: SC-ordered accesses (when
    ``accesses``) and fences whose C11 strength is seq_cst.

    The list, in event order, is kept per lineage in ``graph._aux`` and
    extended from the delta log, so a child copy scans only the events
    added since its ancestor's entry."""
    if not _FLAGS.enabled:
        return _sc_scan(graph, graph.events(), accesses)
    key = "sc:events" if accesses else "sc:fences"
    version = graph._version
    entry = graph._aux.get(key)
    if entry is not None and entry[0] == version:
        return list(entry[1])
    deltas = graph.deltas_since(entry[0]) if entry is not None else None
    if deltas is None:
        found = tuple(_sc_scan(graph, graph.events(), accesses))
    else:
        fresh = (delta[1] for delta in deltas if delta[0] != "co")
        found = entry[1] + tuple(_sc_scan(graph, fresh, accesses))
        if _FLAGS.differential:
            check_equal(
                key, list(found), _sc_scan(graph, graph.events(), accesses)
            )
    graph._aux[key] = (version, found)
    return list(found)


def _sc_scan(graph: ExecutionGraph, events, accesses: bool) -> list[Event]:
    out = []
    labels = graph._labels
    for e in events:
        lab = labels[e]
        if isinstance(lab, FenceLabel):
            if fence_c11_order(lab).is_sc():
                out.append(e)
        elif accesses and isinstance(lab, (ReadLabel, WriteLabel)):
            if lab.order.is_sc():
                out.append(e)
    return out


def psc_acyclic(graph: ExecutionGraph, hb: Relation, sc: list[Event]) -> bool:
    """The RC11-style SC axiom: acyclic(psc) with
    psc = [Esc] ; (hb ∪ hb? ; eco ; hb?) ; [Esc]."""
    if len(sc) < 2:
        return True
    esc = bracket(sc)
    universe = list(graph.events())
    hb_opt = optional(hb, universe)
    scb = union(hb, seq(hb_opt, eco(graph), hb_opt))
    psc = seq(esc, scb, esc)
    return psc.is_acyclic()
