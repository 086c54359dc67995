"""C11-style synchronisation: release sequences, sw and hb.

Shared between the RA and RC11 models.  The definitions follow the
post-C++20 fixes adopted by RC11: a release sequence is the write
itself plus any chain of RMWs reading from it.
"""

from __future__ import annotations

from ..events import Event, FenceKind, FenceLabel, MemOrder, ReadLabel, WriteLabel
from ..graphs import ExecutionGraph
from ..graphs.derived import eco, graph_cached, po, rf
from ..graphs.incremental import AcyclicFamily
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


def hb_c11(graph: ExecutionGraph) -> Relation:
    """The C11 hb = (po ∪ sw)+, inverted from :func:`hb_pred`."""
    return _forward(hb_pred(graph))


def strong_happens_before(graph: ExecutionGraph) -> Relation:
    """hb where *every* rf edge synchronises (the RA model's hb),
    inverted from :func:`strong_hb_pred`."""
    return _forward(strong_hb_pred(graph))


@graph_cached
def hb_pred(graph: ExecutionGraph) -> dict:
    """The C11 hb as the map from each event to the frozenset of its
    hb-predecessors."""
    return _predecessors(graph, union(po(graph), synchronizes_with(graph)))


@hb_pred.register_incremental
def _hb_pred_incremental(graph, old, deltas):
    return _extend_predecessors(graph, old, deltas, synchronizes_with)


@graph_cached
def strong_hb_pred(graph: ExecutionGraph) -> dict:
    """RA's hb = (po ∪ rf)+ as a predecessor map, like :func:`hb_pred`."""
    return _predecessors(graph, union(po(graph), rf(graph)))


@strong_hb_pred.register_incremental
def _strong_hb_pred_incremental(graph, old, deltas):
    return _extend_predecessors(graph, old, deltas, rf)


def _predecessors(graph: ExecutionGraph, base: Relation) -> dict:
    """The from-scratch value: ``base+``, inverted, over every event."""
    preds: dict = {ev: set() for ev in graph._labels}
    for a, succs in base.transitive_closure()._succ.items():
        for b in succs:
            preds[b].add(a)
    return {ev: frozenset(found) for ev, found in preds.items()}


def _extend_predecessors(graph, old: dict, deltas, sync) -> dict:
    """Extend the predecessor map of (po ∪ ``sync``)+, both forward
    (every edge they add ends at the appended event or a later one):
    an appended event's predecessors are its direct predecessors ``d``
    (its po-predecessor and its ``sync`` sources) together with each
    ``d``'s predecessors, which are final already.  One new set per
    event; no other set is copied."""
    new = dict(old)
    for delta in deltas:
        kind, ev = delta[0], delta[1]
        if kind == "init":
            new[ev] = frozenset()
        elif kind == "event":
            direct = [a for a, b in sync.delta_pairs(graph, delta) if b == ev]
            if ev.index:
                direct.append(graph._threads[ev.tid][ev.index - 1])
            new[ev] = frozenset(direct).union(*map(new.__getitem__, direct))
    return new


def _forward(preds: dict) -> Relation:
    """The relation a predecessor map describes."""
    rel = Relation()
    for b, found in preds.items():
        for a in found:
            rel.add(a, b)
    return rel


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
    ``accesses``) and fences whose C11 strength is seq_cst, in event
    order."""
    found = sc_accesses_and_fences(graph) if accesses else sc_fences(graph)
    return list(found)


@graph_cached
def sc_accesses_and_fences(graph: ExecutionGraph) -> tuple:
    """SC-ordered accesses and seq_cst fences, in event order."""
    return tuple(_sc_scan(graph, graph.events(), True))


@sc_accesses_and_fences.register_incremental
def _sc_accesses_and_fences_incremental(graph, old, deltas):
    return old + tuple(_sc_scan(graph, _added_events(deltas), True))


@graph_cached
def sc_fences(graph: ExecutionGraph) -> tuple:
    """Fences whose C11 strength is seq_cst, in event order."""
    return tuple(_sc_scan(graph, graph.events(), False))


@sc_fences.register_incremental
def _sc_fences_incremental(graph, old, deltas):
    return old + tuple(_sc_scan(graph, _added_events(deltas), False))


def _added_events(deltas) -> list[Event]:
    return [delta[1] for delta in deltas if delta[0] != "co"]


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


def psc_acyclic(graph: ExecutionGraph, hb_preds: dict, sc: list[Event]) -> bool:
    """The RC11-style SC axiom: acyclic(psc) with
    psc = [Esc] ; (hb ∪ hb? ; eco ; hb?) ; [Esc], for hb given as its
    predecessor map (inverted only when two or more SC events exist)."""
    if len(sc) < 2:
        return True
    hb = _forward(hb_preds)
    esc = bracket(sc)
    universe = list(graph.events())
    hb_opt = optional(hb, universe)
    scb = union(hb, seq(hb_opt, eco(graph), hb_opt))
    psc = seq(esc, scb, esc)
    return psc.is_acyclic()
