"""x86-TSO (Owens, Sarkar, Sewell 2009), in herd-style axiomatic form.

Each core has a FIFO store buffer: the only relaxation is that a write
may be delayed past subsequent *reads* of other locations.  MFENCE and
locked (exclusive) instructions flush the buffer.

Axiom: acyclic(ppo ∪ fence ∪ rfe ∪ coe ∪ fre) with
``ppo = po \\ (W × R)``, plus the common coherence and atomicity.
"""

from __future__ import annotations

from ..events import Event, ReadLabel, WriteLabel
from ..graphs import ExecutionGraph
from ..graphs.derived import coe, fre, graph_cached, po, rfe
from ..graphs.incremental import AcyclicFamily, acyclic_check
from ..relations import Relation, union
from .base import MemoryModel
from .common import fence_ordered_po


def _buffered(graph: ExecutionGraph, a: Event, b: Event) -> bool:
    """Is the po pair (a, b) relaxed by a FIFO store buffer (W -> R)?"""
    return isinstance(graph.label(a), WriteLabel) and isinstance(
        graph.label(b), ReadLabel
    )


@graph_cached
def exclusive_flush(graph: ExecutionGraph) -> Relation:
    """Locked RMW instructions act as full fences on x86: order every
    access before an exclusive access against every access after it."""
    rel = Relation()
    for tid in graph.thread_ids():
        events = graph.thread_events(tid)
        locked = [
            i
            for i, e in enumerate(events)
            if getattr(graph.label(e), "exclusive", False)
        ]
        if not locked:
            continue
        for i, a in enumerate(events):
            if not graph.label(a).is_access:
                continue
            for j in range(i + 1, len(events)):
                b = events[j]
                if not graph.label(b).is_access:
                    continue
                if any(i <= k <= j for k in locked):
                    rel.add(a, b)
    return rel


@exclusive_flush.register_delta_pairs
def _exclusive_flush_delta(graph, delta):
    if delta[0] != "event":
        return ()
    ev = delta[1]
    if not graph._labels[ev].is_access:
        return ()
    events = graph._threads[ev.tid]
    j = ev.index
    locked = [
        k
        for k in range(j + 1)
        if getattr(graph._labels[events[k]], "exclusive", False)
    ]
    if not locked:
        return ()
    out = []
    for i in range(j):
        a = events[i]
        if not graph._labels[a].is_access:
            continue
        if any(i <= k for k in locked):
            out.append((a, ev))
    return out


@graph_cached
def tso_ppo(graph: ExecutionGraph) -> Relation:
    """TSO preserved program order: po over accesses minus W -> R.

    ppo ranges over accesses only: the fence *events* must not smuggle
    W->R order in through transitivity (W -> F -> R); a fence's effect
    enters solely via fence_ordered_po.
    """
    return Relation(
        (a, b)
        for a, b in po(graph).pairs()
        if graph.label(a).is_access
        and graph.label(b).is_access
        and not _buffered(graph, a, b)
    )


@tso_ppo.register_delta_pairs
def _tso_ppo_delta(graph, delta):
    if delta[0] != "event":
        return ()
    ev = delta[1]
    lab = graph._labels[ev]
    if not lab.is_access:
        return ()
    ev_is_read = isinstance(lab, ReadLabel)
    out = []
    for a in graph._threads[ev.tid][: ev.index]:
        alab = graph._labels[a]
        if not alab.is_access:
            continue
        if ev_is_read and isinstance(alab, WriteLabel):
            continue  # W -> R is buffered
        out.append((a, ev))
    return out


def _axiom_relation(graph: ExecutionGraph):
    return union(
        tso_ppo(graph),
        fence_ordered_po(graph),
        exclusive_flush(graph),
        rfe(graph),
        coe(graph),
        fre(graph),
    )


TSO_FAMILY = AcyclicFamily(
    "tso",
    (tso_ppo, fence_ordered_po, exclusive_flush, rfe, coe, fre),
    build=_axiom_relation,
)


class TSO(MemoryModel):
    """x86-TSO: store buffering only — writes may pass later reads, everything else stays ordered."""

    name = "tso"
    porf_acyclic = True

    def axiom_holds(self, graph: ExecutionGraph) -> bool:
        return acyclic_check(graph, TSO_FAMILY)

    def axiom_relation(self, graph: ExecutionGraph):
        return _axiom_relation(graph)
