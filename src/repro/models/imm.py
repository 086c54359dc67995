"""IMM-core: the Intermediate Memory Model (Podkopaev, Lahav,
Vafeiadis, POPL 2019), the model HMC's evaluation centres on.

IMM sits between language models and hardware: it has C11-style
synchronisation (so compiled rel/acq code works) but a *hardware*
no-thin-air axiom — acyclicity of ``ar``, built from external
reads-from, barrier order and dependency-preserved program order —
so independent load buffering is **allowed**.

This is a faithful-in-structure core: coherence + atomicity + the ar
axiom, with ppo given by syntactic addr/data/ctrl dependencies closed
with internal reads-from and RMW pairs.  Exotic components of full IMM
(detour-induced edges, the SC axiom for SC accesses) are approximated
by the bob/psc-free form below and the C11 fence handling of
``fence_ordered_po``; the litmus suite pins the resulting verdicts.
"""

from __future__ import annotations

from ..events import Event
from ..graphs import ExecutionGraph
from ..graphs.derived import rfe
from ..graphs.incremental import AcyclicFamily, acyclic_check, coherent_check
from ..relations import union
from .base import MemoryModel
from .c11 import HB_FAMILY, hb_pred, psc_acyclic, sc_events
from .common import (
    acquire_release_po,
    fence_ordered_po,
    hardware_prefix_preds,
    ppo_dependencies,
)


def _ar_relation(graph: ExecutionGraph):
    return union(
        rfe(graph),
        fence_ordered_po(graph),   # bob: barriers
        acquire_release_po(graph),  # bob: rel/acq annotations
        ppo_dependencies(graph),   # ppo: deps ∪ rfi ∪ rmw, closed
    )


AR_FAMILY = AcyclicFamily(
    "imm-ar",
    (rfe, fence_ordered_po, acquire_release_po, ppo_dependencies),
    build=_ar_relation,
)


class IMM(MemoryModel):
    """IMM: the intermediate model between C11-style languages and hardware, allowing load buffering via dependencies."""

    name = "imm"
    porf_acyclic = False

    def axiom_holds(self, graph: ExecutionGraph) -> bool:
        # irreflexive((po ∪ sw)+) ⟺ acyclic(po ∪ sw)
        if not acyclic_check(graph, HB_FAMILY):
            return False
        hb = hb_pred(graph)
        if not coherent_check(graph, "imm", hb):  # COH
            return False
        if not psc_acyclic(graph, hb, sc_events(graph)):  # SC axiom
            return False
        return acyclic_check(graph, AR_FAMILY)

    def axiom_relation(self, graph: ExecutionGraph):
        """The ar relation (note: COH and psc are separate checks)."""
        return _ar_relation(graph)

    def prefix_preds(self, graph: ExecutionGraph, ev: Event) -> list[Event]:
        return hardware_prefix_preds(graph, ev)
