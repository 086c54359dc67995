"""RC11 (Lahav, Vafeiadis, Kang, Hur, Dreyer 2017), simplified core.

The repaired C11 model: annotation-sensitive synchronisation, a COH
axiom stated against hb, an SC axiom (psc, in the padded form that
also covers SC fences), and the conservative no-thin-air fix —
acyclic(po ∪ rf) — which rules out load buffering.  This is the
strongest *language* model here; hardware models relax its porf
axiom, which is exactly the gap HMC targets.
"""

from __future__ import annotations

from ..graphs import ExecutionGraph
from ..graphs.incremental import acyclic_check, coherent_check
from .base import MemoryModel
from .c11 import HB_FAMILY, PORF_FAMILY, hb_pred, psc_acyclic, sc_events


class RC11(MemoryModel):
    """RC11: the repaired C11 model with per-access modes, SC fences, and porf acyclicity (no load buffering)."""

    name = "rc11"
    porf_acyclic = True

    def axiom_holds(self, graph: ExecutionGraph) -> bool:
        if not acyclic_check(graph, PORF_FAMILY):  # no-thin-air
            return False
        # irreflexive((po ∪ sw)+) ⟺ acyclic(po ∪ sw)
        if not acyclic_check(graph, HB_FAMILY):
            return False
        hb = hb_pred(graph)
        if not coherent_check(graph, "rc11", hb):  # COH
            return False
        return psc_acyclic(graph, hb, sc_events(graph))
