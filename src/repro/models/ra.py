"""Release/Acquire (the SRA fragment of C11).

Every write behaves as a release and every read as an acquire, so
hb = (po ∪ rf)+.  Consistency: hb is acyclic (hence no load
buffering) and coherence holds against hb: no event is hb-before
something eco-before it.
"""

from __future__ import annotations

from ..graphs import ExecutionGraph
from ..graphs.incremental import acyclic_check, coherent_check
from .base import MemoryModel
from .c11 import PORF_FAMILY, psc_acyclic, sc_events, strong_hb_pred


class ReleaseAcquire(MemoryModel):
    """Release/acquire (the SRA fragment of C11): hb = (po | rf)+ acyclic and coherent, with an SC-fence axiom."""

    name = "ra"
    porf_acyclic = True

    def axiom_holds(self, graph: ExecutionGraph) -> bool:
        # irreflexive((po ∪ rf)+) ⟺ acyclic(po ∪ rf)
        if not acyclic_check(graph, PORF_FAMILY):
            return False
        hb = strong_hb_pred(graph)
        if not coherent_check(graph, "ra", hb):
            return False
        # RA has no SC *accesses* (they degrade to rel/acq), but SC
        # fences still restore order between the events around them
        return psc_acyclic(graph, hb, sc_events(graph, accesses=False))
