"""The memory-model interface.

HMC is *parametric* in the memory model: the exploration algorithm only
asks a model three questions —

1. :meth:`MemoryModel.is_consistent`: is this (partial or complete)
   execution graph allowed?  All supported models are *prefix-closed*
   (restricting a consistent graph keeps it consistent), which makes
   checking partial graphs a sound pruning step.

2. :meth:`MemoryModel.prefix_preds`: which events must causally precede
   a given event in any exploration that constructs it.  A newly added
   write may only backward-revisit reads *outside* this closure.  For
   porf-acyclic models this is po ∪ rf; for hardware models (IMM,
   ARMv8, POWER) it is the dependency-based relation that lets HMC
   generate load-buffering outcomes.

3. :attr:`MemoryModel.porf_acyclic`: whether the model forbids po ∪ rf
   cycles.  This selects the default causal-prefix notion and is the
   hypothesis under which the exploration's duplicate suppression is
   strongest (measured zero on the litmus corpus); residual duplicates
   under any model are deduplicated by canonical hashing and reported.
"""

from __future__ import annotations

import abc

from ..events import Event
from ..graphs import ExecutionGraph, porf_preds
from ..obs.profile import _STATE as _PROFILE
from .common import atomicity_ok, sc_per_location


class MemoryModel(abc.ABC):
    """Base class of all axiomatic memory models."""

    #: short identifier used by the registry and the CLI
    name: str = "abstract"
    #: does the model forbid (po ∪ rf) cycles?
    porf_acyclic: bool = True

    # -- consistency ---------------------------------------------------------
    #
    # Checks are timed per axiom into the registry of the observed run
    # (the one :class:`repro.obs.profile.activation` installs), so the
    # registry singletons that models are need no per-run state.

    def coherence_ok(self, graph: ExecutionGraph) -> bool:
        """SC-per-location plus RMW atomicity — common to every model."""
        reg = _PROFILE.registry
        if reg is None:
            return sc_per_location(graph) and atomicity_ok(graph)
        with reg.phase("check:coherence"):
            ok = sc_per_location(graph) and atomicity_ok(graph)
        if not ok:
            # failure counters; totals come from the phase's `calls`
            reg.inc("check:coherence:fail")
        return ok

    def is_consistent(self, graph: ExecutionGraph) -> bool:
        """Full consistency: coherence, atomicity and the model axiom."""
        reg = _PROFILE.registry
        if reg is None:
            return self.coherence_ok(graph) and self.axiom_holds(graph)
        if not self.coherence_ok(graph):  # timed in coherence_ok
            return False
        with reg.phase(f"check:axiom:{self.name}"):
            ok = self.axiom_holds(graph)
        if not ok:
            reg.inc(f"check:axiom:{self.name}:fail")
        return ok

    @abc.abstractmethod
    def axiom_holds(self, graph: ExecutionGraph) -> bool:
        """The model-specific global axiom (beyond coherence)."""

    def axiom_relation(self, graph: ExecutionGraph):
        """The relation whose acyclicity is the global axiom, when the
        model has that shape (used for diagnosis); None otherwise."""
        return None

    # -- exploration hooks ------------------------------------------------------

    def prefix_preds(self, graph: ExecutionGraph, ev: Event) -> list[Event]:
        """Events that must causally precede ``ev`` (one step).

        The default — po-predecessor plus rf source — is the GenMC
        notion and is correct for every porf-acyclic model.

        Contract: the result must not depend on the coherence order.
        :func:`~repro.core.revisits.backward_revisits` computes a new
        write's prefix once, on one of the write's coherence
        placements, and uses it for all of them.
        """
        return porf_preds(graph, ev)

    def __repr__(self) -> str:
        return f"<model {self.name}>"
