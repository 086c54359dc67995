"""Explaining inconsistency: which axiom rejects a graph, and the
violating cycle.

The checker itself only needs a boolean, but anyone developing a
model (or puzzling over why an outcome is forbidden) wants the *why*:
``explain_inconsistency`` re-runs the shared axioms with cycle
extraction and names the culprit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..events import Event
from ..graphs import ExecutionGraph
from ..graphs.derived import rmw_pairs
from .base import MemoryModel
from .common import coherence_relation


@dataclass(frozen=True)
class Diagnosis:
    """Why a graph is inconsistent (or the statement that it is not)."""

    consistent: bool
    axiom: str | None = None
    cycle: tuple[Event, ...] | None = None
    detail: str = ""

    def __str__(self) -> str:
        if self.consistent:
            return "consistent"
        msg = f"violates {self.axiom}"
        if self.cycle:
            path = " -> ".join(repr(e) for e in self.cycle)
            msg += f": cycle {path}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


def explain_inconsistency(
    graph: ExecutionGraph, model: MemoryModel
) -> Diagnosis:
    """Name the axiom a graph violates under ``model``."""
    cycle = coherence_relation(graph).find_cycle()
    if cycle is not None:
        return Diagnosis(
            consistent=False,
            axiom="coherence (SC-per-location)",
            cycle=tuple(cycle),
        )
    for read, write in rmw_pairs(graph).pairs():
        src = graph.rf(read)
        order = graph.co_order(graph.label(write).location)
        if order.index(write) != order.index(src) + 1:
            between = order[order.index(src) + 1]
            return Diagnosis(
                consistent=False,
                axiom="atomicity",
                detail=(
                    f"{between!r} intervenes between {read!r}'s source "
                    f"{src!r} and its exclusive write {write!r}"
                ),
            )
    if model.axiom_holds(graph):
        return Diagnosis(consistent=True)
    relation = model.axiom_relation(graph)
    cycle = relation.find_cycle() if relation is not None else None
    return Diagnosis(
        consistent=False,
        axiom=f"the {model.name} global axiom",
        cycle=tuple(cycle) if cycle else None,
        detail="" if cycle else
        "the violation is in a non-acyclicity component (hb/psc/observation)",
    )
