"""Incremental consistency machinery: mode flags, the differential
cross-check, and a Pearce–Kelly-style incremental acyclicity checker.

The exploration core copies a graph per candidate extension and every
copy differs from its parent by exactly one event, so consistency
checks dominated exploration cost by recomputing derived relations and
re-running a full cycle search on near-identical graphs.  This module
holds the pieces that turn those checks into per-delta work:

* **Flags.**  ``REPRO_INCREMENTAL`` (default on) enables incremental
  maintenance of derived relations and acyclicity orders;
  ``REPRO_CHECK_INCREMENTAL=1`` arms *differential* mode, in which
  every incrementally produced value is recomputed from scratch and
  compared — the correctness harness CI runs.  Both are re-read from
  the environment at the start of every :class:`Explorer` run (so the
  environment is authoritative per run, including inside pool
  workers); tests flip them directly via :func:`set_incremental` /
  :func:`set_differential`.

* **Acyclicity.**  :func:`acyclic_check` maintains an online
  topological order per ``(graph, relation family)`` in the graph's
  auxiliary cache.  A family names the :func:`graph_cached` components
  whose union the axiom requires acyclic; on each check only the edges
  inserted since the stored order's version are verified, with new
  nodes placed between the ordinals of their constraining neighbours.
  When an inserted edge ``(x, y)`` contradicts the stored order, the
  checker does the Pearce–Kelly affected-region repair (*A dynamic
  topological sort algorithm for directed acyclic graphs*, JEA 2006):
  the nodes forward-reachable from ``y`` within the ordinal window up
  to ``x`` are shifted to just after ``x``, preserving their relative
  order — which keeps every already-valid edge valid, so one pass over
  the inserted edges restores a topological order or proves the edge
  closes a cycle.  The union's adjacency rides along in the checker
  state (extended copy-on-write per delta) to power the reachability
  walk.  A genuine cycle — or exhausted float precision in the ordinal
  arithmetic — falls back to the full DFS of
  :meth:`Relation.is_acyclic` and rebuilds the order, so verdicts —
  and the :meth:`Relation.find_cycle` explanations diagnosis derives
  from the built relation — are unchanged.  A family whose components
  all have *forward* delta rules needs no order at all: its added
  edges cannot close a cycle, so a descendant is certified by
  re-tagging the verified version.  The families that keep the order
  are those with a ``co`` or ``fr`` component (sc, tso, pso,
  armv8-ob).

* **COH.**  :func:`coherent_check` verifies ``irreflexive(hb ; eco)``
  only for the events appended since the last verdict, with hb given
  as each event's set of hb-predecessors (see
  :func:`repro.models.c11.hb_pred`).

SC-per-location and RMW atomicity, which every model checks, need no
order either: :mod:`repro.models.common` checks them per appended
event and per coherence insertion with the same verified-version tag.

Profile counters (live under ``--stats``): ``acyclic:incremental_hit``
when a stored order absorbs the inserted edges or a forward family is
re-tagged, ``acyclic:fallback`` when a lineage cut strands the stored
state or the order cannot absorb the edges, and the full DFS runs
instead, ``coherent:incremental_hit`` for COH, and (from
:mod:`repro.graphs.derived`) ``relation:<name>:incremental_hit`` when
a cached relation is extended rather than recomputed.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from ..events import ReadLabel, WriteLabel
from ..obs.profile import _STATE as _PROFILE
from ..relations import Relation
from .graph import ExecutionGraph


class IncrementalMismatch(AssertionError):
    """Differential mode found an incremental value that disagrees
    with the from-scratch computation — always a bug, never a user
    error."""


class _Flags:
    __slots__ = ("enabled", "differential")

    def __init__(self) -> None:
        self.enabled = True
        self.differential = False


_FLAGS = _Flags()

_OFF = ("0", "false", "no", "off")
_ON = ("1", "true", "yes", "on")


def configure_from_env() -> None:
    """Re-read both mode flags from the environment (done at the start
    of every exploration run, so spawned workers and subprocess tests
    pick the modes up without extra plumbing)."""
    _FLAGS.enabled = (
        os.environ.get("REPRO_INCREMENTAL", "1").strip().lower() not in _OFF
    )
    _FLAGS.differential = (
        os.environ.get("REPRO_CHECK_INCREMENTAL", "0").strip().lower() in _ON
    )


configure_from_env()


def incremental_enabled() -> bool:
    return _FLAGS.enabled


def differential_enabled() -> bool:
    return _FLAGS.differential


def set_incremental(flag: bool) -> None:
    """Programmatic override of ``REPRO_INCREMENTAL`` (process-local;
    the next observed run re-reads the environment)."""
    _FLAGS.enabled = bool(flag)


def set_differential(flag: bool) -> None:
    """Programmatic override of ``REPRO_CHECK_INCREMENTAL``."""
    _FLAGS.differential = bool(flag)


def check_equal(name: str, incremental, scratch) -> None:
    """Differential-mode assertion: raise :class:`IncrementalMismatch`
    (with a bounded sample of the disagreement) unless the values are
    equal.  Works for relations and event sets alike."""
    if incremental == scratch:
        return
    if isinstance(incremental, dict) and isinstance(scratch, dict):
        # predecessor maps: compare as (predecessor, event) pairs
        incremental, scratch = (
            Relation((a, b) for b, preds in m.items() for a in preds)
            for m in (incremental, scratch)
        )
    if isinstance(incremental, Relation) and isinstance(scratch, Relation):
        inc_pairs, ref_pairs = set(incremental.pairs()), set(scratch.pairs())
        missing = sorted(map(repr, ref_pairs - inc_pairs))[:6]
        extra = sorted(map(repr, inc_pairs - ref_pairs))[:6]
    else:
        ref_set, inc_set = set(scratch), set(incremental)
        missing = sorted(map(repr, ref_set - inc_set))[:6]
        extra = sorted(map(repr, inc_set - ref_set))[:6]
    raise IncrementalMismatch(
        f"incremental {name!r} diverged from scratch recomputation: "
        f"missing={missing} extra={extra}"
    )


# -- incremental acyclicity --------------------------------------------------


class AcyclicFamily:
    """A named acyclicity obligation: the union of ``components`` (all
    :func:`graph_cached` wrappers with registered delta functions) must
    be acyclic.  ``build`` materialises the union for full checks and
    diagnosis.  A family is ``forward`` when every component's delta
    rule is (see :func:`graph_cached`)."""

    __slots__ = ("name", "components", "build", "forward")

    def __init__(
        self,
        name: str,
        components: tuple,
        build: Callable[[ExecutionGraph], Relation],
    ) -> None:
        for component in components:
            if getattr(component, "delta_pairs", None) is None:
                raise TypeError(
                    f"acyclic family {name!r}: component "
                    f"{getattr(component, '__name__', component)!r} has no "
                    "registered delta function"
                )
        self.name = name
        self.components = components
        self.build = build
        self.forward = all(component.forward for component in components)


def acyclic_check(graph: ExecutionGraph, family: AcyclicFamily) -> bool:
    """Is the family's union acyclic on ``graph``?

    Verdicts are identical to ``family.build(graph).is_acyclic()``;
    incrementality only changes the cost.  Acyclic graphs store their
    (version-tagged) topological order in ``graph._aux`` so the next
    check — typically on a child copy one event larger — verifies only
    the inserted edges.  Cyclic graphs store nothing: the exploration
    discards them.

    A forward family stores only the verified version: every edge its
    components add after that version goes from an older event to a
    newer one, so the added events, in the order they were added,
    extend any topological order of the verified union.  A descendant
    with a live delta log is therefore acyclic without a look at its
    deltas.
    """
    if not _FLAGS.enabled:
        return family.build(graph).is_acyclic()
    key = "acyc:" + family.name
    version = graph._version
    state = graph._aux.get(key)
    reg = _PROFILE.registry
    if state is not None:
        verdict = None
        if state[0] == version:
            # an order exists for this exact version: proven acyclic
            verdict = True
        else:
            deltas = graph.deltas_since(state[0])
            if deltas is None:
                # a lineage cut (set_rf, from_parts) strands the state
                if reg is not None:
                    reg.inc("acyclic:fallback")
            elif family.forward:
                if _FLAGS.differential:
                    _check_forward(graph, family, deltas)
                graph._aux[key] = (version,)
                verdict = True
            else:
                added: list[tuple] = []
                for delta in deltas:
                    for component in family.components:
                        added.extend(component.delta_pairs(graph, delta))
                if not added:
                    # nothing relevant inserted: re-tag the state
                    graph._aux[key] = (
                        version, state[1], state[2], state[3], state[4]
                    )
                    verdict = True
                else:
                    pending = state[4] + tuple(added)
                    adjacency = _Adjacency(state[3], pending)
                    outcome, new_order, new_top = _place_and_verify(
                        state[1], state[2], added, adjacency
                    )
                    if outcome is None:
                        # Ordinal float precision exhausted (deep
                        # lineages subdivide the same interval over
                        # and over): renumber with integer spacing
                        # and retry before surrendering to a rebuild.
                        spread = {
                            node: float(position)
                            for position, node in enumerate(
                                sorted(state[1], key=state[1].__getitem__)
                            )
                        }
                        outcome, new_order, new_top = _place_and_verify(
                            spread, float(len(spread)), added, adjacency
                        )
                    if outcome is True:
                        if adjacency.rel is not None:
                            # a repair walk materialised the extended
                            # union: store it with an empty pending tail
                            graph._aux[key] = (
                                version, new_order, new_top, adjacency.rel, ()
                            )
                        elif len(pending) > 128:
                            # keep the pending tail bounded so walks (and
                            # lineage memory) stay O(recent deltas)
                            graph._aux[key] = (
                                version, new_order, new_top,
                                state[3].extended(pending), (),
                            )
                        else:
                            graph._aux[key] = (
                                version, new_order, new_top, state[3], pending
                            )
                        verdict = True
                    elif outcome is False:
                        # The repair walk found a path back to an inserted
                        # edge's source: the new edges close a cycle in the
                        # exact union, so the full DFS would reject too —
                        # no need to run it.
                        if reg is not None:
                            reg.inc("acyclic:incremental_hit")
                        if _FLAGS.differential and family.build(graph).is_acyclic():
                            raise IncrementalMismatch(
                                f"incremental acyclicity of {family.name!r} "
                                "found a cycle; full DFS says acyclic"
                            )
                        return False
                    elif reg is not None:
                        reg.inc("acyclic:fallback")
        if verdict:
            if reg is not None:
                reg.inc("acyclic:incremental_hit")
            if _FLAGS.differential and not family.build(graph).is_acyclic():
                raise IncrementalMismatch(
                    f"incremental acyclicity of {family.name!r} said "
                    "acyclic; full DFS found a cycle"
                )
            return True
    rel = family.build(graph)
    if family.forward:
        if not rel.is_acyclic():
            return False
        graph._aux[key] = (version,)
        return True
    # DFS roots in stamp (addition) order: ties in the resulting order
    # lean towards the order events entered the graph, which is the
    # order future edges overwhelmingly point in — so child copies'
    # inserted edges usually respect the stored order and the
    # incremental path above keeps absorbing them without repair work.
    stamp = graph._stamp
    universe = sorted(rel.nodes(), key=lambda node: stamp.get(node, -1))
    ordered = rel.topological_order(universe)
    if ordered is None:
        return False
    order = {
        node: float(position) for position, node in enumerate(ordered)
    }
    graph._aux[key] = (version, order, float(len(order)), rel, ())
    return True


def _check_forward(
    graph: ExecutionGraph, family: AcyclicFamily, deltas: list
) -> None:
    """Differential-mode assertion behind a forward certification:
    every pair the components emit for ``deltas`` ends at the delta's
    event or an event added after it, and starts at an event added
    before its end (events older than ``deltas`` come first)."""
    added: dict = {}
    for position, delta in enumerate(deltas):
        if delta[0] != "co":
            added[delta[1]] = position
    for delta in deltas:
        floor = added[delta[1]]
        for component in family.components:
            for a, b in component.delta_pairs(graph, delta):
                end = added.get(b, -1)
                if end < floor or added.get(a, -1) >= end:
                    raise IncrementalMismatch(
                        f"acyclic family {family.name!r}: forward component "
                        f"{component.__name__!r} emitted ({a!r}, {b!r}) "
                        f"for delta {delta!r}"
                    )


class _Adjacency:
    """Lazy merged adjacency for repair walks: the stored union plus
    the pairs inserted since it was last materialised.  The extension
    (a copy-on-write :meth:`Relation.extended`) happens on the first
    :meth:`successors` call — checks that absorb their deltas without
    a repair never pay for it, they just append to the pending tail."""

    __slots__ = ("base", "pending", "rel")

    def __init__(self, base: Relation, pending: tuple) -> None:
        self.base = base
        self.pending = pending
        self.rel: Relation | None = None

    def successors(self, node) -> Iterable:
        if self.rel is None:
            self.rel = (
                self.base.extended(self.pending)
                if self.pending
                else self.base
            )
        return self.rel._succ.get(node, ())


def _place_and_verify(
    order: dict, top: float, pairs: Iterable[tuple], adjacency: "_Adjacency"
) -> tuple:
    """Absorb ``pairs`` into a copy of the topological order.

    Endpoints not yet in the order are placed in first-appearance
    order: unconstrained nodes go at the end, nodes with both bounds
    placed midway between their tightest bounds, and nodes whose
    bounds conflict *at* their lower bound (the subsequent repair pass
    shifts their forward set out of the way).  A verification pass
    then checks every pair against the resulting ordinals; a violated
    pair ``(x, y)`` triggers :func:`_shift_after` — the Pearce–Kelly
    affected-region repair over ``adjacency`` (the family union
    *including* ``pairs``).  Because the repair only ever moves a node
    rightwards past edges the walk proved safe, already-valid edges
    stay valid, so one pass suffices — and if the pass completes, the
    final order is a valid topological order of the whole union,
    certifying acyclicity.

    Returns a triple: ``(True, order, top)`` with the repaired order,
    ``(False, None, None)`` when an inserted edge provably closes a
    cycle in the union, or ``(None, None, None)`` when the ordinal
    arithmetic runs out of float precision and the caller must fall
    back to the full DFS.
    """
    pairs = list(pairs)
    if not pairs:
        return True, order, top
    # one grouping pass: fresh endpoints (insertion-ordered) with the
    # in-/out-neighbours each is constrained by
    missing: dict = {}
    for a, b in pairs:
        if a not in order:
            entry = missing.get(a)
            if entry is None:
                entry = missing[a] = ([], [])
            entry[1].append(b)
        if b not in order:
            entry = missing.get(b)
            if entry is None:
                entry = missing[b] = ([], [])
            entry[0].append(a)
    copied = False
    if missing:
        order = dict(order)
        copied = True
        get = order.get
        for node, (ins, outs) in missing.items():
            lo: float | None = None
            hi: float | None = None
            for a in ins:
                if a != node:
                    val = get(a)
                    if val is not None and (lo is None or val > lo):
                        lo = val
            for b in outs:
                if b != node:
                    val = get(b)
                    if val is not None and (hi is None or val < hi):
                        hi = val
            if hi is None:
                top += 1.0
                order[node] = top
            elif lo is None:
                order[node] = hi - 1.0
            elif lo < hi:
                order[node] = (lo + hi) * 0.5
            else:
                # Conflicting bounds: land on the lower bound; the
                # repair pass below shifts the offending successors
                # (and this node, off its predecessor) rightwards.
                order[node] = lo
    get = order.get
    for a, b in pairs:
        ord_a = get(a)
        ord_b = get(b)
        if ord_a is None or ord_b is None:
            return None, None, None
        if ord_a >= ord_b:
            if not copied:
                order = dict(order)
                copied = True
            outcome, top = _shift_after(order, top, adjacency, a, b)
            if outcome is not True:
                return outcome, None, None
            get = order.get
    return True, order, top


def _shift_after(
    order: dict, top: float, adjacency: "_Adjacency", x, y
) -> tuple:
    """Repair the violated edge ``(x, y)`` (``order[x] >= order[y]``)
    by moving ``y``'s forward-reachable set after ``x`` in place.

    The affected region is every node reachable from ``y`` through
    the union whose ordinal does not exceed ``x``'s; reaching ``x``
    itself proves the edge closes a cycle.  Otherwise the region is
    re-placed, relative order preserved, into the open ordinal
    interval between ``x`` and the next node outside the region — by
    construction that interval is empty, so no collisions.  Returns
    ``(True, top)`` on success (with ``top`` possibly raised),
    ``(False, top)`` on a proven cycle, or ``(None, top)`` when
    interval subdivision exhausts float precision.
    """
    limit = order[x]
    region: set = set()
    stack = [y]
    while stack:
        node = stack.pop()
        if node in region:
            continue
        if node == x:
            return False, top  # the new edge closes a cycle
        region.add(node)
        for nxt in adjacency.successors(node):
            if nxt not in region:
                val = order.get(nxt)
                if val is not None and val <= limit:
                    stack.append(nxt)
    next_hi: float | None = None
    for node, val in order.items():
        if val > limit and node not in region and (
            next_hi is None or val < next_hi
        ):
            next_hi = val
    ranked = sorted(region, key=order.__getitem__)
    if next_hi is None:
        for node in ranked:
            top += 1.0
            order[node] = top
        return True, top
    step = (next_hi - limit) / (len(region) + 1)
    val = limit
    for node in ranked:
        val += step
        if not limit < val < next_hi:
            return None, top  # float precision exhausted
        order[node] = val
    return True, top


def coherent_check(graph: ExecutionGraph, name: str, hb_preds: dict) -> bool:
    """Is ``hb ; eco`` irreflexive on ``graph`` (the COH obligation)?
    ``hb_preds`` maps every event to the set of its hb-predecessors.

    Verdicts are identical to scanning every event, but on a live
    delta log only the *fresh* events need checking: every event
    appended since the last verdict has no outgoing ``po``/``sw`` edge
    to an older event, so every new ``hb`` pair ends at a fresh event,
    and every new ``eco`` pair touches the delta event.  A violation
    ``a ->hb b ->eco a`` therefore involves a fresh ``b`` — caught by
    asking whether ``b``'s hb-predecessors meet its ``eco``
    successors.  The walk reads those successors off the rf map and
    the coherence orders (:func:`_eco_successors`), so this path never
    materialises ``eco``.  ``co`` reorderings ride along: the inserted
    write appears as its own ``event`` delta in the same range.

    Passing graphs store the verified version (as a 1-tuple — the
    ``_aux`` protocol keys delta-log trimming off ``entry[0]``) under
    ``"coh:" + name`` in ``graph._aux``; failing graphs store nothing
    (they are discarded).
    """
    key = "coh:" + name
    version = graph._version
    state = graph._aux.get(key) if _FLAGS.enabled else None
    deltas = graph.deltas_since(state[0]) if state is not None else None
    if deltas is not None:
        verdict = True
        for delta in deltas:
            if delta[0] == "co":
                continue  # its write is an "event" delta too
            ev = delta[1]
            successors = _eco_successors(graph, ev)
            if _FLAGS.differential:
                check_equal(
                    "eco successors", successors, _eco(graph).successors(ev)
                )
            if not hb_preds[ev].isdisjoint(successors):
                verdict = False
                break
        reg = _PROFILE.registry
        if reg is not None:
            reg.inc("coherent:incremental_hit")
        if _FLAGS.differential and _coherent_scan(graph, hb_preds) != verdict:
            raise IncrementalMismatch(
                f"incremental COH of {name!r} said {verdict}; "
                "full scan disagrees"
            )
    else:
        verdict = _coherent_scan(graph, hb_preds)
    if verdict:
        graph._aux[key] = (version,)
    return verdict


def _coherent_scan(graph: ExecutionGraph, hb_preds: dict) -> bool:
    succ = _eco(graph)._succ
    return all(
        preds.isdisjoint(succ.get(ev, ())) for ev, preds in hb_preds.items()
    )


def _eco(graph: ExecutionGraph) -> Relation:
    from .derived import eco  # derived imports this module

    return eco(graph)


def _eco_successors(graph: ExecutionGraph, ev) -> set:
    """``ev``'s successors in eco = rf ∪ co ∪ fr ∪ co;rf ∪ fr;rf (the
    closure identity of :func:`repro.graphs.derived.eco`), read off the
    graph's rf map and coherence orders.  A write reaches the writes
    coherence-after it and the readers of itself and of those writes;
    a read reaches the writes coherence-after its source and their
    readers."""
    lab = graph._labels[ev]
    if isinstance(lab, WriteLabel):
        order = graph._co[lab.loc]
        later = order[order.index(ev) + 1:]
        sources = {ev, *later}
    elif isinstance(lab, ReadLabel):
        order = graph._co[lab.loc]
        later = order[order.index(graph._rf[ev]) + 1:]
        if not later:
            return set()
        sources = set(later)
    else:
        return set()
    out = set(later)
    out.update(read for read, src in graph._rf.items() if src in sources)
    return out
