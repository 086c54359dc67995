"""Incremental consistency machinery: mode flags, the differential
cross-check, the verified-version rule and a Pearce–Kelly-style
incremental acyclicity checker.

The exploration core copies a graph per candidate extension and every
copy differs from its parent by exactly one event, so consistency
checks dominated exploration cost by recomputing derived relations and
re-running a full cycle search on near-identical graphs.  This module
holds the pieces that turn those checks into per-delta work.  All of
their state is *per-lineage*: a ``(version, ...)`` entry in the
graph's one cache, ``graph._derived``, handed to copies with it.

* **Flags.**  ``REPRO_INCREMENTAL`` (default on) enables incremental
  maintenance of derived relations and check state;
  ``REPRO_CHECK_INCREMENTAL=1`` arms *differential* mode, in which
  every incrementally produced value is recomputed from scratch and
  compared — the correctness harness CI runs.  Both are re-read from
  the environment at the start of every :class:`Explorer` run (so the
  environment is authoritative per run, including inside pool
  workers); tests flip them directly via :func:`set_incremental` /
  :func:`set_differential`.

* **The verified-version rule** (:func:`verified`).  A passing check
  stores the graph's version.  A descendant with a live delta log then
  looks only at the deltas added since that version; a cut lineage
  rescans.  It serves every check that only its deltas can break:
  COH (:func:`coherent_check`), the forward acyclicity families, and
  SC-per-location and RMW atomicity (:mod:`repro.models.common`).

* **COH.**  :func:`coherent_check` verifies ``irreflexive(hb ; eco)``
  only for the events appended since the last verdict, with hb given
  as each event's set of hb-predecessors (see
  :func:`repro.models.c11.hb_pred`).

* **Acyclicity.**  :func:`acyclic_check` checks that the union of an
  :class:`AcyclicFamily`'s :func:`graph_cached` components is acyclic.
  A family whose components all have *forward* delta rules needs no
  order at all: its added edges cannot close a cycle, so the
  verified-version rule certifies a descendant without a look at its
  deltas.  The families with a ``co`` or ``fr`` component (sc, tso,
  pso, armv8-ob) keep an online topological order instead: on each
  check only the edges inserted since the stored order's version are
  verified, with new nodes placed between the ordinals of their
  constraining neighbours.  When an inserted edge ``(x, y)``
  contradicts the stored order, the checker does the Pearce–Kelly
  affected-region repair (*A dynamic topological sort algorithm for
  directed acyclic graphs*, JEA 2006): the nodes forward-reachable
  from ``y`` within the ordinal window up to ``x`` are shifted to just
  after ``x``, preserving their relative order — which keeps every
  already-valid edge valid, so one pass over the inserted edges
  restores a topological order or proves the edge closes a cycle.
  The union's adjacency rides along in the checker state (extended
  copy-on-write per delta) to power the reachability walk.  A lineage
  cut or exhausted float precision in the ordinal arithmetic falls
  back to the full DFS of :meth:`Relation.is_acyclic`, which rebuilds
  the order with integer ordinals, so verdicts — and the
  :meth:`Relation.find_cycle` explanations diagnosis derives from the
  built relation — are unchanged.

Profile counters (live under ``--stats``), one pair per check:
``acyclic:``, ``coherent:`` (COH) and ``coherence:`` (SC-per-location
and atomicity), each with ``incremental_hit`` when the stored state
answered the check and ``fallback`` when a lineage cut (or, for an
ordinal family, exhausted precision) sent it to the full check; and
(from :mod:`repro.graphs.derived`) ``relation:<name>:incremental_hit``
when a cached relation is extended rather than recomputed.
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


# -- the verified-version rule ----------------------------------------------


def verified(
    graph: ExecutionGraph,
    key,
    counters: tuple[str, str],
    on_deltas: Callable,
    scan: Callable,
    arg=None,
    oracle: Callable | None = None,
) -> bool:
    """Run a check that only its deltas can break.

    A passing check stores the graph's version (a 1-tuple) under
    ``key`` in ``graph._derived``.  A descendant with a live delta log
    then asks ``on_deltas(graph, deltas, arg)`` about the deltas added
    since that version only, and counts ``counters[0]`` (the check's
    ``:incremental_hit``).  A graph with no state runs
    ``scan(graph, arg)``; so does a cut lineage (an rf redirect),
    counting ``counters[1]`` (its ``:fallback``).
    Failing graphs store nothing: the exploration discards them.

    ``oracle`` (default ``scan``) is the from-scratch check: the whole
    check with incremental mode off, and what differential mode
    compares every other verdict with.
    """
    if oracle is None:
        oracle = scan
    if not _FLAGS.enabled:
        return oracle(graph, arg)
    state = graph._derived.get(key)
    deltas = None
    if state is not None:
        deltas = graph.deltas_since(state[0])
        reg = _PROFILE.registry
        if reg is not None:
            reg.inc(counters[1] if deltas is None else counters[0])
    if deltas is None:
        ok = scan(graph, arg)
    else:
        ok = on_deltas(graph, deltas, arg)
    if (
        _FLAGS.differential
        and (deltas is not None or oracle is not scan)
        and ok != oracle(graph, arg)
    ):
        raise IncrementalMismatch(
            f"{key!r} check said {ok}; the from-scratch check disagrees"
        )
    if ok:
        graph._derived[key] = (graph._version,)
    return ok


# -- incremental acyclicity --------------------------------------------------


_ACYCLIC = ("acyclic:incremental_hit", "acyclic:fallback")


class AcyclicFamily:
    """A named acyclicity obligation: the union of ``components`` (all
    :func:`graph_cached` wrappers with registered delta functions) must
    be acyclic.  ``build`` materialises the union for full checks and
    diagnosis.  A family is ``forward`` when every component's delta
    rule is (see :func:`graph_cached`).  Its check state lives under
    ``key`` in ``graph._derived``."""

    __slots__ = ("name", "components", "build", "forward", "key")

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
        self.key = "acyc:" + name


def acyclic_check(graph: ExecutionGraph, family: AcyclicFamily) -> bool:
    """Is the family's union acyclic on ``graph``?

    Verdicts are identical to ``family.build(graph).is_acyclic()``;
    incrementality only changes the cost.

    A forward family goes through the verified-version rule: every
    edge its components add after the verified version goes from an
    older event to a newer one, so the added events, in the order they
    were added, extend any topological order of the verified union.  A
    descendant with a live delta log is therefore acyclic without a
    look at its deltas.

    Any other family stores its (version-tagged) topological order so
    the next check — typically on a child copy one event larger —
    verifies only the inserted edges.  Cyclic graphs store nothing:
    the exploration discards them.
    """
    if family.forward:
        return verified(
            graph, family.key, _ACYCLIC, _forward_deltas, _family_acyclic,
            family,
        )
    if not _FLAGS.enabled:
        return family.build(graph).is_acyclic()
    state = graph._derived.get(family.key)
    if state is not None:
        deltas = graph.deltas_since(state[0])
        # a lineage cut (an rf redirect) strands the stored order
        outcome = (
            None if deltas is None else _absorb(graph, family, state, deltas)
        )
        reg = _PROFILE.registry
        if outcome is None:
            if reg is not None:
                reg.inc(_ACYCLIC[1])
        else:
            if reg is not None:
                reg.inc(_ACYCLIC[0])
            if (
                _FLAGS.differential
                and family.build(graph).is_acyclic() != outcome
            ):
                raise IncrementalMismatch(
                    f"incremental acyclicity of {family.name!r} said "
                    f"{outcome}; the full DFS disagrees"
                )
            return outcome
    rel = family.build(graph)
    # DFS roots in stamp (addition) order: ties in the resulting order
    # lean towards the order events entered the graph, which is the
    # order future edges overwhelmingly point in — so child copies'
    # inserted edges usually respect the stored order and the
    # incremental path keeps absorbing them without repair work.
    stamp = graph._stamp
    universe = sorted(rel.nodes(), key=lambda node: stamp.get(node, -1))
    ordered = rel.topological_order(universe)
    if ordered is None:
        return False
    order = {
        node: float(position) for position, node in enumerate(ordered)
    }
    graph._derived[family.key] = (
        graph._version, order, float(len(order)), rel, ()
    )
    return True


def _family_acyclic(graph: ExecutionGraph, family: AcyclicFamily) -> bool:
    return family.build(graph).is_acyclic()


def _absorb(
    graph: ExecutionGraph, family: AcyclicFamily, state: tuple, deltas: list
) -> bool | None:
    """Bring an ordinal family's stored order through ``deltas``.

    ``state`` is ``(version, order, top, union, pending)``: the
    topological order as float ordinals, the highest ordinal, the
    union as last materialised and the pairs inserted since.  Returns
    True (and stores the grown state) when the order absorbs the
    inserted edges, False when the repair walk proves they close a
    cycle, and None when the ordinals run out of float precision."""
    added: list[tuple] = []
    for delta in deltas:
        for component in family.components:
            added.extend(component.delta_pairs(graph, delta))
    version = graph._version
    key = family.key
    if not added:
        # nothing relevant inserted: re-tag the state
        graph._derived[key] = (version, state[1], state[2], state[3], state[4])
        return True
    pending = state[4] + tuple(added)
    adjacency = _Adjacency(state[3], pending)
    outcome, order, top = _place_and_verify(
        state[1], state[2], added, adjacency
    )
    if outcome is not True:
        return outcome
    if adjacency.rel is not None:
        # a repair walk materialised the extended union: store it with
        # an empty pending tail
        graph._derived[key] = (version, order, top, adjacency.rel, ())
    elif len(pending) > 128:
        # keep the pending tail bounded so walks (and lineage memory)
        # stay O(recent deltas)
        graph._derived[key] = (
            version, order, top, state[3].extended(pending), ()
        )
    else:
        graph._derived[key] = (version, order, top, state[3], pending)
    return True


def _forward_deltas(
    graph: ExecutionGraph, deltas: list, family: AcyclicFamily
) -> bool:
    """A forward family's deltas cannot close a cycle.  Differential
    mode asserts what that rests on: every pair the components emit
    for ``deltas`` ends at the delta's event or an event added after
    it, and starts at an event added before its end (events older than
    ``deltas`` come first)."""
    if not _FLAGS.differential:
        return True
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
    return True


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


_COHERENT = ("coherent:incremental_hit", "coherent:fallback")


def coherent_check(graph: ExecutionGraph, name: str, hb_preds: dict) -> bool:
    """Is ``hb ; eco`` irreflexive on ``graph`` (the COH obligation)?
    ``hb_preds`` maps every event to the set of its hb-predecessors.

    Verdicts are identical to scanning every event, but the
    verified-version rule (under ``"coh:" + name``) checks only the
    *fresh* events on a live delta log: every event appended since the
    last verdict has no outgoing ``po``/``sw`` edge to an older event,
    so every new ``hb`` pair ends at a fresh event, and every new
    ``eco`` pair touches the delta event.  A violation
    ``a ->hb b ->eco a`` therefore involves a fresh ``b`` — caught by
    asking whether ``b``'s hb-predecessors meet its ``eco``
    successors.  The walk reads those successors off the rf map and
    the coherence orders (:func:`_eco_successors`), so this path never
    materialises ``eco``.  ``co`` reorderings ride along: the inserted
    write appears as its own ``event`` delta in the same range.
    """
    return verified(
        graph, "coh:" + name, _COHERENT, _coherent_deltas, _coherent_scan,
        hb_preds,
    )


def _coherent_deltas(
    graph: ExecutionGraph, deltas: list, hb_preds: dict
) -> bool:
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
            return False
    return True


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
