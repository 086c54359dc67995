"""Evaluating ``.cat`` specifications over execution graphs.

A cat expression denotes either an **event set** (``frozenset`` of
events) or a **relation** (:class:`repro.relations.Relation`); the
evaluator is dynamically typed over those two kinds, with
:class:`CatTypeError` on mismatches (sequencing two sets, bracketing a
relation, ...).  Base names resolve to the same derived relations the
hand-coded models use (:mod:`repro.graphs.derived`), which is what
makes differential validation meaningful: a ``.cat`` twin and its
Python twin literally share ``po``/``rf``/``co``/``fr``.

Evaluation is memoised per ``(graph, version)`` — the exploration core
calls ``is_consistent`` on every step, and within one check multiple
constraints share their ``let`` intermediates, so each derived
relation is a once-per-step cost (mirroring
:func:`repro.graphs.derived.graph_cached`).
"""

from __future__ import annotations

from ..events import FenceKind, FenceLabel, MemOrder
from ..graphs import ExecutionGraph
from ..graphs.derived import (
    co,
    coe,
    coi,
    dependency,
    eco,
    ext_rel,
    fr,
    fre,
    fri,
    id_rel,
    int_rel,
    po,
    po_loc,
    rf,
    rfe,
    rfi,
    rmw_pairs,
    same_loc,
)
from ..graphs.incremental import check_equal, differential_enabled
from ..relations import Relation
from .ast import Binary, Binding, Bracket, CatSpec, Constraint, Expr, Let, Postfix, Var
from .errors import CatEvalError, CatTypeError

#: a cat value: an event set or a binary relation over events
Value = "Relation | frozenset"


def _kind(value) -> str:
    return "relation" if isinstance(value, Relation) else "set"


# -- base environment -------------------------------------------------------
#
# Every entry is a function of the graph.  Sets cover event shape
# (R/W/F/...), access-mode annotations (literal C11 orders on accesses
# and C11 fences; hardware fences are matched by *kind* sets instead),
# and fence kinds.  Relations mirror repro.graphs.derived.


def _events(graph: ExecutionGraph) -> list:
    return list(graph.events())


def _set_of(graph, predicate) -> frozenset:
    return frozenset(e for e in graph.events() if predicate(graph.label(e)))


def _mode_set(graph: ExecutionGraph, order: MemOrder) -> frozenset:
    """Accesses annotated ``order``, plus C11 *fences* of that order.

    Hardware fences carry no C11 annotation — select them with the
    fence-kind sets (``MFENCE``, ``LWSYNC``, ...) instead.
    """
    def pred(lab):
        if isinstance(lab, FenceLabel):
            return lab.kind is FenceKind.C11 and lab.order is order
        return lab.is_access and lab.order is order

    return _set_of(graph, pred)


def _fence_kind_set(graph: ExecutionGraph, kind: FenceKind) -> frozenset:
    return _set_of(
        graph, lambda lab: isinstance(lab, FenceLabel) and lab.kind is kind
    )


def _exclusive_set(graph: ExecutionGraph) -> frozenset:
    return _set_of(
        graph, lambda lab: lab.is_access and getattr(lab, "exclusive", False)
    )


BASE_SETS = {
    "_": lambda g: frozenset(g.events()),
    "R": lambda g: _set_of(g, lambda lab: lab.is_read),
    "W": lambda g: _set_of(g, lambda lab: lab.is_write),
    "M": lambda g: _set_of(g, lambda lab: lab.is_access),
    "F": lambda g: _set_of(g, lambda lab: lab.is_fence),
    "IW": lambda g: frozenset(g.init_events()),
    "X": _exclusive_set,
    "RMW": _exclusive_set,
    "RLX": lambda g: _mode_set(g, MemOrder.RLX),
    "ACQ": lambda g: _mode_set(g, MemOrder.ACQ),
    "REL": lambda g: _mode_set(g, MemOrder.REL),
    "ACQ_REL": lambda g: _mode_set(g, MemOrder.ACQ_REL),
    "SC": lambda g: _mode_set(g, MemOrder.SC),
    "MFENCE": lambda g: _fence_kind_set(g, FenceKind.MFENCE),
    "SYNC": lambda g: _fence_kind_set(g, FenceKind.SYNC),
    "LWSYNC": lambda g: _fence_kind_set(g, FenceKind.LWSYNC),
    "ISYNC": lambda g: _fence_kind_set(g, FenceKind.ISYNC),
    "DMB_LD": lambda g: _fence_kind_set(g, FenceKind.DMB_LD),
    "DMB_ST": lambda g: _fence_kind_set(g, FenceKind.DMB_ST),
    "C11F": lambda g: _fence_kind_set(g, FenceKind.C11),
}

BASE_RELATIONS = {
    "po": po,
    "po-loc": po_loc,
    "rf": rf,
    "rfe": rfe,
    "rfi": rfi,
    "co": co,
    "coe": coe,
    "coi": coi,
    "fr": fr,
    "fre": fre,
    "fri": fri,
    "eco": eco,
    "rmw": rmw_pairs,
    "loc": same_loc,
    "ext": ext_rel,
    "int": int_rel,
    "id": id_rel,
    "addr": lambda g: dependency(g, "a"),
    "data": lambda g: dependency(g, "d"),
    "ctrl": lambda g: dependency(g, "c"),
    "deps": lambda g: dependency(g, "adc"),
}

BASE_NAMES = frozenset(BASE_SETS) | frozenset(BASE_RELATIONS)


def _mode_member(order: MemOrder):
    def pred(graph, ev):
        lab = graph.label(ev)
        if isinstance(lab, FenceLabel):
            return lab.kind is FenceKind.C11 and lab.order is order
        return lab.is_access and lab.order is order

    return pred


def _fence_kind_member(kind: FenceKind):
    return lambda graph, ev: (
        isinstance(graph.label(ev), FenceLabel) and graph.label(ev).kind is kind
    )


def _exclusive_member(graph, ev):
    lab = graph.label(ev)
    return lab.is_access and getattr(lab, "exclusive", False)


#: per-event membership tests mirroring BASE_SETS, used by
#: :meth:`Env.advanced` to carry memoised base sets across graph
#: copies by testing only the events the delta log added
_SET_MEMBERS = {
    "_": lambda graph, ev: True,
    "R": lambda graph, ev: graph.label(ev).is_read,
    "W": lambda graph, ev: graph.label(ev).is_write,
    "M": lambda graph, ev: graph.label(ev).is_access,
    "F": lambda graph, ev: graph.label(ev).is_fence,
    "IW": lambda graph, ev: ev.is_initial,
    "X": _exclusive_member,
    "RMW": _exclusive_member,
    "RLX": _mode_member(MemOrder.RLX),
    "ACQ": _mode_member(MemOrder.ACQ),
    "REL": _mode_member(MemOrder.REL),
    "ACQ_REL": _mode_member(MemOrder.ACQ_REL),
    "SC": _mode_member(MemOrder.SC),
    "MFENCE": _fence_kind_member(FenceKind.MFENCE),
    "SYNC": _fence_kind_member(FenceKind.SYNC),
    "LWSYNC": _fence_kind_member(FenceKind.LWSYNC),
    "ISYNC": _fence_kind_member(FenceKind.ISYNC),
    "DMB_LD": _fence_kind_member(FenceKind.DMB_LD),
    "DMB_ST": _fence_kind_member(FenceKind.DMB_ST),
    "C11F": _fence_kind_member(FenceKind.C11),
}

#: fixpoint iteration guard: any monotone relation definition converges
#: in at most |universe|^2 steps (one new pair per round)
_FIXPOINT_SLACK = 2


class Env:
    """One graph's evaluation environment, with memoised results.

    ``profiler`` (a :class:`~repro.obs.metrics.MetricsRegistry`, or
    None) attributes the evaluator's memo behaviour: every name lookup
    bumps ``cat:memo_hit:<name>`` or ``cat:memo_miss:<name>``, and each
    ``let rec`` solve records its convergence rounds in the
    ``cat:fixpoint_iters:<names>`` histogram — the decomposition that
    lets ``.cat`` evaluator overhead be profiled per definition rather
    than as one opaque ``check:axiom`` phase.
    """

    def __init__(
        self, graph: ExecutionGraph, spec: CatSpec, profiler=None
    ) -> None:
        self.graph = graph
        self.spec = spec
        self._profiler = profiler
        self._memo: dict[str, object] = {}
        self._in_progress: set[str] = set()
        #: name -> (Let, Binding); later bindings shadow earlier ones
        self._bindings: dict[str, tuple[Let, Binding]] = {}
        for let in spec.lets:
            for binding in let.bindings:
                self._bindings[binding.name] = (let, binding)

    def advanced(self, graph: ExecutionGraph, deltas, profiler=None) -> "Env":
        """A fresh environment for ``graph`` (a descendant of this
        env's graph) with memoised *base sets* carried over: each is
        extended by testing only the events the delta log added.

        Base relations need no seeding — they resolve through
        :func:`~repro.graphs.derived.graph_cached`, which is already
        incremental across copies.  ``let``-bound names are arbitrary
        expressions and are re-evaluated on demand.
        """
        env = Env(graph, self.spec, profiler=profiler)
        fresh = [d[1] for d in deltas if d[0] in ("event", "init")]
        for name, value in self._memo.items():
            if name in self._bindings:
                continue
            pred = _SET_MEMBERS.get(name)
            if pred is None:
                continue
            added = [e for e in fresh if pred(graph, e)]
            carried = value | frozenset(added) if added else value
            if differential_enabled():
                check_equal(f"cat-set:{name}", carried, BASE_SETS[name](graph))
            env._memo[name] = carried
        return env

    # -- name resolution -------------------------------------------------

    def lookup(self, node: Var):
        name = node.name
        prof = self._profiler
        if name in self._memo:
            if prof is not None:
                prof.inc(f"cat:memo_hit:{name}")
            return self._memo[name]
        if prof is not None:
            prof.inc(f"cat:memo_miss:{name}")
        entry = self._bindings.get(name)
        if entry is not None:
            let, binding = entry
            if name in self._in_progress:
                raise CatEvalError(
                    f"{name!r} refers to itself; use 'let rec' for "
                    "fixpoint definitions",
                    node.line,
                    node.column,
                )
            if let.recursive:
                self._solve_rec(let)
            else:
                self._in_progress.add(name)
                try:
                    self._memo[name] = self.eval(binding.body)
                finally:
                    self._in_progress.discard(name)
            return self._memo[name]
        if name in BASE_SETS:
            value = BASE_SETS[name](self.graph)
        elif name in BASE_RELATIONS:
            value = BASE_RELATIONS[name](self.graph)
        else:
            known = ", ".join(sorted(BASE_NAMES | set(self._bindings)))
            raise CatEvalError(
                f"unknown name {name!r}; known names: {known}",
                node.line,
                node.column,
            )
        self._memo[name] = value
        return value

    def _solve_rec(self, let: Let) -> None:
        """Least-fixpoint solve one ``let rec ... and ...`` group."""
        names = [b.name for b in let.bindings]
        for name in names:
            self._memo[name] = Relation()
        bound = len(_events(self.graph)) ** 2 + _FIXPOINT_SLACK
        for rounds in range(1, bound + 1):
            changed = False
            for binding in let.bindings:
                value = self.eval(binding.body)
                if not isinstance(value, Relation):
                    raise CatTypeError(
                        f"recursive binding {binding.name!r} must define a "
                        f"relation, got a {_kind(value)}",
                        binding.line,
                        binding.column,
                    )
                if value != self._memo[binding.name]:
                    self._memo[binding.name] = value
                    changed = True
            if not changed:
                if self._profiler is not None:
                    self._profiler.observe(
                        f"cat:fixpoint_iters:{'+'.join(names)}", rounds
                    )
                return
        raise CatEvalError(
            f"recursive definition of {', '.join(names)} did not converge "
            "(non-monotone right-hand side?)",
            let.bindings[0].line,
            let.bindings[0].column,
        )

    # -- expression evaluation -------------------------------------------

    def eval(self, node: Expr):
        if isinstance(node, Var):
            return self.lookup(node)
        if isinstance(node, Bracket):
            body = self.eval(node.body)
            if isinstance(body, Relation):
                raise CatTypeError(
                    "[...] restricts identity to a *set*; got a relation",
                    node.line,
                    node.column,
                )
            return Relation.identity(body)
        if isinstance(node, Postfix):
            return self._postfix(node)
        if isinstance(node, Binary):
            return self._binary(node)
        raise CatEvalError(  # pragma: no cover - parser emits no other nodes
            f"cannot evaluate {type(node).__name__}", node.line, node.column
        )

    def _as_relation(self, value, node: Expr, op: str) -> Relation:
        if isinstance(value, Relation):
            return value
        raise CatTypeError(
            f"{op} needs a relation, got a set "
            "(wrap it in [brackets] for the identity relation)",
            node.line,
            node.column,
        )

    def _postfix(self, node: Postfix):
        value = self.eval(node.body)
        op = node.op
        if op == "^-1":
            return self._as_relation(value, node, "inverse ^-1").inverse()
        if op == "+":
            return self._as_relation(
                value, node, "transitive closure +"
            ).transitive_closure()
        if op == "*":
            return self._as_relation(
                value, node, "reflexive-transitive closure *"
            ).reflexive_transitive_closure(self.graph.events())
        if op == "?":
            rel = self._as_relation(value, node, "optional ?")
            return rel | Relation.identity(self.graph.events())
        raise CatEvalError(  # pragma: no cover - lexer emits no other ops
            f"unknown postfix operator {op!r}", node.line, node.column
        )

    def _binary(self, node: Binary):
        left = self.eval(node.left)
        right = self.eval(node.right)
        op = node.op
        if op == ";":
            # sets are lifted to identity filters, so [W] ; po and
            # W ; po mean the same thing
            lrel = left if isinstance(left, Relation) else Relation.identity(left)
            rrel = right if isinstance(right, Relation) else Relation.identity(right)
            return lrel.compose(rrel)
        if op == "*":
            for value, side in ((left, node.left), (right, node.right)):
                if isinstance(value, Relation):
                    raise CatTypeError(
                        "cartesian product * needs two sets, got a relation",
                        side.line,
                        side.column,
                    )
            return Relation.product(left, right)
        if isinstance(left, Relation) != isinstance(right, Relation):
            raise CatTypeError(
                f"{op!r} needs both sides of the same kind; got a "
                f"{_kind(left)} and a {_kind(right)} "
                "(wrap the set in [brackets] to make it a relation)",
                node.line,
                node.column,
            )
        if op == "|":
            return left | right
        if op == "&":
            return left & right
        if op == "\\":
            return left - right
        raise CatEvalError(  # pragma: no cover - parser emits no other ops
            f"unknown operator {op!r}", node.line, node.column
        )

    # -- constraints -----------------------------------------------------

    def constraint_relation(self, constraint: Constraint) -> Relation:
        value = self.eval(constraint.expr)
        if constraint.kind == "empty":
            # empty applies to sets and relations alike; normalise
            if not isinstance(value, Relation):
                return Relation.identity(value)
            return value
        return self._as_relation(
            value, constraint.expr, f"constraint {constraint.kind!r}"
        )

    def check(self, constraint: Constraint) -> bool:
        rel = self.constraint_relation(constraint)
        if constraint.kind == "acyclic":
            return rel.is_acyclic()
        if constraint.kind == "irreflexive":
            return rel.is_irreflexive()
        if constraint.kind == "empty":
            return not rel
        raise CatEvalError(  # pragma: no cover - parser restricts kinds
            f"unknown constraint kind {constraint.kind!r}",
            constraint.line,
            constraint.column,
        )

