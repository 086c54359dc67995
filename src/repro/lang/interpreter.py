"""Deterministic per-thread interpretation with dependency tracking.

The cornerstone of stateless model checking: a thread's behaviour is a
*pure function* of the values its reads returned.  :func:`replay`
re-executes a thread from scratch against a given read-value history
and reports either the emitted labels plus how the thread ended, or
the pending read awaiting a value.

Execution is generator-based: each memory event is ``yield``-ed as a
label; reads receive their value through ``send``.  Replaying from
scratch on every query keeps exploration state *copy-free* (the
execution graph alone determines everything), at a modest O(n²) cost
per thread — the trade the original tools make with their replaying
schedulers, too.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Generator, Sequence
from dataclasses import dataclass, field

from ..events import (
    Event,
    FenceLabel,
    Label,
    ReadLabel,
    Value,
    WriteLabel,
)
from .expr import EvalError, Tainted
from .stmt import (
    Assert,
    Assign,
    Assume,
    Cas,
    Fai,
    Fence,
    If,
    Load,
    LocExpr,
    Repeat,
    Stmt,
    Store,
    Xchg,
)


class _Blocked(Exception):
    """Internal: an Assume failed."""


class _Failed(Exception):
    """Internal: an Assert failed."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class ReplayStatus(enum.Enum):
    #: the thread executed all its statements
    FINISHED = "finished"
    #: an ``assume`` failed — the branch is infeasible, not an error
    BLOCKED = "blocked"
    #: an ``assert`` failed
    ERROR = "error"
    #: the next event is a read that needs a value from the explorer
    NEEDS_VALUE = "needs-value"
    #: stopped early because ``max_events`` labels were emitted
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class ThreadReplay:
    """Result of replaying one thread against a read-value history."""

    status: ReplayStatus
    labels: tuple[Label, ...]
    #: when NEEDS_VALUE: the pending read's label (it will become the
    #: event at index ``len(labels)``)
    pending: ReadLabel | None = None
    error: str | None = None
    registers: dict[str, Value] = field(default_factory=dict)


_EMIT = Generator[Label, Value | None, None]


class _ThreadRun:
    """One in-progress interpretation of a thread."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.env: dict[str, Tainted] = {}
        self.ctrl: set[Event] = set()
        self.count = 0  # events emitted so far

    def _next_event(self) -> Event:
        return Event(self.tid, self.count)

    def _eval(self, expr) -> Tainted:
        return expr.evaluate(self.env)

    def _resolve_loc(self, spec: LocExpr) -> tuple[str, frozenset[Event]]:
        if spec.index is None:
            return spec.base, frozenset()
        idx = self._eval(spec.index)
        return f"{spec.base}[{idx.value}]", idx.taint

    def run(self, stmts: Sequence[Stmt]) -> _EMIT:
        yield from self._block(stmts)

    def _block(self, stmts: Sequence[Stmt]) -> _EMIT:
        for st in stmts:
            yield from self._stmt(st)

    def _stmt(self, st: Stmt) -> _EMIT:
        if isinstance(st, Assign):
            self.env[st.reg] = self._eval(st.expr)
        elif isinstance(st, Load):
            yield from self._load(st)
        elif isinstance(st, Store):
            yield from self._store(st)
        elif isinstance(st, Cas):
            yield from self._cas(st)
        elif isinstance(st, Fai):
            yield from self._fai(st)
        elif isinstance(st, Xchg):
            yield from self._xchg(st)
        elif isinstance(st, Fence):
            self.count += 1
            yield FenceLabel(
                kind=st.kind, order=st.order, ctrl_deps=frozenset(self.ctrl)
            )
        elif isinstance(st, If):
            cond = self._eval(st.cond)
            self.ctrl |= cond.taint
            yield from self._block(st.then if cond.value else st.orelse)
        elif isinstance(st, Repeat):
            for _ in range(st.count):
                yield from self._block(st.body)
        elif isinstance(st, Assume):
            cond = self._eval(st.cond)
            self.ctrl |= cond.taint
            if not cond.value:
                raise _Blocked
        elif isinstance(st, Assert):
            cond = self._eval(st.cond)
            self.ctrl |= cond.taint
            if not cond.value:
                raise _Failed(st.message)
        else:  # pragma: no cover - exhaustive over the Stmt family
            raise EvalError(f"unknown statement {st!r}")

    def _load(self, st: Load) -> _EMIT:
        locname, addr_taint = self._resolve_loc(st.loc)
        ev = self._next_event()
        self.count += 1
        value = yield ReadLabel(
            loc=locname,
            order=st.order,
            addr_deps=addr_taint,
            ctrl_deps=frozenset(self.ctrl),
        )
        assert value is not None
        self.env[st.reg] = Tainted(value, frozenset([ev]))

    def _store(self, st: Store) -> _EMIT:
        locname, addr_taint = self._resolve_loc(st.loc)
        val = self._eval(st.value)
        self.count += 1
        yield WriteLabel(
            loc=locname,
            value=val.value,
            order=st.order,
            addr_deps=addr_taint,
            data_deps=val.taint,
            ctrl_deps=frozenset(self.ctrl),
        )

    def _cas(self, st: Cas) -> _EMIT:
        locname, addr_taint = self._resolve_loc(st.loc)
        expected = self._eval(st.expected)
        desired = self._eval(st.desired)
        ev = self._next_event()
        self.count += 1
        old = yield ReadLabel(
            loc=locname,
            order=st.order,
            exclusive=True,
            cas_expected=expected.value,
            addr_deps=addr_taint,
            data_deps=expected.taint,
            ctrl_deps=frozenset(self.ctrl),
        )
        assert old is not None
        success = old == expected.value
        # the outcome of the comparison controls the continuation
        self.ctrl |= {ev} | expected.taint
        if success:
            self.count += 1
            yield WriteLabel(
                loc=locname,
                value=desired.value,
                order=st.order,
                exclusive=True,
                addr_deps=addr_taint,
                data_deps=desired.taint,
                ctrl_deps=frozenset(self.ctrl),
            )
        self.env[st.reg] = Tainted(int(success), frozenset([ev]))
        if st.old_reg is not None:
            self.env[st.old_reg] = Tainted(old, frozenset([ev]))

    def _fai(self, st: Fai) -> _EMIT:
        locname, addr_taint = self._resolve_loc(st.loc)
        delta = self._eval(st.delta)
        ev = self._next_event()
        self.count += 1
        old = yield ReadLabel(
            loc=locname,
            order=st.order,
            exclusive=True,
            addr_deps=addr_taint,
            ctrl_deps=frozenset(self.ctrl),
        )
        assert old is not None
        self.count += 1
        yield WriteLabel(
            loc=locname,
            value=old + delta.value,
            order=st.order,
            exclusive=True,
            addr_deps=addr_taint,
            data_deps=delta.taint | frozenset([ev]),
            ctrl_deps=frozenset(self.ctrl),
        )
        self.env[st.reg] = Tainted(old, frozenset([ev]))

    def _xchg(self, st: Xchg) -> _EMIT:
        locname, addr_taint = self._resolve_loc(st.loc)
        val = self._eval(st.value)
        ev = self._next_event()
        self.count += 1
        old = yield ReadLabel(
            loc=locname,
            order=st.order,
            exclusive=True,
            addr_deps=addr_taint,
            ctrl_deps=frozenset(self.ctrl),
        )
        assert old is not None
        self.count += 1
        yield WriteLabel(
            loc=locname,
            value=val.value,
            order=st.order,
            exclusive=True,
            addr_deps=addr_taint,
            data_deps=val.taint,
            ctrl_deps=frozenset(self.ctrl),
        )
        self.env[st.reg] = Tainted(old, frozenset([ev]))


def replay(
    stmts: Sequence[Stmt],
    tid: int,
    read_values: Sequence[Value],
    max_events: int | None = None,
) -> ThreadReplay:
    """Re-execute a thread against ``read_values``.

    Stops as soon as ``max_events`` labels have been emitted, a read
    runs out of values (``NEEDS_VALUE``), or the thread terminates.

    Replays are memoised: a thread is a pure function of its read
    values, exploration re-asks for the same prefixes constantly, and
    :class:`ThreadReplay` is immutable — so the cache is sound and
    saves the O(n²)-per-thread replay cost almost entirely.
    """
    if isinstance(stmts, tuple):
        return _replay_cached(stmts, tid, tuple(read_values), max_events)
    return _replay_uncached(stmts, tid, read_values, max_events)


@functools.lru_cache(maxsize=200_000)
def _replay_cached(
    stmts: tuple[Stmt, ...],
    tid: int,
    read_values: tuple[Value, ...],
    max_events: int | None,
) -> ThreadReplay:
    return _replay_uncached(stmts, tid, read_values, max_events)


def _replay_uncached(
    stmts: Sequence[Stmt],
    tid: int,
    read_values: Sequence[Value],
    max_events: int | None = None,
) -> ThreadReplay:
    if max_events is not None and max_events <= 0:
        return ThreadReplay(ReplayStatus.TRUNCATED, ())
    run = _ThreadRun(tid)
    gen = run.run(stmts)
    labels: list[Label] = []
    consumed = 0
    try:
        label = next(gen)
        while True:
            to_send: Value | None = None
            if isinstance(label, ReadLabel):
                if consumed == len(read_values):
                    gen.close()
                    return ThreadReplay(
                        ReplayStatus.NEEDS_VALUE, tuple(labels), pending=label
                    )
                to_send = read_values[consumed]
                consumed += 1
            labels.append(label)
            if max_events is not None and len(labels) >= max_events:
                gen.close()
                return ThreadReplay(ReplayStatus.TRUNCATED, tuple(labels))
            label = gen.send(to_send)
    except StopIteration:
        return ThreadReplay(
            ReplayStatus.FINISHED,
            tuple(labels),
            registers={name: t.value for name, t in run.env.items()},
        )
    except _Blocked:
        return ThreadReplay(ReplayStatus.BLOCKED, tuple(labels))
    except _Failed as exc:
        return ThreadReplay(ReplayStatus.ERROR, tuple(labels), error=exc.message)
