"""Execution graphs.

An execution graph is the semantic object stateless model checking
enumerates: a set of labelled events together with

* ``po``   — program order (implicit: events of one thread are ordered
  by index; initialisation writes precede everything),
* ``rf``   — reads-from, one source write per read,
* ``co``   — coherence, a total order per location over same-location
  writes, kept as an explicit list with the initialisation write first.

The graph also records the *stamp* (addition order) of every event;
stamps drive the revisit logic of the exploration algorithm.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..events import (
    Event,
    InitLabel,
    Label,
    Loc,
    ReadLabel,
    Value,
    WriteLabel,
    init_event,
)


class GraphError(Exception):
    """Raised on structurally invalid graph manipulation."""


class ExecutionGraph:
    """A (possibly partial) execution graph.

    The graph is mutable while an exploration extends it and is copied
    (cheaply: flat dicts of immutable values) whenever the exploration
    branches.
    """

    __slots__ = (
        "_labels",
        "_threads",
        "_rf",
        "_co",
        "_stamp",
        "_next_stamp",
        "_init_by_loc",
        "_version",
        "_derived",
        "_deltas",
        "_delta_base",
        "__weakref__",
    )

    def __init__(self, locations: Iterable[Loc] = ()) -> None:
        self._labels: dict[Event, Label] = {}
        self._threads: dict[int, list[Event]] = {}
        self._rf: dict[Event, Event] = {}
        self._co: dict[Loc, list[Event]] = {}
        self._stamp: dict[Event, int] = {}
        self._next_stamp = 0
        self._init_by_loc: dict[Loc, Event] = {}
        #: monotonic lineage version: bumped on every mutation and
        #: *inherited* by copies, so a cache entry tagged with a version
        #: can never be mistaken for fresh after a mutate-after-copy
        self._version = 0
        #: per-lineage state: key -> (version, ...), handed to copies so
        #: children extend instead of recompute.  It holds the derived
        #: relations, the verified versions and topological orders of
        #: the consistency checks and the ``.cat`` environments.
        self._derived: dict = {}
        #: typed mutation log: one record per version bump, so a cache
        #: entry at version v is brought current by replaying
        #: ``deltas_since(v)``.  Records are ("init", ev) for a new
        #: initialisation write, ("event", ev) for an appended event
        #: (its label/rf are read off the graph at replay time) and
        #: ("co", ev) for a write's coherence insertion.
        self._deltas: list = []
        #: version of the oldest replayable point: the log covers
        #: versions ``_delta_base .. _version``
        self._delta_base = 0
        for loc in locations:
            self.ensure_location(loc)

    # -- basic structure ---------------------------------------------------

    # -- mutation log ------------------------------------------------------

    def _record_delta(self, delta: tuple) -> None:
        self._version += 1
        self._deltas.append(delta)

    def _reset_deltas(self) -> None:
        """Cut the log after a mutation incremental updates can't
        describe (rf redirection, bulk construction): caches tagged
        with older versions become unreachable by replay."""
        self._deltas.clear()
        self._delta_base = self._version

    def deltas_since(self, version: int) -> list | None:
        """The mutation records after ``version``, oldest first — or
        None when the log no longer reaches back that far (including a
        ``version`` from a different lineage)."""
        if version < self._delta_base or version > self._version:
            return None
        return self._deltas[version - self._delta_base:]

    def ensure_location(self, loc: Loc) -> Event:
        """Make sure ``loc`` has its initialisation write; return it."""
        ev = self._init_by_loc.get(loc)
        if ev is not None:
            return ev
        ev = init_event(len(self._init_by_loc))
        self._record_delta(("init", ev))
        self._init_by_loc[loc] = ev
        self._labels[ev] = InitLabel(loc=loc, value=0)
        self._stamp[ev] = self._next_stamp
        self._next_stamp += 1
        self._co[loc] = [ev]
        return ev

    def init_write(self, loc: Loc) -> Event:
        return self.ensure_location(loc)

    def copy(self) -> "ExecutionGraph":
        dup = ExecutionGraph.__new__(ExecutionGraph)
        dup._labels = dict(self._labels)
        dup._threads = {tid: list(evs) for tid, evs in self._threads.items()}
        dup._rf = dict(self._rf)
        dup._co = {loc: list(ws) for loc, ws in self._co.items()}
        dup._stamp = dict(self._stamp)
        dup._next_stamp = self._next_stamp
        dup._init_by_loc = dict(self._init_by_loc)
        # the child keeps the parent's lineage version and cache: its
        # first mutation bumps past every tagged entry, and the delta
        # log lets cached values be *extended* rather than recomputed.
        # Cached values are immutable-by-convention, so sharing them is
        # safe; the entry tuples themselves are replaced, never mutated.
        dup._version = self._version
        dup._derived = dict(self._derived)
        base, deltas = self._delta_base, self._deltas
        if deltas:
            # trim records older than the oldest cached value: nothing
            # can ever replay from before it
            oldest = min(
                (entry[0] for entry in dup._derived.values()),
                default=self._version,
            )
            if oldest > base:
                deltas = deltas[oldest - base:]
                base = oldest
        dup._deltas = list(deltas)
        dup._delta_base = base
        return dup

    @classmethod
    def from_parts(
        cls,
        thread_labels: dict[int, list[Label]],
        rf_map: dict[Event, Event],
        co_orders: dict[Loc, list[Event]],
    ) -> "ExecutionGraph":
        """Assemble a complete graph directly from its components.

        Used by the herd-style brute-force baseline, which enumerates
        (rf, co) candidates instead of exploring incrementally.
        ``co_orders`` lists non-initial writes per location, in
        coherence order; initialisation writes are created here.
        """
        graph = cls()
        for labels in thread_labels.values():
            for lab in labels:
                loc = lab.location
                if loc is not None:
                    graph.ensure_location(loc)
        for loc in co_orders:
            graph.ensure_location(loc)
        for tid in sorted(thread_labels):
            for index, lab in enumerate(thread_labels[tid]):
                ev = Event(tid, index)
                graph._labels[ev] = lab
                graph._threads.setdefault(tid, []).append(ev)
                graph._stamp[ev] = graph._next_stamp
                graph._next_stamp += 1
        for loc, writes in co_orders.items():
            graph._co[loc] = [graph._init_by_loc[loc], *writes]
        for read, write in rf_map.items():
            if read not in graph._labels or write not in graph._labels:
                raise GraphError(f"rf pair ({read}, {write}) not in graph")
            graph._rf[read] = write
        # the bulk construction above bypassed the mutation log; one
        # final bump + log reset keeps version/cache bookkeeping honest
        graph._version += 1
        graph._reset_deltas()
        return graph

    # -- event addition ------------------------------------------------------

    def _append_event(self, tid: int, label: Label) -> Event:
        thread = self._threads.setdefault(tid, [])
        ev = Event(tid, len(thread))
        self._record_delta(("event", ev))
        thread.append(ev)
        self._labels[ev] = label
        self._stamp[ev] = self._next_stamp
        self._next_stamp += 1
        return ev

    def add_read(self, tid: int, label: ReadLabel, rf: Event) -> Event:
        """Append a read to ``tid`` reading from the write ``rf``."""
        self.ensure_location(label.loc)
        rf_label = self._labels.get(rf)
        if not isinstance(rf_label, WriteLabel) or rf_label.loc != label.loc:
            raise GraphError(f"invalid rf source {rf} for read of {label.loc}")
        ev = self._append_event(tid, label)
        self._rf[ev] = rf
        return ev

    def add_write(self, tid: int, label: WriteLabel, co_index: int | None = None) -> Event:
        """Append a write, inserting it at ``co_index`` in its location's
        coherence order (default: coherence-maximal).  Index 0 is the
        initialisation write and is not a legal position."""
        self.ensure_location(label.loc)
        order = self._co[label.loc]
        if co_index is None:
            co_index = len(order)
        if not 1 <= co_index <= len(order):
            raise GraphError(f"bad coherence index {co_index} for {label.loc}")
        ev = self._append_event(tid, label)
        self._record_delta(("co", ev))
        order.insert(co_index, ev)
        return ev

    def add_fence(self, tid: int, label: Label) -> Event:
        return self._append_event(tid, label)

    def set_rf(self, read: Event, write: Event) -> None:
        """Redirect an existing read to a different source write."""
        if read not in self._rf:
            raise GraphError(f"{read} is not a read of this graph")
        # redirecting rf rewrites history (old pairs disappear), which
        # the extend-only delta log cannot express: cut the log
        self._version += 1
        self._reset_deltas()
        self._rf[read] = write

    # -- accessors -------------------------------------------------------------

    def __contains__(self, ev: Event) -> bool:
        return ev in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def label(self, ev: Event) -> Label:
        return self._labels[ev]

    def stamp(self, ev: Event) -> int:
        return self._stamp[ev]

    def events(self) -> Iterator[Event]:
        return iter(self._labels)

    def events_by_stamp(self) -> list[Event]:
        return sorted(self._labels, key=self._stamp.__getitem__)

    def thread_ids(self) -> list[int]:
        return sorted(self._threads)

    def thread_events(self, tid: int) -> list[Event]:
        return list(self._threads.get(tid, ()))

    def thread_size(self, tid: int) -> int:
        return len(self._threads.get(tid, ()))

    def init_events(self) -> list[Event]:
        return list(self._init_by_loc.values())

    def locations(self) -> list[Loc]:
        return sorted(self._co)

    def reads(self, loc: Loc | None = None) -> list[Event]:
        return [
            ev
            for ev, lab in self._labels.items()
            if isinstance(lab, ReadLabel) and (loc is None or lab.loc == loc)
        ]

    def writes(self, loc: Loc | None = None) -> list[Event]:
        if loc is not None:
            return list(self._co.get(loc, ()))
        return [w for order in self._co.values() for w in order]

    def rf(self, read: Event) -> Event:
        return self._rf[read]

    def rf_map(self) -> dict[Event, Event]:
        return dict(self._rf)

    def readers_of(self, write: Event) -> list[Event]:
        return [r for r, w in self._rf.items() if w == write]

    def co_order(self, loc: Loc) -> list[Event]:
        return list(self._co.get(loc, ()))

    def co_index(self, write: Event) -> int:
        lab = self._labels[write]
        order = self._co[lab.loc]  # type: ignore[union-attr]
        return order.index(write)

    def value_of(self, read: Event) -> Value:
        """The value the read observes (its rf source's written value)."""
        src = self._labels[self._rf[read]]
        assert isinstance(src, WriteLabel)
        return src.value

    def read_values(self, tid: int) -> list[Value]:
        """Values returned, in program order, by the reads of ``tid``."""
        return [
            self.value_of(ev)
            for ev in self._threads.get(tid, ())
            if isinstance(self._labels[ev], ReadLabel)
        ]

    def final_value(self, loc: Loc) -> Value:
        """Value of the coherence-last write to ``loc``."""
        order = self._co.get(loc)
        if not order:
            return 0
        lab = self._labels[order[-1]]
        assert isinstance(lab, WriteLabel)
        return lab.value

    def exclusive_pair(self, ev: Event) -> Event | None:
        """For an exclusive write, its exclusive read (and vice versa)."""
        lab = self._labels[ev]
        if isinstance(lab, WriteLabel) and lab.exclusive:
            prev = ev.po_prev()
            if prev is not None and prev in self._labels:
                plab = self._labels[prev]
                if isinstance(plab, ReadLabel) and plab.exclusive:
                    return prev
            return None
        if isinstance(lab, ReadLabel) and lab.exclusive:
            nxt = ev.po_next()
            if nxt in self._labels:
                nlab = self._labels[nxt]
                if isinstance(nlab, WriteLabel) and nlab.exclusive:
                    return nxt
        return None

    # -- restriction -------------------------------------------------------------

    def restricted(self, keep: Iterable[Event]) -> "ExecutionGraph":
        """The subgraph induced by ``keep`` (plus all init events).

        ``keep`` must be po-prefix-closed per thread and rf-closed; this
        is validated, since a violation indicates a bug in the caller's
        prefix computation.
        """
        keep_set = set(keep) | set(self._init_by_loc.values())
        dup = ExecutionGraph.__new__(ExecutionGraph)
        dup._labels = {}
        dup._threads = {}
        dup._rf = {}
        dup._co = {}
        dup._stamp = {}
        # a restriction is a different graph: caches start empty, and
        # the version stays on the parent's monotonic lineage
        dup._version = self._version
        dup._derived = {}
        dup._deltas = []
        dup._delta_base = dup._version
        dup._init_by_loc = dict(self._init_by_loc)
        by_thread: dict[int, list[Event]] = {}
        for ev in keep_set:
            if ev not in self._labels:
                raise GraphError(f"restriction keeps unknown event {ev}")
            if not ev.is_initial:
                by_thread.setdefault(ev.tid, []).append(ev)
        for ev in sorted(keep_set, key=self._stamp.__getitem__):
            dup._labels[ev] = self._labels[ev]
            dup._stamp[ev] = self._stamp[ev]
            if ev in self._rf:
                src = self._rf[ev]
                if src not in keep_set:
                    raise GraphError(f"restriction drops rf source of {ev}")
                dup._rf[ev] = src
        for tid, events in by_thread.items():
            events.sort(key=lambda e: e.index)
            if events[-1].index != len(events) - 1:
                raise GraphError(
                    f"restriction is not po-closed in thread {tid}"
                )
            dup._threads[tid] = events
        for loc, order in self._co.items():
            dup._co[loc] = [w for w in order if w in keep_set]
        dup._next_stamp = self._next_stamp
        return dup

    def touch(self, ev: Event) -> None:
        """Move an event's stamp to the end, as if it was just added.

        Backward revisits re-stamp the revisited read: conceptually the
        read is re-added reading from the new write, which is what makes
        it eligible for further revisits later (completeness for chains
        of revisits)."""
        self._stamp[ev] = self._next_stamp
        self._next_stamp += 1

    def renumber_stamps(self) -> None:
        """Compact stamps to 0..n-1 preserving their relative order."""
        for new, ev in enumerate(self.events_by_stamp()):
            self._stamp[ev] = new
        self._next_stamp = len(self._labels)

    # -- pickling -----------------------------------------------------------------
    #
    # Graphs ride through process pools (subtree dispatch, execution
    # records).  The per-lineage cache and the mutation log are
    # process-local derived data — cheap to rebuild and potentially
    # holding unpicklable payloads (profiler references inside cat
    # environments) — so pickles carry only the defining components.

    def __getstate__(self):
        return (
            self._labels,
            self._threads,
            self._rf,
            self._co,
            self._stamp,
            self._next_stamp,
            self._init_by_loc,
            self._version,
        )

    def __setstate__(self, state):
        (
            self._labels,
            self._threads,
            self._rf,
            self._co,
            self._stamp,
            self._next_stamp,
            self._init_by_loc,
            self._version,
        ) = state
        self._derived = {}
        self._deltas = []
        self._delta_base = self._version

    # -- debugging ----------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"<ExecutionGraph {len(self._labels)} events, "
            f"{len(self._threads)} threads>"
        )

    def pretty(self) -> str:
        """A multi-line human-readable dump (for error witnesses)."""
        lines = []
        for loc, order in sorted(self._co.items()):
            lines.append(f"co[{loc}]: " + " -> ".join(map(repr, order)))
        for tid in self.thread_ids():
            lines.append(f"thread {tid}:")
            for ev in self._threads[tid]:
                lab = self._labels[ev]
                extra = ""
                if ev in self._rf:
                    extra = f"  [rf: {self._rf[ev]!r} = {self.value_of(ev)}]"
                lines.append(f"  {ev!r}: {lab!r}{extra}")
        return "\n".join(lines)
