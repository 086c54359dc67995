"""The HMC exploration algorithm.

A depth-first search over execution graphs.  Each step picks the first
thread with a pending event (the scheduler is deterministic — the
graph alone determines the continuation) and branches:

* a **read** branches over every consistent reads-from source among
  the writes already in the graph (forward revisit);
* a **write** branches over every consistent coherence position, and
  additionally *backward-revisits* reads added earlier (see
  :mod:`repro.core.revisits`) — this is how executions in which an
  early read observes a late write are discovered;
* fences and thread-local steps do not branch.

Completed graphs are classified as consistent executions, blocked
(failed ``assume``/unsatisfiable RMW) or erroneous (failed
``assert``).  Near-optimality comes from three cooperating mechanisms
(see DESIGN.md §3): the maximality filter on revisits, memoisation of
revisit states (which also guarantees termination of RMW revisit
chains), and canonical-hash deduplication of completions — duplicates
are suppressed and *reported*, and measure zero on the litmus corpus
for every porf-acyclic model.
"""

from __future__ import annotations

import os
import time

from ..events import FenceLabel, Label, ReadLabel, WriteLabel
from ..graphs import ExecutionGraph, canonical_key, final_state
from ..lang import Program, ReplayStatus, ThreadReplay, replay
from ..graphs.incremental import configure_from_env
from ..models import MemoryModel, get_model
from ..obs import NULL_OBSERVER
from ..obs.profile import activation as profile_activation
from .config import ExplorationOptions, resolve_options
from .result import ErrorReport, ExecutionRecord, VerificationResult
from .revisits import backward_revisits


class _SearchLimit(Exception):
    """Internal: a configured exploration limit was reached."""


class Explorer:
    """One verification run of ``program`` against ``model``."""

    def __init__(
        self,
        program: Program,
        model: MemoryModel | str,
        options: ExplorationOptions | None = None,
        observer=NULL_OBSERVER,
        root: ExecutionGraph | None = None,
        claim=None,
    ) -> None:
        self.program = program
        self.model = get_model(model) if isinstance(model, str) else model
        self.options = options or ExplorationOptions()
        self.obs = observer
        #: resume point: explore only the subtree below this graph
        #: (parallel workers receive their subtree prefix here)
        self.root = root
        #: cached so the hot path pays one attribute load, not a
        #: no-op context-manager / kwargs construction, when disabled
        self._timed = observer.enabled
        self._dedup = self.options.deduplicate
        self._collect_keys = self.options.collect_keys
        self._seen: set = set()
        #: revisit-produced states already scheduled.  Exploration is a
        #: pure function of (graph, stamps), so a repeated state has an
        #: identical future and is skipped; since stamps are compacted
        #: after every revisit the state space is finite, which is what
        #: makes revisit chains between RMWs terminate.
        self._revisit_seen: set = set()
        #: a sharded run's one memo: ``claim(key)`` asks whether this
        #: task explores a revisit state its own memo has not seen
        #: (see repro.core.parallel); None when it explores them all
        self._claim = claim
        self.result = VerificationResult(
            program=program.name, model=self.model.name
        )

    # -- public API ------------------------------------------------------

    def run(self) -> VerificationResult:
        start = time.perf_counter()
        # the environment is authoritative per run — this also makes
        # REPRO_INCREMENTAL / REPRO_CHECK_INCREMENTAL work inside pool
        # workers, which inherit the variables but not module state
        configure_from_env()
        obs = self.obs
        if obs.trace_enabled:
            obs.emit(
                "run_start",
                program=self.program.name,
                model=self.model.name,
                threads=self.program.num_threads,
            )
        root = (
            self.root.copy()
            if self.root is not None
            else ExecutionGraph(self.program.location_bases())
        )
        stack: list[ExecutionGraph] = [root]
        # the profile activation makes the observer's registry visible
        # to the observer-less hot paths (the models' consistency
        # checks, derived relations, .cat environments) for this run
        # only, and always restores the previous target
        try:
            with profile_activation(obs):
                while stack:
                    graph = stack.pop()
                    while True:
                        successors = self._step(graph)
                        if successors is None:
                            break
                        if len(successors) == 1:
                            graph = successors[0]
                            continue
                        stack.extend(reversed(successors))
                        break
        except _SearchLimit:
            self.result.truncated = True
        self.result.elapsed = time.perf_counter() - start
        if obs.enabled:
            self.result.phase_times = obs.phase_report()
            obs.tracer.record_phases(self.result.phase_times)
            obs.emit(
                "run_end",
                executions=self.result.executions,
                blocked=self.result.blocked,
                duplicates=self.result.duplicates,
                errors=len(self.result.errors),
                truncated=self.result.truncated,
                elapsed=round(self.result.elapsed, 6),
                stats=self.result.stats.as_dict(),
                phases=self.result.phase_times,
            )
            obs.finish(
                executions=self.result.executions, blocked=self.result.blocked
            )
        return self.result

    # -- one exploration step ------------------------------------------------

    def _step(self, graph: ExecutionGraph) -> list[ExecutionGraph] | None:
        """Extend ``graph`` by one event.

        Returns the successor graphs, or None when the graph is
        complete, a dead end, or continues only into revisit states
        explored elsewhere (each is accounted for here).
        """
        replays: dict[int, ThreadReplay] = {}
        for tid in range(self.program.num_threads):
            n = graph.thread_size(tid)
            if self._timed:
                with self.obs.phase("replay"):
                    rep = replay(
                        self.program.threads[tid],
                        tid,
                        graph.read_values(tid),
                        max_events=n + 1,
                    )
            else:
                rep = replay(
                    self.program.threads[tid],
                    tid,
                    graph.read_values(tid),
                    max_events=n + 1,
                )
            replays[tid] = rep
            next_label = self._next_label(rep, n)
            if next_label is None:
                continue
            successors = self._add_event(graph, tid, next_label)
            if successors is None:  # only dropped repeats: counted nowhere
                return None
            if not successors:
                self._record_blocked()
                return None
            return successors
        self._complete(graph, replays)
        return None

    @staticmethod
    def _next_label(rep: ThreadReplay, existing: int) -> Label | None:
        """The thread's next event label, or None when it is terminal."""
        if len(rep.labels) > existing:
            return rep.labels[existing]
        if rep.status is ReplayStatus.NEEDS_VALUE and rep.pending is not None:
            return rep.pending
        return None

    # -- event addition --------------------------------------------------------

    def _add_event(
        self, graph: ExecutionGraph, tid: int, label: Label
    ) -> list[ExecutionGraph] | None:
        self.result.stats.events_added += 1
        if len(graph) >= self.options.max_events:
            raise _SearchLimit
        if self.obs.trace_enabled:
            self.obs.emit(
                "event_added",
                tid=tid,
                kind=type(label).__name__.removesuffix("Label").lower(),
                loc=getattr(label, "loc", None),
            )
        if isinstance(label, ReadLabel):
            if self._timed:
                with self.obs.phase("rf_enumeration"):
                    return self._add_read(graph, tid, label)
            return self._add_read(graph, tid, label)
        if isinstance(label, WriteLabel):
            return self._add_write(graph, tid, label)
        if isinstance(label, FenceLabel):
            extended = graph.copy()
            extended.add_fence(tid, label)
            return [extended]
        raise TypeError(f"cannot add label {label!r}")  # pragma: no cover

    def _add_read(
        self, graph: ExecutionGraph, tid: int, label: ReadLabel
    ) -> list[ExecutionGraph]:
        self.result.stats.reads_added += 1
        graph.ensure_location(label.loc)
        successors = []
        candidates = 0
        # coherence-maximal candidate first: it is always consistent
        # (extensibility) and is the canonical choice for maximality
        for write in reversed(graph.co_order(label.loc)):
            self.result.stats.rf_candidates += 1
            candidates += 1
            extended = graph.copy()
            extended.add_read(tid, label, write)
            if self._consistent_step(extended):
                successors.append(extended)
        if self._timed:
            self.obs.observe("rf_fanout", len(successors))
            if self.obs.trace_enabled:
                self.obs.emit(
                    "rf_branch",
                    tid=tid,
                    loc=label.loc,
                    candidates=candidates,
                    consistent=len(successors),
                )
        return successors

    def _add_write(
        self, graph: ExecutionGraph, tid: int, label: WriteLabel
    ) -> list[ExecutionGraph] | None:
        self.result.stats.writes_added += 1
        graph.ensure_location(label.loc)
        if self._timed:
            with self.obs.phase("co_placement"):
                placements = self._co_placements(graph, tid, label)
        else:
            placements = self._co_placements(graph, tid, label)
        successors = [g for g, _, ok in placements if ok]
        if self._timed:
            self.obs.observe("co_fanout", len(successors))
            if self.obs.trace_enabled:
                self.obs.emit(
                    "co_branch",
                    tid=tid,
                    loc=label.loc,
                    positions=len(placements),
                    consistent=len(successors),
                )
        if self.options.backward_revisits:
            if self._timed:
                with self.obs.phase("revisit"):
                    repeated = self._collect_revisits(placements, successors)
            else:
                repeated = self._collect_revisits(placements, successors)
            if repeated and not successors:
                # every continuation is a revisit state explored
                # elsewhere: a dropped repeat, not a dead end, or the
                # blocked count would depend on which occurrence of
                # the state the search meets first
                return None
        return successors

    def _co_placements(
        self, graph: ExecutionGraph, tid: int, label: WriteLabel
    ) -> list[tuple[ExecutionGraph, object, bool]]:
        placements = []
        n_writes = len(graph.co_order(label.loc))
        # coherence-maximal position first (canonical choice)
        for index in range(n_writes, 0, -1):
            self.result.stats.co_positions += 1
            extended = graph.copy()
            event = extended.add_write(tid, label, index)
            placements.append(
                (extended, event, self._consistent_step(extended))
            )
        return placements

    def _collect_revisits(self, placements, successors) -> bool:
        """Append the write's new revisit states to ``successors``;
        returns whether a revisit was dropped as a repeat."""
        # Revisits are generated from *every* placement, including
        # ones inconsistent in the full graph: a revisit deletes
        # events, and the restricted graph can be consistent even
        # when the full one is not (e.g. a second RMW that cannot
        # be placed atomically until the conflicting RMW is
        # deleted).  The restricted graph is checked on its own.
        repeated = False
        for revisited in backward_revisits(
            [extended for extended, _, _ in placements],
            placements[0][1],
            self.program,
            self.model,
            self.options,
            self.result.stats,
            self.obs,
        ):
            key = (
                canonical_key(revisited),
                tuple((e.tid, e.index) for e in revisited.events_by_stamp()),
            )
            if key in self._revisit_seen:
                repeated = True
                continue
            self._revisit_seen.add(key)
            if self._claim is not None and not self._claim(key):
                # another task of the sharded run explores it
                repeated = True
                continue
            successors.append(revisited)
        return repeated

    def _consistent_step(self, graph: ExecutionGraph) -> bool:
        if not self.options.incremental_checks:
            # still need coherence to keep the co-position enumeration
            # finite and meaningful
            return self.model.coherence_ok(graph)
        self.result.stats.consistency_checks += 1
        return self.model.is_consistent(graph)

    # -- completion -----------------------------------------------------------

    def _complete(
        self, graph: ExecutionGraph, replays: dict[int, ThreadReplay]
    ) -> None:
        if self._timed:
            with self.obs.phase("completion"):
                self._complete_inner(graph, replays)
        else:
            self._complete_inner(graph, replays)

    def _complete_inner(
        self, graph: ExecutionGraph, replays: dict[int, ThreadReplay]
    ) -> None:
        if not self.options.incremental_checks and not self.model.is_consistent(
            graph
        ):
            return
        statuses = {tid: rep.status for tid, rep in replays.items()}
        errored = [
            tid for tid, s in statuses.items() if s is ReplayStatus.ERROR
        ]
        if errored:
            tid = errored[0]
            self.result.errors.append(
                ErrorReport(
                    message=replays[tid].error or "assertion failed",
                    thread=tid,
                    witness=graph.pretty(),
                    graph=graph,
                )
            )
            if self.obs.trace_enabled:
                self.obs.emit(
                    "error",
                    thread=tid,
                    message=replays[tid].error or "assertion failed",
                )
            if self.options.stop_on_error:
                raise _SearchLimit
            return
        if any(s is ReplayStatus.BLOCKED for s in statuses.values()):
            self._record_blocked()
            return
        key = None
        if (
            self._dedup
            or self.options.collect_executions
            or self._collect_keys
        ):
            key = canonical_key(graph)
            if key in self._seen:
                self.result.duplicates += 1
                if self._timed:
                    if self.obs.trace_enabled:
                        self.obs.emit("graph_duplicate", events=len(graph))
                    self.obs.tick(
                        executions=self.result.executions,
                        blocked=self.result.blocked,
                    )
                return
            self._seen.add(key)
        self.result.executions += 1
        if self._timed:
            self.obs.observe("graph_events", len(graph))
            if self.obs.trace_enabled:
                self.obs.emit("graph_complete", events=len(graph))
            self.obs.tick(
                executions=self.result.executions, blocked=self.result.blocked
            )
        outcome, state = self._record_outcome(graph, replays)
        if self.options.collect_executions:
            self.result.execution_graphs.append(graph)
        if self._collect_keys:
            self.result.execution_records.append(
                ExecutionRecord(
                    key=key,
                    outcome=outcome,
                    final_state=state,
                    graph=graph if self.options.collect_executions else None,
                )
            )
        if (
            self.options.max_executions is not None
            and self.result.executions >= self.options.max_executions
        ):
            raise _SearchLimit
        if (
            self.options.max_explored is not None
            and self.result.explored >= self.options.max_explored
        ):
            raise _SearchLimit

    def _record_blocked(self) -> None:
        self.result.blocked += 1
        if self._timed:
            if self.obs.trace_enabled:
                self.obs.emit("graph_blocked")
            self.obs.tick(
                executions=self.result.executions, blocked=self.result.blocked
            )

    def _record_outcome(
        self, graph: ExecutionGraph, replays: dict[int, ThreadReplay]
    ) -> tuple[tuple, tuple]:
        outcome = []
        for tid, reg in self.program.observables:
            value = replays[tid].registers.get(reg)
            if value is not None:
                outcome.append((f"{reg}@{tid}", value))
        observed = tuple(sorted(outcome))
        state = final_state(graph)
        self.result.outcomes[observed] += 1
        self.result.final_states[state] += 1
        return observed, state


def effective_jobs(options: ExplorationOptions) -> int:
    """The worker-process count a run of ``options`` should use.

    ``options.jobs`` wins when set; otherwise the ``REPRO_JOBS``
    environment variable supplies a process-wide default.  0 (either
    way) means one worker per CPU; anything unset means serial (1).
    """
    jobs = options.jobs
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}")
        if jobs < 0:
            raise ValueError(f"REPRO_JOBS must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def verify(
    program: Program,
    model: MemoryModel | str = "sc",
    *,
    options: ExplorationOptions | None = None,
    observer=NULL_OBSERVER,
    **option_overrides,
) -> VerificationResult:
    """Verify ``program`` against ``model`` and return the result.

    Everything after the model argument is keyword-only.  Keyword
    overrides are forwarded to :class:`ExplorationOptions`,
    e.g. ``verify(p, "tso", stop_on_error=False)``; alternatively pass
    a full ``options=ExplorationOptions(...)`` (never both).  Pass a
    :class:`repro.obs.Observer` to collect phase timings and a trace.

    With ``jobs=N`` (N > 1, or 0 for one worker per CPU) the search is
    sharded over a process pool (see :mod:`repro.core.parallel`);
    exhaustive parallel runs report every count of the serial run.  A
    search that is not :func:`~repro.core.parallel.shardable` — one
    bounded by ``max_executions`` or ``max_explored``, or with
    deduplication off — runs serially whatever ``jobs`` is, so a
    bounded run always returns the serial DFS-order prefix.
    """
    options = resolve_options(options, option_overrides)
    # imported here: repro.core.parallel builds on this module
    from .parallel import verify_parallel

    result = verify_parallel(program, model, options, observer=observer)
    if not options.collect_keys:
        # the records existed for merge reconciliation; strip them
        # at the API boundary unless the caller asked for them
        result.execution_records = []
    return result


def count_executions(
    program: Program,
    model: MemoryModel | str = "sc",
    *,
    options: ExplorationOptions | None = None,
    observer=NULL_OBSERVER,
    **option_overrides,
) -> int:
    """The number of distinct consistent executions of ``program``.

    Accepts the same ``options``/keyword-override convention as
    :func:`verify` (keyword-only after the model argument) and
    forwards ``observer`` to it, so counting runs can be traced and
    timed like verifying ones.
    """
    options = resolve_options(options, option_overrides, stop_on_error=False)
    return verify(
        program, model, options=options, observer=observer
    ).executions
