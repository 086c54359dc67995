"""Backward revisits: the mechanism that lets already-added reads
observe writes added later.

When the explorer adds a write ``w``, every same-location read ``r``
outside ``w``'s *causal prefix* is a revisit candidate: the graph is
restricted to the events added no later than ``r`` plus the events
``w`` transitively needs, ``r`` is redirected to read from ``w``, and
exploration restarts from there (the deleted events re-execute).
The explorer makes one :func:`backward_revisits` call per write, over
all of the write's coherence placements.

Which reads count as "outside the prefix" is what distinguishes HMC
from GenMC: the model supplies the prefix relation
(:meth:`MemoryModel.prefix_preds`).  Under po ∪ rf every read po- or
rf-before ``w`` is protected, so load-buffering cycles can never be
constructed; under a dependency prefix an independent po-earlier read
*can* be revisited by a po-later write, constructing exactly the
porf-cyclic executions hardware allows.

Duplication avoidance follows TruSt (Kokologiannakis et al., POPL
2022): a revisit is performed only when every deleted event was added
*maximally* (reads from the coherence-maximal write then available,
writes at the coherence-maximal position), which makes the revisited
graph's re-exploration canonical.
"""

from __future__ import annotations

from ..events import Event, ReadLabel, WriteLabel, labels_match
from ..graphs import ExecutionGraph, closure, revisit_kept_set
from ..lang import Program, replay
from ..models import MemoryModel
from ..obs import NULL_OBSERVER
from .config import ExplorationOptions
from .result import Stats


def maximally_added(graph: ExecutionGraph, ev: Event) -> bool:
    """Was ``ev``'s choice the canonical (first) one?

    A read is maximal when it reads from the coherence-latest write
    among those added before it; a write is maximal when no write added
    before it sits coherence-after it.  Fences have no choices.
    """
    lab = graph.label(ev)
    stamp = graph.stamp(ev)
    if isinstance(lab, ReadLabel):
        order = graph.co_order(lab.loc)
        older = [w for w in order if graph.stamp(w) < stamp]
        return bool(older) and graph.rf(ev) == older[-1]
    if isinstance(lab, WriteLabel):
        # Maximality is judged against the graph as it was when the
        # event was added: the write must sit coherence-after every
        # *older* same-location write.  Where later-added writes ended
        # up is irrelevant.
        order = graph.co_order(lab.loc)
        pos = order.index(ev)
        return all(graph.stamp(w) > stamp for w in order[pos + 1:])
    return True


def revisit_candidates(
    graph: ExecutionGraph, write: Event, model: MemoryModel
) -> tuple[list[Event], set[Event]]:
    """Same-location reads outside the write's causal prefix, plus the
    prefix itself (for the caller's bookkeeping)."""
    lab = graph.label(write)
    assert isinstance(lab, WriteLabel)
    prefix = closure(graph, [write], model.prefix_preds)
    reads = [
        r
        for r in graph.reads(lab.loc)
        if r not in prefix and r != graph.exclusive_pair(write)
    ]
    return reads, prefix


def replay_matches(program: Program, graph: ExecutionGraph) -> bool:
    """Do all threads, re-executed against the graph's read values,
    reproduce the graph's labels?  This is the validity condition for
    dependency-prefix revisits: kept events po-after a revisited read
    must be value-independent of it."""
    for tid in graph.thread_ids():
        n = graph.thread_size(tid)
        rep = replay(
            program.threads[tid], tid, graph.read_values(tid), max_events=n
        )
        if len(rep.labels) < n:
            return False
        events = graph.thread_events(tid)
        for ev, new_label in zip(events, rep.labels):
            if not labels_match(graph.label(ev), new_label):
                return False
    return True


def backward_revisits(
    placements: list[ExecutionGraph],
    write: Event,
    program: Program,
    model: MemoryModel,
    options: ExplorationOptions,
    stats: Stats,
    obs=NULL_OBSERVER,
) -> list[ExecutionGraph]:
    """All valid revisited graphs produced by the freshly added
    ``write``, over every coherence placement of it.

    ``placements`` are graphs that contain ``write`` and differ only in
    where it sits in its location's coherence order: the explorer
    passes all of them, consistent or not, in the order it made them,
    and the output is placement-major.

    Only the revisited graph depends on the placement: the prefix
    relation reads no co (see :meth:`MemoryModel.prefix_preds`), the
    kept set reads only stamps and po ∪ rf, maximality never looks at
    ``write`` (it has the largest stamp) and replay reads only labels
    and read values.  So each candidate read's kept set, maximality
    verdict and replay verdict are computed once, and a graph is built
    and checked only for the first placement that puts ``write`` at a
    new position among the read's kept writes.  A later placement at a
    known position restricts to the same graph, a *twin*: it counts
    and is traced under that graph's verdict, runs no check, and is not
    returned (the explorer's revisit memo would drop it).
    """
    first = placements[0]
    loc = first.label(write).location
    all_reads = first.reads(loc)
    candidates, _prefix = revisit_candidates(first, write, model)
    plans = [_Candidate(first, write, read, options) for read in candidates]
    in_prefix = set(all_reads) - set(candidates) if obs.trace_enabled else ()
    wref = [write.tid, write.index]
    out: list[ExecutionGraph] = []
    for graph in placements:
        stats.revisits_considered += len(all_reads)
        stats.revisits_rejected_prefix += len(all_reads) - len(candidates)
        if obs.trace_enabled:
            for read in all_reads:
                obs.emit(
                    "revisit_considered",
                    read=[read.tid, read.index],
                    write=wref,
                )
                if read in in_prefix:
                    obs.emit(
                        "revisit_rejected",
                        read=[read.tid, read.index],
                        write=wref,
                        reason="prefix",
                    )
        order = graph.co_order(loc)
        co_before = order[: order.index(write)]
        for plan in plans:
            revisited = None
            verdict = plan.rejected
            if verdict is None:
                position = sum(1 for w in co_before if w in plan.kept)
                verdict = plan.verdicts.get(position)
                if verdict is None:
                    revisited = plan.revisit(graph, write)
                    verdict = plan.judge(
                        revisited, program, model, options, stats
                    )
                    plan.verdicts[position] = verdict
            read = plan.read
            if verdict == "performed":
                stats.revisits_performed += 1
                if obs.enabled:
                    obs.observe("revisit_deleted", plan.deleted)
                    if obs.trace_enabled:
                        obs.emit(
                            "revisit_performed",
                            read=[read.tid, read.index],
                            write=wref,
                            deleted=plan.deleted,
                        )
                if revisited is not None:
                    out.append(revisited)
                continue
            if verdict == "maximality":
                stats.revisits_rejected_maximality += 1
            elif verdict == "replay":
                stats.revisits_rejected_replay += 1
            else:
                stats.revisits_rejected_inconsistent += 1
            _emit_rejected(obs, read, write, verdict)
    return out


class _Candidate:
    """One candidate read of a backward revisit: what no placement of
    the revisiting write changes, and the verdict of each graph built
    so far, keyed by the write's position among the kept writes."""

    __slots__ = ("read", "kept", "deleted", "rejected", "verdicts")

    def __init__(
        self,
        graph: ExecutionGraph,
        write: Event,
        read: Event,
        options: ExplorationOptions,
    ) -> None:
        self.read = read
        self.kept = revisit_kept_set(graph, write, read)
        deleted = [e for e in graph.events() if e not in self.kept]
        self.deleted = len(deleted)
        # Canonicity filter: only revisit from the exploration in which
        # every deleted event took its canonical (coherence-maximal)
        # choice — every other configuration of the deleted events is
        # re-derivable from that one.  This prunes the bulk of the
        # would-be duplicates; the residue (revisit chains reaching the
        # same graph along different coherence histories) is suppressed
        # by the explorer's canonical-hash check and reported.
        maximal = not options.maximality_check or all(
            maximally_added(graph, e) for e in deleted
        )
        #: a verdict that holds at every placement, or None
        self.rejected: str | None = None if maximal else "maximality"
        self.verdicts: dict[int, str] = {}

    def revisit(self, graph: ExecutionGraph, write: Event) -> ExecutionGraph:
        """``graph`` restricted to the kept set, the read redirected to
        ``write``."""
        revisited = graph.restricted(self.kept)
        revisited.set_rf(self.read, write)
        # the read is conceptually re-added: it reads a newer write, so
        # it gets a fresh stamp (and stays revisitable itself)
        revisited.touch(self.read)
        revisited.renumber_stamps()
        return revisited

    def judge(
        self,
        revisited: ExecutionGraph,
        program: Program,
        model: MemoryModel,
        options: ExplorationOptions,
        stats: Stats,
    ) -> str:
        """The verdict on a newly built graph: ``"replay"``,
        ``"inconsistent"`` or ``"performed"``.  Only the first graph is
        replayed, and its failure rejects every placement."""
        if (
            options.validate_revisits
            and not self.verdicts
            and not replay_matches(program, revisited)
        ):
            self.rejected = "replay"
            return "replay"
        stats.consistency_checks += 1
        if not model.is_consistent(revisited):
            return "inconsistent"
        return "performed"


def _emit_rejected(obs, read: Event, write: Event, reason: str) -> None:
    if obs.trace_enabled:
        obs.emit(
            "revisit_rejected",
            read=[read.tid, read.index],
            write=[write.tid, write.index],
            reason=reason,
        )
