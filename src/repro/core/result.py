"""Verification results and statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..graphs import ExecutionGraph

#: An observable outcome: ("r0@1", value) pairs, sorted.
Outcome = tuple[tuple[str, int], ...]


def _summable(value) -> bool:
    # bool is an int subclass, but True + True == 2 is never the right
    # way to combine two workers' flags — booleans stay left-biased
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _merge_meta(left: dict, right: dict) -> dict:
    """Sum numeric entries shared by both sides, otherwise left-biased."""
    merged = dict(left)
    for key, value in right.items():
        if key in merged and _summable(merged[key]) and _summable(value):
            merged[key] = merged[key] + value
        else:
            merged.setdefault(key, value)
    return merged


@dataclass(frozen=True)
class ErrorReport:
    """An assertion failure, with its witness execution."""

    message: str
    thread: int
    witness: str  # pretty-printed witness graph
    #: the witness graph itself (for linearisation / DOT export)
    graph: "ExecutionGraph | None" = None

    def __str__(self) -> str:
        return f"assertion failure in thread {self.thread}: {self.message}"


@dataclass(frozen=True)
class ExecutionRecord:
    """One distinct complete execution, in a process-portable form.

    Recorded when :attr:`ExplorationOptions.collect_keys` is set; the
    parallel coordinator uses the canonical key to reconcile executions
    that different workers discovered independently.
    """

    key: tuple
    outcome: Outcome
    final_state: tuple
    #: kept only when options.collect_executions is also set
    graph: "ExecutionGraph | None" = None


@dataclass
class Stats:
    """Exploration counters (the quantities the paper's tables report,
    plus internals useful for the ablations)."""

    events_added: int = 0
    reads_added: int = 0
    writes_added: int = 0
    rf_candidates: int = 0
    co_positions: int = 0
    revisits_considered: int = 0
    revisits_performed: int = 0
    revisits_rejected_prefix: int = 0
    revisits_rejected_maximality: int = 0
    revisits_rejected_replay: int = 0
    revisits_rejected_inconsistent: int = 0
    consistency_checks: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))

    def merge(self, other: "Stats") -> "Stats":
        """Field-wise sum (commutative and associative)."""
        return Stats(
            **{
                name: value + getattr(other, name)
                for name, value in vars(self).items()
            }
        )


def merge_phase_times(
    left: dict[str, dict[str, float]], right: dict[str, dict[str, float]]
) -> dict[str, dict[str, float]]:
    """Sum two per-phase timing reports key-wise.

    Merged totals are cumulative CPU seconds across contributors, so on
    a parallel run they can exceed the wall-clock ``elapsed``.
    """
    merged = {name: dict(stat) for name, stat in left.items()}
    for name, stat in right.items():
        into = merged.setdefault(name, {})
        for field_name, value in stat.items():
            into[field_name] = into.get(field_name, 0.0) + value
    return merged


@dataclass
class VerificationResult:
    """Everything a run of the checker learned about a program."""

    program: str
    model: str
    #: distinct consistent complete executions
    executions: int = 0
    #: explorations blocked by a failed assume, or dead ends: an event
    #: with no consistent choice (e.g. an unsatisfiable RMW) and no
    #: revisit.  An event whose only continuations repeat revisit
    #: states explored elsewhere is not counted.
    blocked: int = 0
    #: complete graphs explored more than once (0 for porf-acyclic models)
    duplicates: int = 0
    errors: list[ErrorReport] = field(default_factory=list)
    #: observable-register outcomes over consistent executions
    outcomes: Counter = field(default_factory=Counter)
    #: final memory states over consistent executions
    final_states: Counter = field(default_factory=Counter)
    elapsed: float = 0.0
    stats: Stats = field(default_factory=Stats)
    #: per-phase timing breakdown ({phase: {"calls", "total", "self"}}),
    #: populated when the run was observed (see repro.obs); empty dict
    #: when observability was off
    phase_times: dict[str, dict[str, float]] = field(default_factory=dict)
    #: populated when options.collect_executions is set
    execution_graphs: list[ExecutionGraph] = field(default_factory=list)
    #: search aborted by a limit (max_executions / max_explored)
    truncated: bool = False
    #: one record per distinct execution, populated when
    #: options.collect_keys is set (the parallel engine relies on it)
    execution_records: list[ExecutionRecord] = field(default_factory=list)
    #: backend-specific counters (baseline trace counts, parallel task
    #: accounting, ...) that have no first-class field
    meta: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No assertion failures found."""
        return not self.errors

    @property
    def explored(self) -> int:
        """All complete graphs visited, including duplicates."""
        return self.executions + self.duplicates

    @property
    def keyed(self) -> bool:
        """Every distinct execution carries an :class:`ExecutionRecord`
        (required for exact cross-process deduplication)."""
        return len(self.execution_records) == self.executions

    def merge(self, other: "VerificationResult") -> "VerificationResult":
        """Combine two partial results of the *same* verification task.

        Deterministic, associative, and non-mutating.  When both sides
        are :attr:`keyed`, executions completed on both sides are
        reconciled by canonical key: the merged result counts each
        distinct execution once (left-biased on first sight) and
        reclassifies re-discoveries as duplicates, so a parallel run
        reports the same ``executions``/``outcomes``/``final_states``
        as a serial one.  Without keys the counters are simply summed.
        """
        if (self.program, self.model) != (other.program, other.model):
            raise ValueError(
                f"cannot merge results of different tasks: "
                f"{(self.program, self.model)} vs {(other.program, other.model)}"
            )
        if self.keyed != other.keyed and self.executions and other.executions:
            # mixing a keyed result with an unkeyed one would silently
            # fall into the unkeyed sum path and double-count any
            # execution both sides discovered; refuse instead of lying
            raise ValueError(
                "cannot merge a keyed result with an unkeyed one: "
                "execution records were stripped (or never collected) "
                "on one side, so cross-side deduplication is impossible"
            )
        merged = VerificationResult(program=self.program, model=self.model)
        merged.blocked = self.blocked + other.blocked
        merged.errors = [*self.errors, *other.errors]
        merged.truncated = self.truncated or other.truncated
        merged.elapsed = max(self.elapsed, other.elapsed)
        merged.stats = self.stats.merge(other.stats)
        merged.phase_times = merge_phase_times(self.phase_times, other.phase_times)
        merged.meta = _merge_meta(self.meta, other.meta)
        if self.keyed and other.keyed:
            seen = {record.key for record in self.execution_records}
            merged.execution_records = list(self.execution_records)
            for record in other.execution_records:
                if record.key not in seen:
                    seen.add(record.key)
                    merged.execution_records.append(record)
            merged.executions = len(merged.execution_records)
            merged.duplicates = (
                self.explored + other.explored - merged.executions
            )
            merged.outcomes = Counter(
                record.outcome for record in merged.execution_records
            )
            merged.final_states = Counter(
                record.final_state for record in merged.execution_records
            )
            merged.execution_graphs = [
                record.graph
                for record in merged.execution_records
                if record.graph is not None
            ]
        else:
            merged.executions = self.executions + other.executions
            merged.duplicates = self.duplicates + other.duplicates
            merged.outcomes = self.outcomes + other.outcomes
            merged.final_states = self.final_states + other.final_states
            merged.execution_graphs = [
                *self.execution_graphs,
                *other.execution_graphs,
            ]
            merged.execution_records = [
                *self.execution_records,
                *other.execution_records,
            ]
        return merged

    def summary(self) -> str:
        lines = [
            f"program   : {self.program}",
            f"model     : {self.model}",
            f"executions: {self.executions}",
            f"blocked   : {self.blocked}",
            f"duplicates: {self.duplicates}",
            f"errors    : {len(self.errors)}",
            f"time      : {self.elapsed:.3f}s",
        ]
        if self.errors:
            lines.append(f"first error: {self.errors[0]}")
        if self.outcomes:
            lines.append("outcomes:")
            for outcome, count in sorted(self.outcomes.items()):
                shown = ", ".join(f"{k}={v}" for k, v in outcome)
                lines.append(f"  {{{shown}}}: {count}")
        return "\n".join(lines)

    def stats_summary(self) -> str:
        """The exploration counters plus (when observed) the per-phase
        time breakdown, as aligned text."""
        lines = ["stats:"]
        for name, value in self.stats.as_dict().items():
            lines.append(f"  {name:30s} {value}")
        if self.phase_times:
            from ..obs import format_phase_table

            lines.append("time by phase:")
            lines.extend(format_phase_table(self.phase_times))
        return "\n".join(lines)
