"""Exploration options.

The flags mirror the ablations in the evaluation: backward revisits
and the maximality condition can be disabled (experiment A1), and
incremental consistency checking can be turned off (A2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


def check_task_timeout(value: float | None) -> float | None:
    """The one rule for a ``task_timeout``: None (no timeout) or a
    finite number of seconds > 0.  Returns ``value``; anything else is
    a :class:`ValueError` naming ``task_timeout``.

    ``value <= 0`` alone is not enough: NaN compares False with every
    number, so it would pass and turn each supervisor wait into a
    zero-second poll that never expires a hung task.
    """
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ValueError(
            f"task_timeout must be a finite number > 0 or None, got {value}"
        )
    return value


#: annotation -> the one type a field so annotated accepts (plus None
#: when the annotation allows it)
_STRICT_TYPES = {"bool": bool, "int": int}


@dataclass(frozen=True)
class ExplorationOptions:
    """Tuning knobs for :class:`repro.core.explorer.Explorer`."""

    #: stop after this many consistent executions (None = exhaustive)
    max_executions: int | None = None
    #: hard safety bound on events per execution graph
    max_events: int = 10_000
    #: hard safety bound on explored complete graphs (None = unlimited)
    max_explored: int | None = None
    #: abort the search at the first assertion failure
    stop_on_error: bool = True
    #: enable backward revisits (disabling loses executions — ablation A1)
    backward_revisits: bool = True
    #: enforce the TruSt maximality condition on deleted events
    #: (disabling multiplies duplicates — ablation A1)
    maximality_check: bool = True
    #: deduplicate complete executions by canonical graph hashing
    deduplicate: bool = True
    #: check model consistency after every event addition instead of
    #: only at completion (ablation A2)
    incremental_checks: bool = True
    #: record every complete execution graph in the result (tests)
    collect_executions: bool = False
    #: re-run all threads after each backward revisit and verify the
    #: kept labels replay identically (cheap, and required for
    #: dependency-prefix revisits; only disable in experiments)
    validate_revisits: bool = True
    #: worker processes for subtree-parallel exploration: None = serial
    #: (unless the ``REPRO_JOBS`` environment variable overrides it),
    #: 0 = one per CPU, N >= 1 = exactly N (1 degenerates to serial)
    jobs: int | None = None
    #: record one (canonical key, outcome, final state) record per
    #: distinct execution, enabling cross-process merge reconciliation
    #: (set automatically on parallel workers)
    collect_keys: bool = False
    #: wall-clock seconds a parallel subtree task may run before the
    #: coordinator declares it hung, kills the pool workers and retries
    #: it (None = no timeout; serial runs ignore this)
    task_timeout: float | None = None
    #: how many times a failed/crashed/timed-out subtree task is
    #: resubmitted to the pool before the coordinator gives up on the
    #: pool and re-explores that subtree serially itself
    task_retries: int = 2

    def __post_init__(self) -> None:
        # flags must be bools and counts ints: truthiness would read
        # "false" as on, and a bool count is silently 0 or 1
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is None and spec.type.endswith("None"):
                continue
            expected = _STRICT_TYPES.get(spec.type.split()[0])
            if expected is not None and type(value) is not expected:
                raise TypeError(
                    f"{spec.name} must be {expected.__name__}, got {value!r}"
                )
        if self.max_events <= 0:
            raise ValueError(
                f"max_events must be positive, got {self.max_events}"
            )
        if self.max_executions is not None and self.max_executions < 0:
            raise ValueError(
                f"max_executions must be >= 0 or None, got {self.max_executions}"
            )
        if self.max_explored is not None and self.max_explored < 0:
            raise ValueError(
                f"max_explored must be >= 0 or None, got {self.max_explored}"
            )
        if self.jobs is not None and self.jobs < 0:
            raise ValueError(f"jobs must be >= 0 or None, got {self.jobs}")
        check_task_timeout(self.task_timeout)
        if self.task_retries < 0:
            raise ValueError(
                f"task_retries must be >= 0, got {self.task_retries}"
            )


def resolve_options(
    options: ExplorationOptions | None,
    overrides: dict,
    **defaults,
) -> ExplorationOptions:
    """Resolve the ``options`` / keyword-override convention every
    option-bearing entry point shares.

    Callers accept either a full :class:`ExplorationOptions` object
    *or* keyword overrides (applied on top of the entry point's
    ``defaults``) — never both.  This helper is the single
    implementation of that rule, so the error message and precedence
    are identical across :func:`repro.verify`,
    :func:`repro.count_executions`, :func:`repro.run_litmus`,
    :func:`repro.compare_models`, :func:`repro.synthesize_fences` and
    :func:`repro.run_suite`.
    """
    if options is None:
        merged = dict(defaults)
        merged.update(overrides)
        return ExplorationOptions(**merged)
    if overrides:
        raise ValueError(
            "pass either options=... or keyword option overrides, not both"
        )
    return options
