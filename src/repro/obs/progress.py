"""Progress heartbeat for long explorations.

A :class:`ProgressReporter` is ticked once per completed (or blocked)
graph by the explorer and the baselines; it prints a one-line
heartbeat to stderr every *N* graphs and/or every *T* seconds,
whichever fires first.  Exploration loops stay oblivious to the
policy — they just call :meth:`ProgressReporter.tick`.

The cadence can be set without touching code through the
``REPRO_PROGRESS_EVERY`` environment variable: a comma- or
space-separated list of tokens where a bare integer means *graphs*
and a number suffixed ``s`` means *seconds* — ``"500"``, ``"2s"``
and ``"1000,5s"`` are all valid.  Explicit constructor arguments win
over the environment.
"""

from __future__ import annotations

import math
import os
import sys
import time

#: environment variable holding the default heartbeat cadence
PROGRESS_ENV = "REPRO_PROGRESS_EVERY"


def check_cadence(
    every_graphs: int | None, every_seconds: float | None
) -> tuple[int | None, float | None]:
    """The one rule for both heartbeat cadences: ``every_graphs`` is
    None or an integer > 0, ``every_seconds`` None or a finite number
    of seconds > 0.  Returns them; anything else is a
    :class:`ValueError` naming the cadence.

    ``<= 0`` alone is not enough for seconds: NaN compares False with
    every number, so it would pass and never fire a periodic beat.
    """
    if every_graphs is not None and (
        type(every_graphs) is not int or every_graphs <= 0
    ):
        raise ValueError(
            "heartbeat graph count must be an integer > 0, "
            f"got {every_graphs!r}"
        )
    if every_seconds is not None and not (
        math.isfinite(every_seconds) and every_seconds > 0
    ):
        raise ValueError(
            "heartbeat seconds must be a finite number > 0, "
            f"got {every_seconds!r}"
        )
    return every_graphs, every_seconds


def parse_progress_spec(spec: str) -> tuple[int | None, float | None]:
    """Parse a ``REPRO_PROGRESS_EVERY`` value into
    ``(every_graphs, every_seconds)``.

    Raises :class:`ValueError` on malformed tokens, naming the token —
    a silent fallback would make a typo'd cadence indistinguishable
    from the default.
    """
    every_graphs: int | None = None
    every_seconds: float | None = None
    for token in spec.replace(",", " ").split():
        try:
            if token.lower().endswith("s"):
                every_seconds = float(token[:-1])
            else:
                every_graphs = int(token)
        except ValueError:
            raise ValueError(
                f"bad {PROGRESS_ENV} token {token!r}: expected an integer "
                "(graphs) or a number suffixed 's' (seconds), "
                "e.g. '500', '2s' or '1000,5s'"
            ) from None
    try:
        return check_cadence(every_graphs, every_seconds)
    except ValueError as exc:
        raise ValueError(f"bad {PROGRESS_ENV}: {exc}") from None


class ProgressReporter:
    """Emit heartbeat lines every ``every_graphs`` ticks or
    ``every_seconds`` seconds (either may be None; both follow
    :func:`check_cadence`)."""

    def __init__(
        self,
        every_graphs: int | None = None,
        every_seconds: float | None = None,
        stream=None,
        clock=time.monotonic,
        label: str = "explore",
    ) -> None:
        if every_graphs is None and every_seconds is None:
            env = os.environ.get(PROGRESS_ENV)
            if env:
                every_graphs, every_seconds = parse_progress_spec(env)
        if every_graphs is None and every_seconds is None:
            every_seconds = 2.0
        check_cadence(every_graphs, every_seconds)
        self.every_graphs = every_graphs
        self.every_seconds = every_seconds
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self.label = label
        self._start = clock()
        self._last_time = self._start
        self._ticks = 0
        self._ticks_at_last = 0
        #: heartbeat lines actually printed
        self.beats = 0

    def tick(self, **counts) -> None:
        """Account one unit of progress; print a heartbeat when due."""
        self._ticks += 1
        due = False
        if (
            self.every_graphs is not None
            and self._ticks - self._ticks_at_last >= self.every_graphs
        ):
            due = True
        now = self._clock()
        if (
            self.every_seconds is not None
            and now - self._last_time >= self.every_seconds
        ):
            due = True
        if due:
            self._beat(now, counts)

    def finish(self, **counts) -> None:
        """Print the final heartbeat line.

        Always emits, even when no periodic beat fired: a run short
        enough to finish inside one interval still deserves its one
        summary line (a silent finish made ``--progress`` look broken
        on small programs)."""
        self._beat(self._clock(), counts, final=True)

    def _beat(self, now: float, counts: dict, final: bool = False) -> None:
        self.beats += 1
        self._last_time = now
        self._ticks_at_last = self._ticks
        elapsed = now - self._start
        rate = self._ticks / elapsed if elapsed > 0 else 0.0
        shown = " ".join(f"{k}={v}" for k, v in counts.items())
        tag = "done" if final else "progress"
        print(
            f"[{self.label} {tag}] {self._ticks} graphs "
            f"in {elapsed:.1f}s ({rate:.0f}/s){' ' if shown else ''}{shown}",
            file=self.stream,
        )
