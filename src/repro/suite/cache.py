"""Content-addressed result cache for batched suite runs.

A suite task's verdict is a pure function of the program, the memory
model, the result-relevant exploration options and the checker's code
version — so its result can be cached under the hash of exactly those
inputs and served on any later run with identical content.  Scheduling
knobs (``jobs``, ``task_timeout``, ``task_retries``) and collection
toggles never change what a deterministic exploration *finds*, so
they are excluded from the key: serial and parallel runs of the same
task share one cache entry.

Entries are flat JSON files (``<key>.json``) holding the
:func:`repro.core.report.to_dict` rendering of the result plus the
litmus verdict fields, written atomically.  The code version is part
of the key, so a new checker release simply misses the old entries —
no invalidation pass is ever needed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time

from ..core.config import ExplorationOptions
from ..core.report import to_dict

#: bump when the entry payload layout or the meaning of its counts
#: changes (part of the key, so a bump orphans old entries rather than
#: misreading them).  2: a pooled task's counts are always those of a
#: whole run; schema-1 entries may hold a sharded run's blocked and
#: duplicate counts.  3: ``stats.consistency_checks`` leaves out the
#: checks a revisit twin no longer runs (docs/ALGORITHM.md).  4:
#: ``blocked`` leaves out a write whose only continuations are dropped
#: revisit repeats.
CACHE_SCHEMA_VERSION = 4

#: the ``kind`` tag inside every entry file
CACHE_ENTRY_KIND = "repro-suite-cache-entry"

#: environment override for the cache directory
CACHE_DIR_ENV = "REPRO_SUITE_CACHE_DIR"

#: environment override for the cache size cap, in megabytes (unset or
#: empty = unlimited) — a long-lived server prunes after every store
CACHE_MAX_MB_ENV = "REPRO_SUITE_CACHE_MAX_MB"

DEFAULT_CACHE_DIR = os.path.join(".repro", "suite-cache")

#: option fields that only steer *how* the search runs, never what it
#: finds — excluded from the cache key
SCHEDULING_FIELDS = frozenset(
    {
        "jobs",
        "task_timeout",
        "task_retries",
        "collect_keys",
        "collect_executions",
    }
)


def _code_version() -> str:
    # late import: repro/__init__ imports repro.suite
    from .. import __version__

    return __version__


def program_fingerprint(program) -> str:
    """A stable content string for a program: its frozen dataclass
    tree (enums and primitives) reprs deterministically within one
    code version, and the code version is hashed alongside."""
    return repr((program.name, program.threads, program.observables))


def model_fingerprint(model) -> list:
    """The model's identity for hashing: declarative models are their
    source text; built-in models are their import path (their axioms
    only change with the code version, which is hashed separately)."""
    spec = getattr(model, "spec", None)
    source = getattr(spec, "source", None)
    if source is not None:
        return ["cat", model.name, source]
    cls = type(model)
    return ["class", model.name, f"{cls.__module__}.{cls.__qualname__}"]


def options_fingerprint(options: ExplorationOptions) -> dict:
    """The result-relevant option fields, sorted for stable hashing."""
    fields = {
        name: value
        for name, value in vars(options).items()
        if name not in SCHEDULING_FIELDS
    }
    return dict(sorted(fields.items()))


def task_key(
    program,
    model,
    options: ExplorationOptions,
    *,
    kind: str = "program",
    probe: str | None = None,
) -> str:
    """The content hash identifying one suite task's result."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": _code_version(),
        "kind": kind,
        "probe": probe,
        "program": program_fingerprint(program),
        "model": model_fingerprint(model),
        "options": options_fingerprint(options),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _env_max_mb() -> float | None:
    raw = os.environ.get(CACHE_MAX_MB_ENV)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


class ResultCache:
    """A flat directory of content-addressed suite task results.

    ``max_mb`` caps the directory's total size: after every
    :meth:`store` the least-recently-written older entries (LRU by
    file mtime) are pruned until the cap holds again, so a long-lived
    server cannot grow the cache without bound.  The entry just
    written always stays, even when it alone exceeds the cap.
    ``None`` defers to ``REPRO_SUITE_CACHE_MAX_MB`` (unset =
    unlimited).
    """

    def __init__(
        self, root: str | None = None, max_mb: float | None = None
    ) -> None:
        self.root = (
            root
            if root is not None
            else os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        )
        self.max_mb = max_mb if max_mb is not None else _env_max_mb()

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def keys(self) -> list[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(self.root)
            if name.endswith(".json")
        )

    def __len__(self) -> int:
        return len(self.keys())

    def load(self, key: str) -> dict | None:
        """The entry stored under ``key``, or None.  Unreadable or
        foreign files are treated as misses, never as errors — a cache
        must degrade to recomputation."""
        path = self.path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("kind") != CACHE_ENTRY_KIND
            or entry.get("schema") != CACHE_SCHEMA_VERSION
            or entry.get("key") != key
        ):
            return None
        return entry

    def store(
        self,
        key: str,
        result,
        *,
        task: dict,
        observed: bool | None = None,
        created: float | None = None,
    ) -> str:
        """Persist ``result`` (a VerificationResult) under ``key``;
        returns the path written.  ``task`` is a small descriptive dict
        (id/kind/program/model) kept for humans inspecting the cache;
        the key alone addresses the entry."""
        os.makedirs(self.root, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": CACHE_ENTRY_KIND,
            "key": key,
            "created": time.time() if created is None else created,
            "task": task,
            "observed": observed,
            "result": to_dict(result),
        }
        path = self.path(key)
        # the tmp name carries the pid and thread id so no two writers
        # storing the same key ever share a tmp file; os.replace makes
        # the publish atomic either way (last writer wins, and a reader
        # only ever sees a complete entry)
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        # json.dump always runs the pure-Python encoder; dumps uses C
        text = json.dumps(entry, sort_keys=True) + "\n"
        try:
            with open(tmp, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - error path
                try:
                    os.remove(tmp)
                except OSError:
                    pass
        if self.max_mb is not None:
            self.prune(keep=path)
        return path

    def prune(
        self, max_mb: float | None = None, *, keep: str | None = None
    ) -> int:
        """Evict least-recently-written entries until the directory is
        within ``max_mb`` (defaults to the cache's cap), never the
        entry at path ``keep``; returns how many entries were removed.
        Concurrent pruners racing over the same files are harmless — a
        vanished file just counts as already pruned."""
        cap = self.max_mb if max_mb is None else max_mb
        if cap is None:
            return 0
        entries = []
        for key in self.keys():
            path = self.path(key)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((path == keep, stat.st_mtime, stat.st_size, path))
        total = sum(size for _, _, size, _ in entries)
        budget = cap * 1024 * 1024
        removed = 0
        # the kept entry sorts last, so eviction stops when it is reached
        for kept, _, size, path in sorted(entries):
            if kept or total <= budget:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            removed += 1
        return removed

    def evict(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        try:
            os.remove(self.path(key))
        except FileNotFoundError:
            return False
        return True

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        for key in self.keys():
            removed += self.evict(key)
        return removed
