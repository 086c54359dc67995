"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed (the program
under test receives only those inputs), runs one fixed unit of work
per :meth:`Workload.round`, and checks every result against a reference
that does not come from the code under test: the literature table in
``repro.litmus.expectations``, the herd-style brute force in
``repro.baselines.exhaustive``, counts pinned in ``reference.json``, or
the direct API for the same task (the service).

A round returns a :class:`Round`: its wall time, one latency per
operation (a ``verify()`` call, a suite task or a service job), the
consistent executions found, and the raw results the checks and the
per-layer counts read.  Failed operations are recorded on the workload
as ``{(round, operation): reason}``.
"""

from __future__ import annotations

import glob
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))

#: the nine built-in models, in the literature table's column order
MODELS = ("sc", "tso", "pso", "ra", "rc11", "imm", "armv8", "power", "coherence")


@dataclass
class Round:
    wall: float
    #: (operation id, seconds) per operation, in completion order
    ops: list
    executions: int
    #: workload-specific raw results (for checks and per-layer counts)
    results: object = None
    #: ``wall`` and ``ops`` scaled to the reference speed (calibrate.py)
    scaled_wall: float = 0.0
    scaled_ops: list = field(default_factory=list)
    #: (start, end) of each timed segment on the ``perf_counter`` clock;
    #: ``wall`` is their total, and probes or server start-up between
    #: them are not part of it
    windows: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Timeline:
    """A round's work timed in segments with calibration probes between
    them; each segment is scaled by the probes on either side of it."""

    def __init__(self, probes: int = 2) -> None:
        self.probes = probes
        self._before = calibrate.probes(probes)
        self.wall = self.scaled_wall = 0.0
        self.ops: list = []
        self.scaled_ops: list = []
        self.windows: list = []

    def segment(self, start: float, end: float, ops: list) -> None:
        after = calibrate.probes(self.probes)
        factor = calibrate.speed_factor(self._before + after)
        self._before = after
        wall = end - start
        self.windows.append((start, end))
        self.wall += wall
        self.scaled_wall += wall * factor
        self.ops += ops
        self.scaled_ops += [(op, seconds * factor) for op, seconds in ops]

    def round(self, executions: int, results) -> Round:
        return Round(
            self.wall, self.ops, executions, results,
            self.scaled_wall, self.scaled_ops, self.windows,
        )


def outcome_map(pairs) -> dict:
    """``{outcome: count}`` with each outcome rendered ``reg@tid=v,...``;
    accepts a ``Counter`` of outcome tuples or ``to_dict``'s list."""
    out = {}
    if isinstance(pairs, Counter):
        items = [(dict(key), count) for key, count in pairs.items()]
    else:
        items = [(row["observation"], row["count"]) for row in pairs]
    for observation, count in items:
        key = ",".join(f"{k}={v}" for k, v in sorted(observation.items()))
        out[key] = out.get(key, 0) + count
    return out


def slug(program_name: str) -> str:
    """``seqlock(2,2)`` -> ``seqlock-2-2`` (metric-name safe)."""
    out = program_name.replace("(", "-").replace(",", "-").replace(")", "")
    return out.strip("-")


def add_counts(out: Counter, executions, blocked, duplicates, stats: dict) -> None:
    """Add one result's exploration counts and its ``revisits_*``
    statistics to ``out``."""
    out["explorer.executions"] += executions
    out["explorer.blocked"] += blocked
    out["explorer.duplicates"] += duplicates
    for name, value in stats.items():
        if name.startswith("revisits_"):
            out["revisits." + name[len("revisits_"):]] += value


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""
    #: every measured phase runs at least this many rounds
    min_rounds = 3
    #: keep every round's raw results until the end (for final_check);
    #: otherwise only the last round's are kept
    keep_results = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.failures: dict = {}
        self.attempted = 0

    def fail(self, round_no: int, op: str, reason: str) -> None:
        self.failures.setdefault((round_no, op), reason)

    @property
    def inputs(self) -> dict:
        return {}

    def ready(self):
        """Whatever must exist before the first operation beyond the
        inputs; returns an object with ``stop()``, or None."""
        return None

    def round(self, round_no: int) -> Round:
        raise NotImplementedError

    def check(self, round_no: int, rnd: Round) -> None:
        """Per-round correctness checks (cheap; run on every round)."""

    def final_check(self, rounds: list) -> None:
        """Checks that run once, after the measured phase."""

    def counts(self, rnd: Round) -> dict:
        """Per-layer counts the program itself reports for one round."""
        return {}


# -- deep-verify and shard ---------------------------------------------------


def _corpus(entries):
    from repro.bench.workloads import (
        ainc,
        barrier,
        fib_bench,
        lastzero,
        peterson,
        sb_n,
        seqlock,
        ticket_lock,
    )

    factories = {
        "seqlock": seqlock,
        "fib": fib_bench,
        "ticket-lock": ticket_lock,
        "barrier": barrier,
        "ainc": ainc,
        "lastzero": lastzero,
        "peterson": peterson,
        "sb": sb_n,
    }
    out = []
    for family, args, model, options in entries:
        program = factories[family](*args)
        out.append((f"{program.name}/{model}", program, model, dict(options)))
    return out


#: the corpus of benchmarks/test_i1_incremental.py plus four entries
#: that reach the other models
DEEP_ENTRIES = (
    ("seqlock", (2, 2), "rc11", {}),
    ("fib", (3,), "tso", {}),
    ("ticket-lock", (3,), "sc", {}),
    ("barrier", (3,), "ra", {}),
    ("ainc", (4,), "imm", {}),
    ("ticket-lock", (3,), "imm", {"stop_on_error": False}),
    ("lastzero", (3,), "armv8", {}),
    ("peterson", (False,), "power", {"stop_on_error": False}),
    ("sb", (5,), "pso", {}),
)

#: sharded with jobs=2 (the only path through split_frontier and the
#: key-merge reconciliation)
SHARD_ENTRIES = (
    ("sb", (8,), "tso", {"jobs": 2}),
    ("fib", (3,), "tso", {"jobs": 2}),
    ("lastzero", (4,), "imm", {"jobs": 2}),
    ("ainc", (4,), "imm", {"jobs": 2}),
)


class _CorpusWorkload(Workload):
    """Serial passes of ``verify()`` over a fixed corpus; the seed sets
    the order of the entries within each pass."""

    entries: tuple = ()
    metric_suffix = ""

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.corpus = _corpus(self.entries)
        self.reference = load_reference()[self.name]
        self.first_counts: dict = {}
        #: builds the observer each verify() call runs under (None: the
        #: default null observer)
        self.observer_factory = None

    @property
    def inputs(self) -> dict:
        return {"entries": len(self.corpus)}

    def entry_metric(self, key: str) -> str:
        program, model = key.rsplit("/", 1)
        return f"entry.{slug(program)}.{model}{self.metric_suffix}.ms"

    def round(self, round_no: int) -> Round:
        from repro import verify
        from repro.obs import NULL_OBSERVER

        order = list(self.corpus)
        self.rng.shuffle(order)
        timeline, results = Timeline(), {}
        for key, program, model, options in order:
            observer = (
                self.observer_factory()
                if self.observer_factory is not None
                else NULL_OBSERVER
            )
            t0 = time.perf_counter()
            try:
                result = verify(program, model, observer=observer, **options)
            except Exception as exc:  # a failed operation, not a crash
                self.fail(round_no, key, f"{type(exc).__name__}: {exc}")
                result = None
            t1 = time.perf_counter()
            timeline.segment(t0, t1, [(key, t1 - t0)])
            results[key] = result
        self.attempted += len(order)
        executions = sum(r.executions for r in results.values() if r)
        return timeline.round(executions, results)

    #: serial runs must repeat every count exactly between rounds
    deterministic = False

    def check(self, round_no: int, rnd: Round) -> None:
        """Against the pinned serial reference: an entry that stops at
        its first error must find one; every other entry must find the
        same executions and outcome multiset, and errors iff the
        reference has them.  Blocked/duplicate counts are not
        correctness (a better exploration lowers them), but a serial
        workload must repeat them exactly from round to round."""
        for key, result in rnd.results.items():
            if result is None:
                continue
            want = self.reference[key]
            problems = []
            if bool(result.errors) != (want["errors"] > 0):
                problems.append(f"errors {len(result.errors)} vs {want['errors']}")
            if result.truncated != want["truncated"]:
                problems.append(f"truncated {result.truncated}")
            if not want["truncated"]:
                if result.executions != want["executions"]:
                    problems.append(
                        f"executions {result.executions} vs {want['executions']}"
                    )
                if outcome_map(result.outcomes) != want["outcomes"]:
                    problems.append("outcome multiset differs")
            if self.deterministic:
                counts = (
                    result.executions,
                    result.blocked,
                    result.duplicates,
                    result.stats.as_dict(),
                )
                first = self.first_counts.setdefault(key, counts)
                if counts != first:
                    problems.append("counts differ between rounds")
            if problems:
                self.fail(round_no, key, "; ".join(problems))

    def counts(self, rnd: Round) -> dict:
        out = Counter()
        for result in rnd.results.values():
            if result is None:
                continue
            add_counts(
                out, result.executions, result.blocked, result.duplicates,
                result.stats.as_dict(),
            )
            out["parallel.tasks"] += result.meta.get("tasks", 0)
        return dict(out)


class DeepVerify(_CorpusWorkload):
    name = "deep-verify"
    entries = DEEP_ENTRIES
    deterministic = True


class Shard(_CorpusWorkload):
    """Sharded results must equal the serial ones (pinned): executions,
    outcome multiset and errors.  Blocked and duplicate counts depend
    on how the subtrees were scheduled, so they are reported only."""

    name = "shard"
    entries = SHARD_ENTRIES
    metric_suffix = ".jobs2"

    def round(self, round_no: int) -> Round:
        """The corpus pass, with the peak RSS of this process and its
        pool workers (which exit within each ``verify()`` call) sampled
        while it runs."""
        with TreePeak(os.getpid()) as peak:
            rnd = super().round(round_no)
        rnd.extra["rss_mb"] = peak.mb
        return rnd

    def counts(self, rnd: Round) -> dict:
        out = super().counts(rnd)
        out["parallel.duplicates"] = out["explorer.duplicates"]
        return out


# -- litmus-matrix -------------------------------------------------------------

#: random-block shape: every program has exactly this many threads and
#: statements per thread
RANDOM_THREADS = 2
RANDOM_STMTS = 3
#: how many programs of each static choice count (see choice_count) the
#: block holds; the quota keeps the block's cost nearly the same on
#: every seed while the programs themselves differ, and keeps its tasks
#: out of the matrix's slowest twentieth, which fixed litmus tasks fill
RANDOM_QUOTA = {2: 6, 4: 5, 6: 5}


def _accesses(stmts, tid: int, out: list) -> None:
    from repro.lang.stmt import If, Load, Store

    for stmt in stmts:
        if isinstance(stmt, Store):
            out.append(("W", tid, str(stmt.loc)))
        elif isinstance(stmt, Load):
            out.append(("R", tid, str(stmt.loc)))
        elif isinstance(stmt, If):
            _accesses(stmt.then, tid, out)
            _accesses(stmt.orelse, tid, out)


def choice_count(program) -> int:
    """A static bound on a program's rf/co choices, read off its text:
    every order of each location's writes, times, for every read, the
    other threads' writes to its location plus one.  It tracks the
    checker's execution counts closely without running the checker."""
    accesses: list = []
    for tid, thread in enumerate(program.threads):
        _accesses(thread, tid, accesses)
    writes = Counter(loc for kind, _tid, loc in accesses if kind == "W")
    count = 1
    for n in writes.values():
        count *= math.factorial(n)
    for kind, tid, loc in accesses:
        if kind == "R":
            count *= 1 + sum(
                1 for k, t, l in accesses if k == "W" and l == loc and t != tid
            )
    return count


def random_block(seed: int) -> list:
    """Seeded random programs of one fixed shape, filling
    :data:`RANDOM_QUOTA` in the order the generator draws them.

    RMWs are left out: CAS chains under the porf-cyclic models can hit
    the checker's one documented completeness gap, and this workload
    must have no failing operation.
    """
    from repro.util.randprog import RandomProgramGenerator

    gen = RandomProgramGenerator(
        seed,
        with_rmws=False,
        max_threads=RANDOM_THREADS,
        max_stmts=RANDOM_STMTS,
    )
    need = dict(RANDOM_QUOTA)
    out, index = [], 0
    while any(need.values()):
        program = gen.program(index)
        index += 1
        if program.num_threads != RANDOM_THREADS or any(
            len(thread) != RANDOM_STMTS for thread in program.threads
        ):
            continue
        count = choice_count(program)
        if need.get(count, 0) > 0:
            need[count] -= 1
            out.append(program)
    return out


def shipped_cat_models(root: str) -> list:
    """The shipped ``models/cat/*.cat`` files, renamed ``<stem>-cat`` so
    their task ids differ from the built-in twins'."""
    from repro import load_cat

    paths = sorted(glob.glob(os.path.join(root, "src", "repro", "models", "cat", "*.cat")))
    return [
        load_cat(path, name=os.path.basename(path)[: -len(".cat")] + "-cat")
        for path in paths
    ]


class LitmusMatrix(Workload):
    """Per round, a serial ``run_suite`` over a fresh cache directory:
    every catalog litmus test under the nine built-in and four shipped
    ``.cat`` models, plus a seeded block of random programs under the
    nine built-in models.  The matrix runs one model column per
    ``run_suite`` call, so calibration probes can sit between columns;
    each call is one operation of the latency metrics, timed here."""

    name = "litmus-matrix"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        from repro import litmus_matrix, litmus_names, program_task

        self.cat_models = shipped_cat_models(os.path.dirname(HERE))
        self.programs = random_block(seed)
        models = list(MODELS) + self.cat_models
        self.columns = [
            litmus_matrix(litmus_names(), models=[model]) for model in models
        ]
        self.litmus_count = sum(len(column) for column in self.columns)
        self.columns += [
            [program_task(p, model, collect_keys=True) for p in self.programs]
            for model in MODELS
        ]
        self.column_ids = [
            f"litmus/{getattr(model, 'name', model)}" for model in models
        ] + [f"random/{model}" for model in MODELS]
        self.tasks = [task for column in self.columns for task in column]
        self.first_counts: dict | None = None

    @property
    def inputs(self) -> dict:
        return {
            "tasks": len(self.tasks),
            "litmus_tasks": self.litmus_count,
            "random_programs": len(self.programs),
            "cat_models": len(self.cat_models),
        }

    def round(self, round_no: int) -> Round:
        from repro import run_suite

        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        timeline, results = Timeline(), []
        try:
            for column_id, column in zip(self.column_ids, self.columns):
                start = time.perf_counter()
                try:
                    suite = run_suite(
                        column, jobs=1, cache=cache_dir, seed=self.seed
                    )
                except Exception as exc:
                    self.fail(round_no, column_id, f"{type(exc).__name__}: {exc}")
                    results += [None] * len(column)
                    timeline.segment(start, time.perf_counter(), [])
                    continue
                end = time.perf_counter()
                timeline.segment(start, end, [(column_id, end - start)])
                results += suite.tasks
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.attempted += len(self.tasks)
        executions = sum(t.result.executions for t in results if t)
        rnd = timeline.round(executions, results)
        rnd.extra["tasks"] = sum(1 for t in results if t)
        return rnd

    def check(self, round_no: int, rnd: Round) -> None:
        from repro.litmus.expectations import allowed

        counts = {}
        for task, res in zip(self.tasks, rnd.results):
            if res is None:
                continue
            op = res.task_id
            counts[op] = (res.result.executions, res.result.blocked)
            if res.cached:
                self.fail(round_no, op, "served from a cache that should be empty")
            if res.result.truncated:
                self.fail(round_no, op, "truncated")
            if task.kind == "litmus":
                base = task.model.name.removesuffix("-cat")
                want = allowed(task.probe.name, base)
                if res.verdict is None or res.verdict.observed != want:
                    self.fail(round_no, op, f"verdict != literature ({want})")
        if self.first_counts is None:
            self.first_counts = counts
        for op, value in counts.items():
            if value != self.first_counts.get(op):
                self.fail(round_no, op, "counts differ between rounds")

    def final_check(self, rounds: list) -> None:
        """Every random-block result of the last round against the
        brute-force enumeration of the same program and model."""
        from repro.baselines.exhaustive import brute_force

        round_no = len(rounds) - 1
        for task, res in zip(self.tasks, rounds[-1].results):
            if task.kind != "program" or res is None:
                continue
            bf = brute_force(task.program, task.model)
            keys = {record.key for record in res.result.execution_records}
            if keys != bf.keys or res.result.executions != bf.executions:
                self.fail(
                    round_no,
                    res.task_id,
                    f"execution set != brute force "
                    f"({res.result.executions} vs {bf.executions})",
                )

    def counts(self, rnd: Round) -> dict:
        out = Counter()
        served = [res for res in rnd.results if res is not None]
        for res in served:
            result = res.result
            add_counts(
                out, result.executions, result.blocked, result.duplicates,
                result.stats.as_dict(),
            )
        out["suite.cache.hits"] = sum(1 for res in served if res.cached)
        out["suite.cache.lookups"] = len(served)
        return dict(out)


# -- service-mixed -------------------------------------------------------------

#: mid-size family programs (20-50 ms per model through the direct
#: API), each submitted as a verify job under every built-in model
SERVICE_FAMILIES = (
    ("sb", 5),
    ("ainc", 3),
    ("fib", 2),
    ("lastzero", 3),
)
#: catalog litmus tests per round, each under a seeded model
SERVICE_LITMUS = 14
#: distinct jobs submitted a second time each round (a cache read); the
#: other 17 of the 50 run once, so 40% of the jobs are repeats.  With
#: exactly half, the median latency fell in the gap between the cached
#: and the new jobs, and its IQR/median over five seeds was 0.28.
SERVICE_REPEATS = 33
#: clients, each closed-loop (waits for its result before submitting)
SERVICE_CLIENTS = 2
SERVICE_POOL_JOBS = 2
#: a round's job sequence runs in this many blocks, with calibration
#: probes between blocks (both clients finish a block before the next):
#: the server's speed drifts within a round, and one speed factor per
#: round left the latency spread wider than the raw one
SERVICE_BLOCKS = 4


def _descendants(pid: int) -> list:
    """``pid`` and every live descendant (from /proc)."""
    children: dict[int, list] = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        child = int(stat.split("/")[2])
        children.setdefault(int(fields[1]), []).append(child)
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(children.get(current, []))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of per-process peak RSS (VmHWM) over a process tree."""
    total_kb = 0
    for proc in _descendants(pid):
        try:
            with open(f"/proc/{proc}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class TreePeak:
    """Samples :func:`tree_peak_rss_mb` on a thread while the ``with``
    block runs, so a child that exits inside the block still counts;
    ``mb`` is the largest sample."""

    INTERVAL_S = 0.05

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.mb = 0.0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.mb = max(self.mb, tree_peak_rss_mb(self.pid))
            if self._done.wait(self.INTERVAL_S):
                return

    def __enter__(self) -> "TreePeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        self.mb = max(self.mb, tree_peak_rss_mb(self.pid))


class Server:
    """``hmc serve`` as a subprocess on an ephemeral port, with its own
    fresh cache directory."""

    def __init__(self, workdir: str, env: dict) -> None:
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        port_file = os.path.join(self.dir, "port")
        self.log = open(os.path.join(self.dir, "server.log"), "w+b")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--port-file", port_file,
                "--jobs", str(SERVICE_POOL_JOBS),
                "--cache-dir", os.path.join(self.dir, "cache"),
                "--quiet",
            ],
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.port_file = port_file
        self.url = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        from urllib import error, request

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                self.log.seek(0)
                tail = self.log.read().decode(errors="replace")[-2000:]
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: {tail}"
                )
            if self.url is None and os.path.exists(self.port_file):
                with open(self.port_file, encoding="ascii") as fh:
                    text = fh.read().strip()
                if text:
                    self.url = f"http://127.0.0.1:{int(text)}"
            if self.url is not None:
                try:
                    with request.urlopen(self.url + "/readyz", timeout=5) as resp:
                        if resp.status == 200:
                            return
                except (error.URLError, OSError):
                    pass
            time.sleep(0.01)
        raise RuntimeError("server not ready in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def _metric(text: str, family: str, labels: str = "") -> float:
    for line in text.splitlines():
        if line.startswith(family + labels + " "):
            return float(line.split()[-1])
    return 0.0


class ServiceMixed(Workload):
    """Per round: a fresh ``hmc serve --jobs 2`` and two closed-loop
    clients working through a seeded sequence of verify and litmus
    jobs.  The verify jobs are fixed (every family under every model);
    the seed picks the litmus tests and their models.  Each round draws
    its own order and repeats from the seed and the round number (see
    :meth:`sequence`), so a run's latency percentiles pool several
    sequences rather than depend on one."""

    name = "service-mixed"
    keep_results = True
    #: a round is one traffic sequence; five of them (415 jobs) keep the
    #: latency percentiles from resting on the order of a few sequences
    min_rounds = 5

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        from repro.litmus import litmus_names

        verify_jobs = [
            {
                "kind": "verify",
                "program": {"family": family, "n": n},
                "model": model,
            }
            for family, n in SERVICE_FAMILIES
            for model in MODELS
        ]
        litmus_jobs = [
            {"kind": "litmus", "test": test, "model": self.rng.choice(MODELS)}
            for test in self.rng.sample(litmus_names(), SERVICE_LITMUS)
        ]
        self.distinct = verify_jobs + litmus_jobs
        self.env = dict(os.environ)
        self.server_metrics: list[dict] = []
        self._reference: dict | None = None

    def sequence(self, round_no: int) -> list:
        """The round's job sequence, drawn from the seed and the round
        number: every distinct job new once, and :data:`SERVICE_REPEATS`
        of them repeated at a random later point (each step is a new
        job or a repeat of a pending one, evenly)."""
        rng = random.Random(f"{self.seed}:{round_no}")
        fresh = list(range(len(self.distinct)))
        rng.shuffle(fresh)
        repeated = set(fresh[:SERVICE_REPEATS])
        out, pending = [], []
        while fresh or pending:
            if fresh and (not pending or rng.random() < 0.5):
                index = fresh.pop()
                out.append(self.distinct[index])
                if index in repeated:
                    pending.append(index)
            else:
                out.append(self.distinct[pending.pop(rng.randrange(len(pending)))])
        return out

    @property
    def inputs(self) -> dict:
        return {
            "jobs_per_round": len(self.distinct) + SERVICE_REPEATS,
            "distinct_jobs": len(self.distinct),
            "verify_jobs": sum(1 for j in self.distinct if j["kind"] == "verify"),
            "litmus_jobs": sum(1 for j in self.distinct if j["kind"] == "litmus"),
            "clients": SERVICE_CLIENTS,
        }

    @staticmethod
    def job_id(job: dict) -> str:
        if job["kind"] == "verify":
            prog = job["program"]
            return f"verify:{prog['family']}({prog['n']}):{job['model']}"
        return f"litmus:{job['test']}:{job['model']}"

    def ready(self):
        """Spawn a server and wait until ``/readyz`` is 200 (the
        service's share of set-up); the caller stops it."""
        server = Server(self.workdir, self.env)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server

    def round(self, round_no: int) -> Round:
        from repro.service import ServiceClient

        server = self.ready()
        records: list = []
        try:
            timeline = Timeline()
            jobs = list(enumerate(self.sequence(round_no)))
            size = -(-len(jobs) // SERVICE_BLOCKS)
            for first in range(0, len(jobs), size):
                start, end, block = self._run_block(
                    server.url, jobs[first : first + size], round_no
                )
                # every job of every round is its own operation
                timeline.segment(
                    start, end, [(f"{round_no}:{i}:{op}", s) for i, op, s, _d, _st in block]
                )
                records += block
            metrics_text = ServiceClient(server.url).metrics()
            self.server_metrics.append(
                {
                    "cache_hits": _metric(metrics_text, "repro_service_cache_hits_total"),
                    "rejected": _metric(metrics_text, "repro_service_rejected_total"),
                    "done": _metric(metrics_text, "repro_service_jobs_total", '{state="done"}'),
                }
            )
            peak = tree_peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
        self.attempted += len(jobs)
        # executions explored in this round: a repeat served from the
        # cache found none
        executions = sum(
            doc["result"]["executions"]
            for *_rest, doc, _s in records
            if doc and not doc.get("cached")
        )
        rnd = timeline.round(executions, records)
        rnd.extra["rss_mb"] = peak
        return rnd

    def _run_block(self, url: str, jobs: list, round_no: int) -> tuple:
        """The closed-loop clients over one block of ``(index, job)``;
        returns its start and end and ``(index, op, latency, result
        document, status document)`` per job, in sequence order."""
        from repro.service import ServiceClient

        cursor = iter(jobs)
        lock = threading.Lock()
        records = []

        def client_loop() -> None:
            client = ServiceClient(url, timeout=120.0)
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                index, job = item
                op = self.job_id(job)
                started = time.perf_counter()
                try:
                    job_id = client.submit(job)["id"]
                    doc = client.wait(job_id, timeout=120.0)
                    latency = time.perf_counter() - started
                    status = client.status(job_id)
                except Exception as exc:  # a failed job; keep the client going
                    records.append((index, op, time.perf_counter() - started, None, None))
                    self.fail(round_no, f"{index}:{op}", f"{type(exc).__name__}: {exc}")
                    continue
                records.append((index, op, latency, doc, status))

        start = time.perf_counter()
        threads = [threading.Thread(target=client_loop) for _ in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return start, time.perf_counter(), sorted(records)

    def reference(self) -> dict:
        """The direct API's answer for every distinct job."""
        if self._reference is None:
            from repro import get_litmus, run_litmus, verify
            from repro.bench.workloads import FAMILIES

            ref = {}
            for job in self.distinct:
                if job["kind"] == "verify":
                    prog = job["program"]
                    program = FAMILIES[prog["family"]](prog["n"])
                    result = verify(program, job["model"], stop_on_error=False)
                    ref[self.job_id(job)] = {
                        "executions": result.executions,
                        "blocked": result.blocked,
                        "errors": len(result.errors),
                        "outcomes": outcome_map(result.outcomes),
                    }
                else:
                    verdict = run_litmus(get_litmus(job["test"]), job["model"])
                    ref[self.job_id(job)] = {
                        "observed": verdict.observed,
                        "executions": verdict.executions,
                    }
            self._reference = ref
        return self._reference

    def final_check(self, rounds: list) -> None:
        """Every job of every round against the direct API's result for
        the same task (and litmus verdicts against the literature)."""
        from repro.litmus.expectations import allowed

        ref = self.reference()
        for round_no, rnd in enumerate(rounds):
            for index, op, _latency, doc, status in rnd.results:
                if doc is None:
                    continue
                key = f"{index}:{op}"
                if status["state"] != "done" or doc["result"]["truncated"]:
                    self.fail(round_no, key, f"job {status['state']}/truncated")
                    continue
                want = ref[op]
                result = doc["result"]
                if op.startswith("verify:"):
                    got = {
                        "executions": result["executions"],
                        "blocked": result["blocked"],
                        "errors": len(result["errors"]),
                        "outcomes": outcome_map(result["outcomes"]),
                    }
                else:
                    verdict = doc["verdict"]
                    got = {
                        "observed": verdict["observed"],
                        "executions": verdict["executions"],
                    }
                    test, model = op.split(":")[1:]
                    if verdict["observed"] != allowed(test, model):
                        self.fail(round_no, key, "verdict != literature")
                if got != want:
                    self.fail(round_no, key, f"{got} != direct API {want}")

    def counts(self, rnd: Round) -> dict:
        out = Counter()
        for _index, _op, latency, doc, status in rnd.results:
            if doc is None:
                continue
            if not doc.get("cached"):
                result = doc["result"]
                add_counts(
                    out, result["executions"], result["blocked"],
                    result["duplicates"], result["stats"],
                )
        return dict(out)


WORKLOADS = {
    cls.name: cls for cls in (DeepVerify, LitmusMatrix, ServiceMixed, Shard)
}
