"""The checker's benchmark: one command per workload, run from the
repository root.

    python3 perfbench/run.py --workload deep-verify --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics (spans around the public functions of each ``repro`` module,
see ``tracing.py``).  Both check every result against a reference
that does not come from the code under test.  The output is a table
of every metric (value, quartiles, sample count) followed, as the last
line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names, units and the workload list are read from
``BENCHMARK.json`` at the repository root.  See ``README.md`` for what
each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: setup probes per run (fresh interpreters), reported as their median
SETUP_PROBES = 9


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def geomean(values) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


# -- set-up --------------------------------------------------------------------


def setup_probe(workload: str, seed: int, workdir: str) -> int:
    """Body of one fresh-interpreter probe: import the package (and the
    CLI, the path ``hmc`` takes), build the inputs, report ready."""
    import repro  # noqa: F401
    import repro.cli  # noqa: F401
    from workloads import WORKLOADS

    ready = WORKLOADS[workload](seed, workdir).ready()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if ready is not None:
        ready.stop()
    return 0


def measure_setup(workload: str, seed: int, workdir: str, env: dict) -> list:
    """``(seconds, speed factor)`` per probe: the seconds from spawning
    a fresh interpreter until it is ready to issue the first operation,
    and the factor that scales them to the reference speed (from
    calibration probes taken just before and just after)."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = calibrate.probes(3)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "run.py"),
                "--setup-probe", "--workload", workload, "--seed", str(seed),
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode})")
        samples.append((seconds, calibrate.speed_factor(before + calibrate.probes(3))))
    return samples


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (Linux ``clear_refs``);
    where that is not allowed the peak covers the whole run."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def own_peak_rss_mb() -> float:
    """This process's peak RSS since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- rounds --------------------------------------------------------------------


def run_rounds(work, rounds: list, seconds: float, min_rounds: int = 1, tracer=None, span_sets=None) -> list:
    """Run rounds until ``seconds`` have passed (and at least
    ``min_rounds`` ran); appends them to ``rounds``, checked, and
    returns the new ones.  With a ``tracer``, each round is traced and
    its spans are appended to ``span_sets``; the round's unattributed
    time is the part of its timed windows (``Round.windows``: no
    calibration probe, server start or stop) that no span covers.
    Each round records its own peak RSS (unless the workload measured
    it, for its children too) and its per-layer
    counts; raw results are then dropped, except the last round's,
    so memory does not grow with the number of rounds."""
    new = []
    start = time.perf_counter()
    while len(new) < min_rounds or time.perf_counter() - start < seconds:
        round_no = len(rounds) + len(new)
        reset_peak_rss()
        if tracer is not None:
            tracer.active = True
        try:
            rnd = work.round(round_no)
        finally:
            if tracer is not None:
                tracer.active = False
        rnd.extra.setdefault("rss_mb", own_peak_rss_mb())
        if tracer is not None:
            spans = tracer.harvest()
            span_sets.append(spans)
            covered = sum(spans.covered(s, e) for s, e in rnd.windows)
            rnd.extra["unattributed_s"] = max(0.0, rnd.wall - covered)
        work.check(round_no, rnd)
        rnd.extra["counts"] = work.counts(rnd)
        previous = new[-1] if new else rounds[-1] if rounds else None
        if previous is not None and not work.keep_results:
            previous.results = None
        new.append(rnd)
    rounds.extend(new)
    return new


def end_to_end(rounds: list, setup: list, scaled: bool = True) -> dict:
    """``{metric: (value, samples)}`` for every end-to-end metric,
    timings scaled to the reference speed (or raw, for the comparison
    line).  Per-round metrics are the median over rounds; the latency
    metrics are taken over each operation's median latency across
    rounds, so a pause that hits one operation in one round does not
    move them.

    Every workload reports every metric.  An *operation* is a
    ``verify()`` call (deep-verify, shard), a model column's
    ``run_suite`` call (litmus-matrix) or a service job; the latency
    metrics, ``jobs_per_s`` and ``tasks_per_s`` count operations,
    except that ``tasks_per_s`` counts suite tasks on litmus-matrix.
    ``executions_per_s`` counts the executions a round explored, so a
    service job served from the cache adds none."""
    samples: dict[str, list] = {}
    for rnd in rounds:
        wall, ops = (rnd.scaled_wall, rnd.scaled_ops) if scaled else (rnd.wall, rnd.ops)
        per_round = {
            "wall_s": wall,
            "executions_per_s": rnd.executions / wall,
            "tasks_per_s": rnd.extra.get("tasks", len(ops)) / wall,
            "jobs_per_s": len(ops) / wall,
            "peak_rss_mb": rnd.extra["rss_mb"],
        }
        for name, value in per_round.items():
            samples.setdefault(name, []).append(value)
    out = {name: (median(values), values) for name, values in samples.items()}
    latencies_ms = [1000 * s for s in _per_op_medians(rounds, scaled)[1]]
    out["verify_geomean_ms"] = (geomean(latencies_ms), latencies_ms)
    out["job_p50_ms"] = (percentile(latencies_ms, 50), latencies_ms)
    out["job_p95_ms"] = (percentile(latencies_ms, 95), latencies_ms)
    setup_s = [seconds * factor if scaled else seconds for seconds, factor in setup]
    out["setup_s"] = (median(setup_s), setup_s)
    return out


#: the timings printed unscaled beside the table
TIMINGS = ("setup_s", "wall_s", "verify_geomean_ms", "job_p50_ms", "job_p95_ms")


def print_unscaled(rounds: list, setup: list) -> None:
    raw = end_to_end(rounds, setup, scaled=False)
    factors = [r.scaled_wall / r.wall for r in rounds]
    print(
        "# unscaled: "
        + " ".join(f"{name}={raw[name][0]:.6g}" for name in TIMINGS)
        + f"; speed factor median {median(factors):.4g}"
    )


# -- per-layer -------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(work, untraced: list, traced: list, span_sets: list, extra: dict) -> dict:
    """Every per-layer value: span self times and call counts (means
    per traced round), the program's own counts, service timings, and
    the tracing and instrumentation overheads."""
    n = max(1, len(traced))
    agg: dict[str, dict] = {}
    rejects = 0
    for spans in span_sets:
        rejects += spans.rejects
        for name, row in spans.aggregate().items():
            into = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k, v in row.items():
                into[k] += v

    def span(name: str, field: str = "self_s") -> float:
        return agg.get(name, {}).get(field, 0) / n

    derived = [name for name in agg if name.startswith("derived.")]
    counts: dict[str, float] = {}
    for rnd in traced:
        for key, value in rnd.extra["counts"].items():
            counts[key] = counts.get(key, 0) + value / n
    ex = counts.get("explorer.executions", 0)
    useful = _ratio(
        ex, ex + counts.get("explorer.blocked", 0) + counts.get("explorer.duplicates", 0)
    )
    sharded = counts.get("parallel.tasks", 0) > 0
    out = {
        "lang.replay.calls": span("lang.replay", "calls"),
        "lang.replay.self_s": span("lang.replay"),
        "graphs.copy.calls": span("graphs.copy", "calls"),
        "graphs.copy.self_s": span("graphs.copy"),
        "graphs.add.self_s": span("graphs.add"),
        "derived.calls": sum(agg[d]["calls"] for d in derived) / n,
        "derived.self_s": sum(agg[d]["self_s"] for d in derived) / n,
        "incremental.acyclic.calls": span("incremental.acyclic", "calls"),
        "incremental.acyclic.self_s": span("incremental.acyclic"),
        "incremental.coherent.self_s": span("incremental.coherent"),
        "models.coherence.self_s": span("models.coherence"),
        "models.axiom.self_s": span("models.axiom"),
        "models.checks": span("models.check", "calls"),
        "models.reject_ratio": _ratio(rejects / n, span("models.check", "calls")),
        "cat.axiom.calls": span("cat.axiom", "calls"),
        "cat.axiom.self_s": span("cat.axiom"),
        "hashing.canonical_key.calls": span("hashing.canonical_key", "calls"),
        "hashing.canonical_key.self_s": span("hashing.canonical_key"),
        "revisits.calls": span("revisits", "calls"),
        "revisits.self_s": span("revisits"),
        "explorer.self_s": span("explorer"),
        "explorer.useful_ratio": useful,
        "parallel.split_frontier.self_s": span("parallel.split_frontier"),
        "parallel.pool_s": span("parallel.pool", "total_s"),
        "parallel.merge_s": span("parallel.merge", "total_s"),
        "parallel.tasks": counts.get("parallel.tasks", 0),
        "parallel.duplicates": counts.get("parallel.duplicates", 0),
        "parallel.useful_ratio": useful if sharded else 0.0,
        "estimate.self_s": span("estimate"),
        "suite.task_key.self_s": span("suite.task_key"),
        "suite.cache.load.calls": span("suite.cache.load", "calls"),
        "suite.cache.load.self_s": span("suite.cache.load"),
        "suite.cache.store.calls": span("suite.cache.store", "calls"),
        "suite.cache.store.self_s": span("suite.cache.store"),
        "suite.cache.hit_ratio": _ratio(
            counts.get("suite.cache.hits", 0), counts.get("suite.cache.lookups", 0)
        ),
        "litmus.verdict.self_s": span("litmus.verdict"),
    }
    for key in (
        "explorer.executions",
        "explorer.blocked",
        "explorer.duplicates",
        "revisits.considered",
        "revisits.performed",
        "revisits.rejected_prefix",
        "revisits.rejected_maximality",
        "revisits.rejected_replay",
        "revisits.rejected_inconsistent",
    ):
        out[key] = counts.get(key, 0)
    walls_t = [r.scaled_wall for r in traced]
    walls_u = [r.scaled_wall for r in untraced]
    out["unattributed_s"] = extra.get("unattributed_s", 0.0)
    out["trace.overhead_ratio"] = _ratio(median(walls_t), median(walls_u))
    out["obs.overhead_ratio"] = extra.get("obs.overhead_ratio", 0.0)
    out.update(service_layer(work, untraced + traced))
    if hasattr(work, "entry_metric"):
        for op, seconds in zip(*_per_op_medians(untraced)):
            out[work.entry_metric(op)] = 1000 * seconds
    return out


def _per_op_medians(rounds: list, scaled: bool = True) -> tuple[list, list]:
    per_op: dict[str, list] = {}
    for rnd in rounds:
        for op, seconds in rnd.scaled_ops if scaled else rnd.ops:
            per_op.setdefault(op, []).append(seconds)
    return list(per_op), [median(v) for v in per_op.values()]


def service_layer(work, rounds: list) -> dict:
    """The service's layers as seen from outside: job status documents
    (queue wait, run time, HTTP overhead) and ``/metrics``."""
    if work.name != "service-mixed":
        return {}
    queue, run, http = [], [], []
    for rnd in rounds:
        for _index, _op, latency, _doc, status in rnd.results:
            if status is None or status["started"] is None:
                continue
            queue.append(1000 * (status["started"] - status["created"]))
            run.append(1000 * (status["finished"] - status["started"]))
            http.append(1000 * (latency - (status["finished"] - status["created"])))
    hits = sum(m["cache_hits"] for m in work.server_metrics)
    done = sum(m["done"] for m in work.server_metrics)
    return {
        "service.queue_wait_p50_ms": percentile(queue, 50),
        "service.run_p50_ms": percentile(run, 50),
        "service.http_overhead_p50_ms": percentile(http, 50),
        "service.cache_hit_ratio": _ratio(hits, done),
        "suite.cache.hit_ratio": _ratio(hits, done),
        "service.rejected": sum(m["rejected"] for m in work.server_metrics),
    }


# -- the run -------------------------------------------------------------------


def measure(args, workdir: str, env: dict) -> dict:
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed, workdir)
    is_service = args.workload == "service-mixed"
    rounds: list = []
    seconds = float(args.seconds)
    if not is_service:
        # warm-up: lazy imports and process-wide memo tables fill here;
        # checked like every other round but not measured (a service
        # round starts a fresh server, so it has none)
        run_rounds(work, rounds, 0)
    if not args.trace:
        measured = run_rounds(work, rounds, seconds, work.min_rounds)
        setup = measure_setup(args.workload, args.seed, workdir, env)
        values = end_to_end(measured, setup)
        print_unscaled(measured, setup)
    else:
        values = traced_run(work, seconds, rounds)
    work.final_check(rounds)
    return {"work": work, "values": values, "rounds": rounds}


def traced_run(work, seconds: float, rounds: list) -> dict:
    """Untraced rounds (the reference for the overhead ratios), then —
    on deep-verify — rounds under a full Observer, then traced rounds
    whose spans give the per-layer numbers."""
    from tracing import Tracer, write_spans

    untraced = run_rounds(work, rounds, seconds / 2)
    extra: dict = {}
    if work.name == "deep-verify":
        from repro.obs import Observer, SpanTracer
        from repro.obs.metrics import MetricsRegistry

        work.observer_factory = lambda: Observer(
            metrics=MetricsRegistry(), tracer=SpanTracer()
        )
        observed = run_rounds(work, rounds, 0)
        work.observer_factory = None
        extra["obs.overhead_ratio"] = _ratio(
            median([r.scaled_wall for r in observed]),
            median([r.scaled_wall for r in untraced]),
        )
    tracer = Tracer()
    tracer.install()
    span_sets: list = []
    try:
        traced = run_rounds(work, rounds, seconds / 2, tracer=tracer, span_sets=span_sets)
    finally:
        tracer.uninstall()
    extra["unattributed_s"] = median([r.extra["unattributed_s"] for r in traced])
    out_dir = os.path.join(ROOT, ".perfbench", "spans")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{work.name}-seed{work.seed}.jsonl.gz")
    extra["spans_written"] = write_spans(path, span_sets[0])
    extra["spans_path"] = os.path.relpath(path, ROOT)
    values = per_layer(work, untraced, traced, span_sets, extra)
    print(
        f"# spans: {extra['spans_written']} written to {extra['spans_path']}",
    )
    return {k: (v, [v]) for k, v in values.items()}


def report(args, spec: dict, outcome: dict) -> dict:
    work = outcome["work"]
    values = outcome["values"]
    failed = len(work.failures)
    attempted = max(1, work.attempted)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values.setdefault("failed_ratio", (failed / attempted, [failed / attempted]))
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} cores={os.cpu_count()} "
        f"rounds={len(outcome['rounds'])} inputs={json.dumps(work.inputs)}"
        f" ops_per_round={len(outcome['rounds'][-1].ops)}"
    )
    if args.trace:  # one value per metric: means over the traced rounds
        print(f"# {'metric':34s} {'unit':6s} {'value':>12s}")
    else:
        print(f"# {'metric':34s} {'unit':6s} {'value':>12s} {'q1':>12s} {'q3':>12s} {'n':>5s}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value, samples = values.get(name, (0.0, [0.0]))
        line = f"  {name:34s} {metric['unit']:6s} {value:12.6g}"
        if not args.trace:
            q1, q3 = quartiles(samples)
            line += f" {q1:12.6g} {q3:12.6g} {len(samples):5d}"
        print(line)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    if "failed_ratio" not in metrics:
        print(f"  {'failed_ratio':34s} {'ratio':6s} {failed / attempted:12.6g}")
    for (round_no, op), reason in sorted(work.failures.items(), key=str)[:20]:
        print(f"# FAILED round {round_no} {op}: {reason}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="the checker's benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no checker sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # child interpreters (set-up probes, the server) import the same
    # sources, and everything the run and its children write stays in
    # the checkout
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + pythonpath if pythonpath else "")
    os.environ["TMPDIR"] = workdir
    env = dict(os.environ)
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed, workdir)
        outcome = measure(args, workdir, env)
        result = report(args, spec, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
