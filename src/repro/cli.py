"""Command-line interface.

::

    hmc litmus SB --model tso            # run one litmus test
    hmc litmus --all --model imm         # the whole corpus
    hmc litmus-file my.litmus --model power   # parse and run a file
    hmc bench sb --n 3 --model tso       # run a workload family
    hmc verify ticket-lock --model imm   # check assertions, show witness
    hmc compare sb --left sc --right tso # diff two models' behaviours
    hmc repair dekker --model tso        # synthesise missing fences
    hmc experiment t3                    # regenerate a table/figure
    hmc models                           # list memory models
    hmc backends                         # list exploration engines
    hmc verify SB --model-file my.cat    # model from a .cat file
    hmc litmus --all --model-file my.cat # the corpus under a .cat model
    hmc compare SB --left sc --right-file my.cat
    hmc cat-check models/*.cat           # lint .cat files
    hmc verify sb --n 3 --jobs 4         # shard over 4 worker processes
    hmc bench sb --n 3 --jobs 4          # serial-vs-parallel comparison
    hmc bench sb --backend dpor          # benchmark a baseline engine
    hmc verify SB --model tso --stats --trace-out run.jsonl --progress
                                         # instrumented run: counters,
                                         # per-phase times, JSONL trace,
                                         # stderr heartbeat
    hmc trace-summary run.jsonl          # paper-style table from a trace
    hmc verify SB --model tso --jobs 2 --spans-out spans.jsonl
                                         # span trace across coordinator
                                         # and worker processes
    hmc trace export spans.jsonl -o trace.json   # Perfetto trace JSON
    hmc trace export --job <id> --perfetto -o trace.json
                                         # trace of a server job
    hmc trace flame spans.jsonl          # terminal flamegraph
    hmc verify SB --model tso --stats --jobs 2 --save-run
                                         # profiled run, manifest stored
                                         # under .repro/runs/
    hmc runs list                        # run history
    hmc runs diff 20260807 20260808      # compare two stored runs
    hmc runs check --baseline benchmarks/baseline.json --warn-only
                                         # CI regression gate
    hmc suite run --models sc,tso,ra --jobs 4 --save-run
                                         # litmus corpus x models through
                                         # one pool, results cached
    hmc suite run --litmus SB --litmus MP --models sc --force
    hmc suite list                       # stored suite manifests
    hmc suite diff 20260807 20260808     # verdict/count drift
    hmc suite check --baseline suite.json --warn-only
    hmc serve --port 8321 --jobs 4       # long-running verification server
    hmc submit litmus SB --model tso     # run a job on that server
    hmc submit verify SB --model-file my.cat --stream
    hmc submit suite --models sc,tso --no-wait
    hmc jobs list                        # recent jobs on the server
    hmc jobs show <id>                   # one job's status
    hmc jobs cancel <id>                 # cancel a queued job
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import __version__
from .backends import all_backends, backend_names, get_backend
from .bench import ALL_EXPERIMENTS, run_backend, serial_vs_parallel, workloads
from .bench.datastructures import DATA_STRUCTURES
from .core import ExplorationOptions, effective_jobs
from .core.compare import compare_models
from .core.config import check_task_timeout
from .core.repair import synthesize_fences
from .events import FenceKind
from .litmus import allowed, get_litmus, litmus_names, run_litmus
from .litmus.parser import parse_litmus
from .models import get_model, model_names
from .obs import (
    NULL_OBSERVER,
    NULL_TRACER,
    FileSink,
    Observer,
    ProgressReporter,
    SpanTracer,
    TraceWriter,
    format_summary,
    summarize_file,
)
from .obs.progress import check_cadence


def _find_program(family: str, n: int):
    factory = workloads.FAMILIES.get(family)
    if factory is not None:
        return factory(n)
    factory = DATA_STRUCTURES.get(family)
    if factory is not None:
        return factory(n)
    # fall back to the litmus corpus so e.g. `verify SB` works
    try:
        return get_litmus(family).program
    except KeyError:
        return None


def _unknown_family(family: str) -> str:
    known = ", ".join(sorted(list(workloads.FAMILIES) + list(DATA_STRUCTURES)))
    return (
        f"unknown family {family!r}; known: {known} "
        f"(litmus test names are accepted too)"
    )


def _wants_manifest(args) -> bool:
    """Does the invocation need a run manifest (and hence metrics)?"""
    return bool(
        getattr(args, "save_run", False)
        or getattr(args, "manifest", None)
        or getattr(args, "prom_out", None)
    )


def _observer_from_args(args) -> Observer | None:
    """Build an Observer from `--stats/--trace-out/--progress` (or any
    flag that needs a metrics registry, like `--save-run`), or None
    when none of them was given."""
    stats = getattr(args, "stats", False)
    trace_out = getattr(args, "trace_out", None)
    progress = getattr(args, "progress", None)
    spans_out = getattr(args, "spans_out", None)
    if (
        not stats
        and trace_out is None
        and progress is None
        and spans_out is None
        and not _wants_manifest(args)
    ):
        return None
    reporter = (
        ProgressReporter(every_seconds=progress) if progress is not None else None
    )
    trace = None
    if trace_out is not None:
        try:
            trace = TraceWriter(FileSink(trace_out))
        except OSError as exc:
            print(f"cannot write trace to {trace_out}: {exc}", file=sys.stderr)
            raise SystemExit(2)
    tracer = SpanTracer() if spans_out is not None else None
    return Observer(trace=trace, progress=reporter, tracer=tracer)


def _first_sentence(doc: str | None) -> str:
    """The first sentence of a docstring, whitespace-normalised."""
    if not doc:
        return ""
    text = " ".join(doc.split())
    match = re.match(r"(.*?\.)(?:\s|$)", text)
    return match.group(1) if match else text


def _task_timeout_arg(text: str) -> float:
    """``--task-timeout``'s type: a float that passes
    :func:`~repro.core.config.check_task_timeout`."""
    try:
        return check_task_timeout(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _progress_arg(text: str) -> float:
    """``--progress``'s type: seconds that pass
    :func:`~repro.obs.progress.check_cadence`."""
    try:
        return check_cadence(None, float(text))[1]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_cat_model(path: str):
    """Load a ``.cat`` model file, or print the error and return None."""
    from .cat import CatError
    from .models import load_cat

    try:
        return load_cat(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except CatError as exc:
        print(str(exc), file=sys.stderr)
    return None


def _resolve_model(args):
    """The model to check against: `--model-file` wins over `--model`.

    Returns a model name, a loaded CatModel, or None after printing
    the load error."""
    path = getattr(args, "model_file", None)
    if path is None:
        return args.model
    return _load_cat_model(path)


def _cmd_models(_args) -> int:
    for name in model_names():
        model = get_model(name)
        kind = "porf-acyclic" if model.porf_acyclic else "load-buffering"
        print(f"{name:10s} ({kind:13s}) {_first_sentence(model.__doc__)}")
    return 0


def _cmd_backends(_args) -> int:
    for backend in all_backends():
        models = (
            "any model" if backend.models is None else "/".join(backend.models)
        )
        print(f"{backend.name:14s} [{models}] {backend.description}")
    return 0


def _cmd_litmus(args) -> int:
    names = litmus_names() if args.all else [args.test]
    if not args.all and args.test is None:
        print("specify a litmus test name or --all", file=sys.stderr)
        return 2
    model = _resolve_model(args)
    if model is None:
        return 2
    overrides = {}
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.task_timeout is not None:
        overrides["task_timeout"] = args.task_timeout
    failures = 0
    for name in names:
        test = get_litmus(name)
        verdict = run_litmus(test, model, **overrides)
        try:
            expected = allowed(name, verdict.model)
        except KeyError:
            # a .cat model whose name has no literature row: report the
            # verdict without judging it
            print(f"{verdict}  [no literature expectation]")
            continue
        status = "" if verdict.observed == expected else "  [deviates from literature]"
        print(f"{verdict}{status}")
        failures += verdict.observed != expected
    return 1 if failures else 0


def _cmd_bench(args) -> int:
    program = _find_program(args.family, args.n)
    if program is None:
        print(_unknown_family(args.family), file=sys.stderr)
        return 2
    options = ExplorationOptions(
        stop_on_error=False, jobs=args.jobs, task_timeout=args.task_timeout
    )
    jobs = effective_jobs(options)
    try:
        if jobs > 1 and args.backend in ("hmc", "hmc-parallel"):
            # serial-vs-parallel comparison rows, speedup included
            rows = serial_vs_parallel(program, args.model, jobs, options)
            for row in rows:
                print(row.format())
        else:
            print(run_backend(
                program, args.model, backend=args.backend, options=options
            ).format())
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    program = _find_program(args.family, args.n)
    if program is None:
        print(_unknown_family(args.family), file=sys.stderr)
        return 2
    model = _resolve_model(args)
    if model is None:
        return 2
    options = ExplorationOptions(
        stop_on_error=not args.keep_going,
        jobs=args.jobs,
        task_timeout=args.task_timeout,
    )
    observer = _observer_from_args(args)
    tracer = observer.tracer if observer is not None else NULL_TRACER
    try:
        with tracer.span(
            f"verify:{args.family}",
            cat="run",
            model=args.model,
            backend=args.backend,
            jobs=effective_jobs(options),
        ):
            result = get_backend(args.backend).run(
                program,
                model,
                options,
                observer if observer is not None else NULL_OBSERVER,
            )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        if observer is not None:
            observer.close()
    print(result.summary())
    if args.stats:
        print(result.stats_summary())
        if observer is not None:
            from .obs import format_profile

            print(format_profile(observer.metrics_snapshot()))
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    spans_out = getattr(args, "spans_out", None)
    if spans_out and tracer.enabled:
        from .obs import write_spans

        try:
            count = write_spans(spans_out, tracer.snapshot())
        except OSError as exc:
            print(
                f"cannot write spans to {spans_out}: {exc}", file=sys.stderr
            )
            return 2
        print(
            f"{count} spans written to {spans_out} "
            f"(trace {tracer.trace_id}; see `hmc trace export|flame`)"
        )
    if observer is not None and _wants_manifest(args):
        _export_run(args, result, observer)
    if result.errors:
        error = result.errors[0]
        print("\nwitness:")
        print(error.witness)
        if error.graph is not None:
            from .core.witness import format_witness

            print("\nas a schedule:")
            print(format_witness(error.graph))
        return 1
    return 0


def _export_run(args, result, observer) -> None:
    """Handle `verify --save-run/--manifest/--prom-out`."""
    import json

    from .obs import RunStore, build_manifest, to_prometheus

    manifest = build_manifest(
        result,
        observer.metrics_snapshot(),
        command=" ".join(sys.argv[1:]) if sys.argv[1:] else None,
        jobs=result.meta.get("jobs", 1),
        spans=(
            observer.tracer.snapshot() if observer.tracer.enabled else None
        ),
    )
    if getattr(args, "save_run", False):
        path = RunStore(getattr(args, "runs_dir", None)).save(manifest)
        print(f"run saved to {path}")
    manifest_out = getattr(args, "manifest", None)
    if manifest_out:
        with open(manifest_out, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"manifest written to {manifest_out}")
    prom_out = getattr(args, "prom_out", None)
    if prom_out:
        with open(prom_out, "w") as handle:
            handle.write(to_prometheus(manifest))
        print(f"prometheus metrics written to {prom_out}")


def _cmd_litmus_file(args) -> int:
    try:
        with open(args.path) as handle:
            test = parse_litmus(handle.read())
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    verdict = run_litmus(test, args.model)
    print(verdict)
    if test.description:
        print(f"probe: {test.description}")
    return 0


def _cmd_compare(args) -> int:
    program = _find_program(args.family, args.n)
    if program is None:
        print(_unknown_family(args.family), file=sys.stderr)
        return 2
    left = args.left if args.left_file is None else _load_cat_model(args.left_file)
    right_file = args.right_file or args.model_file
    right = args.right if right_file is None else _load_cat_model(right_file)
    if left is None or right is None:
        return 2
    overrides = {}
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.task_timeout is not None:
        overrides["task_timeout"] = args.task_timeout
    comparison = compare_models(program, left, right, **overrides)
    print(comparison.summary())
    if args.witness and comparison.witnesses:
        outcome, witness = next(iter(sorted(comparison.witnesses.items())))
        shown = ", ".join(f"{k}={v}" for k, v in outcome)
        print(f"\nwitness for {{{shown}}}:")
        print(witness)
    return 0


def _cmd_repair(args) -> int:
    program = _find_program(args.family, args.n)
    if program is None:
        print(_unknown_family(args.family), file=sys.stderr)
        return 2
    fence = FenceKind(args.fence)
    result = synthesize_fences(
        program, args.model, fence=fence, max_fences=args.max_fences
    )
    print(result.summary())
    return 0 if result.placements is not None else 1


def _cmd_estimate(args) -> int:
    program = _find_program(args.family, args.n)
    if program is None:
        print(_unknown_family(args.family), file=sys.stderr)
        return 2
    from .core.estimate import estimate_explorations

    print(estimate_explorations(program, args.model, walks=args.walks))
    return 0


def _cmd_cat_check(args) -> int:
    from .cat import lint_path

    error_count = 0
    for path in args.paths:
        try:
            diagnostics = lint_path(path)
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            error_count += 1
            continue
        for diag in diagnostics:
            print(diag.format(path))
        errors_here = sum(d.severity == "error" for d in diagnostics)
        error_count += errors_here
        if not errors_here:
            warnings = len(diagnostics) - errors_here
            suffix = f" ({warnings} warning(s))" if warnings else ""
            print(f"{path}: ok{suffix}")
    return 1 if error_count else 0


def _cmd_trace(args) -> int:
    """`hmc trace export|flame` — span-trace exporters.

    Spans come either from a JSONL file (``verify --spans-out``, or a
    dumped service event stream — ``t="span"`` records are picked out)
    or live from a server job via ``--job ID``.
    """
    import json

    from .obs import format_flame, read_spans, to_perfetto

    if bool(getattr(args, "job", None)) == bool(args.path):
        print(
            "give exactly one span source: a PATH or --job ID",
            file=sys.stderr,
        )
        return 2
    trace_id = None
    if getattr(args, "job", None):
        from .service import ServiceClient, ServiceError

        try:
            doc = ServiceClient(args.url).spans(args.job)
        except ServiceError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        spans = doc.get("spans", [])
        trace_id = doc.get("trace_id")
        if doc.get("state") not in ("done", "failed"):
            print(
                f"note: job {args.job} is {doc.get('state')}; "
                "the span tree is still partial",
                file=sys.stderr,
            )
    else:
        try:
            spans = read_spans(args.path)
        except OSError as exc:
            print(f"cannot read {args.path}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"malformed span file: {exc}", file=sys.stderr)
            return 2
    if not spans:
        print("no spans in the source", file=sys.stderr)
        return 1
    if args.trace_command == "flame":
        print(format_flame(spans, width=args.width, min_frac=args.min_frac))
        return 0
    doc = to_perfetto(spans, trace_id=trace_id)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(
            f"{len(doc['traceEvents'])} events written to {args.out} "
            "(load in https://ui.perfetto.dev or chrome://tracing)",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


def _cmd_trace_summary(args) -> int:
    try:
        summary = summarize_file(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(summary.as_dict(), indent=2))
    else:
        print(format_summary(summary))
    return 0


def _cmd_runs(args) -> int:
    """`hmc runs list|show|diff|check` — the run-history tooling."""
    import json

    from .obs import (
        RUN_MANIFEST_KIND,
        RunStore,
        check_manifest,
        diff_manifests,
        format_check,
        format_diff,
    )

    # suite manifests live in the same store; `hmc suite` lists those
    store = RunStore(args.dir, kind=RUN_MANIFEST_KIND)

    def load(ref: str) -> dict | None:
        try:
            return store.load(ref)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return None

    if args.runs_command == "list":
        manifests = []
        try:
            manifests = store.list_runs()
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(manifests, indent=2))
            return 0
        if not manifests:
            print(f"no runs stored in {store.root}")
            return 0
        for m in manifests:
            r = m.get("result", {})
            print(
                f"{m.get('run_id')}  {m.get('program')}/{m.get('model')}  "
                f"executions={r.get('executions')} blocked={r.get('blocked')} "
                f"errors={r.get('errors')} elapsed={r.get('elapsed'):.4f}s "
                f"jobs={m.get('jobs')}"
            )
        return 0

    if args.runs_command == "show":
        manifest = load(args.run) if args.run != "latest" else store.latest()
        if manifest is None:
            if args.run == "latest":
                print(f"no runs stored in {store.root}", file=sys.stderr)
            return 2
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0

    if args.runs_command == "diff":
        old, new = load(args.old), load(args.new)
        if old is None or new is None:
            return 2
        diff = diff_manifests(old, new)
        if args.json:
            print(json.dumps(diff, indent=2))
        else:
            print(format_diff(diff))
        return 0

    # check
    baseline = load(args.baseline)
    if baseline is None:
        return 2
    if args.run is not None:
        current = load(args.run)
    else:
        current = store.latest()
        if current is None:
            print(
                f"no runs stored in {store.root} (run "
                "`verify ... --save-run` first, or pass a manifest path)",
                file=sys.stderr,
            )
            return 2
    if current is None:
        return 2
    violations, warnings = check_manifest(
        current, baseline, max_ratio=args.max_ratio
    )
    print(format_check(violations, warnings, warn_only=args.warn_only))
    if violations and not args.warn_only:
        return 1
    return 0


def _cmd_suite(args) -> int:
    """`hmc suite run|list|diff|check` — batched suite execution."""
    import json

    from .obs import SUITE_MANIFEST_KIND, RunStore, format_check
    from .suite import (
        build_suite_manifest,
        check_suite,
        diff_suites,
        format_suite_diff,
        litmus_matrix,
        run_suite,
    )

    store = RunStore(
        getattr(args, "dir", None) or getattr(args, "runs_dir", None),
        kind=SUITE_MANIFEST_KIND,
    )

    def load(ref: str) -> dict | None:
        try:
            return store.load(ref)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return None

    if args.suite_command == "run":
        models: list = [
            m.strip() for m in args.models.split(",") if m.strip()
        ]
        if args.model_file:
            cat = _load_cat_model(args.model_file)
            if cat is None:
                return 2
            models.append(cat)
        if not models:
            print("no models selected", file=sys.stderr)
            return 2
        tests = args.litmus if args.litmus else None
        try:
            tasks = litmus_matrix(tests, models=models)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        cache = False if args.no_cache else args.cache_dir
        observer = _observer_from_args(args)
        try:
            suite = run_suite(
                tasks,
                jobs=args.jobs,
                cache=cache,
                force=args.force,
                rerun_failed=args.rerun_failed,
                task_timeout=args.task_timeout,
                observer=observer if observer is not None else NULL_OBSERVER,
            )
        finally:
            if observer is not None:
                observer.close()
        manifest = build_suite_manifest(
            suite, command=" ".join(sys.argv[1:]) if sys.argv[1:] else None
        )
        if args.json:
            print(json.dumps(manifest, indent=2, sort_keys=True))
        else:
            print(suite.summary())
        if args.stats and observer is not None:
            from .obs import format_profile

            print(format_profile(observer.metrics_snapshot()))
        if args.save_run:
            path = RunStore(args.runs_dir).save(manifest)
            print(f"suite saved to {path}")
        if args.manifest:
            with open(args.manifest, "w") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"manifest written to {args.manifest}")
        return 1 if suite.deviations else 0

    if args.suite_command == "list":
        try:
            manifests = store.list_runs()
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(manifests, indent=2))
            return 0
        if not manifests:
            print(f"no suites stored in {store.root}")
            return 0
        for m in manifests:
            totals = m.get("totals", {})
            print(
                f"{m.get('run_id')}  tasks={totals.get('tasks')} "
                f"cached={totals.get('cache_hits')} "
                f"errors={totals.get('errors')} "
                f"deviations={totals.get('deviations')} "
                f"elapsed={m.get('elapsed'):.3f}s jobs={m.get('jobs')}"
            )
        return 0

    if args.suite_command == "diff":
        old, new = load(args.old), load(args.new)
        if old is None or new is None:
            return 2
        diff = diff_suites(old, new)
        if args.json:
            print(json.dumps(diff, indent=2))
        else:
            print(format_suite_diff(diff))
        return 0

    # check
    baseline = load(args.baseline)
    if baseline is None:
        return 2
    if args.run is not None:
        current = load(args.run)
    else:
        current = store.latest()
        if current is None:
            print(
                f"no suites stored in {store.root} (run "
                "`suite run ... --save-run` first, or pass a manifest "
                "path)",
                file=sys.stderr,
            )
            return 2
    if current is None:
        return 2
    violations, warnings = check_suite(
        current, baseline, max_ratio=args.max_ratio
    )
    print(format_check(violations, warnings, warn_only=args.warn_only))
    if violations and not args.warn_only:
        return 1
    return 0


def _cmd_serve(args) -> int:
    """`hmc serve` — run the verification server until SIGTERM."""
    from .service import serve

    return serve(
        args.host,
        args.port,
        jobs=args.jobs,
        queue_size=args.queue_size,
        cache=False if args.no_cache else args.cache_dir,
        task_timeout=args.task_timeout,
        runs_dir=args.runs_dir,
        save_runs=args.save_runs,
        port_file=args.port_file,
        quiet=args.quiet,
    )


def _submit_model_spec(args):
    """`--model`/`--model-file` into the wire model spec."""
    import os

    path = getattr(args, "model_file", None)
    if path is None:
        return args.model
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None
    name = os.path.splitext(os.path.basename(path))[0]
    return {"cat": source, "name": name}


def _submit_payload(args):
    """Build the submit payload for `hmc submit`, or None on error."""
    payload: dict = {"kind": args.submit_command, "priority": args.priority}
    if args.task_timeout is not None:
        payload["task_timeout"] = args.task_timeout
    if args.submit_command == "verify":
        if args.family in workloads.FAMILIES or args.family in DATA_STRUCTURES:
            payload["program"] = {"family": args.family, "n": args.n}
        else:
            payload["program"] = {"litmus": args.family}
        model = _submit_model_spec(args)
        if model is None:
            return None
        payload["model"] = model
    elif args.submit_command == "litmus":
        payload["test"] = args.test
        model = _submit_model_spec(args)
        if model is None:
            return None
        payload["model"] = model
    else:  # suite
        models: list = [
            m.strip() for m in args.models.split(",") if m.strip()
        ]
        if args.model_file:
            spec = _submit_model_spec(args)
            if spec is None:
                return None
            models.append(spec)
        if not models:
            print("no models selected", file=sys.stderr)
            return None
        payload["models"] = models
        payload["tests"] = args.litmus if args.litmus else None
    return payload


def _print_submit_result(args, result) -> int:
    import json

    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    if result["kind"] == "suite":
        totals = result["manifest"]["totals"]
        print(
            f"suite done: tasks={totals['tasks']} "
            f"cached={totals['cache_hits']} errors={totals['errors']} "
            f"deviations={totals['deviations']} "
            f"elapsed={result['elapsed']:.3f}s"
        )
        return 1 if totals["deviations"] else 0
    verdict = result.get("verdict")
    if verdict is not None:
        note = " (cached)" if result.get("cached") else ""
        print(
            f"{verdict['test']} under {verdict['model']}: "
            f"{'observed' if verdict['observed'] else 'not observed'} "
            f"in {verdict['executions']} executions{note}"
        )
        expected = result.get("expected")
        if expected is not None and expected != verdict["observed"]:
            print("  [deviates from literature]")
            return 1
        return 0
    res = result["result"]
    errors = len(res.get("errors", []))
    print(
        f"executions={res['executions']} blocked={res['blocked']} "
        f"errors={errors} elapsed={result['elapsed']:.3f}s"
        f"{' (cached)' if result.get('cached') else ''}"
    )
    return 1 if errors else 0


def _cmd_submit(args) -> int:
    """`hmc submit verify|litmus|suite` — run a job on a server."""
    from .service import ServiceClient, ServiceError

    payload = _submit_payload(args)
    if payload is None:
        return 2
    client = ServiceClient(args.url)
    try:
        job = client.submit(payload)
    except ServiceError as exc:
        hint = (
            f" (retry after {exc.retry_after:.0f}s)"
            if exc.retry_after is not None
            else ""
        )
        print(f"submit failed: {exc}{hint}", file=sys.stderr)
        return 2
    print(f"job {job['id']} {job['state']} ({job['label']})", file=sys.stderr)
    if args.no_wait:
        print(job["id"])
        return 0
    on_event = None
    if args.stream:
        def on_event(event):
            import json

            print(json.dumps(event, sort_keys=True), file=sys.stderr)
    try:
        result = client.wait(
            job["id"], timeout=args.wait_timeout, on_event=on_event
        )
    except ServiceError as exc:
        print(f"job {job['id']}: {exc}", file=sys.stderr)
        return 1
    return _print_submit_result(args, result)


def _cmd_jobs(args) -> int:
    """`hmc jobs list|show|cancel` — inspect jobs on a server."""
    import json

    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.jobs_command == "list":
            jobs = client.list_jobs(limit=args.limit)
            if args.json:
                print(json.dumps(jobs, indent=2, sort_keys=True))
                return 0
            if not jobs:
                print(f"no jobs on {client.url}")
                return 0
            for job in jobs:
                print(
                    f"{job['id']}  {job['state']:9s} {job['kind']:7s} "
                    f"{job['label']}"
                )
            return 0
        if args.jobs_command == "show":
            print(json.dumps(client.status(args.id), indent=2, sort_keys=True))
            return 0
        # cancel
        status = client.cancel(args.id)
        print(f"{status['id']}: {status['reason']}")
        return 0 if status.get("cancelled") else 1
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1 if exc.status == 409 else 2


def _cmd_experiment(args) -> int:
    fn = ALL_EXPERIMENTS.get(args.name)
    if fn is None:
        known = ", ".join(sorted(ALL_EXPERIMENTS))
        print(f"unknown experiment {args.name!r}; known: {known}", file=sys.stderr)
        return 2
    fn()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmc",
        description="Stateless model checking for hardware memory models "
        "(ASPLOS 2020 reproduction).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s (repro) {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the supported memory models")
    sub.add_parser("backends", help="list the registered exploration backends")

    jobs_help = (
        "worker processes to shard exploration over "
        "(0 = one per CPU; default: serial, or $REPRO_JOBS)"
    )
    task_timeout_help = (
        "wall-clock seconds before a parallel subtree task is declared "
        "hung and retried (default: no timeout; see docs/PARALLEL.md)"
    )

    model_file_help = (
        "load the model from a declarative .cat file instead of --model "
        "(see docs/CAT.md)"
    )

    litmus = sub.add_parser("litmus", help="run litmus tests")
    litmus.add_argument("test", nargs="?", help="litmus test name (see repro.litmus)")
    litmus.add_argument("--all", action="store_true", help="run the whole corpus")
    litmus.add_argument("--model", default="sc", choices=model_names())
    litmus.add_argument("--model-file", metavar="PATH", help=model_file_help)
    litmus.add_argument("--jobs", type=int, default=None, help=jobs_help)
    litmus.add_argument(
        "--task-timeout", type=_task_timeout_arg, help=task_timeout_help
    )

    bench = sub.add_parser("bench", help="run one benchmark workload")
    bench.add_argument("family", help="workload family (e.g. sb, ainc, ticket-lock)")
    bench.add_argument("--n", type=int, default=2, help="workload size")
    bench.add_argument("--model", default="sc", choices=model_names())
    bench.add_argument("--jobs", type=int, default=None, help=jobs_help)
    bench.add_argument(
        "--task-timeout", type=_task_timeout_arg, help=task_timeout_help
    )
    bench.add_argument(
        "--backend",
        default="hmc",
        choices=backend_names(),
        help="exploration engine to benchmark (see `hmc backends`)",
    )

    verify_p = sub.add_parser("verify", help="verify a workload (stop at first error)")
    verify_p.add_argument("family", help="workload family or litmus test name")
    verify_p.add_argument("--n", type=int, default=2)
    verify_p.add_argument("--model", default="sc", choices=model_names())
    verify_p.add_argument("--model-file", metavar="PATH", help=model_file_help)
    verify_p.add_argument("--jobs", type=int, default=None, help=jobs_help)
    verify_p.add_argument(
        "--task-timeout", type=_task_timeout_arg, help=task_timeout_help
    )
    verify_p.add_argument(
        "--backend",
        default="hmc",
        choices=backend_names(),
        help="exploration engine (hmc and hmc-parallel both shard the "
        "search when --jobs > 1 and it can be split)",
    )
    verify_p.add_argument(
        "--keep-going", action="store_true", help="collect all errors"
    )
    verify_p.add_argument(
        "--stats",
        action="store_true",
        help="print exploration counters and the per-phase time breakdown",
    )
    verify_p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a JSONL exploration trace (see `hmc trace-summary`)",
    )
    verify_p.add_argument(
        "--spans-out",
        metavar="PATH",
        help="record a span trace (JSONL) across coordinator and worker "
        "processes, for `hmc trace export|flame`",
    )
    verify_p.add_argument(
        "--progress",
        type=_progress_arg,
        nargs="?",
        const=2.0,
        metavar="SECONDS",
        help="print a heartbeat to stderr every SECONDS (default 2; "
        "set $REPRO_PROGRESS_EVERY for a global cadence)",
    )
    verify_p.add_argument(
        "--save-run",
        action="store_true",
        help="save a run manifest into the run store "
        "(see `hmc runs`, docs/OBSERVABILITY.md)",
    )
    verify_p.add_argument(
        "--runs-dir",
        metavar="DIR",
        default=None,
        help="run store directory for --save-run "
        "(default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    verify_p.add_argument(
        "--manifest",
        metavar="PATH",
        help="also write the run manifest JSON to PATH",
    )
    verify_p.add_argument(
        "--prom-out",
        metavar="PATH",
        help="write run metrics in Prometheus text format to PATH",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a table/figure from DESIGN.md"
    )
    experiment.add_argument("name", help="experiment id (t1..t5, f1..f3, a1, a2)")

    litmus_file = sub.add_parser("litmus-file", help="parse and run a litmus file")
    litmus_file.add_argument("path")
    litmus_file.add_argument("--model", default="sc", choices=model_names())

    compare = sub.add_parser("compare", help="diff a workload under two models")
    compare.add_argument("family")
    compare.add_argument("--n", type=int, default=2)
    compare.add_argument("--left", default="sc", choices=model_names())
    compare.add_argument("--right", default="tso", choices=model_names())
    compare.add_argument(
        "--left-file", metavar="PATH", help="left model from a .cat file"
    )
    compare.add_argument(
        "--right-file", metavar="PATH", help="right model from a .cat file"
    )
    compare.add_argument(
        "--model-file",
        metavar="PATH",
        help="alias for --right-file (matches verify/litmus)",
    )
    compare.add_argument("--jobs", type=int, default=None, help=jobs_help)
    compare.add_argument(
        "--task-timeout", type=_task_timeout_arg, help=task_timeout_help
    )
    compare.add_argument("--witness", action="store_true")

    repair = sub.add_parser("repair", help="synthesise fences to fix a workload")
    repair.add_argument("family")
    repair.add_argument("--n", type=int, default=2)
    repair.add_argument("--model", default="tso", choices=model_names())
    repair.add_argument(
        "--fence",
        default="mfence",
        choices=[k.value for k in FenceKind if k is not FenceKind.C11],
    )
    repair.add_argument("--max-fences", type=int, default=3)

    estimate = sub.add_parser(
        "estimate", help="estimate exploration size by random descents"
    )
    estimate.add_argument("family")
    estimate.add_argument("--n", type=int, default=2)
    estimate.add_argument("--model", default="sc", choices=model_names())
    estimate.add_argument("--walks", type=int, default=50)

    cat_check = sub.add_parser(
        "cat-check", help="lint declarative .cat model files"
    )
    cat_check.add_argument(
        "paths", nargs="+", metavar="FILE", help=".cat files to lint"
    )

    trace_p = sub.add_parser(
        "trace",
        help="export and visualise span traces (see docs/OBSERVABILITY.md)",
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export",
        help="convert spans to Chrome/Perfetto trace-event JSON",
    )
    trace_flame = trace_sub.add_parser(
        "flame", help="render spans as a terminal flamegraph"
    )
    for trace_cmd in (trace_export, trace_flame):
        trace_cmd.add_argument(
            "path",
            nargs="?",
            help="span JSONL (from `verify --spans-out` or a dumped "
            "service event stream)",
        )
        trace_cmd.add_argument(
            "--job",
            metavar="ID",
            help="fetch spans from a verification-service job instead "
            "of a file",
        )
        trace_cmd.add_argument(
            "--url",
            default=None,
            help="service URL for --job (default: $REPRO_SERVICE_URL "
            "or http://127.0.0.1:8321)",
        )
    trace_export.add_argument(
        "--perfetto",
        action="store_true",
        help="emit Chrome/Perfetto trace-event JSON (the default and "
        "currently only format)",
    )
    trace_export.add_argument(
        "-o",
        "--out",
        metavar="PATH",
        default=None,
        help="write the document to PATH (default: stdout)",
    )
    trace_flame.add_argument(
        "--width", type=int, default=30, help="bar width in characters"
    )
    trace_flame.add_argument(
        "--min-frac",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="hide subtrees below this fraction of total time",
    )

    trace_summary = sub.add_parser(
        "trace-summary",
        help="aggregate a JSONL exploration trace into the paper-style table",
    )
    trace_summary.add_argument("path", help="trace file written by --trace-out")
    trace_summary.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    suite = sub.add_parser(
        "suite",
        help="run task batches through one shared pool (see docs/PARALLEL.md)",
    )
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)

    suite_run = suite_sub.add_parser(
        "run", help="run a litmus-by-model matrix as one batched suite"
    )
    suite_run.add_argument(
        "--litmus",
        action="append",
        metavar="TEST",
        help="litmus test to include (repeatable; default: whole corpus)",
    )
    suite_run.add_argument(
        "--models",
        default="sc,tso,ra",
        metavar="M1,M2,...",
        help="comma-separated model names (default: sc,tso,ra)",
    )
    suite_run.add_argument(
        "--model-file",
        metavar="PATH",
        help="also include the model from a declarative .cat file",
    )
    suite_run.add_argument("--jobs", type=int, default=None, help=jobs_help)
    suite_run.add_argument(
        "--task-timeout", type=_task_timeout_arg, help=task_timeout_help
    )
    suite_run.add_argument(
        "--force",
        action="store_true",
        help="recompute every task, ignoring the result cache",
    )
    suite_run.add_argument(
        "--rerun-failed",
        action="store_true",
        help="recompute only tasks whose cached result has errors "
        "or was truncated",
    )
    suite_run.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache entirely",
    )
    suite_run.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache directory "
        "(default: $REPRO_SUITE_CACHE_DIR or .repro/suite-cache)",
    )
    suite_run.add_argument(
        "--save-run",
        action="store_true",
        help="save the suite manifest into the run store (see `hmc suite list`)",
    )
    suite_run.add_argument(
        "--runs-dir",
        metavar="DIR",
        default=None,
        help="run store directory for --save-run "
        "(default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    suite_run.add_argument(
        "--manifest",
        metavar="PATH",
        help="also write the suite manifest JSON to PATH",
    )
    suite_run.add_argument(
        "--json", action="store_true", help="emit the manifest instead of the table"
    )
    suite_run.add_argument(
        "--stats",
        action="store_true",
        help="print the merged per-phase profile after the table",
    )

    suite_list = suite_sub.add_parser("list", help="list stored suite manifests")
    suite_list.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="run store directory (default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    suite_list.add_argument(
        "--json", action="store_true", help="emit the full manifests as JSON"
    )

    suite_diff = suite_sub.add_parser("diff", help="compare two stored suites")
    suite_diff.add_argument(
        "--dir", metavar="DIR", default=None, help="run store directory"
    )
    suite_diff.add_argument("old", help="baseline suite id/prefix/path")
    suite_diff.add_argument("new", help="current suite id/prefix/path")
    suite_diff.add_argument(
        "--json", action="store_true", help="emit the diff as JSON"
    )

    suite_check = suite_sub.add_parser(
        "check", help="gate a suite against a baseline manifest (CI)"
    )
    suite_check.add_argument(
        "--dir", metavar="DIR", default=None, help="run store directory"
    )
    suite_check.add_argument(
        "run",
        nargs="?",
        default=None,
        help="suite to check (default: latest stored suite)",
    )
    suite_check.add_argument(
        "--baseline",
        required=True,
        metavar="PATH",
        help="baseline suite manifest (run id/prefix or path)",
    )
    suite_check.add_argument(
        "--max-ratio",
        type=float,
        default=1.5,
        metavar="R",
        help="timing regression threshold (default 1.5x)",
    )
    suite_check.add_argument(
        "--warn-only",
        action="store_true",
        help="report violations but exit 0 (CI soft gate)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the HTTP verification server (see docs/SERVICE.md)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port",
        type=int,
        default=8321,
        help="listen port (0 = ephemeral; default 8321)",
    )
    serve_p.add_argument("--jobs", type=int, default=None, help=jobs_help)
    serve_p.add_argument(
        "--queue-size",
        type=int,
        default=64,
        metavar="N",
        help="queued jobs before submissions get 429 (default 64)",
    )
    serve_p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache",
    )
    serve_p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache directory "
        "(default: $REPRO_SUITE_CACHE_DIR or .repro/suite-cache)",
    )
    serve_p.add_argument(
        "--task-timeout", type=_task_timeout_arg, help=task_timeout_help
    )
    serve_p.add_argument(
        "--save-runs",
        action="store_true",
        help="store a suite manifest per completed job (see `hmc suite list`)",
    )
    serve_p.add_argument(
        "--runs-dir",
        metavar="DIR",
        default=None,
        help="run store directory for --save-runs",
    )
    serve_p.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port to PATH once listening "
        "(for scripts using --port 0)",
    )
    serve_p.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )

    url_help = (
        "service URL (default: $REPRO_SERVICE_URL or http://127.0.0.1:8321)"
    )

    submit = sub.add_parser(
        "submit", help="submit a job to a running `hmc serve` server"
    )
    submit_sub = submit.add_subparsers(dest="submit_command", required=True)

    def submit_common(p):
        p.add_argument("--url", default=None, help=url_help)
        p.add_argument(
            "--priority",
            default="normal",
            choices=["high", "normal", "low"],
            help="queue priority (default normal)",
        )
        p.add_argument(
            "--task-timeout",
            type=_task_timeout_arg,
            default=None,
            help="per-job hang-recovery timeout in seconds",
        )
        p.add_argument(
            "--no-wait",
            action="store_true",
            help="print the job id and return without waiting",
        )
        p.add_argument(
            "--wait-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="give up waiting after SECONDS (default: wait forever)",
        )
        p.add_argument(
            "--stream",
            action="store_true",
            help="print progress events (NDJSON) to stderr while waiting",
        )
        p.add_argument(
            "--json", action="store_true", help="print the raw result JSON"
        )

    submit_verify = submit_sub.add_parser(
        "verify", help="verify a workload family or litmus program"
    )
    submit_verify.add_argument(
        "family", help="workload family or litmus test name"
    )
    submit_verify.add_argument("--n", type=int, default=2)
    submit_verify.add_argument("--model", default="sc")
    submit_verify.add_argument(
        "--model-file", metavar="PATH", help=model_file_help
    )
    submit_common(submit_verify)

    submit_litmus = submit_sub.add_parser(
        "litmus", help="run one litmus test for a verdict"
    )
    submit_litmus.add_argument("test", help="litmus test name")
    submit_litmus.add_argument("--model", default="sc")
    submit_litmus.add_argument(
        "--model-file", metavar="PATH", help=model_file_help
    )
    submit_common(submit_litmus)

    submit_suite = submit_sub.add_parser(
        "suite", help="run a litmus-by-model matrix"
    )
    submit_suite.add_argument(
        "--litmus",
        action="append",
        metavar="TEST",
        help="litmus test to include (repeatable; default: whole corpus)",
    )
    submit_suite.add_argument(
        "--models",
        default="sc,tso,ra",
        metavar="M1,M2,...",
        help="comma-separated model names (default: sc,tso,ra)",
    )
    submit_suite.add_argument(
        "--model-file",
        metavar="PATH",
        help="also include the model from a declarative .cat file",
    )
    submit_common(submit_suite)

    jobs_p = sub.add_parser(
        "jobs", help="inspect jobs on a running verification server"
    )
    jobs_sub = jobs_p.add_subparsers(dest="jobs_command", required=True)

    jobs_list = jobs_sub.add_parser("list", help="recent jobs, newest first")
    jobs_list.add_argument("--url", default=None, help=url_help)
    jobs_list.add_argument("--limit", type=int, default=100)
    jobs_list.add_argument(
        "--json", action="store_true", help="emit the status documents"
    )

    jobs_show = jobs_sub.add_parser("show", help="one job's status document")
    jobs_show.add_argument("id", help="job id")
    jobs_show.add_argument("--url", default=None, help=url_help)

    jobs_cancel = jobs_sub.add_parser("cancel", help="cancel a queued job")
    jobs_cancel.add_argument("id", help="job id")
    jobs_cancel.add_argument("--url", default=None, help=url_help)

    runs = sub.add_parser(
        "runs",
        help="inspect and compare stored run manifests (see --save-run)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def runs_dir_arg(p):
        p.add_argument(
            "--dir",
            metavar="DIR",
            default=None,
            help="run store directory "
            "(default: $REPRO_RUNS_DIR or .repro/runs)",
        )

    runs_list = runs_sub.add_parser("list", help="list stored runs")
    runs_dir_arg(runs_list)
    runs_list.add_argument(
        "--json", action="store_true", help="emit the full manifests as JSON"
    )

    runs_show = runs_sub.add_parser("show", help="print one run manifest")
    runs_dir_arg(runs_show)
    runs_show.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run id, unambiguous prefix, manifest path, or 'latest'",
    )

    runs_diff = runs_sub.add_parser("diff", help="compare two runs")
    runs_dir_arg(runs_diff)
    runs_diff.add_argument("old", help="baseline run id/prefix/path")
    runs_diff.add_argument("new", help="current run id/prefix/path")
    runs_diff.add_argument(
        "--json", action="store_true", help="emit the diff as JSON"
    )

    runs_check = runs_sub.add_parser(
        "check", help="gate a run against a baseline manifest (CI)"
    )
    runs_dir_arg(runs_check)
    runs_check.add_argument(
        "run",
        nargs="?",
        default=None,
        help="run to check (default: latest stored run)",
    )
    runs_check.add_argument(
        "--baseline",
        required=True,
        metavar="PATH",
        help="baseline manifest (run id/prefix or path)",
    )
    runs_check.add_argument(
        "--max-ratio",
        type=float,
        default=1.5,
        metavar="R",
        help="timing regression threshold (default 1.5x)",
    )
    runs_check.add_argument(
        "--warn-only",
        action="store_true",
        help="report violations but exit 0 (CI soft gate)",
    )

    return parser


_COMMANDS = {
    "models": _cmd_models,
    "backends": _cmd_backends,
    "litmus": _cmd_litmus,
    "litmus-file": _cmd_litmus_file,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
    "repair": _cmd_repair,
    "estimate": _cmd_estimate,
    "experiment": _cmd_experiment,
    "cat-check": _cmd_cat_check,
    "trace": _cmd_trace,
    "trace-summary": _cmd_trace_summary,
    "runs": _cmd_runs,
    "suite": _cmd_suite,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # terminate any partial progress/heartbeat line cleanly, then
        # report the conventional 128+SIGINT exit status
        sys.stderr.write("\ninterrupted\n")
        sys.stderr.flush()
        return 130
    except BrokenPipeError:
        # downstream consumer (| head, | less) closed the pipe; point
        # stdout at devnull so interpreter shutdown doesn't re-raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
