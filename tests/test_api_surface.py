"""The public API surface: the façade export list is pinned, every
symbol imports, and the engine wrappers removed in 2.0 stay gone."""

import subprocess
import sys

import pytest

import repro

#: the golden export list — an accidental addition or removal on the
#: façade fails here before it reaches users; change it deliberately,
#: together with docs/API.md
PUBLIC_API = [
    # verification
    "verify",
    "count_executions",
    "estimate_explorations",
    "compare_models",
    "synthesize_fences",
    "Explorer",
    "ExplorationOptions",
    "resolve_options",
    "VerificationResult",
    "ModelComparison",
    "RepairResult",
    "Estimate",
    # programs and models
    "Program",
    "ProgramBuilder",
    "MemOrder",
    "FenceKind",
    "MemoryModel",
    "get_model",
    "load_cat",
    "model_names",
    "all_models",
    # litmus
    "LitmusTest",
    "LitmusVerdict",
    "run_litmus",
    "get_litmus",
    "litmus_names",
    "all_litmus_tests",
    "parse_litmus",
    # suites
    "run_suite",
    "SuiteTask",
    "SuiteResult",
    "TaskResult",
    "litmus_task",
    "program_task",
    "litmus_matrix",
    # observability
    "Observer",
    "ProgressReporter",
    "SpanTracer",
    # the verification service
    "ServiceClient",
    "ServiceError",
    "serve",
    "__version__",
]


class TestFacade:
    def test_export_list_is_exactly_the_golden_list(self):
        assert sorted(repro.__all__) == sorted(PUBLIC_API)

    def test_every_symbol_resolves(self):
        for name in PUBLIC_API:
            assert getattr(repro, name, None) is not None, name

    def test_star_import_matches(self):
        namespace = {}
        exec("from repro import *", namespace)
        exported = {n for n in namespace if not n.startswith("__")}
        assert exported == set(PUBLIC_API) - {"__version__"}

    def test_facade_verify_roundtrip(self):
        from repro import ProgramBuilder, run_suite, verify

        p = ProgramBuilder("api-surface")
        t1 = p.thread()
        t1.store("x", 1)
        a = t1.load("y")
        t2 = p.thread()
        t2.store("y", 1)
        b = t2.load("x")
        p.observe(a, b)
        program = p.build()
        assert verify(program, "tso").ok
        suite = run_suite(
            [repro.program_task(program, "sc")], jobs=1, cache=False
        )
        assert suite.tasks[0].ok


class TestDeprecatedShims:
    """The ``explore_*``/``brute_force`` wrappers were removed in 2.0;
    the raw implementations live in the ``repro.baselines`` submodules
    and engines are selected through ``get_backend``."""

    REMOVED = [
        "explore_interleavings",
        "explore_dpor",
        "explore_store_buffers",
        "explore_with_state_hashing",
        "brute_force",
    ]

    def test_removed_shims_are_gone(self):
        import repro.backends as backends
        import repro.baselines as baselines

        for name in self.REMOVED:
            assert not hasattr(backends, name), name
            assert not hasattr(baselines, name), name

    def test_backends_unknown_attribute_raises(self):
        import repro.backends as backends

        with pytest.raises(AttributeError):
            backends.explore_nonsense

    def test_importing_backends_is_warning_free(self):
        code = (
            "import warnings\n"
            "with warnings.catch_warnings():\n"
            "    warnings.simplefilter('error')\n"
            "    import repro.backends\n"
            "    import repro.baselines\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True
        )


class TestOptionConvention:
    """One shared options/overrides convention across entry points."""

    ENTRY_POINTS = "verify count_executions compare_models synthesize_fences run_litmus".split()

    def test_options_and_overrides_conflict_uniformly(self):
        from repro import (
            ExplorationOptions,
            compare_models,
            count_executions,
            get_litmus,
            run_litmus,
            synthesize_fences,
            verify,
        )

        program = get_litmus("SB").program
        options = ExplorationOptions()
        calls = [
            lambda: verify(program, "sc", options=options, max_events=5),
            lambda: count_executions(
                program, "sc", options=options, max_events=5
            ),
            lambda: compare_models(
                program, "sc", "tso", options=options, max_events=5
            ),
            lambda: synthesize_fences(
                program, "tso", options=options, max_events=5
            ),
            lambda: run_litmus(
                get_litmus("SB"), "sc", options=options, max_events=5
            ),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="not both"):
                call()

    def test_overrides_alone_work(self):
        from repro import get_litmus, run_litmus, verify

        program = get_litmus("SB").program
        assert verify(program, "sc", max_events=1_000).ok
        verdict = run_litmus(get_litmus("SB"), "tso", max_events=1_000)
        assert verdict.observed
