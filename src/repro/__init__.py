"""repro — a reproduction of *HMC: Model Checking for Hardware Memory
Models* (Kokologiannakis & Vafeiadis, ASPLOS 2020).

A stateless model checker for bounded concurrent programs, parametric
in an axiomatic memory model (SC, x86-TSO, PSO, RA, RC11, IMM, ARMv8,
POWER).  Quickstart::

    from repro import ProgramBuilder, verify

    p = ProgramBuilder("SB")
    t1 = p.thread(); t1.store("x", 1); a = t1.load("y")
    t2 = p.thread(); t2.store("y", 1); b = t2.load("x")
    p.observe(a, b)

    print(verify(p.build(), "tso").summary())

This module is the **one public API surface**: everything an
application needs — verification, litmus verdicts, model comparison,
fence synthesis, batched suites, ``.cat`` model loading — is importable
from ``repro`` directly, and ``tests/test_api_surface.py`` pins the
exact export list.  Submodules remain importable for power users
(``repro.suite``, ``repro.obs``, ``repro.backends``, ...), but any
name starting with an underscore, and any submodule name not
re-exported here, is internal by convention and may change without
notice.  See docs/API.md for the full reference and the migration
guide from pre-façade imports.
"""

__version__ = "2.0.0"

# the façade: entry points ----------------------------------------------
from .core import (
    Estimate,
    ExplorationOptions,
    Explorer,
    VerificationResult,
    count_executions,
    estimate_explorations,
    resolve_options,
    verify,
)
from .core.compare import ModelComparison, compare_models
from .core.repair import RepairResult, synthesize_fences

# programs and models ---------------------------------------------------
from .events import FenceKind, MemOrder
from .lang import Program, ProgramBuilder
from .models import (
    MemoryModel,
    all_models,
    get_model,
    load_cat,
    model_names,
)

# litmus tests ----------------------------------------------------------
from .litmus import (
    LitmusTest,
    LitmusVerdict,
    all_litmus_tests,
    get_litmus,
    litmus_names,
    parse_litmus,
    run_litmus,
)

# batched suites --------------------------------------------------------
from .suite import (
    SuiteResult,
    SuiteTask,
    TaskResult,
    litmus_matrix,
    litmus_task,
    program_task,
    run_suite,
)

# observability ---------------------------------------------------------
from .obs import Observer, ProgressReporter, SpanTracer

# the verification service ----------------------------------------------
from .service import ServiceClient, ServiceError, serve

__all__ = [
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
