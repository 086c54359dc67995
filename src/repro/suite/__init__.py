"""repro.suite — batched suite execution through one shared pool.

The batch analogue of :func:`repro.verify`: describe a set of tasks
(litmus tests, programs, ``.cat`` models, per-task options), hand them
to :func:`run_suite`, and every exploration runs through a single
:class:`~repro.core.parallel.PoolSupervisor`, one whole
task per pool job in the caller's order, with a content-addressed
result cache that makes re-runs of unchanged tasks free.  See
docs/PARALLEL.md ("Batched suites") and docs/API.md.

Typical use::

    from repro import run_suite
    from repro.suite import litmus_matrix

    suite = run_suite(litmus_matrix(models=("sc", "tso", "ra")), jobs=4)
    print(suite.summary())
"""

from .cache import (
    CACHE_DIR_ENV,
    CACHE_ENTRY_KIND,
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    ResultCache,
    task_key,
)
from .result import (
    SUITE_MANIFEST_SCHEMA,
    SuiteResult,
    TaskResult,
    build_suite_manifest,
    check_suite,
    diff_suites,
    format_suite_diff,
)
from .scheduler import (
    SuiteTask,
    litmus_matrix,
    litmus_task,
    program_task,
    run_suite,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_ENTRY_KIND",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "task_key",
    "SUITE_MANIFEST_SCHEMA",
    "SuiteResult",
    "TaskResult",
    "build_suite_manifest",
    "check_suite",
    "diff_suites",
    "format_suite_diff",
    "SuiteTask",
    "litmus_matrix",
    "litmus_task",
    "program_task",
    "run_suite",
]
