"""The HMC core: stateless model checking parametric in the memory model."""

from .config import ExplorationOptions, resolve_options
from .report import from_dict, from_json, to_dict, to_json
from .estimate import Estimate, estimate_explorations
from .explorer import Explorer, count_executions, effective_jobs, verify
from .parallel import (
    PoolSupervisor,
    split_frontier,
    verify_parallel,
)
from .result import (
    ErrorReport,
    ExecutionRecord,
    Stats,
    VerificationResult,
    merge_phase_times,
)
from .revisits import backward_revisits, maximally_added, replay_matches

__all__ = [
    "ErrorReport",
    "Estimate",
    "estimate_explorations",
    "ExecutionRecord",
    "ExplorationOptions",
    "Explorer",
    "PoolSupervisor",
    "resolve_options",
    "Stats",
    "VerificationResult",
    "backward_revisits",
    "count_executions",
    "effective_jobs",
    "from_dict",
    "from_json",
    "maximally_added",
    "merge_phase_times",
    "replay_matches",
    "split_frontier",
    "to_dict",
    "to_json",
    "verify",
    "verify_parallel",
]
