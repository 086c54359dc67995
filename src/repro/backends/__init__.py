"""repro.backends — one uniform entry point for every exploration engine.

Every way this repo can explore a program's behaviours — the HMC
explorer (serial or subtree-parallel) and the five comparison baselines
— sits behind the :class:`Backend` protocol::

    from repro.backends import get_backend

    result = get_backend("hmc").run(program, "tso", options, observer)
    result = get_backend("hmc-parallel").run(program, "imm", options)
    result = get_backend("dpor").run(program)           # SC-only baseline

``run`` always returns a :class:`~repro.core.result.VerificationResult`;
baseline-specific counters (trace counts, sleep-set prunes, candidate
counts, ...) land in ``result.meta``, and baselines that count error
*traces* rather than collecting witnesses report placeholder
:class:`~repro.core.result.ErrorReport` entries (message only) so
``len(result.errors)``/``result.ok`` stay meaningful.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from ..core.config import ExplorationOptions
from ..core.explorer import verify
from ..core.result import ErrorReport, VerificationResult
from ..lang import Program
from ..models import MemoryModel, get_model
from ..obs import NULL_OBSERVER


@runtime_checkable
class Backend(Protocol):
    """A verification engine with a uniform ``run`` signature."""

    name: str
    description: str
    #: model names the backend accepts; None = any registered model
    models: tuple[str, ...] | None

    def run(
        self,
        program: Program,
        model: MemoryModel | str = "sc",
        options: ExplorationOptions | None = None,
        observer=NULL_OBSERVER,
    ) -> VerificationResult:
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class _FunctionBackend:
    """A backend defined by a plain runner function."""

    name: str
    description: str
    models: tuple[str, ...] | None
    _runner: Callable[..., VerificationResult]

    def run(
        self,
        program: Program,
        model: MemoryModel | str = "sc",
        options: ExplorationOptions | None = None,
        observer=NULL_OBSERVER,
    ) -> VerificationResult:
        model_name = model if isinstance(model, str) else model.name
        if self.models is not None and model_name not in self.models:
            raise ValueError(
                f"backend {self.name!r} only supports models "
                f"{'/'.join(self.models)}, not {model_name!r}"
            )
        # model objects (e.g. unregistered CatModels loaded from .cat
        # files) pass through untouched; runners that only need a name
        # normalise themselves
        return self._runner(
            program, model, options or ExplorationOptions(), observer
        )


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add ``backend`` to the registry (name collisions overwrite)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a backend by name, with a helpful error on typos."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown backend {name!r}; known: {known}") from None


def backend_names() -> list[str]:
    return sorted(_REGISTRY)


def all_backends() -> list[Backend]:
    return [_REGISTRY[name] for name in backend_names()]


# -- engine adapters ------------------------------------------------------


def _run_hmc(program, model_name, options, observer) -> VerificationResult:
    # verify() resolves jobs via options.jobs / REPRO_JOBS and runs a
    # one-job or unshardable search serially
    return verify(program, model_name, options=options, observer=observer)


def _placeholder_errors(count: int, tool: str) -> list[ErrorReport]:
    """Baselines count error traces; synthesise witness-less reports so
    ``ok``/``len(errors)`` behave uniformly across backends."""
    report = ErrorReport(
        message=f"assertion failure ({tool} baseline records no witness)",
        thread=-1,
        witness="",
    )
    return [report] * count


def _counter(values) -> Counter:
    return Counter({value: 1 for value in values})


def _progress_of(observer):
    return getattr(observer, "progress", None)


def _run_interleaving(program, model_name, options, observer) -> VerificationResult:
    from ..baselines import interleaving

    start = time.perf_counter()
    raw = interleaving.explore_interleavings(
        program,
        max_traces=options.max_explored,
        progress=_progress_of(observer),
    )
    result = VerificationResult(program=program.name, model=model_name)
    result.executions = raw.executions
    result.blocked = raw.blocked
    result.errors = _placeholder_errors(raw.errors, "interleaving")
    result.final_states = _counter(raw.final_states)
    result.elapsed = time.perf_counter() - start
    result.meta = {"traces": raw.traces, "steps": raw.steps}
    return result


def _run_dpor(program, model_name, options, observer) -> VerificationResult:
    from ..baselines import dpor

    start = time.perf_counter()
    raw = dpor.explore_dpor(
        program,
        max_traces=options.max_explored,
        progress=_progress_of(observer),
    )
    result = VerificationResult(program=program.name, model=model_name)
    result.executions = raw.executions
    result.blocked = raw.blocked
    result.errors = _placeholder_errors(raw.errors, "dpor")
    result.final_states = _counter(raw.final_states)
    result.elapsed = time.perf_counter() - start
    result.meta = {"traces": raw.traces, "steps": raw.steps, "slept": raw.slept}
    return result


def _run_storebuffer(program, model_name, options, observer) -> VerificationResult:
    from ..baselines import storebuffer

    start = time.perf_counter()
    raw = storebuffer.explore_store_buffers(
        program,
        model_name,
        max_traces=options.max_explored,
        progress=_progress_of(observer),
    )
    result = VerificationResult(program=program.name, model=model_name)
    result.executions = raw.executions
    result.blocked = raw.blocked
    result.errors = _placeholder_errors(raw.errors, "storebuffer")
    result.final_states = _counter(raw.final_states)
    result.elapsed = time.perf_counter() - start
    result.meta = {"traces": raw.traces, "steps": raw.steps}
    return result


def _run_statehash(program, model_name, options, observer) -> VerificationResult:
    from ..baselines import statehash

    start = time.perf_counter()
    raw = statehash.explore_with_state_hashing(
        program, progress=_progress_of(observer)
    )
    result = VerificationResult(program=program.name, model=model_name)
    # state hashing counts reachable *states*, not executions; the state
    # count is what the comparison tables report for it
    result.executions = raw.states
    result.blocked = raw.blocked
    result.errors = _placeholder_errors(raw.errors, "statehash")
    result.final_states = _counter(raw.final_states)
    result.elapsed = time.perf_counter() - start
    result.meta = {"steps": raw.steps, "terminal": raw.terminal}
    return result


def _run_exhaustive(program, model_name, options, observer) -> VerificationResult:
    from ..baselines import exhaustive

    start = time.perf_counter()
    raw = exhaustive.brute_force(
        program, model_name, progress=_progress_of(observer)
    )
    result = VerificationResult(program=program.name, model=model_name)
    result.executions = raw.executions
    result.blocked = raw.blocked
    result.errors = _placeholder_errors(raw.errors, "exhaustive")
    result.outcomes = _counter(raw.outcomes)
    result.final_states = _counter(raw.final_states)
    result.elapsed = time.perf_counter() - start
    result.meta = {"candidates": raw.candidates, "combos": raw.combos}
    return result


register_backend(
    _FunctionBackend(
        "hmc",
        "the HMC explorer (DFS over execution graphs; sharded with jobs > 1)",
        None,
        _run_hmc,
    )
)
register_backend(
    _FunctionBackend(
        "hmc-parallel",
        "HMC with subtree work-sharding over a process pool (same as hmc)",
        None,
        _run_hmc,
    )
)
register_backend(
    _FunctionBackend(
        "interleaving",
        "exhaustive SC interleaving enumeration (stateless baseline)",
        ("sc",),
        _run_interleaving,
    )
)
register_backend(
    _FunctionBackend(
        "dpor",
        "sleep-set dynamic partial-order reduction under SC",
        ("sc",),
        _run_dpor,
    )
)
register_backend(
    _FunctionBackend(
        "storebuffer",
        "operational TSO/PSO store-buffer machine enumeration",
        ("tso", "pso"),
        _run_storebuffer,
    )
)
register_backend(
    _FunctionBackend(
        "statehash",
        "SPIN-style explicit-state search with state hashing (SC)",
        ("sc",),
        _run_statehash,
    )
)
register_backend(
    _FunctionBackend(
        "exhaustive",
        "herd-style axiomatic brute force over all candidate executions",
        None,
        _run_exhaustive,
    )
)

__all__ = [
    "Backend",
    "all_backends",
    "backend_names",
    "get_backend",
    "register_backend",
]
