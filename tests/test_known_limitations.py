"""Known, documented limitations — pinned so any change in behaviour
is noticed.  There are two.

The completeness gap: under *porf-cyclic* models, an
execution that requires a CAS to flip between success and failure
while its thread's po-suffix is causally needed by the revisiting
write cannot be produced by single-read backward revisits (the kept
set is po ∪ rf closed, and the suffix would have to change shape).
Constructing such executions needs multi-read revisits, which the
original tools handle with additional machinery out of scope here.

Measured incidence (differential sweep, EXPERIMENTS.md): zero for all
porf-acyclic models and for IMM/ARMv8 everywhere; a handful of
executions in ~2/280 random RMW-heavy programs under POWER and
coherence-only (whose axioms are weak enough to admit those chains).
The gap is *completeness-only*: no spurious executions are ever
produced.

The trace drift under ``jobs > 1``: a pooled task returns its trace
records only through a file (``<trace>.worker<i>``, see
docs/OBSERVABILITY.md), so a coordinator tracing to any other sink —
``Observer.in_memory()``, or a ``hmc serve --jobs 2`` job's event feed
— receives no worker's exploration records (``run_start``,
``rf_branch``, ``graph_complete``, ...), and its trace summary
undercounts.  Counters, histograms, spans and the result itself are
unaffected.
"""

import pytest

from repro import Observer, verify
from repro.baselines.exhaustive import brute_force
from repro.bench.workloads import FAMILIES
from repro.graphs import canonical_key
from repro.obs import summarize_records
from repro.util.randprog import RandomProgramGenerator


def _gap_program():
    """The first sweep witness (random program rand-61, seed 7)."""
    return list(RandomProgramGenerator(seed=7).programs(62))[61]


def _power_gap_program():
    """The POWER-affecting witness (random program rand-13, seed 99)."""
    return list(RandomProgramGenerator(seed=99).programs(14))[13]


@pytest.mark.xfail(
    reason="known gap: CAS status flips inside a kept causal chain need "
    "multi-read revisits (see module docstring)",
    strict=True,
)
def test_cas_flip_chain_completeness_under_coherence():
    program = _gap_program()
    bf = brute_force(program, "coherence")
    result = verify(
        program, "coherence", stop_on_error=False, collect_executions=True
    )
    keys = {canonical_key(g) for g in result.execution_graphs}
    assert keys == bf.keys


def test_gap_is_completeness_only():
    """Even on the gap witness, everything found is consistent and a
    subset of the ground truth (soundness intact)."""
    program = _gap_program()
    bf = brute_force(program, "coherence")
    result = verify(
        program, "coherence", stop_on_error=False, collect_executions=True
    )
    keys = {canonical_key(g) for g in result.execution_graphs}
    assert keys <= bf.keys
    assert len(keys) >= len(bf.keys) - 4


def test_gap_absent_under_annotated_models():
    """IMM/ARMv8 order the chains through their dependency/annotation
    axioms: no gap there, on either witness."""
    for program in (_gap_program(), _power_gap_program()):
        for model in ("imm", "armv8"):
            bf = brute_force(program, model)
            result = verify(
                program, model, stop_on_error=False, collect_executions=True
            )
            keys = {canonical_key(g) for g in result.execution_graphs}
            assert keys == bf.keys, (program.name, model)


@pytest.mark.xfail(
    reason="known gap: the CAS-flip chains can also be power-consistent",
    strict=True,
)
def test_cas_flip_chain_completeness_under_power():
    program = _power_gap_program()
    bf = brute_force(program, "power")
    result = verify(
        program, "power", stop_on_error=False, collect_executions=True
    )
    keys = {canonical_key(g) for g in result.execution_graphs}
    assert keys == bf.keys


def test_power_gap_is_completeness_only():
    program = _power_gap_program()
    bf = brute_force(program, "power")
    result = verify(
        program, "power", stop_on_error=False, collect_executions=True
    )
    keys = {canonical_key(g) for g in result.execution_graphs}
    assert keys <= bf.keys


@pytest.mark.xfail(
    reason="known drift: pooled tasks return trace records only to a "
    "file sink (see module docstring)",
    strict=True,
)
def test_pooled_trace_records_reach_a_memory_sink():
    program = FAMILIES["sb"](3)
    counts = []
    for jobs in (1, 2):
        observer = Observer.in_memory()
        verify(program, "tso", jobs=jobs, observer=observer)
        counts.append(summarize_records(observer.records()).executions)
    assert counts == [8, 8]
