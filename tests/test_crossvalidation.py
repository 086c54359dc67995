"""Differential validation: HMC vs the herd-style brute force.

The brute force enumerates *all* (resolution, rf, co) candidates and
filters by the axioms, so it is ground truth for the set of consistent
execution graphs.  These tests assert exact set equality on random
programs across every model — the soundness+completeness claim of the
paper, checked end to end.  (A much larger sweep of the same shape ran
offline; see EXPERIMENTS.md.)
"""

import pytest

from repro import verify
from repro.baselines.exhaustive import brute_force
from repro.graphs import canonical_key
from repro.util.randprog import RandomProgramGenerator

MODELS = ("sc", "tso", "pso", "ra", "rc11", "imm", "armv8", "power", "coherence")


def _check(program, model, budget=150_000):
    """Compare HMC against the ground truth; returns None when the
    program's candidate space exceeds the unit-test budget (the big
    offline sweeps cover those — see EXPERIMENTS.md)."""
    try:
        bf = brute_force(program, model, max_candidates=budget)
    except RuntimeError:
        return None
    result = verify(program, model, stop_on_error=False, collect_executions=True)
    keys = {canonical_key(g) for g in result.execution_graphs}
    assert keys == bf.keys, (
        f"{program.name} under {model}: hmc found {len(keys)}, "
        f"brute force {len(bf.keys)} "
        f"(missing {len(bf.keys - keys)}, spurious {len(keys - bf.keys)})"
    )
    return result, bf


@pytest.mark.parametrize("model", MODELS)
def test_random_programs_match_ground_truth(model):
    gen = RandomProgramGenerator(seed=1234, max_threads=3, max_stmts=3)
    checked = sum(
        _check(program, model) is not None for program in gen.programs(12)
    )
    assert checked >= 8  # most programs must fit the oracle budget


@pytest.mark.parametrize("model", MODELS)
def test_dependency_heavy_programs(model):
    gen = RandomProgramGenerator(
        seed=77, with_fences=False, max_threads=2, max_stmts=4
    )
    checked = sum(
        _check(program, model) is not None for program in gen.programs(8)
    )
    assert checked >= 5


@pytest.mark.parametrize("model", ("sc", "imm", "power"))
def test_rmw_heavy_programs(model):
    gen = RandomProgramGenerator(
        seed=31, with_fences=False, with_deps=False, max_stmts=2
    )
    checked = sum(
        _check(program, model) is not None for program in gen.programs(8)
    )
    assert checked >= 5


def test_outcome_sets_match_too():
    gen = RandomProgramGenerator(seed=5, max_threads=2, max_stmts=3)
    checked = 0
    for program in gen.programs(6):
        pair = _check(program, "tso")
        if pair is None:
            continue
        result, bf = pair
        assert set(result.outcomes) == bf.outcomes
        assert set(result.final_states) == bf.final_states
        checked += 1
    assert checked >= 4


def test_soundness_no_spurious_graphs_ever():
    """Every graph HMC emits is model-consistent (checked directly)."""
    from repro.models import get_model

    gen = RandomProgramGenerator(seed=400)
    for program in gen.programs(6):
        for model in ("tso", "imm"):
            result = verify(
                program, model, stop_on_error=False, collect_executions=True
            )
            checker = get_model(model)
            for graph in result.execution_graphs:
                assert checker.is_consistent(graph)


@pytest.mark.parametrize("model", ("sc", "tso", "imm"))
def test_programs_with_assumes(model):
    """Blocked executions must be excluded identically on both sides."""
    gen = RandomProgramGenerator(
        seed=55, with_assumes=True, max_threads=2, max_stmts=3
    )
    checked = sum(
        _check(program, model) is not None for program in gen.programs(8)
    )
    assert checked >= 5
