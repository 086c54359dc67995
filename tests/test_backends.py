"""Tests for the unified backend registry (`repro.backends`)."""

import pytest

from repro.backends import (
    Backend,
    all_backends,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core import ExplorationOptions, Explorer, VerificationResult
from repro.lang import ProgramBuilder


def sb():
    p = ProgramBuilder("SB")
    t1 = p.thread(); t1.store("x", 1); a = t1.load("y")
    t2 = p.thread(); t2.store("y", 1); b = t2.load("x")
    p.observe(a, b)
    return p.build()


def racy():
    p = ProgramBuilder("racy-assert")
    t1 = p.thread(); t1.store("x", 1)
    t2 = p.thread(); r = t2.load("x"); t2.assert_(r.eq(0), "saw the store")
    return p.build()


class TestRegistry:
    def test_known_names(self):
        assert {
            "hmc",
            "hmc-parallel",
            "interleaving",
            "dpor",
            "storebuffer",
            "statehash",
            "exhaustive",
        } <= set(backend_names())

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="unknown backend.*known:.*hmc"):
            get_backend("nidhugg")

    def test_protocol_conformance(self):
        for backend in all_backends():
            assert isinstance(backend, Backend)
            assert backend.name and backend.description

    def test_model_allowlist(self):
        with pytest.raises(ValueError, match="only supports"):
            get_backend("dpor").run(sb(), "tso")
        with pytest.raises(ValueError, match="only supports"):
            get_backend("storebuffer").run(sb(), "sc")

    def test_register_overwrites(self):
        original = get_backend("hmc")
        try:
            register_backend(original)  # same instance, same name: no-op
            assert get_backend("hmc") is original
        finally:
            register_backend(original)


class TestUniformResults:
    def test_every_backend_returns_verification_result(self):
        program = sb()
        for name in backend_names():
            backend = get_backend(name)
            model = "sc" if backend.models is None or "sc" in backend.models else backend.models[0]
            result = backend.run(program, model)
            assert isinstance(result, VerificationResult), name
            assert result.program == program.name, name
            assert result.ok, name

    def test_hmc_backend_matches_explorer(self):
        options = ExplorationOptions(stop_on_error=False)
        direct = Explorer(sb(), "tso", options).run()
        via = get_backend("hmc").run(sb(), "tso", options)
        assert via.executions == direct.executions
        assert via.blocked == direct.blocked
        assert via.outcomes == direct.outcomes

    def test_baseline_adapter_parity(self):
        from repro.baselines.interleaving import explore_interleavings

        raw = explore_interleavings(sb())
        via = get_backend("interleaving").run(sb(), "sc")
        assert via.executions == raw.executions
        assert via.blocked == raw.blocked
        assert via.meta["traces"] == raw.traces

    def test_baseline_error_traces_become_reports(self):
        result = get_backend("interleaving").run(racy(), "sc")
        assert not result.ok
        assert result.errors[0].witness == ""  # placeholder, no witness

    def test_parallel_backend_shards(self):
        options = ExplorationOptions(stop_on_error=False, jobs=2)
        result = get_backend("hmc-parallel").run(sb(), "tso", options)
        serial = get_backend("hmc").run(
            sb(), "tso", ExplorationOptions(stop_on_error=False)
        )
        assert result.meta.get("jobs") == 2
        assert result.executions == serial.executions


class TestDeprecatedWrappers:
    """The ``explore_*``/``brute_force`` wrappers were removed in 2.0;
    the raw implementations they re-exported keep their result types."""

    def test_wrappers_still_return_legacy_types(self):
        from repro.baselines import InterleavingResult
        from repro.baselines.interleaving import explore_interleavings

        raw = explore_interleavings(sb())
        assert isinstance(raw, InterleavingResult)
