"""The :class:`CatModel` adapter: a parsed ``.cat`` spec as a
:class:`~repro.models.base.MemoryModel`.

A ``CatModel`` drops into every place a hand-coded model goes: the
explorer, all backends, ``compare_models``, litmus running, fence
synthesis.  Like the built-in models it checks coherence and RMW
atomicity implicitly (the base-class contract); the file's constraints
are the *global axiom* beyond coherence.

Two knobs the file controls through ``(* repro: ... *)`` directives:

``porf_acyclic`` (default ``true``)
    whether the model forbids po ∪ rf cycles — selects the explorer's
    duplicate-suppression hypothesis, exactly like the attribute on
    hand-coded models.

``prefix`` (default ``porf`` when porf-acyclic, else ``hardware``)
    the causal-prefix notion used during exploration: ``porf``
    (po ∪ rf, the GenMC notion), ``hardware`` (dependency-based, as
    IMM/ARMv8 use), ``hardware-plain`` (dependency-based ignoring
    acquire/release annotations, as POWER uses) or ``minimal``
    (coherence-only: rf sources, RMW pairing, same-location po).

Pickling ships the *source text*: workers reparse on first use, so a
``CatModel`` rides through :mod:`repro.core.parallel` task tuples and
process pools with no registry coordination.
"""

from __future__ import annotations

import os

from ..events import Event
from ..graphs import ExecutionGraph, porf_preds
from ..graphs.incremental import incremental_enabled
from ..models.base import MemoryModel
from ..models.common import hardware_prefix_preds, minimal_prefix_preds
from ..obs.profile import _STATE as _PROFILE
from ..relations import Relation
from .ast import CatSpec
from .errors import CatError, CatSyntaxError
from .eval import Env
from .parser import parse_cat

PREFIX_MODES = ("porf", "hardware", "hardware-plain", "minimal")

_TRUE = ("true", "yes", "1", "on")
_FALSE = ("false", "no", "0", "off")

KNOWN_DIRECTIVES = ("name", "porf_acyclic", "prefix")


def _parse_directives(spec: CatSpec, filename: str | None):
    """Validate the spec's directives; returns (name, porf, prefix)."""
    for key in spec.directives:
        if key not in KNOWN_DIRECTIVES:
            raise CatSyntaxError(
                f"unknown repro: directive {key!r}; known: "
                + ", ".join(KNOWN_DIRECTIVES),
                filename=filename,
            )
    porf_text = spec.directives.get("porf_acyclic", "true").lower()
    if porf_text in _TRUE:
        porf = True
    elif porf_text in _FALSE:
        porf = False
    else:
        raise CatSyntaxError(
            f"porf_acyclic must be true or false, got {porf_text!r}",
            filename=filename,
        )
    prefix = spec.directives.get("prefix")
    if prefix is None:
        prefix = "porf" if porf else "hardware"
    if prefix not in PREFIX_MODES:
        raise CatSyntaxError(
            f"unknown prefix mode {prefix!r}; known: "
            + ", ".join(PREFIX_MODES),
            filename=filename,
        )
    return spec.directives.get("name"), porf, prefix


class CatModel(MemoryModel):
    """A memory model defined by a cat specification."""

    def __init__(
        self,
        spec: CatSpec,
        name: str | None = None,
        filename: str | None = None,
    ) -> None:
        directive_name, porf, prefix = _parse_directives(spec, filename)
        self.spec = spec
        self.filename = filename
        self.name = name or directive_name or "cat"
        self.porf_acyclic = porf
        self.prefix_mode = prefix
        title = spec.title or f"declarative model {self.name!r}"
        origin = f" (from {filename})" if filename else ""
        self.__doc__ = f"{title}{origin}."

    # -- construction ----------------------------------------------------

    @classmethod
    def from_source(
        cls,
        source: str,
        name: str | None = None,
        filename: str | None = None,
    ) -> "CatModel":
        return cls(parse_cat(source, filename), name=name, filename=filename)

    # -- evaluation ------------------------------------------------------

    def env(self, graph: ExecutionGraph) -> Env:
        """The (memoised) evaluation environment for ``graph``.

        Entries live in ``graph._derived`` (keyed per model), so a
        copied graph starts out with its parent's environment: a
        same-version entry is returned as-is, and a stale one is
        *advanced* through the graph's delta log (base-set memos
        extended in place, see :meth:`Env.advanced`) rather than
        rebuilt from nothing.

        In an observed run the environment profiles its memo
        hits/misses and fixpoint rounds into the run's registry (the
        one :class:`repro.obs.profile.activation` installs) — see
        :class:`Env`.
        """
        profiler = _PROFILE.registry
        version = graph._version
        key = ("cat-env", self)
        entry = graph._derived.get(key)
        if entry is not None and entry[1]._profiler is profiler:
            if entry[0] == version:
                return entry[1]
            if incremental_enabled():
                deltas = graph.deltas_since(entry[0])
                if deltas is not None:
                    env = entry[1].advanced(graph, deltas, profiler=profiler)
                    graph._derived[key] = (version, env)
                    return env
        env = Env(graph, self.spec, profiler=profiler)
        graph._derived[key] = (version, env)
        return env

    def axiom_holds(self, graph: ExecutionGraph) -> bool:
        env = self.env(graph)
        return all(env.check(c) for c in self.spec.constraints)

    def axiom_relation(self, graph: ExecutionGraph) -> Relation | None:
        """The single acyclicity relation, when the model is one
        ``acyclic`` constraint (used by diagnosis); None otherwise."""
        constraints = self.spec.constraints
        if len(constraints) == 1 and constraints[0].kind == "acyclic":
            return self.env(graph).constraint_relation(constraints[0])
        return None

    def failed_constraints(self, graph: ExecutionGraph) -> list[str]:
        """Names (or positional labels) of the constraints ``graph``
        violates — the diagnostic behind a 'forbidden' verdict."""
        env = self.env(graph)
        out = []
        for i, constraint in enumerate(self.spec.constraints):
            if not env.check(constraint):
                out.append(constraint.name or f"{constraint.kind}#{i + 1}")
        return out

    # -- exploration hooks ----------------------------------------------

    def prefix_preds(self, graph: ExecutionGraph, ev: Event) -> list[Event]:
        mode = self.prefix_mode
        if mode == "porf":
            return porf_preds(graph, ev)
        if mode == "hardware":
            return hardware_prefix_preds(graph, ev, annotations=True)
        if mode == "hardware-plain":
            return hardware_prefix_preds(graph, ev, annotations=False)
        return minimal_prefix_preds(graph, ev)

    # -- pickling --------------------------------------------------------
    #
    # Ship the source text and identity only: the parse is cheap and
    # the per-graph memo is process-local.

    def __getstate__(self):
        return {
            "name": self.name,
            "source": self.spec.source,
            "filename": self.filename,
        }

    def __setstate__(self, state):
        spec = parse_cat(state["source"], state["filename"])
        self.__init__(spec, name=state["name"], filename=state["filename"])

    def __repr__(self) -> str:
        origin = f" from {self.filename}" if self.filename else ""
        return f"<cat model {self.name}{origin}>"


def load_cat_file(path: str, name: str | None = None) -> CatModel:
    """Parse the ``.cat`` file at ``path`` into a :class:`CatModel`.

    The model's registry name is, in order of preference: the ``name``
    argument, a ``(* repro: name=... *)`` directive, or the file's
    stem.  Raises :class:`OSError` when unreadable and
    :class:`CatError` (with the filename in the message) when invalid —
    including static errors the linter finds (unknown names, set/
    relation mix-ups), so a broken file fails at load time rather than
    mid-exploration.
    """
    from .lint import lint_source  # late: lint imports this module

    with open(path) as handle:
        source = handle.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    try:
        spec = parse_cat(source, filename=path)
        for diag in lint_source(source, filename=path):
            if diag.severity == "error":
                raise CatSyntaxError(
                    diag.message, diag.line, diag.column, filename=path
                )
        return CatModel(
            spec,
            name=name or spec.directives.get("name") or stem,
            filename=path,
        )
    except CatError as exc:
        raise (exc if exc.filename else exc.at(path)) from None
