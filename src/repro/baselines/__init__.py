"""Baseline explorers the paper compares against: axiomatic brute
force (herd-style), SC interleaving enumeration, sleep-set DPOR,
explicit-state hashing, and operational store-buffer machines
(Nidhugg-style).

Select an engine through the backend registry, which returns a
:class:`~repro.core.result.VerificationResult`::

    from repro.backends import get_backend

    result = get_backend("dpor").run(program)

The raw implementations, with their per-baseline result types, live in
the submodules (``repro.baselines.dpor.explore_dpor`` & co.).
"""

from .dpor import DporResult
from .exhaustive import BruteForceResult
from .interleaving import InterleavingResult
from .statehash import StateHashResult
from .storebuffer import StoreBufferResult

__all__ = [
    "BruteForceResult",
    "DporResult",
    "InterleavingResult",
    "StateHashResult",
    "StoreBufferResult",
]
