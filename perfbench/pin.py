"""Regenerate ``reference.json``: the pinned serial results of the
deep-verify and shard corpora, each cross-checked once against the
herd-style brute force where it can enumerate the entry.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/pin.py

The pins are the checker's own serial answers, so they are only
accepted when the brute force (a separate enumerator) agrees: the same
executions and outcome set, and errors iff it finds errors.  An entry
whose candidate space exceeds :data:`BUDGET` is pinned unchecked and
marked so in the file.  The script exits 1 on any disagreement.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEEP_ENTRIES, SHARD_ENTRIES, _corpus, outcome_map  # noqa: E402

#: most brute-force candidates enumerated per entry
BUDGET = 500_000


def pin(entries) -> tuple[dict, int]:
    from repro import verify
    from repro.baselines.exhaustive import brute_force

    out, disagreements = {}, 0
    for key, program, model, options in _corpus(entries):
        options = {k: v for k, v in options.items() if k != "jobs"}
        result = verify(program, model, **options)
        row = {
            "executions": result.executions,
            "blocked": result.blocked,
            "duplicates": result.duplicates,
            "errors": len(result.errors),
            "truncated": result.truncated,
            "options": options,
            "outcomes": outcome_map(result.outcomes),
        }
        started = time.perf_counter()
        try:
            bf = brute_force(program, model, max_candidates=BUDGET)
        except RuntimeError as exc:
            row["brute_force"] = {"checked": False, "reason": str(exc)}
        else:
            bf_outcomes = {
                ",".join(f"{k}={v}" for k, v in outcome) for outcome in bf.outcomes
            }
            agrees = (bf.errors > 0) == (result.errors != [])
            if not result.truncated:
                agrees = agrees and bf.executions == result.executions
                agrees = agrees and bf_outcomes == set(row["outcomes"])
            row["brute_force"] = {
                "checked": True,
                "agrees": agrees,
                "executions": bf.executions,
                "errors": bf.errors,
                "candidates": bf.candidates,
                "seconds": round(time.perf_counter() - started, 3),
            }
            disagreements += not agrees
        print(key, row["executions"], row["brute_force"], file=sys.stderr)
        out[key] = row
    return out, disagreements


def main() -> int:
    deep, bad_deep = pin(DEEP_ENTRIES)
    shard, bad_shard = pin(SHARD_ENTRIES)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"deep-verify": deep, "shard": shard}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad_deep or bad_shard else 0


if __name__ == "__main__":
    sys.exit(main())
