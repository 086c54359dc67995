"""P1 — serial vs parallel subtree sharding.

The correctness half of the parallel engine's claim is asserted
(identical execution, blocked and duplicate counts: the shard tasks
share one revisit memo); the timing half is recorded, not
asserted, because the speedup is hardware-dependent — on a single-CPU
host the pool is pure overhead and the ratio is honestly < 1 (see
docs/PARALLEL.md and EXPERIMENTS.md §P1).
"""

import pytest

from repro.bench.harness import serial_vs_parallel
from repro.bench.workloads import ainc, sb_n


@pytest.mark.parametrize(
    "name,program,model",
    [
        ("sb(4)", sb_n(4), "tso"),
        ("sb(5)", sb_n(5), "sc"),
        ("ainc(4)", ainc(4), "sc"),
    ],
)
def test_p1_serial_vs_parallel(benchmark, name, program, model, record_rows):
    rows = benchmark.pedantic(
        serial_vs_parallel,
        args=(program, model, 4),
        rounds=1,
        iterations=1,
    )
    serial, parallel = rows
    record_rows(f"P1 {name}", rows)
    assert parallel.executions == serial.executions
    assert parallel.blocked == serial.blocked
    assert parallel.extra["duplicates"] == serial.extra["duplicates"]
    assert parallel.errors == serial.errors
    assert "speedup" in parallel.extra
