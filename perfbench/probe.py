"""Speed probe: how much CPU time a fixed unit of Python work takes, over time.

    python3 perfbench/probe.py

run.py starts this beside the CLI children, pinned to the same CPU.  Every
PERIOD_S it runs `work()` once and records (midpoint on the perf_counter
clock, CPU time of the unit).  CPU time of the probe's own thread is immune
to the probe being preempted by a child, but grows when the CPU runs
slower, so the samples track the machine's speed while a child runs.
It stops when its stdin closes and prints the samples as one JSON list.
"""

from __future__ import annotations

import json
import select
import sys
from time import perf_counter, thread_time

PERIOD_S = 0.1


def work() -> int:
    """About 3 ms of dict, tuple and integer work, the kind the program does."""
    d = {}
    acc = 0
    for i in range(5000):
        d[(i, i * 7, i ^ 5)] = acc
        acc = (acc + i * i) % 1000003
    return acc + len(d) + sum(tuple(j * 3 + 1 for j in range(7500)))


def main() -> int:
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.buffer.read1(4096):
            break
        t0, c0 = perf_counter(), thread_time()
        work()
        samples.append(((t0 + perf_counter()) / 2, thread_time() - c0))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
