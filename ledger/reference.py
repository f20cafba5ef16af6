"""A fixed reference task that gauges how fast this process runs.

The host this benchmark was built on (a 2-core VM on a shared machine)
runs the same Python code up to 1.6x slower for stretches of seconds to
minutes, and some processes run slower than others for their whole
life; the fastest sample of an operation then moves with the run, not
with the program.  Each workload times :func:`run` at fixed points of
its loop, interleaved with its own operations; the end-to-end times are
then stated at the reference speed: multiplied by ``REFERENCE_MS`` over
the fastest time this task took in the same run (``worker.end_to_end``).

The task is pure Python of the kind the program's own work is made of
(tuples, dicts, lists, sets and a sort, about 2.5 ms) and calls nothing
of the program, so a change to the program does not change its time.
"""

from __future__ import annotations

import time

SIZE = 6000

# The task's fastest time, in ms, on the host the benchmark was built on
# (2-core Intel Xeon VM, Python 3.11): the end-to-end times are stated
# for a host as fast as that one at its fastest.
REFERENCE_MS = 2.5


def _task() -> int:
    rows = [(i, (i * 7919) % SIZE) for i in range(SIZE)]
    index = {}
    for left, right in rows:
        index.setdefault(right % 97, []).append((left, right))
    seen = {right for _, right in rows if right & 1}
    rows.sort(key=lambda row: row[1])
    return len(index) + len(seen) + rows[0][0]


def run() -> float:
    """Seconds one reference task takes."""
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start
