"""A fixed pure-Python task that measures how fast this machine runs Python right now.

On a shared machine the same code runs up to twice as slow for seconds to
an hour at a time (see README.md, "Noise").  The benchmark times this task
next to each timed command and reports times in reference seconds:

    reference seconds = measured seconds * REFERENCE_TASK_S / task seconds

where the task seconds are measured just before and just after the timed
code.  The task uses no repeaterchain code, so a change to the package
cannot change it; it is a breadth-first search over tuples with a dict of
seen states, the kind of interpreter work the package's enumeration, arc
building and simulator do.  numpy-bound work slows far less on this
machine, so a timing that is mostly numpy is over-corrected in slow phases.
"""

from __future__ import annotations

import time

# Seconds the task takes on the 2-CPU virtual machine the benchmark was
# built on, in its fast phases; only the scale of reported times depends on it.
REFERENCE_TASK_S = 0.025


def _search() -> int:
    start = (0, 0, 0, 0, 0)
    seen = {start: 0}
    frontier = [start]
    while frontier:
        following = []
        for state in frontier:
            for i in range(5):
                successor = state[:i] + ((state[i] + 1) % 6,) + state[i + 1 :]
                if successor not in seen:
                    seen[successor] = len(seen)
                    following.append(successor)
        frontier = following
    return len(seen)


def task_seconds() -> float:
    """Wall time of one run of the reference task."""
    start = time.perf_counter()
    _search()
    return time.perf_counter() - start


def scale(seconds: float, task_before: float, task_after: float) -> float:
    """``seconds`` in reference seconds, given the task times around them."""
    return seconds * REFERENCE_TASK_S * 2.0 / (task_before + task_after)
