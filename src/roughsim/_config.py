"""Process-wide knobs: the thread count of the chunk pool.

`pricing._chunked` runs its chunks on a pool of at most that many
threads, and `pricing.chunk_layout` gives each chunk that share of the
in-flight budget.

The default is the CPUs this process may run on, at most
`_DEFAULT_MAX`: every pooled run so far was timed on two CPUs. On more,
each chunk would hold fewer paths (`pricing.chunk_layout` divides the
in-flight budget by the count) than any measured chunk, and the
rough-Heston Euler loop costs more per path in small chunks (the
`pricing` docstring). Pooled chunks also take turns at the interpreter
lock between its steps' ufunc calls: for 4096 paths at n=2048 it took
0.32 s in 512-row chunks on two threads, against 0.21 s inline in
1024-row ones (`volterra.euler_diffusion`). A larger default waits for
a workload that times it. Every route (`set_threads`, `--threads`,
ROUGHSIM_THREADS) refuses a count of `_BOUND` or more: the pool would
start that many.
"""

from __future__ import annotations

import os

from roughsim.shocks import check_int

_DEFAULT_MAX = 2  # the most CPUs a pooled workload has been measured on
_BOUND = 2 ** 8  # a power of two, so `check_int` words it exactly
_threads = None  # ROUGHSIM_THREADS, read on first use, until set_threads


def get_threads() -> int:
    """Thread count of the chunk pool: until set, ROUGHSIM_THREADS
    (default: the CPUs this process may run on, at most `_DEFAULT_MAX`),
    held to `set_threads`'s rule."""
    if _threads is None:
        text = os.environ.get("ROUGHSIM_THREADS",
                              str(min(_cpus(), _DEFAULT_MAX)))
        try:
            set_threads(int(text))
        except ValueError:
            # text is never an int, so this refuses it, naming the variable
            check_int("ROUGHSIM_THREADS", text, 1, _BOUND)
    return _threads


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def set_threads(count: int) -> None:
    """Set the thread count of the chunk pool, an integer in [1, `_BOUND`).

    Results are bitwise independent of it. Each pooled chunk holds
    1/count of the path-steps a chunk holds at count 1, so the paths in
    flight stay within the same memory at every count.
    """
    global _threads
    _threads = check_int("thread count", count, 1, _BOUND)

