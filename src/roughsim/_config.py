"""Process-wide knobs: the thread count of the chunk pool.

`pricing._chunked` runs its chunks on a pool of at most that many
threads, and `pricing.chunk_layout` gives each chunk that share of the
in-flight budget.

The default is the CPUs this process may run on, at most
`_DEFAULT_MAX`: every pooled run so far was timed on two CPUs. On more,
each chunk would hold fewer paths (`pricing.chunk_layout` divides the
in-flight budget by the count) than any measured chunk, the rough-Heston
Euler loop costs more per path in small chunks (the `pricing` sweep) and
holds the interpreter lock; a larger default waits for a workload that
times it.
"""

from __future__ import annotations

import os

from roughsim.shocks import check_int

_DEFAULT_MAX = 2  # the most CPUs a pooled workload has been measured on
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
            raise ValueError("ROUGHSIM_THREADS must be an integer >= 1, got "
                             f"{text!r}") from None
    return _threads


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def set_threads(count: int) -> None:
    """Set the thread count of the chunk pool.

    Results are bitwise independent of it. Each pooled chunk holds
    1/count of the path-steps a chunk holds at count 1, so the paths in
    flight stay within the same memory at every count.
    """
    global _threads
    _threads = check_int("thread count", count)

