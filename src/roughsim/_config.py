"""Process-wide knobs: worker count for the batched FFT convolution."""

from __future__ import annotations

import os

from roughsim.shocks import check_int

_threads = None  # ROUGHSIM_THREADS, read on first use, until set_threads


def get_threads() -> int:
    """Worker count used by scipy.fft for batched transforms: until set,
    ROUGHSIM_THREADS (default 1), held to `set_threads`'s rule."""
    if _threads is None:
        text = os.environ.get("ROUGHSIM_THREADS", "1")
        try:
            set_threads(int(text))
        except ValueError:
            raise ValueError("ROUGHSIM_THREADS must be an integer >= 1, got "
                             f"{text!r}") from None
    return _threads


def set_threads(count: int) -> None:
    """Cap the FFT worker pool; results are bitwise independent of it."""
    global _threads
    _threads = check_int("thread count", count)
