"""A wall-clock budget that turns a hang into a test failure."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

needs_alarm = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")


@contextmanager
def time_budget(seconds):
    """Raise TimeoutError in place of a hang."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
