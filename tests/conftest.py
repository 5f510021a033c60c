"""Shared fixtures."""

import pytest

from roughsim import _config


@pytest.fixture
def set_threads(monkeypatch):
    """`roughsim._config.set_threads` for one test: the process-wide
    thread count is put back after it."""
    monkeypatch.setattr(_config, "_threads", _config._threads)
    return _config.set_threads
