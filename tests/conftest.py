"""Fixtures shared by the test modules."""

import os
import types

import pytest

from cornerclip import transformer


@pytest.fixture
def worker(monkeypatch):
    """Turns the forked worker of `transformer.embed_rows` on or off (`worker.on`)
    for any count of passes above one, whatever this process's threads, and counts
    the forks (`worker.forks`). A test process may hold OpenBLAS's thread pool,
    which its fork handler shuts down, so a forced fork is safe here."""
    state = types.SimpleNamespace(on=True, forks=0)
    fork = os.fork

    def counted():
        state.forks += 1
        return fork()

    monkeypatch.setattr(transformer, "worker_pays", lambda passes: state.on and passes > 1)
    monkeypatch.setattr(os, "fork", counted)
    return state
