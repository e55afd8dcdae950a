"""Shared fixtures for the engine tests."""

from __future__ import annotations

import pytest

from repro.sim.recorder import MultiSessionRecorder, SingleSessionRecorder


@pytest.fixture
def bulk_commits(monkeypatch) -> list:
    """Lengths of every slice or bulk commit recorded during the test.

    Proves the fast path ran (or did not): both recorders'
    ``record_keepup_block`` are wrapped to log their block lengths.
    """
    sizes = []
    for recorder in (SingleSessionRecorder, MultiSessionRecorder):
        original = recorder.record_keepup_block

        def counting(self, block, *args, _original=original, **kwargs):
            sizes.append(len(block))
            return _original(self, block, *args, **kwargs)

        monkeypatch.setattr(recorder, "record_keepup_block", counting)
    return sizes
