"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _philox_stream(seed, word):
    return np.random.Generator(np.random.Philox(key=np.array([seed, word], dtype=np.uint64)))


@pytest.fixture
def philox_streams(monkeypatch):
    """Draw every Monte Carlo number from the Philox streams that earlier versions used.

    Counts pinned under those streams keep guarding the float decisions of the
    draw, sort, tie check and kernel, which do not depend on the bit generator.
    """
    monkeypatch.setattr("cccd.simulate._stream", _philox_stream)
