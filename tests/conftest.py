"""Fixtures shared by the test modules."""
import os

import pytest

from firmgrowth import cli


@pytest.fixture
def forked_outputs(monkeypatch):
    """Every serial seed writes its outputs in a forked child. Returns the
    list of the children's pids, which grows as seeds fork them."""
    if not cli._forks_outputs(cli.RunSpec(), cli._CONSUMER_MIN_RECORDS):
        pytest.skip("outputs are forked only where os.fork and a second core exist")
    monkeypatch.setattr(cli, "_CONSUMER_MIN_RECORDS", 0)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids
