"""Fixtures shared by every test module: the check registry and the grid cache.

Each check in ncairy.verify.CHECKS runs at most once per session, on the
generator ``ncairy verify --seed 0`` gives it; a test that holds cases of a
check asserts that check through the ``assert_checks`` fixture.
"""

import functools

import pytest

from ncairy import ncp2
from ncairy.verify import CHECKS, run_check

_INDEX = {name: i for i, (name, _) in enumerate(CHECKS)}


@functools.cache
def _run(name):
    return run_check(_INDEX[name], seed=0)


@pytest.fixture
def assert_checks():
    """assert_checks(*names) fails on the first named check that fails."""
    def check(*names):
        for name in names:
            ok, line = _run(name)
            print(line)
            assert ok, line
    return check


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty grid cache of the test's own."""
    cache = {}
    monkeypatch.setattr(ncp2, "_GRID_CACHE", cache)
    return cache


@pytest.fixture
def solve_counter(monkeypatch):
    """The argument tuples of every Picard tail solve, in order."""
    calls = []
    picard = ncp2.hm_tail_picard

    def counting(*a, **k):
        calls.append(a)
        return picard(*a, **k)

    monkeypatch.setattr(ncp2, "hm_tail_picard", counting)
    return calls
