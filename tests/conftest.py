"""The check registry, shared by every test module.

Each check in ncairy.verify.CHECKS runs at most once per session, on the
generator ``ncairy verify --seed 0`` gives it; a test that holds cases of a
check asserts that check through the ``assert_checks`` fixture.
"""

import functools

import pytest

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
