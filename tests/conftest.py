"""Shared fixtures."""

import pytest

import ordchain.lazyset as lazyset


@pytest.fixture(autouse=True)
def restore_depth_cap():
    """Put back the depth cap a test or a CLI run may have lowered: the cap
    holds for interned sets too, so a low cap left behind would break later
    tests that reuse them.  Tests lower the scan cap through monkeypatch."""
    depth = lazyset._DEPTH_CAP
    yield
    lazyset.set_depth_cap(depth)
