"""Shared fixtures."""

import pytest

import ordchain.lazyset as lazyset


@pytest.fixture(autouse=True)
def restore_lazyset_caps():
    """Put back the depth and scan caps a test may have lowered: the depth
    cap holds for interned sets too, so a low cap left behind would break
    later tests that reuse them."""
    depth, scan = lazyset.depth_cap(), lazyset._SCAN_CAP
    yield
    lazyset.set_depth_cap(depth)
    lazyset.set_scan_cap(scan)
