import gc
import sys

import numpy as np
import pytest

from msdc import CsaParams, ModelGeometry


@pytest.fixture
def geometry():
    """The desk-scale reference geometry: 12x12 input, S=12, Q=24, K=8."""
    return ModelGeometry(12, 12, 12, 24, 8)


@pytest.fixture
def small_geometry():
    """The walkthrough geometry: 3x3 input, S=5, Q=5, K=3."""
    return ModelGeometry(3, 3, 5, 5, 3)


@pytest.fixture
def params():
    return CsaParams()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _python_calls(fn, *args, code=None):
    """Run ``fn(*args)`` and return how many Python frames it entered, or
    with ``code`` given, how many frames of that code object.

    Counts the profiler's "call" events, one per Python function, method or
    generator resumption; calls into C functions are not counted.  The
    garbage collector is paused for the call, so that a finalizer it would
    run there adds no frames of its own.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and (code is None or frame.f_code is code)

    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


@pytest.fixture
def python_calls():
    return _python_calls
