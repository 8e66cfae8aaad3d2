import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from mica import backbone, tensor, training

# criteria 6 (the channel-scaling wall clock) and 8 (the lead-lag training
# runs) take minutes; ``-m "not slow"`` leaves them out
SLOW_TESTS = ("test_criterion_06_", "test_criterion_08_")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name.startswith(SLOW_TESTS):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(autouse=True)
def no_slab_thread_outlives_its_test():
    """A split forward joins every channel-slab thread it starts."""
    yield
    alive = [t.name for t in threading.enumerate()
             if t.name.startswith("mica-slab-")]
    assert not alive, f"slab threads still alive: {alive}"


@pytest.fixture
def per_op(monkeypatch):
    """Run ``fn`` with every op of the forward checking its output: the
    per-op reference that a checked-once forward must reproduce."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(backbone, "checked_once", lambda run: run())
            return fn()
    return run


@pytest.fixture
def unchecked(monkeypatch):
    """Run ``fn`` with op output checks stubbed out, so an op returns its
    raw kernel output, NaN and Inf included."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(tensor, "_check_finite", lambda arr, op: None)
            return fn()
    return run


@pytest.fixture
def shared_pool(monkeypatch):
    """``shared_pool(workers)`` gives training's shared pool ``workers``
    threads for one test, and returns the pool, which ``with`` shuts
    down."""
    def swap(workers):
        pool = ThreadPoolExecutor(max_workers=workers)
        monkeypatch.setattr(training, "_POOL", pool)
        return pool
    return swap
