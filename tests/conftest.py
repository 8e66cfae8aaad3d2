import pytest

from mica import backbone, tensor


@pytest.fixture
def per_op(monkeypatch):
    """Run ``fn`` with every op of the forward checking its output: the
    per-op reference that a checked-once forward must reproduce."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(backbone, "checked_once", lambda run, rewind: run())
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
