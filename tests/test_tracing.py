"""The benchmark's tracer wraps library methods by name and restores them."""

import sys
from pathlib import Path

from krawtchouk import pathsum
from krawtchouk import quaternion as qt
from krawtchouk.core import KrawtchoukMatrix
from krawtchouk.gf2 import BinarySubspace
from krawtchouk.matrix import Matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_the_hooked_methods(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing in perfbench/
    import tracing

    # the tracer looks each one up in its owner's own __dict__
    hooks = [(qt.Quaternion, "__mul__"), (KrawtchoukMatrix, "__post_init__"),
             (BinarySubspace, "vectors"), (pathsum, "combinations")]
    hooks += [(Matrix, attr) for attrs in tracing.MATRIX_OPS.values()
              for attr in attrs]
    originals = [owner.__dict__[attr] for owner, attr in hooks]

    with tracing.Tracer(0) as tracer:
        for (owner, attr), original in zip(hooks, originals):
            assert owner.__dict__[attr] is not original, (owner, attr)
        assert tracer.span("job", lambda: qt.F * qt.H) == qt.split(1, -1)

    assert [span[0] for span in tracer.spans] == ["job", "quaternion.mul"]
    assert [owner.__dict__[attr] for owner, attr in hooks] == originals
