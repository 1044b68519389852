"""Spans around jobs and around ``Matrix`` and ``Quaternion`` methods.

Inside a ``Tracer`` context the methods below are wrapped at run time and
restored on exit; the library's source is not edited.  Spans are recorded
only while a job runs, so the checks made between jobs add none.  Spans stay
in memory until ``write`` puts them in a JSON-lines file at the end of a
pass, one ``[name, start, end, parent, pass]`` list a line; ``parent`` is the
line index of the enclosing span, or -1 for a job.

The tracer also counts, while a job runs, the work the exponential layers
enumerate, by wrapping the library's enumerators:
  gf2.vectors                 vectors yielded by ``BinarySubspace.vectors``
  pathsum.words               tuples ``pathsum`` draws from ``combinations``
                              (the words of ``path_sum``, the subsets of
                              ``twiston_energy``); ``oracle_matrix`` sweeps its
                              2^n words with a plain counter and adds none
  hadamard.sylvester_entries  entries of the arrays ``sylvester_numpy``
                              returns, while the library has that function
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from krawtchouk import hadamard, pathsum
from krawtchouk.core import KrawtchoukMatrix
from krawtchouk.gf2 import BinarySubspace
from krawtchouk.matrix import Matrix
from krawtchouk.quaternion import Quaternion

# span name -> Matrix attributes; ``__matmul__`` is an alias of ``mul``
MATRIX_OPS = {
    "matmul": ("mul", "__matmul__"),
    "eq": ("__eq__",),
    "mul_vector": ("mul_vector",),
    "kron": ("kron",),
    "map": ("map",),
    "scale": ("scale",),
}


class Tracer:
    """Records spans and counts ``GenFunc`` builds of one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans = []
        self.stack = []
        self.genfunc_orders = []
        self.counts = Counter()
        self._saved = []

    def span(self, name: str, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _count_yields(self, key: str, original):
        def wrapper(*args, **kwargs):
            items = original(*args, **kwargs)
            if not self.stack:
                return items
            return self._counted(key, items)
        return wrapper

    def _counted(self, key: str, items):
        count = 0
        try:
            for item in items:
                count += 1
                yield item
        finally:
            self.counts[key] += count

    def _wrap_matrix_op(self, op: str, original):
        def wrapper(mat, *args, **kwargs):
            if not self.stack:
                return original(mat, *args, **kwargs)
            return self.span(f"matrix.{op}.{mat.ring.name}", original,
                             mat, *args, **kwargs)
        return wrapper

    def __enter__(self):
        for op, attrs in MATRIX_OPS.items():
            for attr in attrs:
                self._patch(Matrix, attr,
                            self._wrap_matrix_op(op, Matrix.__dict__[attr]))

        quaternion_mul = Quaternion.__mul__

        def mul(q, other):
            if not self.stack:
                return quaternion_mul(q, other)
            return self.span("quaternion.mul", quaternion_mul, q, other)
        self._patch(Quaternion, "__mul__", mul)

        post_init = KrawtchoukMatrix.__post_init__

        def counted_post_init(km):
            post_init(km)
            if self.stack and km.method == "GenFunc":
                self.genfunc_orders.append(km.order)
        self._patch(KrawtchoukMatrix, "__post_init__", counted_post_init)

        self._patch(BinarySubspace, "vectors", self._count_yields(
            "gf2.vectors", BinarySubspace.vectors))
        self._patch(pathsum, "combinations", self._count_yields(
            "pathsum.words", pathsum.combinations))
        if hasattr(hadamard, "sylvester_numpy"):
            sylvester = hadamard.sylvester_numpy

            def counted_sylvester(n):
                out = sylvester(n)
                if self.stack:
                    self.counts["hadamard.sylvester_entries"] += out.size
                return out
            self._patch(hadamard, "sylvester_numpy", counted_sylvester)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, start, end, parent, self.pass_id]))
                out.write("\n")

