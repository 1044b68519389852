"""One pass of a benchmark workload, in the fresh interpreter it runs in.

    python3 perfbench/worker.py WORKLOAD SEED PASS_ID [SPANS_FILE]

Times ``import krawtchouk``, then runs the workload's job list once, timing
each call and checking its output after the clock stops.  In the workloads
of ``workloads.CALIBRATED`` it also times one calibration chunk before each
job, fixed work that uses nothing of the library, so that ``run.py`` can
tell how fast the machine ran during the pass.
With SPANS_FILE the pass is traced and its spans are written there.  Prints one JSON object
with the pass's times, failures and counts.  ``run.py`` starts this script;
it is not meant to be run by hand.
"""

# Only os, sys and time are imported before krawtchouk, so that the timed
# import pays for the standard modules it needs, as a user's import does.
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _Pair:
    """A ring element as the library's rings hold them: two ints, in Python."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other):
        return _Pair(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return _Pair(self.a * other.a - self.b * other.b,
                     self.a * other.b + self.b * other.a)


def calibration_chunk() -> float:
    """Seconds taken by fixed work of the kinds the library does.

    Big-integer recurrences, Fraction sums and a dense product of small
    ring-element objects, about 10 ms on a 2-vCPU VM; it never changes, so
    it measures the machine and not the library.
    """
    from fractions import Fraction

    start = time.perf_counter()
    n = 90
    for q in range(n + 1):
        col = [1, n - 2 * q]
        for p in range(1, n):
            col.append(((n - 2 * q) * col[p] - (n - p + 1) * col[p - 1])
                       // (p + 1))
    total = Fraction(0)
    for k in range(1, 700):
        total += Fraction(k % 5 - 2, k)
    rows = [[_Pair(i - j, i * j % 5) for j in range(22)] for i in range(22)]
    cols = list(zip(*rows))
    for row in rows:
        for col in cols:
            acc = _Pair(0, 0)
            for x, y in zip(row, col):
                acc = acc + x * y
    return time.perf_counter() - start


def run_pass(jobs, tracer=None, calibrate=False) -> dict:
    """Run every job once; time the calls only, then check each result."""
    import contextlib
    import traceback
    import tracemalloc

    job_s = []
    cal_s = []
    failed = []
    measures = {}
    with tracer if tracer is not None else contextlib.nullcontext():
        for job in jobs:
            traced_peak = job.peak and tracer is not None
            if calibrate:
                cal_s.append(calibration_chunk())
            if traced_peak:
                tracemalloc.start()
            result = error = None
            start = time.perf_counter()
            try:
                result = (tracer.span(job.name, job.call) if tracer is not None
                          else job.call())
            except Exception as exc:
                error = exc
            job_s.append(time.perf_counter() - start)
            if traced_peak:
                measures[f"{job.name}.peak_mb"] = \
                    tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
            ok = False
            if error is None:
                try:
                    ok = job.check(result) is True
                except Exception as exc:
                    error = exc
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
            if not ok:
                print(f"job {job.name} failed", file=sys.stderr)
                failed.append(job.name)
    return {"job_s": job_s, "cal_s": cal_s, "attempted": len(jobs),
            "failed": failed, "measures": measures}


def measure_pass(workload: str, seed: int, pass_id: int, spans_file=None,
                 size=None) -> dict:
    """Run one pass after ``import krawtchouk``; trace it if given a file."""
    import resource

    import tracing
    import workloads

    jobs = workloads.build(workload, seed, size or workloads.FULL)
    tracer = tracing.Tracer(pass_id) if spans_file else None
    result = run_pass(jobs, tracer, workload in workloads.CALIBRATED)
    # ru_maxrss is in KiB on Linux
    result["rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.write(spans_file)
        builds, orders = (len(tracer.genfunc_orders),
                          len(set(tracer.genfunc_orders)))
        result["measures"].update(tracer.counts)
        result["measures"].update({
            "core.genfunc_builds": builds, "core.genfunc_orders": orders,
            "core.genfunc_reuse": builds / orders if orders else 0})
    return result


def main(argv) -> int:
    workload, seed, pass_id = argv[1], int(argv[2]), int(argv[3])
    spans_file = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, os.path.join(REPO, "src"))
    start = time.perf_counter()
    import krawtchouk  # noqa: F401  (the import is what is timed)
    setup_s = time.perf_counter() - start

    import json

    result = measure_pass(workload, seed, pass_id, spans_file)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
