"""Smoke test of the benchmark at tiny orders.

    python3 perfbench/smoke.py

Runs every workload's job list at the orders of ``workloads.TINY``, once
untraced and twice traced, each pass in a fresh interpreter as in the
benchmark, and through the pass and aggregation code the benchmark itself
uses.  It checks that:

* every end-to-end and per-layer metric of BENCHMARK.json is emitted;
* every job has its time metric and every high-order job its self time;
* each per-layer metric except the tracing overhead is non-zero on some
  workload, so no listed name is misspelt and every counted enumerator is
  reached (the Sylvester count only while the library has
  ``sylvester_numpy``);
* the per-layer counts of two traced passes with one seed are equal;
* no job fails, and one corrupted reference entry makes jobs fail.

Exits 0 when all hold and 1 otherwise, naming each failed check.
"""

import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
_start = time.perf_counter()
from krawtchouk import hadamard  # noqa: E402
SETUP_S = time.perf_counter() - _start

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def corrupted_reference(original):
    def reference(n):
        rows = [list(row) for row in original(n)]
        rows[0][0] += 1
        return tuple(tuple(row) for row in rows)
    return reference


def tiny_pass(workload: str, pass_id: int, traced: bool,
              corrupt: bool = False) -> dict:
    if corrupt:
        workloads.krawtchouk_reference = corrupted_reference(
            workloads.krawtchouk_reference)
    spans = (os.path.join(run.OUT, f"smoke-{workload}-pass{pass_id}.jsonl")
             if traced else None)
    result = worker.measure_pass(workload, 0, pass_id, spans, workloads.TINY)
    result.update(setup_s=SETUP_S, spans=spans)
    return result


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    # one fresh interpreter per pass, so no state carries between passes
    with multiprocessing.get_context("spawn").Pool(
            1, maxtasksperchild=1) as pool:
        return check_all(lambda *args: pool.apply(tiny_pass, args))


def check_all(one_pass) -> int:
    problems = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    spec = run.load_spec()
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    nonzero = set()
    for workload in workloads.BUILDERS:
        passes = [one_pass(workload, pass_id, traced)
                  for pass_id, traced in enumerate((False, True, True))]
        attempted, failed = run.failure_counts(passes)
        check(failed == 0, f"{workload}: {failed} of {attempted} jobs failed")
        check(set(run.end_to_end(passes)) == e2e_names,
              f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        layers = run.per_layer(passes, spec)
        check(set(layers) == layer_names,
              f"{workload}: per-layer metrics differ from BENCHMARK.json")
        nonzero |= {name for name, (value, _) in layers.items() if value}
        counts = [[run.layer_value(m["name"], run.span_stats(p["spans"]),
                                   p["measures"])
                   for m in spec["per_layer"] if m["unit"] == "count"]
                  for p in passes if p["spans"]]
        check(counts[0] == counts[1],
              f"{workload}: counts differ between two traced passes")
        for job in workloads.build(workload, 0, workloads.TINY):
            wanted = [f"{job.name}_s"]
            if workload == "high-order":
                wanted.append(f"{job.name}.self_s")
            for name in wanted:
                check(name in layer_names, f"{name} is not a per-layer metric")
    # the overhead may round to 0, and the Sylvester count is 0 once the
    # library no longer builds the dense Sylvester matrix
    may_be_zero = {"trace.overhead_ratio"}
    if not hasattr(hadamard, "sylvester_numpy"):
        may_be_zero.add("hadamard.sylvester_entries")
    for name in sorted(layer_names - nonzero - may_be_zero):
        check(False, f"{name} is zero on every workload")

    attempted, failed = run.failure_counts(
        [one_pass("high-order", 0, False, True)])
    print(f"corrupted reference: {failed} of {attempted} jobs failed")
    check(failed / attempted > 0,
          "a corrupted reference entry left fail_ratio at 0")

    for problem in problems:
        print(f"FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
