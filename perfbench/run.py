"""Benchmark of the krawtchouk library, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all`` for each in turn.
A run repeats passes of one workload until the next pass would end after S
seconds, and never makes fewer than three.  A pass is one fresh interpreter
(``worker.py``) that imports ``krawtchouk`` and runs the workload's job list
(``workloads.py``) once, checking every output.  A fresh process is what a
``krawtchouk verify`` user pays for, and it credits a cache inside the library
only with reuse inside one pass.  Passes run one at a time, with no threads.

With ``--trace 0`` every pass is untraced and the run reports
  setup_s      median time of ``import krawtchouk`` over the passes
  pass_s       median over the passes of the time of the pass's job calls
               (checks excluded), in reference seconds where the workload
               is calibrated (below)
  peak_rss_mb  highest ru_maxrss of any pass process

The machines this runs on are shared, and other tenants slow interpreted
code by up to 2x for seconds to minutes at a time.  So in the workloads of
``workloads.CALIBRATED`` every pass also times a fixed calibration chunk
before each of its jobs (``worker.calibration_chunk``, which uses nothing of
the library), and a pass's job time is scaled by CALIBRATION_S over the mean
time of its chunks.  Such a pass reads as on a machine that runs the chunk
in CALIBRATION_S: a change to the library moves it fully, and the load on
the machine during the pass far less than it moves the raw time.  The raw
times are printed beside the metrics.
With ``--trace 1`` untraced and traced passes alternate, and the run reports
the ``per_layer`` metrics of BENCHMARK.json as low medians (so counts stay
whole) over the traced passes, in raw seconds, with trace.overhead_ratio =
traced / untraced pass_s - 1, each pass_s taken over its own kind of pass.
A per-layer name ending in ``_s``, ``.self_s`` or ``.calls`` is the total
time, self time or number of the spans of that name (``tracing.py``); any
other name is a value the worker measured, such as an exact count.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it give each metric with its unit,
fail_ratio (jobs failed / jobs attempted), the seed, the Python version,
nproc and the commit.  Spans of traced passes are left in
``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import mean, median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
MIN_PASSES = 3
CALIBRATION_S = 0.01  # reference time of one calibration chunk
HARD_LIMIT_S = 170  # no pass starts that could end the run after this
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        return json.load(src)


def commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # a plain checkout; git would search outside it
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def warm_up() -> None:
    """Import the package once untimed, so passes find its bytecode cached.

    The bytecode is written even where the caller's environment turns that
    off, so setup_s is the import time of an installed package either way.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "krawtchouk",
                                       "__init__.py")):
        raise BenchError(f"no krawtchouk package under {ROOT}/src")
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    code = "import sys; sys.path.insert(0, 'src'); import krawtchouk"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"import krawtchouk failed:\n{done.stderr}")


def one_pass(workload: str, seed: int, pass_id: int, traced: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            str(seed), str(pass_id)]
    spans = os.path.join(OUT, f"{workload}-pass{pass_id}.jsonl")
    if traced:
        argv.append(spans)
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"pass {pass_id} of {workload} exited with "
                         f"{done.returncode}:\n{done.stderr}")
    sys.stderr.write(done.stderr)
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    result["spans"] = spans if traced else None
    return result


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> list:
    start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    warm_up()
    passes = []
    longest = 0.0
    while True:
        ends = time.perf_counter() - start + longest
        if ends > HARD_LIMIT_S or (len(passes) >= MIN_PASSES
                                   and ends > seconds):
            return passes
        traced = trace and len(passes) % 2 == 1
        passes.append(one_pass(workload, seed, len(passes), traced))
        longest = max(longest, passes[-1]["wall_s"])


def pass_s(passes: list) -> float:
    """Median job time of the passes, each scaled by its calibration."""
    return median(sum(p["job_s"]) * (CALIBRATION_S / mean(p["cal_s"])
                                     if p["cal_s"] else 1)
                  for p in passes)


def end_to_end(passes: list) -> dict:
    return {
        "setup_s": (median(p["setup_s"] for p in passes), "s"),
        "pass_s": (pass_s(passes), "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }


def span_stats(path: str) -> dict:
    """Per span name: total seconds, self seconds and number of spans.

    Self time is a span's duration minus that of its direct children; the
    spans of one pass come from one thread, so children never overlap.
    """
    with open(path, encoding="utf-8") as src:
        spans = [json.loads(line) for line in src]
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total, self_s, calls = stats.get(name, (0.0, 0.0, 0))
        stats[name] = (total + end - start, self_s + end - start - child_s[i],
                       calls + 1)
    return stats


def layer_value(name: str, stats: dict, measures: dict):
    for suffix, field in ((".self_s", 1), ("_s", 0), (".calls", 2)):
        if name.endswith(suffix):
            return stats.get(name[:-len(suffix)], (0.0, 0.0, 0))[field]
    return measures.get(name, 0)


def per_layer(passes: list, spec: dict) -> dict:
    traced = [p for p in passes if p["spans"]]
    untraced = [p for p in passes if not p["spans"]]
    if not traced or not untraced:
        raise BenchError("a traced run needs a traced and an untraced pass")
    layers = [(span_stats(p["spans"]), p["measures"]) for p in traced]
    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_ratio":
            value = pass_s(traced) / pass_s(untraced) - 1
        else:
            value = median_low(layer_value(name, stats, measures)
                               for stats, measures in layers)
        metrics[name] = (value, metric["unit"])
    return metrics


def failure_counts(passes: list) -> tuple:
    """(jobs attempted, jobs that raised or returned a wrong result)."""
    return (sum(p["attempted"] for p in passes),
            sum(len(p["failed"]) for p in passes))


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    passes = run_passes(workload, seed, seconds, trace)
    metrics = per_layer(passes, spec) if trace else end_to_end(passes)
    attempted, failed = failure_counts(passes)
    print(f"# workload={workload} seed={seed} trace={int(trace)} "
          f"passes={len(passes)} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} commit={commit()}")
    print("# raw pass_s per pass: "
          + " ".join(f"{sum(p['job_s']):.4f}" for p in passes))
    if passes[0]["cal_s"]:
        print("# mean calibration chunk per pass: "
              + " ".join(f"{mean(p['cal_s']):.5f}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value} {unit}")
    print(f"{workload} fail_ratio {failed / attempted} 1")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    picked = names if args.workload == "all" else [args.workload]
    try:
        runs = {w: run_workload(w, args.seed, args.seconds, bool(args.trace),
                                spec)
                for w in picked}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(picked) == 1:
        metrics = runs[picked[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, run in runs.items()
                   for name, m in run["metrics"].items()}
    failed = sum(run["failed"] for run in runs.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
