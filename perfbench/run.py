"""tensorcalc benchmark.

    python3 perfbench/run.py --workload NAME[,NAME...|all] --seed N --seconds S --trace 0|1

Run from the repository root; the library is loaded from ./src.  Each
sample runs in a fresh interpreter (perfbench/worker.py) with the BLAS and
OpenMP thread pools pinned to 1.  One caller drives the library in a closed
loop: it waits for each result before it sends the next operation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: one
interpreter measures whole passes for --seconds, and set-up is timed in
SETUP_SAMPLES fresh interpreters, that one and others it starts between
its passes, so that set-up meets the same phases of the host (below).
--trace 1 reports the per-layer metrics: an untraced run as above, then a
traced run of exactly one pass whose outputs must match the untraced run's
first pass bit for bit.

Other tenants of a shared host can only add time, and they come and go in
phases of seconds to a minute or more.  So the time metrics are taken over
a workload's ``keep_share`` of its passes, fastest first: pointwise-stack
passes are short enough to fall inside the host's quiet phases, and keeping
the fastest few measures the program rather than its neighbours;
verify-all passes are long and span several phases, so all are kept and
averaged.

Every operation's output is checked; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"} per workload,
and the exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layout import MODES, OPERATOR_CTORS, PROJECT_GRID, STACK_OPS  # noqa: E402

WORKLOADS = ("verify-all", "pointwise-stack")
SETUP_SAMPLES = 15
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

# What each per-layer metric should move (end-to-end metric on workload);
# the first matching pattern wins.
TARGETS = (
    ("geometry.frame_at.distinct_ratio", "op_p50_ms on pointwise-stack through a frame cache"),
    ("geometry.project.*", "op_tail_ms on pointwise-stack and run_s on verify-all"),
    ("fields.*", "run_s on verify-all through batching; should not rise on pointwise-stack"),
    ("operators.*.us_per_eval", "op_p50_ms on pointwise-stack; analytic entries move with "
                                "Jacobian propagation, fd2 entries should not"),
    ("operators.fd_depth_max", "op_p50_ms on pointwise-stack"),
    ("suites.*", "run_s on verify-all; flat under the suites-as-data refactor"),
    ("trace_overhead_ratio", "none: traced over untraced pass time"),
    ("*", "run_s on verify-all"),
)


def target_of(name: str) -> str:
    return next(target for pattern, target in TARGETS if fnmatch.fnmatchcase(name, pattern))


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports from cached bytecode
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(root: str, deadline: float, *args: str):
    """Run one worker; returns (seconds from spawn to READY, JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "READY":
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, (json.loads(rest.strip().splitlines()[-1]) if rest.strip() else None)


def tail_percentile(guaranteed: int) -> float:
    """Highest percentile with at least ten samples beyond it in every run."""
    for p in TAIL_LADDER:
        if guaranteed * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def kept(data):
    """The samples of a run's kept passes and their mean pass time."""
    count = max(1, math.ceil(len(data["passes"]) * data["keep_share"]))
    best = sorted(enumerate(data["passes"]), key=lambda ps: ps[1])[:count]
    keep = {p for p, _seconds in best}
    return ([s for s in data["samples"] if s[3] in keep],  # (group, seconds, count, pass)
            statistics.mean(seconds for _p, seconds in best))


def end_to_end(setup, data):
    samples, run_s = kept(data)
    calls_per_pass = len(data["samples"]) // len(data["passes"])
    kept_passes = len(samples) // calls_per_pass
    tail_p = tail_percentile(calls_per_pass
                             * max(1, math.ceil(data["min_passes"] * data["keep_share"])))
    lat = [seconds / count for _group, seconds, count, _p in samples]
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "run_s": f"mean of the fastest {kept_passes} of {len(data['passes'])} passes",
        "op_tail_ms": f"p{tail_p:g} of {len(lat)} samples",
        "op_p50_ms": f"{len(lat)} samples",
    }
    if data["ops_per_pass"] != calls_per_pass:
        # a call holds many operations, so only their mean time is known
        lat = [run_s / data["ops_per_pass"]]
        tail_p = 50.0
        notes["op_p50_ms"] = notes["op_tail_ms"] = (
            "mean check time of the kept passes; checks are not timed one by one")
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "ops_per_s": data["ops_per_pass"] / run_s,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * percentile(lat, tail_p),
        "peak_rss_mb": data["peak_rss_mb"],
    }
    return metrics, notes


def per_layer(traced, untraced):
    spans = traced["spans"]

    def stat(name, key):
        return spans.get(name, {}).get(key, 0)

    def summed(layer, key):
        return sum(v[key] for k, v in spans.items() if k.startswith(layer + "."))

    def distinct_ratio(name):
        calls = stat(name, "calls")
        return stat(name, "distinct") / calls if calls else 0.0

    groups = {}
    for group, seconds, count, _p in kept(untraced)[0]:
        groups.setdefault(group, []).append(seconds / count)

    def per_op(group, scale):  # 0 when this workload has no such operation
        return scale * statistics.median(groups[group]) if group in groups else 0.0

    m = {}
    for name in ("frame_at", "frame_derivative_at", "project"):
        m[f"geometry.{name}.calls"] = stat(f"geometry.{name}", "calls")
        m[f"geometry.{name}.self_s"] = stat(f"geometry.{name}", "self_s")
    m["geometry.frame_at.distinct_ratio"] = distinct_ratio("geometry.frame_at")
    for n, q in PROJECT_GRID:
        m[f"geometry.project.n{n}q{q}.us_per_call"] = per_op(f"project.n{n}q{q}", 1e6)
    m["fields.values.calls"] = stat("fields.values", "calls")
    m["fields.values.self_s"] = stat("fields.values", "self_s")
    m["fields.values.distinct_ratio"] = distinct_ratio("fields.values")
    m["fields.gradient_values.calls"] = stat("fields.gradient_values", "calls")
    for ctor in OPERATOR_CTORS:
        m[f"operators.{ctor}.evals"] = stat(f"operators.{ctor}", "calls")
        m[f"operators.{ctor}.self_s"] = stat(f"operators.{ctor}", "self_s")
    m["operators.fd_depth_max"] = traced["fd_depth_max"]
    for op in STACK_OPS:
        for mode in MODES:
            m[f"operators.{op}.{mode}.us_per_eval"] = per_op(f"{op}.{mode}", 1e6)
    m["quadrature.integrate.calls"] = stat("quadrature.integrate", "calls")
    m["quadrature.integrate.self_s"] = stat("quadrature.integrate", "self_s")
    m["quadrature.chart_points.self_s"] = stat("quadrature.chart_points", "self_s")
    m["quadrature.boundary_points.self_s"] = stat("quadrature.boundary_points", "self_s")
    m["quadrature.rk4_step.calls"] = stat("quadrature.rk4_step", "calls")
    m["quadrature.advected_atlas.self_s"] = stat("quadrature.advected_atlas", "self_s")
    m["tensor.calls"] = summed("tensor", "calls")
    m["tensor.self_s"] = summed("tensor", "self_s")
    for layer in ("euler", "stress", "evolving"):
        m[f"{layer}.self_s"] = summed(layer, "self_s")
    for name in spans:
        if name.startswith("suites."):
            m[f"{name}.s"] = stat(name, "total_s")
    m["trace_overhead_ratio"] = traced["passes"][0] / untraced["passes"][0]  # both pass 0
    return m


def run_workload(root, declared, workload, seed, seconds, trace, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    notes = {}
    if trace:
        _, data = spawn(root, deadline, *common, "--seconds", str(seconds))
        _, traced = spawn(root, deadline, *common, "--trace")
        metrics = per_layer(traced, data)
        runs = (data, traced)
        mismatch = traced["digest"] != data["digest"]
    else:
        ready_s, data = spawn(root, deadline, *common, "--seconds", str(seconds),
                              "--setup-samples", str(SETUP_SAMPLES - 1))
        metrics, notes = end_to_end([ready_s] + data["setup_s"], data)
        runs = (data,)
        mismatch = False
    if set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match "
                         "BENCHMARK.json")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    print(f"== {workload}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    print("loop: closed, 1 caller, single-threaded process")
    print(f"input: {data['size']}")
    env = data["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, tensorcalc {env['tensorcalc']}, "
          f"nproc {len(os.sched_getaffinity(0))}, "
          + ", ".join(f"{var}=1" for var in THREAD_VARS))
    for name, (unit, _better) in declared.items():
        if not trace:
            extra = notes.get(name, "")
        elif metrics[name] == 0:
            extra = "not reached by this workload"
        else:
            extra = f"-> {target_of(name)}"
        print(f"  {name} = {metrics[name]:.6g} {unit}" + (f"  ({extra})" if extra else ""))
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for r in runs:
        for msg in r["failures"]:
            print(f"  FAILED {msg}")
    if mismatch:
        print("  FAILED traced outputs differ from the untraced run's first pass")
    if trace:
        print(f"trace spans: {traced['trace_file']}")
    result = {
        "correct": failed == 0 and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _better) in declared.items()},
    }
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tensorcalc benchmark")
    parser.add_argument("--workload", required=True,
                        help=f"comma-separated subset of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    chosen = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in chosen if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tensorcalc", "__init__.py")):
        print("error: run from the repository root; src/tensorcalc is missing", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}

    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    ok = True
    try:
        for workload in chosen:
            ok &= run_workload(root, declared, workload, args.seed, args.seconds,
                               bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
