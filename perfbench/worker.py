"""Run one benchmark workload in this interpreter and report raw timings.

    python perfbench/worker.py --workload NAME --seed N [--seconds S]
                               [--setup-only | --trace]

run.py starts this in a fresh interpreter.  It prints READY once the
inputs are built, then, unless --setup-only, one JSON line of raw results.
The untraced run measures whole passes until ``--seconds`` have gone by.
With --setup-samples N it also times N --setup-only interpreters, spread
over the run between passes (set-up and measurement never overlap), so the
samples meet the same phases of the host as the passes.  The traced run
(--trace) measures exactly pass 0, so its counts repeat, and writes its
spans to perfbench/out/ when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

import tensorcalc as tc
from workloads import OUT_DIR, WORKLOADS


def fingerprint(value) -> bytes:
    """Bytes of an operation's output, to compare two runs bit for bit."""
    if isinstance(value, tc.Tensor):
        return value.array.tobytes()
    if isinstance(value, tuple):  # a verify pass: exit code and report
        return json.dumps(value, sort_keys=True).encode()
    return np.asarray(value, dtype=float).tobytes()


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh --setup-only interpreter to its READY."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--workload", workload,
                             "--seed", str(seed), "--setup-only"], stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or first.strip() != "READY":
        raise RuntimeError(f"set-up interpreter exited with code {code}")
    return ready_s


def measure(workload, state, ops, seconds: float, tracer=None, between=None) -> dict:
    """Run passes; ``between(elapsed)`` is called after each, off the clock."""
    passes, samples, failures, op_spans = [], [], [], []
    attempted = failed = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    paused = 0.0
    p = 0
    while True:
        busy = 0.0
        for op in ops:
            t0 = time.perf_counter()
            try:
                out, msgs = op.run(), None
            except Exception as exc:  # counts as failed; the loop goes on
                out, msgs = None, [f"{op.group}: raised {exc!r}"] * op.count
            t1 = time.perf_counter()
            busy += t1 - t0
            samples.append((op.group, t1 - t0, op.count, p))
            if tracer is not None:
                op_spans.append((op.group, t0 - start, t1 - start))
            if msgs is None:
                if p == 0:
                    digest.update(fingerprint(out))
                try:
                    with tracer.pause() if tracer else contextlib.nullcontext():
                        msgs = op.check(out)
                except Exception as exc:  # a check that cannot run is a failure
                    msgs = [f"{op.group}: check raised {exc!r}"] * op.count
            attempted += op.count
            failed += min(op.count, len(msgs))
            failures += msgs[: max(0, 5 - len(failures))]
        passes.append(busy)
        p += 1
        if between is not None:
            t0 = time.perf_counter()
            between(t0 - start - paused)
            paused += time.perf_counter() - t0
        done = p >= workload.min_passes and time.perf_counter() - start - paused >= seconds
        if tracer is not None or done:
            break
        ops = workload.build_pass(state, p)
    return {
        "passes": passes,
        "samples": samples,
        "ops_per_pass": sum(op.count for op in ops),
        "min_passes": workload.min_passes,
        "keep_share": workload.keep_share,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": digest.hexdigest(),
        "op_spans": op_spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-samples", type=int, default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    state = workload.setup(args.seed)
    ops = workload.build_pass(state, 0)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        tracer.reset()
    setup_s = []

    def between(elapsed: float) -> None:  # one set-up sample per seconds/N of the run
        while (len(setup_s) < args.setup_samples
               and elapsed >= len(setup_s) * args.seconds / args.setup_samples):
            setup_s.append(time_setup(args.workload, args.seed))

    result = measure(workload, state, ops, args.seconds, tracer,
                     between if args.setup_samples else None)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["size"] = workload.size
    result["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tensorcalc": tc.__version__,
    }
    if tracer is not None:
        result.update(tracer.summary())
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, **result}, fh, indent=1)
        result["trace_file"] = os.path.relpath(path)
    del result["op_spans"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
