"""One worker process of a benchmark run: set up, warm up, run whole blocks, report.

Started by run.py with the package on PYTHONPATH. Prints one JSON record as
its last line of standard output. Set-up ends when the first timed op
starts; run.py measures it from just before it spawned this process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

#: failures whose traceback is kept in the record
KEEP_TRACEBACKS = 5
CALIBRATION_REPEATS = 3


class Tracer:
    """Spans around the benchmark's calls into the package, plus work counters.

    Disabled, ``call`` is a plain call. Enabled, each call records
    [name, start, end, parent span, op index]; a negative op index marks
    set-up, the warm-up or input generation. Counters are kept either way.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = -1
        self.work: dict[str, int] = {}
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def add(self, name: str, count: int):
        self.work[name] = self.work.get(name, 0) + count

    def peak(self, name: str, value: int):
        self.work[name] = max(self.work.get(name, 0), value)

    def self_times(self) -> dict[str, list]:
        """Per span name: [calls, self seconds, self seconds inside ops]."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, list] = {}
        for (name, _, _, _, op), t in zip(self.spans, own):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += t
            if op >= 0:
                entry[2] += t
        return out


def run_op(op: workloads.Op, tracer: Tracer, index: int, failures: list) -> list:
    """Time one op; any exception or oracle miss is a failed op, never retried."""
    tracer.op = index
    start = perf_counter()
    try:
        tracer.call("bench.op", op.run, tracer)
        ok = True
    except Exception as exc:  # an op boundary: record and keep running
        ok = False
        detail = f"{op.kind}: {type(exc).__name__}: {exc}"
        if len(failures) < KEEP_TRACEBACKS:
            detail += "\n" + traceback.format_exc()
        failures.append(detail)
    latency = perf_counter() - start
    tracer.op = -1
    return [op.kind, latency, ok]


def calibration_kernel(rng) -> float:
    """Seconds taken by a fixed mix of the kinds of work the package does:
    Fraction sums, a dict of small tuples, a numpy gather-compare and a
    freshly allocated 8 MB array."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(1, i)
    table = {}
    for i in range(3000):
        table[(i, i & 7)] = i * i % 7
    x = rng.random((64, 256))
    (x[:, rng.integers(0, 256, 256)] < 0.5).sum()
    np.ones(1 << 20).sum()
    return perf_counter() - start


def calibrate(rng) -> float:
    """How fast the shared host runs right now: the best of CALIBRATION_REPEATS
    kernel runs, with the collector off, so that caches left cold by the op
    before it and garbage left by the package do not count."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return min(calibration_kernel(rng) for _ in range(CALIBRATION_REPEATS))
    finally:
        if gc_was_enabled:
            gc.enable()


def import_seconds() -> float:
    """A fresh interpreter timing ``import l2mbqc`` alone."""
    code = "import time; t = time.perf_counter(); import l2mbqc; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout.split()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-block", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--stop-by", type=float, required=True,
                        help="epoch time after which no further block starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True, help="directory for files and spans")
    parser.add_argument("--name", required=True, help="name of this worker's files")
    args = parser.parse_args(argv)

    scratch = Path(args.scratch)
    tracer = Tracer(bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer, scratch / args.name)
    failures: list[str] = []
    warmup = run_op(workload.warmup(), tracer, -2, failures)
    ops = workload.block(args.first_block)

    calib_rng = np.random.default_rng(0)
    # calib[i] and calib[i + 1] bracket op i
    calib = [calibrate(calib_rng)]
    ready_at = time.time()
    timed = 0.0
    records = []
    blocks = 0
    while True:
        block_start = perf_counter()
        for op in ops:
            records.append(run_op(op, tracer, len(records), failures))
            calib.append(calibrate(calib_rng))
        timed += perf_counter() - block_start
        blocks += 1
        if blocks == args.blocks or time.time() > args.stop_by:
            break
        ops = workload.block(args.first_block + blocks)

    for prefix in workload.finish():
        for rec in records:
            if rec[0].startswith(prefix) and rec[2]:
                rec[2] = False
                failures.append(f"{rec[0]}: pooled estimate outside its band")

    record = {
        "ready_at": ready_at,
        "warmup": warmup,
        "ops": records,
        "timed_s": timed,
        "next_block": args.first_block + blocks,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "work": tracer.work,
        "calib": calib,
    }
    if tracer.enabled:
        record["layers"] = tracer.self_times()
        spans_file = scratch / "spans" / f"{args.name}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(
            [dict(zip(("name", "start", "end", "parent", "op"), s)) for s in tracer.spans]
        ))
        record["spans_file"] = str(spans_file)
        record["import_s"] = import_seconds()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
