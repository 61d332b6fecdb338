"""The l2mbqc benchmark: one command, four workloads, closed loop, one caller.

    python3 perfbench/run.py --workload ghz_compile --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; nothing is installed or built. The
run is split across WORKERS fresh processes started one after another, so
set-up is timed several times and reported as a median; latencies of all
timed ops are pooled. Every op is checked against an oracle; a failed op is
counted, never dropped or retried.

The last line of standard output is the result: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run whose
calls into the package are wrapped in spans. The line before it is the
full record: provenance, every metric with its unit, error rate, the tail
percentile used, and the computed work counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "l2mbqc"
SCRATCH = ROOT / ".perfbench"

#: about one block's seconds on the reference machine (2-vCPU Xeon) when its
#: host is quiet. A run is round(--seconds / this) blocks, so its mix of input
#: sizes never depends on speed. At --seconds 16 the counts put each
#: workload's median and tail inside one group of same-size ops.
NOMINAL_BLOCK_S = {
    "mc_sampler": 3.5,
    "ghz_compile": 4.0,
    "certify_sweep": 1.5,
    "cli_readme": 1.0,
}
WORKLOADS = tuple(NOMINAL_BLOCK_S)
WORKERS = 3
#: a slower program stops starting blocks past this multiple of --seconds
SLOWDOWN_CAP = 4.0
#: a run must end within 180 s; workers are killed past this
HARD_LIMIT_S = 170.0
#: samples that must lie beyond the reported tail latency
TAIL_BEYOND = 10
#: time of worker.calibrate() on the reference machine when the host is quiet.
#: Shared hosts here swing in speed by up to 2x over seconds to minutes, for
#: every process alike. Each op's latency is multiplied by this over the mean
#: calibration time just before and after it, and set-up by this over the
#: calibration right after it, which puts them at reference speed. Wall-clock
#: values stay in the record.
CALIBRATION_REF_S = 2.5e-3
THREAD_PINS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
PEAK_COUNTERS = {"reliability.mc.draw_bytes_computed"}
CLI_SUBCOMMANDS = ("gate", "thresholds", "compile", "verify", "inequality", "reliable")

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "error_rate": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for name in THREAD_PINS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start one worker, wait for it, return (spawn time, its record)."""
    spawned_at = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("benchmark worker exceeded the time limit")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"benchmark worker exited with {proc.returncode}")
    return spawned_at, json.loads(out.splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def speed_factors(record: dict) -> tuple[float, list[float]]:
    """(set-up factor, one factor per op): CALIBRATION_REF_S over the
    calibration time measured after set-up, or around the op."""
    c = record["calib"]
    return CALIBRATION_REF_S / c[0], [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(c, c[1:])]


def timings(records: list[dict], scaled: bool) -> tuple[dict, tuple]:
    """Set-up, throughput and latency of a run, in wall time or scaled to
    reference speed; also (percentile, samples beyond, samples) of the tail."""
    setups, latencies = [], []
    for r in records:
        setup_f, op_f = speed_factors(r) if scaled else (1.0, [1.0] * len(r["ops"]))
        setups.append(r["setup_s"] * setup_f)
        latencies.extend(op[1] * f for op, f in zip(r["ops"], op_f))
    tail_value, tail_pct, beyond = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
    }
    return values, (tail_pct, beyond, len(latencies))


def summarize(workload: str, records: list[dict], trace: bool) -> dict:
    """Metrics of one run from its worker records: name -> {value, unit}."""
    timed = [op for r in records for op in r["ops"]]
    attempted = len(timed) + len(records)  # timed ops plus one warm-up each
    failed = sum(not op[2] for op in timed) + sum(not r["warmup"][2] for r in records)
    values, (tail_pct, beyond, samples) = timings(records, scaled=True)
    if trace:
        return {"attempted": attempted, "failed": failed,
                "metrics": layer_metrics(workload, records, values["ops_per_s"])}
    rss_key = "children_peak_rss_kb" if workload == "cli_readme" else "peak_rss_kb"
    values["peak_rss_mb"] = statistics.median(r[rss_key] for r in records) / 1024
    values["error_rate"] = failed / attempted
    by_kind: dict[str, list[float]] = {}
    for kind, latency, _ in timed:
        by_kind.setdefault(kind, []).append(latency)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": samples},
        "wall": timings(records, scaled=False)[0],
        "speed_factors": [statistics.median(speed_factors(r)[1]) for r in records],
        "wall_median_ms_by_kind": {
            k: [len(v), 1e3 * statistics.median(v)] for k, v in sorted(by_kind.items())
        },
    }


def merged_work(records: list[dict]) -> dict[str, int]:
    """Work counters of all workers: summed, or the largest for peak counters."""
    work: dict[str, int] = {}
    for r in records:
        for name, v in r["work"].items():
            work[name] = max(work.get(name, 0), v) if name in PEAK_COUNTERS else work.get(name, 0) + v
    return work


def layer_metrics(workload: str, records: list[dict], ops_per_s: float) -> dict:
    spans: dict[str, list] = {}
    for r in records:
        for name, (calls, own, own_ops) in r["layers"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += own
            entry[2] += own_ops
    work = merged_work(records)

    def calls(name):
        return spans.get(name, [0])[0]

    def busy(name):
        return spans.get(name, [0, 0.0])[1]

    def per(name, count, scale):
        """op-time busy per unit of work, 0 where the layer did no work"""
        return scale * spans.get(name, [0, 0.0, 0.0])[2] / count if count else 0.0

    mc_updates = work.get("reliability.mc.wire_stage_updates", 0)
    mc_busy_ops = spans.get("reliability.mc", [0, 0.0, 0.0])[2]
    m = {
        "boolfn.calls": (calls("boolfn"), "count"),
        "boolfn.busy_s": (busy("boolfn"), "s"),
        "corrbox.oracle.calls": (calls("corrbox.oracle"), "count"),
        "corrbox.oracle.busy_s": (busy("corrbox.oracle"), "s"),
        "ghzc.compile.busy_s": (busy("ghzc.compile"), "s"),
        "ghzc.compile.qubits": (work.get("ghzc.compile.qubits", 0), "count"),
        "ghzc.verify.busy_s": (busy("ghzc.verify"), "s"),
        "ghzc.verify.qubit_inputs": (work.get("ghzc.verify.qubit_inputs", 0), "count"),
        "ghzc.verify.ns_per_qubit_input": (
            per("ghzc.verify", work.get("ghzc.verify.qubit_inputs", 0), 1e9), "ns"),
        "mbqc.run_exact.busy_s": (busy("mbqc.run_exact"), "s"),
        "mbqc.run_exact.inputs": (work.get("mbqc.run_exact.inputs", 0), "count"),
        "mbqc.certificate.busy_s": (busy("mbqc.certificate"), "s"),
        "gates.calls": (calls("gates"), "count"),
        "gates.busy_s": (busy("gates"), "s"),
        "reliability.build.busy_s": (busy("reliability.build"), "s"),
        "reliability.build.stages": (work.get("reliability.build.stages", 0), "count"),
        "reliability.analytic.busy_s": (busy("reliability.analytic"), "s"),
        "reliability.analytic.stage_inputs": (
            work.get("reliability.analytic.stage_inputs", 0), "count"),
        "reliability.analytic.us_per_stage_input": (
            per("reliability.analytic", work.get("reliability.analytic.stage_inputs", 0), 1e6),
            "us"),
        "reliability.mc.busy_s": (busy("reliability.mc"), "s"),
        "reliability.mc.trials": (work.get("reliability.mc.trials", 0), "count"),
        "reliability.mc.wire_stage_updates": (mc_updates, "count"),
        "reliability.mc.updates_per_s": (mc_updates / mc_busy_ops if mc_busy_ops else 0.0, "1/s"),
        "reliability.mc.us_per_trial": (
            per("reliability.mc", work.get("reliability.mc.trials", 0), 1e6), "us"),
        "reliability.mc.draw_bytes_computed": (
            work.get("reliability.mc.draw_bytes_computed", 0), "B"),
        "cli.import_s": (statistics.median(r["import_s"] for r in records), "s"),
    }
    for sub in CLI_SUBCOMMANDS:
        walls = [op[1] for r in records for op in r["ops"] if op[0] == sub]
        m[f"cli.{sub}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    cli_rss = max(r["children_peak_rss_kb"] for r in records) if workload == "cli_readme" else 0
    m["cli.child_peak_rss_mb"] = (cli_rss / 1024, "MiB")
    m["bench.busy_s"] = (busy("bench.op"), "s")
    m["trace.ops_per_s"] = (ops_per_s, "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def busy_shares(records: list[dict]) -> dict[str, float]:
    """Share of traced self time per layer: the module, with reliability split
    into build, analytic and mc. For CLI children, whose inside no span sees,
    ``cli.import`` is the median fresh-interpreter import time per child."""
    totals: dict[str, float] = {}
    for r in records:
        for name, (_, own, _) in r["layers"].items():
            parts = name.split(".")
            layer = ".".join(parts[:2]) if parts[0] == "reliability" else parts[0]
            totals[layer] = totals.get(layer, 0.0) + own
    children = sum(calls for r in records for name, (calls, _, _) in r["layers"].items()
                   if name.startswith("cli."))
    if children:
        imports = min(totals["cli"], children * statistics.median(r["import_s"] for r in records))
        totals["cli.import"] = imports
        totals["cli"] -= imports
    whole = sum(totals.values())
    return {k: v / whole for k, v in sorted(totals.items())}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def mem_total_mb() -> float | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "mem_total_mb": mem_total_mb(),
        "seed": seed,
        "workers": WORKERS,
        "thread_pins": {name: "1" for name in THREAD_PINS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {PACKAGE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    stop_by = time.time() + min(SLOWDOWN_CAP * args.seconds, HARD_LIMIT_S / 2)
    blocks = max(WORKERS, round(args.seconds / NOMINAL_BLOCK_S[args.workload]))
    env = child_env()
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    records = []
    timed = 0.0
    next_block = 0
    try:
        for i in range(WORKERS):
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--first-block", str(next_block),
                   "--blocks", str(blocks // WORKERS + (i < blocks % WORKERS)),
                   "--stop-by", repr(stop_by), "--trace", str(args.trace),
                   "--scratch", str(SCRATCH), "--name", f"{run_name}-w{i}"]
            spawned_at, record = run_worker(cmd, env, deadline)
            record["setup_s"] = record["ready_at"] - spawned_at
            records.append(record)
            timed += record["timed_s"]
            next_block = record["next_block"]
    finally:
        for i in range(WORKERS):
            shutil.rmtree(SCRATCH / f"{run_name}-w{i}", ignore_errors=True)

    summary = summarize(args.workload, records, bool(args.trace))
    full = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        **summary,
        "blocks": next_block,
        "timed_s": timed,
        "setup_s_per_worker": [r["setup_s"] for r in records],
        "computed_work": merged_work(records),
        "failures": [f for r in records for f in r["failures"]][:20],
    }
    if args.trace:
        full["busy_share"] = busy_shares(records)
        full["spans_files"] = [r["spans_file"] for r in records]
    print(json.dumps(full))
    metrics = summary["metrics"]
    if not args.trace:
        metrics = {k: v for k, v in metrics.items() if k != "error_rate"}
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
