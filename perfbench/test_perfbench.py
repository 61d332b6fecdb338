"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest perfbench -q

They are not part of the package's test suite (``testpaths = tests``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from l2mbqc import ghzc  # noqa: E402
from l2mbqc.boolfn import BooleanFunction  # noqa: E402
from worker import Tracer, run_op  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def block_inputs(name: str, seed: int, tmp_path: Path, blocks=(0, 3)) -> list:
    wl = workloads.WORKLOADS[name](seed, Tracer(False), tmp_path / f"{name}-{seed}")
    return [[op.inputs for op in wl.block(b)] for b in blocks]


@pytest.mark.parametrize("name", ["mc_sampler", "ghz_compile", "certify_sweep"])
def test_generation_is_deterministic_in_seed(name, tmp_path):
    first = block_inputs(name, 5, tmp_path)
    assert first == block_inputs(name, 5, tmp_path)
    assert first != block_inputs(name, 6, tmp_path)


def test_cli_inputs_follow_the_block_index(tmp_path):
    (first, later) = block_inputs("cli_readme", 5, tmp_path, blocks=(0, 8))
    assert first == later == [tuple(workloads.CLI_COMMANDS[0][1])]


def test_ghz_inputs_have_the_stated_size(tmp_path):
    wl = workloads.GhzCompile(1, Tracer(False), tmp_path)
    ops = wl.block(0)
    assert sorted(op.inputs.f.arity for op in ops) == sorted(workloads.GHZ_BLOCK)
    for op in ops:
        lo, hi = workloads.GHZ_QUBITS.get(op.inputs.f.arity, (1, 1 << op.inputs.f.arity))
        assert lo <= op.inputs.qubits <= hi
        assert ghzc.compile_function(op.inputs.f).n_qubits == op.inputs.qubits


def fake_record(ops, trace=False):
    record = {
        "ready_at": 0.0,
        "setup_s": 1.0,
        "warmup": ["warm", 0.01, True],
        "ops": ops,
        "timed_s": sum(op[1] for op in ops),
        "failures": [],
        "peak_rss_kb": 2048,
        "children_peak_rss_kb": 1024,
        "work": {"reliability.mc.trials": 4, "reliability.mc.draw_bytes_computed": 64},
        "calib": [run.CALIBRATION_REF_S] * (len(ops) + 1),
    }
    if trace:
        record["layers"] = {"reliability.mc": [2, 0.5, 0.4], "bench.op": [2, 0.01, 0.01]}
        record["import_s"] = 0.5
    return record


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, section):
    ops = [["W81x2048", 0.1 * (i + 1), True] for i in range(30)]
    summary = run.summarize("mc_sampler", [fake_record(ops, trace)] * 3, trace)
    for metric in BENCHMARK[section]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_tail_has_ten_samples_beyond_it():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 31)])
    assert (value, beyond) == (20.0, 10)
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_wrong_program_output_counts_as_a_failed_op(monkeypatch, tmp_path):
    """verify is handed a truth table with one bit flipped, for one op only."""
    real_verify = ghzc.verify
    calls = []

    def verify_flipped(program, f, **kwargs):
        calls.append(f)
        if len(calls) == 2:
            table = list(f.table)
            table[0] ^= 1
            f = BooleanFunction(f.arity, tuple(table))
        return real_verify(program, f, **kwargs)

    monkeypatch.setattr(ghzc, "verify", verify_flipped)
    wl = workloads.GhzCompile(3, Tracer(False), tmp_path)
    ops = [op for op in wl.block(0) if op.inputs.f.arity <= 6]
    failures = []
    records = [run_op(op, Tracer(False), i, failures) for i, op in enumerate(ops)]
    assert [ok for _, _, ok in records] == [i != 1 for i in range(len(ops))]
    assert all(latency > 0 for _, latency, _ in records)
    assert "not deterministic" in failures[0]
    summary = run.summarize("ghz_compile", [fake_record(records)], False)
    assert (summary["attempted"], summary["failed"]) == (len(ops) + 1, 1)
    assert summary["metrics"]["error_rate"]["value"] == pytest.approx(1 / (len(ops) + 1))


def test_undocumented_cli_exit_code_fails(monkeypatch, tmp_path):
    wl = workloads.CliReadme(1, Tracer(False), tmp_path)
    monkeypatch.setattr(
        workloads.subprocess, "run",
        lambda args, **kw: subprocess.CompletedProcess(args, 3, stdout="", stderr=""),
    )
    failures = []
    assert run_op(wl.block(0)[0], Tracer(False), 0, failures)[2] is False
    assert "undocumented exit code 3" in failures[0]


def test_mc_pooled_estimate_outside_its_band_fails_the_width(tmp_path):
    wl = workloads.McSampler(1, Tracer(False), tmp_path)
    ref = wl.reference[81]
    wl.pooled[81] = [round(ref["p"] * 10_000), 10_000]
    wl.pooled[729] = [0, 10_000]
    assert wl.finish() == ["W729x"]


def test_tracer_self_time_excludes_children():
    t = Tracer(True)
    t.call("outer", lambda: t.call("inner", sum, range(100_000)))
    times = t.self_times()
    outer, inner = t.spans
    assert inner[3] == 0 and outer[3] is None
    whole = outer[2] - outer[1]
    assert times["outer"][1] == pytest.approx(whole - (inner[2] - inner[1]))


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ghz_compile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
