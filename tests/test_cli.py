import functools
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from l2mbqc import boolfn, cli
from l2mbqc.boolfn import BRUTE_FORCE_ARITY_CAP, COMPILE_ARITY_CAP
from l2mbqc.gates import SWEEP_K_CAP
from l2mbqc.reliability import CIRCUIT_SIZE_CAP, TRIALS_CAP


@pytest.fixture
def and_tt(tmp_path):
    path = tmp_path / "and.tt"
    path.write_text(boolfn.to_text(boolfn.make_named("and")))
    return str(path)


@pytest.fixture
def nand_formula(tmp_path):
    path = tmp_path / "tree.nand"
    path.write_text("(nand (nand a b) (nand c d))\n")
    return str(path)


def run(args):
    return cli.main(args)


def test_gate_chsh_table(tmp_path, capsys):
    assert run(["gate", "and", "--resource", "chsh"]) == 0
    out = capsys.readouterr().out
    assert "classification: epsilon-noisy (epsilon=0.146446609)" in out
    assert out.count("0.853553391") == 4
    assert out.splitlines()[1] == "input,success,error"


def test_gate_noncontextual_quarter(capsys):
    assert run(["gate", "and", "--resource", "noncontextual-quarter"]) == 0
    out = capsys.readouterr().out
    assert out.count("0.25") >= 4


def test_gate_deterministic_ghz_majority(capsys):
    assert run(["gate", "maj", "--k", "3", "--resource", "ghz", "--epsilon", "0"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if "," in ln][1:]
    assert len(rows) == 8
    assert all(row.split(",")[1] == "1" for row in rows)


def test_gate_unknown_combination_exits_2(capsys):
    assert run(["gate", "xor", "--resource", "chsh"]) == 2
    assert "error:" in capsys.readouterr().err


def test_thresholds_csv(capsys):
    assert run(["thresholds", "--kmax", "7"]) == 0
    out = capsys.readouterr().out
    assert "# beta_strictly_increasing: true" in out
    assert "# gap_strictly_decreasing: true" in out
    assert "3,1/6,0.166666667,1/4,0.25,1/12,0.0833333333" in out
    assert "5,7/30," in out and "19/240" in out


def test_thresholds_rejects_even_kmax(capsys):
    assert run(["thresholds", "--kmax", "8"]) == 2


def test_compile_verify_roundtrip(tmp_path, and_tt, capsys):
    program_path = str(tmp_path / "and.ghz")
    assert run(["compile", "--fn", and_tt, "--output", program_path]) == 0
    config = json.loads(Path(program_path).read_text())
    assert len(config["qubits"]) == 3
    assert run(["verify", "--program", program_path, "--fn", and_tt]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deterministic"] is True


def test_verify_tampered_program_exits_1(tmp_path, and_tt, capsys):
    program_path = str(tmp_path / "and.ghz")
    run(["compile", "--fn", and_tt, "--output", program_path])
    config = json.loads(Path(program_path).read_text())
    config["qubits"][0]["num"] += 2  # shift one increment by a full pi
    bad_path = str(tmp_path / "tampered.ghz")
    Path(bad_path).write_text(json.dumps(config))
    assert run(["verify", "--program", bad_path, "--fn", and_tt]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failing_inputs"] == ["10", "11"]


def test_inequality_chsh(and_tt, capsys):
    assert run(["inequality", "--fn", and_tt, "--program", "chsh-and"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "contextual"
    assert payload["delta"] == pytest.approx(0.1035533906, abs=1e-9)


def test_inequality_noncontextual_is_inconclusive(and_tt, capsys):
    assert run(["inequality", "--fn", and_tt, "--program", "noncontextual-and"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "inconclusive"
    assert payload["delta"] == 0.0


def test_inequality_with_compiled_program(tmp_path, and_tt, capsys):
    program_path = str(tmp_path / "and.ghz")
    run(["compile", "--fn", and_tt, "--output", program_path])
    capsys.readouterr()
    assert run(["inequality", "--fn", and_tt, "--program", program_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == pytest.approx(0.25, abs=1e-9)


def test_reliable_certified_run(nand_formula, tmp_path):
    # the independence figure alone certifies nothing; 1024 trials on each
    # of the 16 inputs certify (largest upper bound 0.433, at 0110)
    args = [
        "reliable", "--formula", nand_formula, "--width", "81", "--rounds", "8", "--seed", "7",
    ]
    out_path = str(tmp_path / "report.csv")
    assert run(args + ["--output", out_path]) == 1
    text = Path(out_path).read_text()
    assert "# reliable: false (margin 0.05)\n# evidence: none (independence figure only, optimistic)\n" in text
    assert run(args + ["--trials", "1024", "--output", out_path]) == 0
    text = Path(out_path).read_text()
    assert "# reliable: true (margin 0.05)\n" in text
    assert "# evidence: sampled 16/16 inputs, 1024 trials, exact CP 95 % family-wise\n" in text
    assert text.splitlines()[4] == "input,analytic_error,empirical_error,upper"
    uppers = [float(line.split(",")[3]) for line in text.splitlines()[5:]]
    assert len(uppers) == 16 and max(uppers) == pytest.approx(0.433, abs=5e-4)
    assert text.endswith("\n") and "\r" not in text


#: ROADMAP Baseline's refuted rows: TREE3 with seed 7, the independence
#: figure below the line and the sampled error of the worst input near 1/2
REFUTED = [
    ["--width", "81", "--rounds", "8"],
    ["--width", "81", "--rounds", "12"],
    ["--width", "81", "--rounds", "24", "--xnand", "noncontextual-quarter"],
    ["--width", "243", "--rounds", "24", "--xnand", "noncontextual-quarter"],
    ["--width", "729", "--rounds", "24", "--xnand", "noncontextual-quarter"],
]


@pytest.mark.parametrize("sampling", [[], ["--trials", "1024", "--mc-inputs", "worst"]],
                         ids=["unsampled", "one-block-worst"])
@pytest.mark.parametrize("shape", REFUTED, ids=lambda shape: "-".join(shape[1::2]))
def test_refuted_circuits_are_never_reliable(tmp_path, capsys, shape, sampling):
    tree3 = tmp_path / "tree3.nand"
    tree3.write_text("(nand (nand (nand a b) (nand c d)) (nand (nand e f) (nand g h)))\n")
    code = run(["reliable", "--formula", str(tree3), "--seed", "7", *shape, *sampling,
                "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["reliable"] is False
    assert payload["delta"] < 0.45
    sampled = [row for row in payload["rows"] if row["upper"] is not None]
    assert len(sampled) == (1 if sampling else 0)
    for row in sampled:
        assert row["input"] == payload["worst_input"] and row["upper"] > 0.45


def test_reliable_degraded_run_exits_1(tmp_path, capsys):
    deep = tmp_path / "deep.nand"
    deep.write_text(
        "(nand (nand (nand a b) (nand c d)) (nand (nand e f) (nand g h)))\n"
    )
    code = run(
        [
            "reliable", "--formula", str(deep), "--width", "81",
            "--rounds", "2", "--seed", "7", "--restore-epsilon", "0.2",
            "--format", "json",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["reliable"] is False
    assert any("beta_3" in w for w in payload["warnings"])
    # no mc_stream without --trials
    assert set(payload) == {"delta", "worst_input", "margin", "reliable", "warnings", "evidence", "rows"}
    assert payload["worst_input"] in {row["input"] for row in payload["rows"]}


def test_reliable_json_names_the_mc_stream_with_trials(nand_formula, capsys):
    code = run(
        [
            "reliable", "--formula", nand_formula, "--width", "9",
            "--rounds", "1", "--seed", "5", "--trials", "200", "--format", "json",
        ]
    )
    assert code in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["mc_stream"] == "bitsliced-sfc64-v3"
    assert all(row["empirical_error"] is not None for row in payload["rows"])
    assert payload["evidence"] == {
        "kind": "sampled", "sampled_inputs": 16, "inputs": 16, "trials": 200,
        "bound": "exact one-sided Clopper-Pearson", "family_level": 0.05,
    }


def test_reliable_output_is_byte_deterministic(nand_formula, tmp_path):
    paths = [str(tmp_path / f"run{i}.csv") for i in (1, 2)]
    for p in paths:
        assert run(
            [
                "reliable", "--formula", nand_formula, "--width", "27",
                "--rounds", "1", "--seed", "5", "--trials", "400",
                "--output", p,
            ]
        ) in (0, 1)
    assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()


def test_bad_truth_table_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.tt"
    bad.write_text("n=2\nzz\n")
    assert run(["compile", "--fn", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_bad_formula_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.nand"
    bad.write_text("(nand a\n(xor b c))\n")
    code = run(
        ["reliable", "--formula", str(bad), "--width", "9", "--rounds", "0", "--seed", "1"]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_output_dir_env_resolves_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert run(["thresholds", "--kmax", "5", "--output", "sweep.csv"]) == 0
    assert (tmp_path / "sweep.csv").exists()


def test_missing_file_exits_2(capsys):
    assert run(["compile", "--fn", "/nonexistent/f.tt"]) == 2


def test_thresholds_byte_determinism(capsys):
    run(["thresholds", "--kmax", "11"])
    first = capsys.readouterr().out
    run(["thresholds", "--kmax", "11"])
    assert capsys.readouterr().out == first


def _with_mask(mask):
    """A 2-input program whose second qubit is on subset ``mask``."""
    return {"n": 2, "constant": 0, "qubits": [{"mask": 1, "num": 1, "den": 2}, {"mask": mask, "num": 1, "den": 2}]}


#: id -> (program body, its exact error message or None)
MALFORMED_PROGRAMS = {
    "list": ([], None),
    "qubits-int": ({"n": 2, "constant": 0, "qubits": 5}, None),
    "mask-null": ({"n": 2, "constant": 0, "qubits": [{"mask": None, "num": 1, "den": 2}]}, None),
    "den-zero": ({"n": 2, "constant": 0, "qubits": [{"mask": 1, "num": 1, "den": 0}]}, None),
    "1024-qubits": ({"n": 2, "constant": 0, "qubits": [{"mask": 1, "num": 1, "den": 2}] * 1024}, None),
    # GhzProgram checks every mask, 0 < mask < 2^n
    "mask-zero": (_with_mask(0), "qubit subset mask must be nonempty"),
    "mask-negative": (_with_mask(-3), "qubit subset mask must be nonempty"),
    "mask-wide": (_with_mask(4), "qubit subset references bits beyond the arity"),
}


@pytest.mark.parametrize("subcommand", ["verify", "inequality"])
@pytest.mark.parametrize("body, message", MALFORMED_PROGRAMS.values(), ids=MALFORMED_PROGRAMS)
def test_malformed_program_file_exits_2(tmp_path, and_tt, capsys, subcommand, body, message):
    path = tmp_path / "bad.ghz"
    path.write_text(json.dumps(body))
    assert run([subcommand, "--program", str(path), "--fn", and_tt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message is None or err == f"error: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("subcommand", ["compile", "verify"])
def test_oversized_truth_table_header_exits_2(tmp_path, capsys, subcommand):
    fn = tmp_path / "huge.tt"
    fn.write_text("n=64\n0\n")
    program = tmp_path / "empty.ghz"
    program.write_text(json.dumps({"n": 2, "constant": 0, "qubits": []}))
    args = [subcommand, "--fn", str(fn)]
    if subcommand == "verify":
        args += ["--program", str(program)]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above cap 16" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("subcommand", ["gate", "reliable"])
def test_majority_arity_above_cap_exits_2(nand_formula, capsys, subcommand):
    if subcommand == "gate":
        args = ["gate", "maj", "--resource", "ghz", "--k", "17"]
    else:
        args = [
            "reliable", "--formula", nand_formula, "--width", "81", "--rounds", "1",
            "--seed", "1", "--k", "17", "--restore-epsilon", "0.1",
        ]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above cap 16" in err
    assert "Traceback" not in err


RELIABLE = ["reliable", "--formula", "tree.nand", "--rounds", "1", "--seed", "1"]
#: a NAND chain over 17 inputs, one more than the analytic sweep allows
WIDE_FORMULA = functools.reduce(lambda acc, name: f"(nand {acc} {name})", "bcdefghijklmnopq", "a")
#: a NAND chain over 16 inputs: one trial each still draws 2^16 whole blocks
CHAIN16 = functools.reduce(lambda acc, name: f"(nand {acc} {name})", "bcdefghijklmnop", "a")

MALFORMED_INPUTS = {
    "gate-unknown-combination": (["gate", "xor", "--resource", "chsh"], "cannot be built"),
    "gate-k17": (["gate", "maj", "--resource", "ghz", "--k", "17"], "above cap 16"),
    "gate-maj-k11-ghz": (
        ["gate", "maj", "--k", "11", "--resource", "ghz"], "arity 11 above compile cap 10",
    ),
    "gate-maj-k5-chsh": (
        ["gate", "maj", "--k", "5", "--resource", "chsh"],
        "gate 'maj' cannot be built from resource 'chsh' at k = 5",
    ),
    "gate-epsilon-without-ghz": (
        ["gate", "and", "--resource", "chsh", "--epsilon", "0.3"],
        "--epsilon applies only to --resource ghz",
    ),
    "gate-k-without-maj": (
        ["gate", "xnand", "--resource", "ghz", "--k", "5"],
        "--k applies only to gate maj",
    ),
    "inequality-epsilon-without-program-file": (
        ["inequality", "--fn", "and.tt", "--program", "chsh-and", "--epsilon", "0.3"],
        "--epsilon applies only to a program file, not chsh-and",
    ),
    "thresholds-even-kmax": (["thresholds", "--kmax", "8"], "kmax must be odd"),
    "thresholds-small-kmax": (["thresholds", "--kmax", "1"], "at least 3"),
    "thresholds-kmax-above-cap": (["thresholds", "--kmax", "10003"], "above cap 7147"),
    "thresholds-kmax-at-cap": (["thresholds", "--kmax", "10001"], "above cap 7147"),
    "compile-missing-file": (["compile", "--fn", "missing.tt"], "missing.tt"),
    "compile-bad-hex": (["compile", "--fn", "badhex.tt"], "line 2"),
    "compile-signed-hex": (["compile", "--fn", "signedhex.tt"], "line 2: invalid hex table '-1'"),
    "compile-header-only": (
        ["compile", "--fn", "header.tt"],
        "line 1: expected a header line and a hex table line",
    ),
    "compile-line-after-table": (
        ["compile", "--fn", "twotables.tt"], "line 3: unexpected line after the table",
    ),
    "compile-format": (["compile", "--fn", "and.tt", "--format", "json"], "unrecognized"),
    "compile-pad": (["compile", "--fn", "and.tt", "--pad"], "unrecognized"),
    "verify-format-csv": (
        ["verify", "--program", "and.ghz", "--fn", "and.tt", "--format", "csv"],
        "unrecognized",
    ),
    "inequality-format": (
        ["inequality", "--fn", "and.tt", "--program", "chsh-and", "--format", "json"],
        "unrecognized",
    ),
    "verify-malformed-program": (["verify", "--program", "bad.ghz", "--fn", "and.tt"], "error: "),
    "verify-float-mask": (
        ["verify", "--program", "float.ghz", "--fn", "and.tt"],
        "mask 1.9 is not an integer",
    ),
    "verify-increment-overflow": (
        ["verify", "--program", "huge.ghz", "--fn", "and.tt"],
        "qubit 0 (mask 1): increment overflows a float",
    ),
    "inequality-increment-overflow": (
        ["inequality", "--fn", "and.tt", "--program", "huge.ghz"],
        "qubit 0 (mask 1): increment overflows a float",
    ),
    "verify-negative-arity": (
        ["verify", "--program", "negative.ghz", "--fn", "and.tt"], "arity -1 is negative",
    ),
    "inequality-negative-arity": (
        ["inequality", "--fn", "and.tt", "--program", "negative.ghz"], "arity -1 is negative",
    ),
    "verify-nested-program": (
        ["verify", "--program", "deep.json", "--fn", "and.tt"],
        "deep.json: JSON nested too deeply to parse",
    ),
    "inequality-nested-program": (
        ["inequality", "--fn", "and.tt", "--program", "deep.json"],
        "deep.json: JSON nested too deeply to parse",
    ),
    "reliable-bad-formula": (
        ["reliable", "--formula", "bad.nand", "--width", "9", "--rounds", "0", "--seed", "1"],
        "line 2",
    ),
    "reliable-empty-formula": (
        ["reliable", "--formula", "empty.nand", "--width", "9", "--rounds", "0", "--seed", "1"],
        "line 1: empty formula",
    ),
    "reliable-stray-close": (
        ["reliable", "--formula", "close.nand", "--width", "9", "--rounds", "0", "--seed", "1"],
        "line 1: unexpected ')'",
    ),
    "reliable-bad-input-name": (
        ["reliable", "--formula", "badname.nand", "--width", "9", "--rounds", "0", "--seed", "1"],
        "line 1: bad input name '1a'",
    ),
    "reliable-keyword-input-name": (
        ["reliable", "--formula", "keyword.nand", "--width", "9", "--rounds", "0", "--seed", "1"],
        "line 1: bad input name 'nand'",
    ),
    "reliable-unclosed-formula": (
        ["reliable", "--formula", "open.nand", "--width", "9", "--rounds", "0", "--seed", "1"],
        "line 1: unexpected end of formula",
    ),
    "reliable-negative-rounds": (
        ["reliable", "--formula", "tree.nand", "--width", "9", "--rounds", "-1", "--seed", "1"],
        "restore_rounds must be nonnegative",
    ),
    "reliable-k5-without-restore-epsilon": (
        RELIABLE + ["--width", "25", "--k", "5"],
        "k != 3 requires --restore-epsilon (the error of a k-MAJ gate on every input)",
    ),
    "reliable-margin": (RELIABLE + ["--width", "9", "--margin", "0.7"], "margin 0.7 outside"),
    "reliable-width-2": (RELIABLE + ["--width", "2"], "bundle width 2 smaller than k = 3"),
    "reliable-zero-trials": (RELIABLE + ["--width", "9", "--trials", "0"], "at least one trial"),
    "reliable-mc-inputs-without-trials": (
        RELIABLE + ["--width", "9", "--mc-inputs", "worst"],
        "--mc-inputs applies only with --trials",
    ),
    "reliable-negative-seed": (
        ["reliable", "--formula", "tree.nand", "--width", "81", "--rounds", "1", "--seed", "-5"],
        "seed -5 is negative",
    ),
    "reliable-size-above-cap": (RELIABLE + ["--width", "1000000000000"], "above cap 2097152"),
    "reliable-trials-above-cap": (
        RELIABLE + ["--width", "9", "--trials", str(10**23)],
        "above cap 16777216",
    ),
    "reliable-sampled-width-above-cap": (
        RELIABLE + ["--width", "4097", "--trials", "1"], "sampled width 4097 above cap 4096",
    ),
    "reliable-inputs-x-trials-above-cap": (
        RELIABLE + ["--width", "9", "--trials", "1048577"],
        "16 input(s) x 1048577 trials above cap 16777216",
    ),
    "reliable-whole-blocks-above-cap": (
        ["reliable", "--formula", "chain16.nand", "--width", "3", "--rounds", "0", "--seed", "1",
         "--trials", "1"],
        "65536 input(s) x 1 trials above cap 16777216: the sampler draws whole blocks of 1024 trials",
    ),
    "reliable-17-inputs": (
        ["reliable", "--formula", "wide.nand", "--width", "3", "--rounds", "0", "--seed", "1"],
        "above cap 16",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_without_traceback(tmp_path, monkeypatch, capsys, name):
    args, message = MALFORMED_INPUTS[name]
    (tmp_path / "and.tt").write_text(boolfn.to_text(boolfn.make_named("and")))
    (tmp_path / "badhex.tt").write_text("n=2\nzz\n")
    (tmp_path / "signedhex.tt").write_text("n=2\n-1\n")
    (tmp_path / "and.ghz").write_text(json.dumps({"n": 2, "constant": 0, "qubits": []}))
    (tmp_path / "bad.ghz").write_text("[]")
    floats = {"n": 2, "constant": 0, "qubits": [{"mask": 1.9, "num": 1.5, "den": 2}]}
    (tmp_path / "float.ghz").write_text(json.dumps(floats))
    huge = {"mask": 1, "num": 10**400, "den": 1}
    (tmp_path / "huge.ghz").write_text(json.dumps({"n": 2, "constant": 0, "qubits": [huge]}))
    (tmp_path / "negative.ghz").write_text(json.dumps({"n": -1, "constant": 0, "qubits": []}))
    (tmp_path / "deep.json").write_text('{"qubits": ' + "[" * 5000 + "]" * 5000 + "}")
    (tmp_path / "tree.nand").write_text("(nand (nand a b) (nand c d))\n")
    (tmp_path / "bad.nand").write_text("(nand a\n(xor b c))\n")
    (tmp_path / "empty.nand").write_text("")
    (tmp_path / "close.nand").write_text(")")
    (tmp_path / "badname.nand").write_text("(nand 1a b)")
    (tmp_path / "keyword.nand").write_text("(nand a nand)")
    (tmp_path / "open.nand").write_text("(nand a")
    (tmp_path / "header.tt").write_text("n=2\n")
    (tmp_path / "twotables.tt").write_text("n=2\n8\nn=3\nff\n")
    (tmp_path / "wide.nand").write_text(WIDE_FORMULA)
    (tmp_path / "chain16.nand").write_text(CHAIN16)
    monkeypatch.chdir(tmp_path)
    try:
        code = run(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: " in err and message in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the exit-code contract: every subcommand over boundary values and bad files

BOUNDARY_VALUES = ("0", "-1", "1", "nan", "inf", "1e308", "1" * 25)
SMALL_RELIABLE = ["reliable", "--formula", "tree.nand", "--width", "9", "--rounds", "0", "--seed", "1"]

#: (argv, option, caps): the option is appended, so it overrides an earlier
#: value; each cap and cap + 1 is tried where the cap is refused before any
#: work starts (the sweep at kmax = SWEEP_K_CAP and a circuit of
#: CIRCUIT_SIZE_CAP cells do the full work, so only the values past them run)
CONTRACT_OPTIONS = (
    (["gate", "maj", "--resource", "ghz"], "--k",
     (COMPILE_ARITY_CAP, COMPILE_ARITY_CAP + 1, BRUTE_FORCE_ARITY_CAP, BRUTE_FORCE_ARITY_CAP + 1)),
    (["gate", "maj", "--resource", "chsh"], "--k", ()),
    (["gate", "and", "--resource", "ghz"], "--epsilon", ()),
    (["thresholds"], "--kmax", (SWEEP_K_CAP + 1, SWEEP_K_CAP + 2)),
    (["inequality", "--fn", "and.tt", "--program", "and.ghz"], "--epsilon", ()),
    (SMALL_RELIABLE, "--width", (CIRCUIT_SIZE_CAP // 3 + 1,)),  # tree.nand: 3 stages at r = 0
    (SMALL_RELIABLE, "--rounds", ()),
    (SMALL_RELIABLE, "--seed", ()),
    (SMALL_RELIABLE, "--trials", (TRIALS_CAP, TRIALS_CAP + 1)),  # 16 inputs x trials
    (SMALL_RELIABLE + ["--trials", "1"], "--width", (4096, 4097)),  # the sampled width cap
    (SMALL_RELIABLE, "--margin", ()),
    (SMALL_RELIABLE + ["--restore-epsilon", "0.01"], "--k", (BRUTE_FORCE_ARITY_CAP, BRUTE_FORCE_ARITY_CAP + 1)),
    (SMALL_RELIABLE, "--restore-epsilon", ()),
)

#: argv with a placeholder F for a path: a directory, a path in a missing
#: directory and every contract file go in each, but an output path is only
#: ever the first two
CONTRACT_FILE_SLOTS = (
    ["compile", "--fn", "F"],
    ["verify", "--program", "F", "--fn", "and.tt"],
    ["verify", "--program", "and.ghz", "--fn", "F"],
    ["inequality", "--fn", "F", "--program", "chsh-and"],
    ["inequality", "--fn", "and.tt", "--program", "F"],
    ["reliable", "--formula", "F", "--width", "9", "--rounds", "0", "--seed", "1"],
    ["gate", "and", "--resource", "chsh", "--output", "F"],
)
#: the well-formed inputs of each slot stand for the wrong format in the others
CONTRACT_FILES = {
    "and.tt": boolfn.to_text(boolfn.make_named("and")),
    "and.ghz": json.dumps({"n": 2, "constant": 0, "qubits": [{"mask": 1, "num": 1, "den": 2}]}),
    "tree.nand": "(nand (nand a b) (nand c d))\n",
    "empty": "",
    "truncated.json": '{"n": 2, "constant": 0, "qubits": [{"mask": 1, "nu',
    "deep.json": '{"qubits": ' + "[" * 5000 + "]" * 5000 + "}",
    "negative.ghz": json.dumps({"n": -1, "constant": 0, "qubits": []}),
}


def contract_argvs():
    for argv, option, caps in CONTRACT_OPTIONS:
        for value in (*BOUNDARY_VALUES, *map(str, caps)):
            yield [*argv, option, value]
    for slot in CONTRACT_FILE_SLOTS:
        for name in ("directory", "missing/file", *CONTRACT_FILES):
            if "--output" not in slot or name in ("directory", "missing/file"):
                yield [name if arg == "F" else arg for arg in slot]


def breaks_contract(code, err):
    """Exit 0, 1 or 2 and never a traceback; a 2 says "error:" first, or is
    argparse's usage message."""
    return code not in (0, 1, 2) or "Traceback" in err or (
        code == 2 and not err.startswith(("error:", "usage:"))
    )


@pytest.fixture
def contract_dir(tmp_path):
    for name, text in CONTRACT_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "directory").mkdir()
    return tmp_path


def test_every_subcommand_keeps_the_exit_code_contract(contract_dir, monkeypatch, capsys):
    monkeypatch.chdir(contract_dir)
    argvs = list(contract_argvs())
    assert len(argvs) >= 150
    breaches = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # what a user would see as a traceback
            code = repr(exc)
        err = capsys.readouterr().err
        if breaks_contract(code, err):
            breaches.append((argv, code, err))
    assert not breaches


#: runs each argv list read as JSON from stdin through ``cli.main`` under a
#: 1 GiB address-space limit of its own, and prints (argv, code, err) per run;
#: the code of a run that raised, a MemoryError too, is the exception's repr
CEILING_CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from l2mbqc import cli
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
    results.append((argv, code, err.getvalue()))
print(json.dumps(results))
"""


def run_under_ceiling(cwd, argvs):
    """Every argv's (argv, code, stderr) from one child process."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", CEILING_CHILD], input=json.dumps(argvs), cwd=cwd,
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(child.stdout)


def test_the_exit_code_contract_holds_under_a_memory_ceiling(contract_dir):
    # the in-process contract again, in a child whose address space is capped:
    # a MemoryError is a traceback, so it is a breach
    results = run_under_ceiling(contract_dir, list(contract_argvs()))
    assert len(results) >= 150
    assert not [result for result in results if breaks_contract(*result[1:])]


def test_the_width_cap_sampler_run_fits_under_a_memory_ceiling(tmp_path):
    # the circuit's size cap is far above the sampled width cap, so the
    # sampler refuses the run before it allocates
    argv = ["reliable", "--formula", "nand.nand", "--width", str(CIRCUIT_SIZE_CAP),
            "--rounds", "0", "--seed", "1", "--trials", "1"]
    (tmp_path / "nand.nand").write_text("(nand a b)\n")
    [(_, code, err)] = run_under_ceiling(tmp_path, [argv])
    assert not breaks_contract(code, err), code
    assert code == 2 and err.startswith("error:") and "sampled width 2097152 above cap 4096" in err


README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).parent / "golden"


def readme_sh_lines() -> list[str]:
    """Every line inside the README's ``sh`` code blocks."""
    lines, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            fenced = line.strip() == "```sh"
        elif fenced:
            lines.append(line.strip())
    return lines


def readme_commands() -> list[str]:
    """Every ``l2mbqc ...`` line inside the README's ``sh`` blocks."""
    return [line for line in readme_sh_lines() if line.startswith("l2mbqc ")]


def test_readme_commands_parse(capsys):
    # parsing only, nothing runs: a renamed flag, a dropped choice or a
    # changed requirement fails here instead of leaving a stale example
    commands = readme_commands()
    assert len(commands) >= 10
    parser = cli._build_parser()
    for line in commands:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}\n{capsys.readouterr().err}")
        assert callable(args.handler)


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every example runs in order, in-process, on the golden inputs and the
    # README's own tree3.nand: an example that a refused option or a
    # changed requirement turns into a usage error fails here
    for name in ("and.tt", "tree.nand", "tree4.nand"):
        shutil.copy(GOLDEN / name, tmp_path)
    [echo] = [line for line in readme_sh_lines() if line.startswith("echo ")]
    _, text, redirect, path = shlex.split(echo)
    assert redirect == ">"
    (tmp_path / path).write_text(text + "\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    for line in readme_commands():
        code = run(shlex.split(line, comments=True)[1:])
        err = capsys.readouterr().err
        assert code in (0, 1) and "error:" not in err, f"{line}: exit {code}\n{err}"
    assert (tmp_path / "sweep.csv").is_file() and (tmp_path / "and.ghz").is_file()


#: the modules past the package root and ``cli`` that each README example
#: of the benchmark's ``cli_readme`` workload loads: a handler imports only
#: what it runs
README_MODULES = {
    "gate-chsh": (["gate", "and", "--resource", "chsh"], "boolfn corrbox mbqc gates"),
    "gate-quarter": (["gate", "and", "--resource", "noncontextual-quarter"],
                     "boolfn corrbox mbqc gates"),
    "gate-ghz": (["gate", "maj", "--k", "3", "--resource", "ghz", "--epsilon", "0"],
                 "boolfn corrbox mbqc gates ghzc"),
    "thresholds": (["thresholds", "--kmax", "41"], "boolfn gates"),
    "compile": (["compile", "--fn", "and.tt", "--output", "and.ghz"], "boolfn corrbox mbqc ghzc"),
    "verify": (["verify", "--program", "and.ghz", "--fn", "and.tt"], "boolfn corrbox mbqc ghzc"),
    "inequality": (["inequality", "--fn", "and.tt", "--program", "chsh-and"],
                   "boolfn corrbox mbqc ghzc"),
    "reliable": (["reliable", "--formula", "tree.nand", "--width", "81", "--rounds", "8",
                  "--seed", "7"], "boolfn corrbox mbqc gates reliability"),
}

#: runs the argv read as JSON from stdin as ``python -m l2mbqc.cli`` does, and
#: prints its exit code and the sorted ``l2mbqc.*`` modules loaded
MODULES_CHILD = """
import contextlib, io, json, runpy, sys
sys.argv = ["l2mbqc", *json.load(sys.stdin)]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("l2mbqc.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("l2mbqc."))]))
"""


@pytest.mark.parametrize("argv, modules", README_MODULES.values(), ids=README_MODULES)
def test_each_readme_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    for name in ("and.tt", "and.ghz", "tree.nand"):
        shutil.copy(GOLDEN / name, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", MODULES_CHILD], input=json.dumps(argv), cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    code, loaded = json.loads(child.stdout)
    assert code in (0, 1), child.stderr
    assert set(loaded) - {"l2mbqc.cli"} == {f"l2mbqc.{m}" for m in modules.split()}
