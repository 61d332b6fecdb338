"""Byte-for-byte CLI regression: stdout and exit codes of the README runs.

The expected stdout of each case is ``tests/golden/<name>.out`` and its exit
code is in ``tests/golden/exit_codes.json``; the input files (``and.tt``,
``and.ghz``, ``tree.nand``, the 3-level NAND tree, and ``tree4.nand``, the
2-level tree on four inputs) sit beside them. Every
case runs in-process through ``cli.main`` from inside that directory. After
a change that declares new output, re-capture with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from l2mbqc import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "gate_and_chsh": ["gate", "and", "--resource", "chsh"],
    "gate_and_noncontextual": ["gate", "and", "--resource", "noncontextual-quarter"],
    "gate_maj3_ghz": ["gate", "maj", "--k", "3", "--resource", "ghz", "--epsilon", "0"],
    "gate_xnand_ghz_json": [
        "gate", "xnand", "--resource", "ghz", "--epsilon", "0.1", "--format", "json",
    ],
    "gate_and_chsh_json": ["gate", "and", "--resource", "chsh", "--format", "json"],
    "thresholds_41": ["thresholds", "--kmax", "41"],
    "thresholds_41_json": ["thresholds", "--kmax", "41", "--format", "json"],
    "compile_and": ["compile", "--fn", "and.tt"],
    "verify_and": ["verify", "--program", "and.ghz", "--fn", "and.tt"],
    "inequality_chsh": ["inequality", "--fn", "and.tt", "--program", "chsh-and"],
    "inequality_and_ghz": [
        "inequality", "--fn", "and.tt", "--program", "and.ghz", "--epsilon", "0.1",
    ],
    "reliable_tree3": [
        "reliable", "--formula", "tree.nand", "--width", "81", "--rounds", "8",
        "--seed", "7",
    ],
    "reliable_tree4_mc": [
        "reliable", "--formula", "tree4.nand", "--width", "9", "--rounds", "1",
        "--seed", "5", "--trials", "2000",
    ],
    "reliable_tree4_mc_json": [
        "reliable", "--formula", "tree4.nand", "--width", "9", "--rounds", "1",
        "--seed", "5", "--trials", "2000", "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = cli.main(CASES[name])
    out = capsys.readouterr().out
    expected = json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert code == expected
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    os.chdir(GOLDEN)
    codes = {}
    for name, args in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes[name] = cli.main(args)
        Path(f"{name}.out").write_bytes(buf.getvalue().encode())
    codes_text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    Path("exit_codes.json").write_text(codes_text)
