"""Byte-for-byte demo regression: the stdout of every ``demos/*.py`` script.

Each demo runs in-process with ``runpy`` and its stdout is compared with
``tests/golden/demo_<name>.out``, where ``<name>`` is the script's file name
without ``.py``. After a change that declares new demo output, re-capture
with ``PYTHONPATH=src python tests/test_demos_golden.py``.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden"


def run_demo(path: Path) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue().encode()


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_output_matches_golden(path):
    assert run_demo(path) == (GOLDEN / f"demo_{path.stem}.out").read_bytes()


if __name__ == "__main__":
    for path in sorted(DEMOS.glob("*.py")):
        (GOLDEN / f"demo_{path.stem}.out").write_bytes(run_demo(path))
