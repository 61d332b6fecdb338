import subprocess
import sys
from pathlib import Path

import l2mbqc


def test_import_does_not_load_scipy():
    src = str(Path(l2mbqc.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import l2mbqc; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
