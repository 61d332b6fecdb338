"""Test-session settings shared by every test directory.

Tests write no bytecode, and neither do the CLI children they start, which
inherit ``PYTHONDONTWRITEBYTECODE``: a checkout that a test run left
``__pycache__`` in would otherwise import faster than a fresh one.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
