"""Computation from correlations under mod-2 linear classical control.

Simulate correlation boxes exactly, run them under parity-only classical
processing, compile Boolean functions to deterministic GHZ measurement
programs, certify contextuality through average-error inequalities, and
assemble reliable circuits from noisy majority and XNAND gates.

The package root re-exports what the demos use; the full API lives in the
modules ``boolfn``, ``corrbox``, ``mbqc``, ``ghzc``, ``gates`` and
``reliability``.
"""

from .boolfn import make_named
from .corrbox import chsh_and_box, distribution, statevector_oracle
from .gates import analyze_recursion, chsh_and_gate, eta_by_iteration, min_k_for_violation
from .ghzc import compile_function, run_as_l2program, verify
from .mbqc import (
    best_noncontextual_error,
    chsh_and_program,
    contextuality_certificate,
    noncontextual_and_program,
    run_exact,
)
from .reliability import build, build_report, parse_formula

__version__ = "0.1.0"

__all__ = [
    "analyze_recursion",
    "best_noncontextual_error",
    "build",
    "build_report",
    "chsh_and_box",
    "chsh_and_gate",
    "chsh_and_program",
    "compile_function",
    "contextuality_certificate",
    "distribution",
    "eta_by_iteration",
    "make_named",
    "min_k_for_violation",
    "noncontextual_and_program",
    "parse_formula",
    "run_as_l2program",
    "run_exact",
    "statevector_oracle",
    "verify",
]
