"""Computation from correlations under mod-2 linear classical control.

Simulate correlation boxes exactly, run them under parity-only classical
processing, compile Boolean functions to deterministic GHZ measurement
programs, certify contextuality through average-error inequalities, and
assemble reliable circuits from noisy majority and XNAND gates.

The package root re-exports what the demos use; the full API lives in the
modules ``boolfn``, ``corrbox``, ``mbqc``, ``ghzc``, ``gates`` and
``reliability``. Each re-exported name resolves on first read (PEP 562),
so ``import l2mbqc`` alone loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

#: the re-exported names, by the module that defines them
_EXPORTS = {
    "boolfn": ("make_named",),
    "corrbox": ("chsh_and_box", "distribution", "statevector_oracle"),
    "gates": ("analyze_recursion", "chsh_and_gate", "eta_by_iteration", "min_k_for_violation"),
    "ghzc": ("compile_function", "run_as_l2program", "verify"),
    "mbqc": (
        "best_noncontextual_error",
        "chsh_and_program",
        "contextuality_certificate",
        "noncontextual_and_program",
        "run_exact",
    ),
    "reliability": ("build", "build_report", "parse_formula"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
