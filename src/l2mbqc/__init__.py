"""Computation from correlations under mod-2 linear classical control.

Simulate correlation boxes exactly, run them under parity-only classical
processing, compile Boolean functions to deterministic GHZ measurement
programs, certify contextuality through average-error inequalities, and
assemble reliable circuits from noisy majority and XNAND gates.

Each name lives in the module that defines it: ``boolfn``, ``corrbox``,
``mbqc``, ``ghzc``, ``gates`` or ``reliability``; the command line is
``cli``. ``import l2mbqc`` alone loads no submodule and no numpy.
"""

__version__ = "0.1.0"
