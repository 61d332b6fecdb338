"""Certifying contextuality from average gate error alone.

Under parity-only classical processing, any strategy built from
non-contextual correlations errs on average at least nu(f)/2^n when
evaluating f, where nu is the distance to the closest affine function.
Beating that bound is therefore a device-independent witness of
contextuality. The margin delta = nu(f)/2^n - (average error) is the
certificate: positive means contextual, zero or negative is inconclusive.
"""

from l2mbqc.boolfn import make_named
from l2mbqc.ghzc import compile_function, run_as_l2program
from l2mbqc.mbqc import (
    best_noncontextual_error,
    chsh_and_program,
    contextuality_certificate,
    noncontextual_and_program,
    run_exact,
)

and2 = make_named("and")

print("exhaustive non-contextual optimum vs the affine-distance bound:")
for name, k in (("and", None), ("xor", None), ("maj", 3), ("xnand", None)):
    f = make_named(name, k)
    print(f"  {name}: best achievable error {best_noncontextual_error(f)}")
print()

cases = [
    ("Bell-state AND", chsh_and_program(), and2),
    ("non-contextual quarter-noisy AND", noncontextual_and_program(), and2),
    (
        "deterministic GHZ NAND",
        run_as_l2program(compile_function(make_named("nand"))),
        make_named("nand"),
    ),
]
for label, program, target in cases:
    strategy = run_exact(program, target)
    cert = contextuality_certificate(strategy, target)
    verdict = "contextual" if cert.contextual else "inconclusive"
    print(f"{label}:")
    print(f"  average error {cert.average_error:.9f} vs bound {cert.bound}")
    print(f"  delta = {cert.delta:+.9f}  ->  {verdict}")
    print()
