"""Compiling any Boolean function to one round of GHZ measurements.

Every n-bit function can be evaluated deterministically, without adaptivity,
by measuring at most 2^n - 1 qubits of a shared GHZ state and adding the
outcomes mod 2. Each qubit listens to the parity of one subset of input
bits and tilts its equatorial measurement angle by a fixed increment when
that parity is 1. The increments are read off the function's parity-basis
expansion, so the whole compilation is exact rational arithmetic.
"""

import random

from l2mbqc.boolfn import BooleanFunction, make_named
from l2mbqc.ghzc import GhzProgram, QubitSpec, compile_function, run_as_l2program, verify
from l2mbqc.mbqc import run_exact


def show(name, f):
    program = compile_function(f)
    result = verify(program, f)
    print(f"{name}: {program.n_qubits} qubit(s), output constant {program.constant}")
    for q in program.qubits:
        subset = [i + 1 for i in range(f.arity) if (q.mask >> i) & 1]
        print(f"  qubit for inputs {subset}: increment {q.delta} * pi")
    print(f"  deterministic: {result.deterministic}")
    print()
    return program


and_program = show("AND", make_named("and"))
show("XOR", make_named("xor"))
show("3-input majority", make_named("maj", 3))
rng = random.Random(2)
show("a random 4-bit function", BooleanFunction(4, tuple(rng.randrange(2) for _ in range(16))))

# tampering with one increment breaks the phase exactly where it is active
qubits = list(and_program.qubits)
qubits[0] = QubitSpec(qubits[0].mask, qubits[0].delta + 1)
tampered = GhzProgram(and_program.n, tuple(qubits), and_program.constant)
bad = verify(tampered, make_named("and"))
print("tampering one increment by pi:")
print(f"  failing inputs: {[''.join(map(str, x)) for x in bad.failing_inputs]}")
print()

# mixing the state with white noise degrades every input identically
for eps in (0.0, 0.1, 0.25):
    report = run_exact(run_as_l2program(and_program, eps), make_named("and"))
    print(f"noise weight {eps}: per-input error {1 - min(report.success.values()):.6f}")
