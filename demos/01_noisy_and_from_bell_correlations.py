"""A noisy AND gate from two-qubit Bell correlations.

Two parties share (|00> + |11>)/sqrt(2), the two-party GHZ state. Each
receives one input bit and measures along one of two directions on the
equator of the Bloch sphere; the parity of their outcomes approximates AND
of the inputs. The control computer never does anything beyond parities,
yet the gate succeeds on every input with probability cos^2(pi/8), which
no strategy built from deterministic local responses can match.
"""

import itertools
import math

from l2mbqc.corrbox import chsh_and_box, distribution, statevector_oracle
from l2mbqc.gates import chsh_and_gate

box = chsh_and_box()
print("measurement directions (equatorial angles, radians from X):")
for party, (a0, a1) in enumerate(box.angles, 1):
    print(f"  party {party}: input 0 -> {a0:+.6f}   input 1 -> {a1:+.6f}")
print()

print("per-input outcome distributions and AND success:")
for b0, b1 in itertools.product((0, 1), repeat=2):
    dist = distribution(box, (b0, b1))
    success = dist.parity_probability(b0 & b1)
    oracle = statevector_oracle(box, (b0, b1)).parity_probability(b0 & b1)
    cells = "  ".join(
        f"P({o1}{o2})={dist[(o1, o2)]:.6f}" for o1, o2 in itertools.product((0, 1), repeat=2)
    )
    print(f"  input {b0}{b1}: {cells}")
    print(f"           success {success:.9f}   state-vector oracle {oracle:.9f}")

print()
print(f"cos^2(pi/8) = {math.cos(math.pi / 8) ** 2:.9f}")

gate = chsh_and_gate()
print()
print("as a noisy gate:")
print(f"  error table: {[round(e, 9) for e in gate.errors]}")
print(f"  input-independent: {gate.epsilon is not None} (epsilon = {gate.epsilon:.9f})")
print(f"  epsilon = sin^2(pi/8) = {math.sin(math.pi / 8) ** 2:.9f}")
