"""Reliable formula evaluation from noisy gates by multiplexing.

Each logical bit rides on a bundle of W wires. XNAND gates compute NAND on
noisy bundles (the gate absorbs the duplicated second operand), and noisy
majority gates vote wire-wise to push bundle errors back toward the fixed
point between computational stages.

The analytic propagation treats the wires of a bundle as independent. That
figure is optimistic, because restore voting correlates the wires, so no
verdict rests on it: a circuit is reliable only when every input has been
sampled with the circuit's fixed wiring and each input's exact
Clopper-Pearson upper bound stays below the line. With Bell-derived gates
the 2-level tree certifies that way. The 3-level tree, which the
independence figure puts below the line, is refuted by sampling its worst
input.
"""

from l2mbqc import build, build_report, make_named, parse_formula
from l2mbqc.gates import (
    chsh_and_gate,
    clopper_pearson_upper,
    maj3_from_and,
    uniform_noisy_gate,
    xnand_from_and,
)
from l2mbqc.reliability import ALPHA

tree3 = parse_formula(
    "(nand (nand (nand a b) (nand c d)) (nand (nand e f) (nand g h)))"
)
tree4 = parse_formula("(nand (nand a b) (nand c d))")
and_gate = chsh_and_gate()
kmaj = maj3_from_and(and_gate)
xnand = xnand_from_and(and_gate)
print(f"gates: restore error {kmaj.epsilon:.6f}, compute error {xnand.epsilon:.6f}")
print()

print("3-level tree at W=81: the independence figure delta (optimistic, not evidence):")
for rounds in (2, 8, 12):
    circuit = build(tree3, width=81, k=3, restore_rounds=rounds,
                    xnand=xnand, kmaj=kmaj, seed=7)
    report = build_report(circuit, margin=0.05)
    print(f"  r = {rounds:2d}: delta = {report.delta:.6f}  reliable: {report.reliable} (nothing sampled)")
print()

print("degrading the restore gates past the threshold (error 0.2 > 1/6):")
degraded = uniform_noisy_gate(make_named("maj", 3), 0.2)
circuit = build(tree3, width=81, k=3, restore_rounds=8, xnand=xnand, kmaj=degraded, seed=7)
report = build_report(circuit, margin=0.05)
print(f"  even the independence figure crosses 1/2: delta = {report.delta:.6f}")
print()

print("sampled verdicts, exact upper bounds at family-wise level 0.05 against the line 0.45:")
circuit = build(tree4, width=9, k=3, restore_rounds=1, xnand=xnand, kmaj=kmaj, seed=5)
report = build_report(circuit, margin=0.05, trials=2000, seed=5)
top = max(report.rows, key=lambda row: row.upper)
print(f"  2-level tree, W=9 r=1: all 16 inputs x 2000 trials, largest upper bound "
      f"{top.upper:.4f} at input {''.join(map(str, top.x))}: reliable: {report.reliable}")
print(f"  (the independence figure's worst input is {''.join(map(str, report.worst_input))})")

trials = 2048
circuit = build(tree3, width=81, k=3, restore_rounds=8, xnand=xnand, kmaj=kmaj, seed=7)
report = build_report(circuit, margin=0.05, trials=trials, seed=7, mc_inputs="worst")
row = next(row for row in report.rows if row.upper is not None)
wrong = round(row.empirical_error * trials)
lower = 1 - clopper_pearson_upper(trials - wrong, trials, ALPHA / 256)
print(f"  3-level tree, W=81 r=8, its worst input {''.join(map(str, row.x))}: "
      f"independence {row.analytic_error:.4f}, sampled {row.empirical_error:.4f}")
outcome = "all above the line: refuted" if lower >= 0.45 else "not certified"
print(f"    from {trials} trials the exact bounds at level 0.05/256 are "
      f"[{lower:.4f}, {row.upper:.4f}], {outcome}; reliable: {report.reliable}")
