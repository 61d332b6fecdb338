"""Restoring thresholds, the inequality gap, and arbitrarily small violations.

Noisy k-input majority gates can drive errors toward a fixed point below
1/2 exactly when their error is below beta_k. Non-contextual resources
cannot produce k-majority gates with average error under nu(k-MAJ)/2^k,
which sits strictly above beta_k, and the gap between the two shrinks as k
grows. A noise-mixed GHZ majority gate therefore turns an arbitrarily
small inequality violation into full reliable computation: pick k with a
small enough gap, then choose the gate error just below the bound.
"""

import math

from l2mbqc.gates import (
    analyze_recursion,
    eta_by_iteration,
    maj_error_recursion,
    min_k_for_violation,
    recursion_derivative,
    threshold_sweep,
)

print("k     beta_k        nu/2^k        gap")
for row in threshold_sweep(15):
    print(
        f"{row['k']:<3}   {str(row['beta']):<10}   {str(row['nu_over_2k']):<10}"
        f"   {str(row['gap'])} = {float(row['gap']):.6f}"
    )
print()

for delta in ("0.09", "0.08", "0.073", "0.02"):
    witness = min_k_for_violation(delta)
    print(
        f"violation {delta}: k = {witness.k}, gate error {witness.epsilon} "
        f"= {float(witness.epsilon):.6f} (below beta_k: {witness.below_threshold})"
    )
print()

eps = math.sin(math.pi / 8) ** 2
analysis = analyze_recursion(3, eps)
print(f"error recursion for 3-majority at gate error {eps:.6f}:")
print(f"  fixed points in [0, 1/2]: {[round(p, 6) for p in analysis.fixed_points]}")
print(f"  attracting fixed point eta = {analysis.eta:.10f}")
print(f"  same eta by plain iteration: {eta_by_iteration(3, eps):.10f}")
p = 0.4
for step in range(5):
    p = maj_error_recursion(3, eps, p)
    print(f"  restore step {step + 1}: error {p:.6f}")
print()
print("at the threshold the slope at 1/2 is exactly one:")
print(f"  d/dp at p=1/2, gate error 1/6: {recursion_derivative(3, 1 / 6, 0.5):.12f}")
bad = analyze_recursion(3, 0.2)
print(f"above threshold (0.2 > 1/6) no interior fixed point remains: {bad.fixed_points}")
