"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Each criterion is checked at its stated tolerance. Expected values marked as
derived were computed by the independent oracles in this repository (direct
enumeration, the state-vector simulator, exact enumeration of wire-flip
patterns) before being frozen here.
"""

import math
import random
import time
from fractions import Fraction

from l2mbqc import boolfn, gates, ghzc, mbqc, reliability
from l2mbqc.boolfn import BooleanFunction, all_affine_forms, affine_distance, make_named
from l2mbqc.corrbox import chsh_and_box, distribution, statevector_oracle

COS2_PI8 = math.cos(math.pi / 8) ** 2
SIN2_PI8 = math.sin(math.pi / 8) ** 2

TREE3 = "(nand (nand (nand a b) (nand c d)) (nand (nand e f) (nand g h)))"


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}{' - ' if detail else ''}{detail}")
    return ok


def test_criterion_1_chsh_and_success():
    start = time.perf_counter()
    target = make_named("and")
    strategy = mbqc.run_exact(mbqc.chsh_and_program(), target)
    box = chsh_and_box()
    ok = True
    for (b0, b1), p in strategy.success.items():
        ok &= abs(p - COS2_PI8) < 1e-10
        closed = distribution(box, (b0, b1)).parity_probability(b0 & b1)
        oracle = statevector_oracle(box, (b0, b1)).parity_probability(b0 & b1)
        ok &= abs(p - closed) < 1e-10
        ok &= abs(p - oracle) < 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report(1, ok, f"success {COS2_PI8:.9f} on all inputs, {elapsed:.3f}s")


def test_criterion_2_thresholds_exact():
    ok = gates.beta(3).beta == Fraction(1, 6)
    ok &= gates.beta(5).beta == Fraction(7, 30)
    ok &= gates.beta(7).beta == Fraction(19, 70)
    assert report(2, ok, "beta_3 = 1/6, beta_5 = 7/30, beta_7 = 19/70 exactly")


def test_criterion_3_majority_nonlinearity():
    start = time.perf_counter()
    ok = True
    for k in (1, 3, 5, 7):
        maj = make_named("maj", k)
        brute = min(affine_distance(maj, l) for l in all_affine_forms(k))
        ok &= brute == boolfn.kmaj_nonlinearity(k) == boolfn.nonlinearity(maj)
    ok &= boolfn.nonlinearity(make_named("and")) == 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert report(3, ok, f"brute force equals closed form for k in 1,3,5,7 ({elapsed:.2f}s)")


def test_criterion_4_gap_monotone():
    start = time.perf_counter()
    values = [gates.gap(k) for k in range(3, 42, 2)]
    ok = all(v > 0 for v in values)
    ok &= all(a > b for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report(4, ok, f"gap positive and strictly decreasing on odd k in [3, 41] ({elapsed:.3f}s)")


def test_criterion_5_compiler_determinism():
    start = time.perf_counter()
    ok = True
    for bits in range(256):
        f = BooleanFunction(3, tuple((bits >> i) & 1 for i in range(8)))
        program = ghzc.compile_function(f)
        ok &= program.n_qubits <= 7
        result = ghzc.verify(program, f, use_statevector=True)
        ok &= result.deterministic
        if result.statevector_success is not None:
            ok &= all(
                abs(result.success[x] - result.statevector_success[x]) < 1e-10
                for x in result.success
            )
    rng = random.Random(12345)
    for n in (4, 5):
        for _ in range(500):
            f = BooleanFunction(n, tuple(rng.randrange(2) for _ in range(1 << n)))
            program = ghzc.compile_function(f)
            ok &= program.n_qubits <= (1 << n) - 1
            ok &= ghzc.verify(program, f, use_statevector=False).deterministic
    # state-vector cross-checks at n = 4 stay under the 16-qubit oracle cap
    for _ in range(6):
        f = BooleanFunction(4, tuple(rng.randrange(2) for _ in range(16)))
        result = ghzc.verify(ghzc.compile_function(f), f, use_statevector=True)
        ok &= result.deterministic
        ok &= all(
            abs(result.success[x] - result.statevector_success[x]) < 1e-10
            for x in result.success
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    assert report(5, ok, f"256 + 1000 functions compile deterministically ({elapsed:.1f}s)")


def test_criterion_6_noisy_majority_exactness():
    ok = True
    for k in (3, 5):
        for eps in (0.0, 0.1, 0.25, 0.4):
            gate = gates.kmaj_from_noisy_ghz(k, eps)
            ok &= all(abs(e - eps) < 1e-12 for e in gate.errors)
    assert report(6, ok, "noisy GHZ majority gates have error exactly epsilon")


def test_criterion_7_small_violation_witnesses():
    ok = True
    for delta, expect_k in (("0.09", 3), ("0.08", 5), ("0.073", 7)):
        witness = gates.min_k_for_violation(delta)
        ok &= witness.k == expect_k
        expected_eps = Fraction(boolfn.kmaj_nonlinearity(expect_k), 1 << expect_k) - Fraction(delta)
        ok &= witness.epsilon == expected_eps
        ok &= witness.epsilon < gates.beta(expect_k).beta
    assert report(7, ok, "k = 3, 5, 7 for delta = 0.09, 0.08, 0.073 with epsilon < beta_k")


def test_criterion_8_contextuality_certificates():
    and2 = make_named("and")
    chsh = mbqc.contextuality_certificate(
        mbqc.run_exact(mbqc.chsh_and_program(), and2), and2
    )
    ok = chsh.contextual and abs(chsh.delta - (0.25 - SIN2_PI8)) < 1e-12
    nc = mbqc.contextuality_certificate(
        mbqc.run_exact(mbqc.noncontextual_and_program(), and2), and2
    )
    ok &= nc.delta == 0.0
    for bits in range(256):
        f = BooleanFunction(3, tuple((bits >> i) & 1 for i in range(8)))
        ok &= mbqc.best_noncontextual_error(f) >= Fraction(boolfn.nonlinearity(f), 8)
    assert report(8, ok, "CHSH delta > 0, non-contextual delta = 0, bound never beaten at n <= 3")


def test_criterion_9_reliability_end_to_end():
    """Multiplexed 3-level NAND tree with Bell-derived gates, W=81, k=3, r=2.

    Two sub-checks are implemented exactly as specified and are expected to
    fail; see notes below and the repository test output:
      - the exactly-computed worst-input delta is 0.459057, not < 0.45 (the
        worst input chains mixed-value NAND operands, which the two restore
        rounds per stage cannot pull back to the fixed point);
      - the Monte Carlo deviates from the independence-assumption analytic
        value by more than max(3 sigma, 0.01), because restore voting
        correlates wires within a bundle (the sampler itself is validated
        against exact wire-flip enumeration in test_reliability).
    The degraded-restore check and the frozen regression value pass.
    """
    start = time.perf_counter()
    formula = reliability.parse_formula(TREE3)
    and_gate = gates.chsh_and_gate()
    kmaj = gates.maj3_from_and(and_gate)
    xnand = gates.xnand_from_and(and_gate)
    circuit = reliability.build(
        formula, 81, 3, 2, xnand=xnand, kmaj=kmaj, seed=7
    )
    rep = reliability.build_report(circuit, margin=0.05)

    # regression: the computed worst-input delta, frozen after first verified run
    regression_ok = abs(rep.delta - 0.45905661399824604) < 1e-9

    delta_ok = rep.delta < 0.45

    mc = reliability.simulate_monte_carlo(circuit, rep.worst_input, trials=10000, seed=123)
    analytic = rep.delta
    sigma = math.sqrt(max(analytic * (1 - analytic), 1e-12) / 10000)
    tolerance = max(3 * sigma, 0.01)
    mc_ok = abs(mc.empirical_error - analytic) <= tolerance

    degraded = gates.uniform_noisy_gate(make_named("maj", 3), 0.2)
    bad_circuit = reliability.build(
        formula, 81, 3, 2, xnand=xnand, kmaj=degraded, seed=7
    )
    bad_rep = reliability.build_report(bad_circuit, margin=0.05)
    degraded_ok = not bad_rep.reliable

    elapsed = time.perf_counter() - start
    time_ok = elapsed < 300.0

    detail = (
        f"delta={rep.delta:.6f} (target < 0.45: {'ok' if delta_ok else 'FAIL'}), "
        f"|mc-analytic|={abs(mc.empirical_error - analytic):.4f} vs tol {tolerance:.4f} "
        f"({'ok' if mc_ok else 'FAIL'}), degraded delta={bad_rep.delta:.6f} fails "
        f"certification ({'ok' if degraded_ok else 'FAIL'}), {elapsed:.1f}s"
    )
    ok = regression_ok and delta_ok and mc_ok and degraded_ok and time_ok
    assert report(9, ok, detail)


def test_criterion_10_fixed_point_and_tangency():
    ok = abs(gates.recursion_derivative(3, 1 / 6, 0.5) - 1.0) < 1e-12
    analysis = gates.analyze_recursion(3, SIN2_PI8)
    iterated = gates.eta_by_iteration(3, SIN2_PI8)
    ok &= analysis.eta is not None and 0.29 < analysis.eta < 0.30
    ok &= 0.29 < iterated < 0.30
    ok &= abs(analysis.eta - iterated) < 1e-9
    assert report(
        10, ok,
        f"derivative at 1/2 equals 1 at beta_3; eta = {analysis.eta:.10f} by two methods",
    )
