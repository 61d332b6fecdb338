import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2mbqc import gates, ghzc, mbqc
from l2mbqc.boolfn import BooleanFunction, index_of, kmaj_nonlinearity, make_named
from l2mbqc.corrbox import GhzBox, NoncontextualBox, noncontextual_and_box
from l2mbqc.gates import (
    NoisyGate,
    analyze_recursion,
    beta,
    chsh_and_gate,
    eta_by_iteration,
    gap,
    kmaj_from_noisy_ghz,
    maj3_from_and,
    maj_error_recursion,
    min_k_for_violation,
    noncontextual_and_gate,
    recursion_derivative,
    threshold_sweep,
    uniform_noisy_gate,
    xnand_from_and,
)

SIN2_PI8 = math.sin(math.pi / 8) ** 2


# ---------------------------------------------------------------------------
# thresholds

@pytest.mark.parametrize(
    "k,expected",
    [(3, Fraction(1, 6)), (5, Fraction(7, 30)), (7, Fraction(19, 70))],
)
def test_beta_values(k, expected):
    assert beta(k).beta == expected


def test_beta_rejects_even_or_small_k():
    for k in (1, 2, 4):
        with pytest.raises(ValueError):
            beta(k)


def test_beta_strictly_increasing_below_half():
    values = [beta(k).beta for k in range(3, 42, 2)]
    assert all(v < Fraction(1, 2) for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# gate constructions

def test_chsh_and_gate_classification():
    gate = chsh_and_gate()
    assert gate.epsilon is not None
    assert gate.epsilon == pytest.approx(SIN2_PI8, abs=1e-12)
    assert gate.epsilon < float(beta(3).beta)


def test_noncontextual_and_gate():
    gate = noncontextual_and_gate()
    assert gate.errors == (0.25, 0.25, 0.25, 0.25)


def test_maj3_from_perfect_and_is_exact():
    derived = maj3_from_and(uniform_noisy_gate(make_named("and"), 0.0))
    assert derived.target == make_named("maj", 3)
    assert derived.errors == (0.0,) * 8


def test_xnand_from_perfect_and_matches_table():
    derived = xnand_from_and(uniform_noisy_gate(make_named("and"), 0.0))
    assert derived.target == make_named("xnand")
    assert derived.errors == (0.0,) * 8


@pytest.mark.parametrize("eps", [0.0, 0.25, SIN2_PI8, 0.49])
def test_constructions_preserve_uniform_error(eps):
    and_gate = uniform_noisy_gate(make_named("and"), eps)
    for derived in (maj3_from_and(and_gate), xnand_from_and(and_gate)):
        assert max(derived.errors) - min(derived.errors) == 0.0
        assert derived.epsilon == eps


def test_half_noisy_and_gives_half_noisy_maj():
    derived = maj3_from_and(uniform_noisy_gate(make_named("and"), 0.5))
    assert derived.errors == (0.5,) * 8


def test_chsh_derived_xnand_mu():
    derived = xnand_from_and(chsh_and_gate())
    assert derived.epsilon == pytest.approx(SIN2_PI8, abs=1e-12)
    nc = xnand_from_and(noncontextual_and_gate())
    assert nc.epsilon == 0.25


def _one_box_gate(box, target, masks, output_map):
    """The gate of the l2 program whose one box's two parties read the input
    subsets ``masks``, scored against target."""
    maps = tuple(mbqc.AffineBitMap(x_mask=m) for m in masks)
    program = mbqc.L2Program(n=target.arity, boxes=(box,), input_maps=(maps,), output_map=output_map)
    return gates.gate_from_report(mbqc.run_exact(program, target))


_SKEWED_AND_BOXES = {
    "ghz": (
        GhzBox(((0.0, math.pi / 2 + 0.3), (-math.pi / 4, math.pi / 4 - 0.1))),
        (0.146, 0.267, 0.113, 0.083),
    ),
    "noncontextual": (
        # the four responses of the uniform quarter-noisy AND box, reweighted
        NoncontextualBox(
            tuple(zip(
                (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)),
                (responses for _, responses in noncontextual_and_box().mixture),
            ))
        ),
        (0.125, 0.25, 0.125, 0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(_SKEWED_AND_BOXES))
def test_gadgets_match_their_one_box_programs_under_an_input_dependent_and(name):
    # a uniform AND hides which AND input each gadget input reads; here
    # every AND input has its own error, so a wrong input map shows
    box, and_errors = _SKEWED_AND_BOXES[name]
    and_gate = _one_box_gate(box, make_named("and"), (0b01, 0b10), mbqc.AffineBitMap(out_mask=0b11))
    assert and_gate.errors == pytest.approx(and_errors, abs=1e-3)
    # 3-MAJ reads a xor b and a xor c; XNAND reads a xor b1 and a xor b1 xor b2
    maj3 = make_named("maj", 3)
    out = mbqc.AffineBitMap(x_mask=0b001, out_mask=0b11)
    assert maj3_from_and(and_gate) == _one_box_gate(box, maj3, (0b011, 0b101), out)
    xnand = make_named("xnand")
    out = mbqc.AffineBitMap(x_mask=0b001, out_mask=0b11, const=1)
    assert xnand_from_and(and_gate) == _one_box_gate(box, xnand, (0b011, 0b111), out)


def test_constructions_reject_wrong_target():
    with pytest.raises(ValueError):
        maj3_from_and(uniform_noisy_gate(make_named("nand"), 0.0))
    with pytest.raises(ValueError):
        xnand_from_and(uniform_noisy_gate(make_named("xor"), 0.0))


def test_a_gate_built_from_lists_is_the_same_value():
    # a list table used to stay a list: never equal to make_named's tuple, nor hashable
    listed = NoisyGate(BooleanFunction(2, [0, 0, 0, 1]), [0.1] * 4)
    tupled = uniform_noisy_gate(make_named("and"), 0.1)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert maj3_from_and(listed) == maj3_from_and(tupled)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.4])
def test_kmaj_from_noisy_ghz_exact_error(k, eps):
    gate = kmaj_from_noisy_ghz(k, eps)
    assert gate.target == make_named("maj", k)
    for e in gate.errors:
        assert e == pytest.approx(eps, abs=1e-12)
    assert max(gate.errors) - min(gate.errors) <= 1e-12


def test_cached_and_gates_equal_a_fresh_run_bit_for_bit():
    for cached, program in ((chsh_and_gate, mbqc.chsh_and_program), (noncontextual_and_gate, mbqc.noncontextual_and_program)):
        fresh = gates.gate_from_report(mbqc.run_exact(program(), BooleanFunction(2, (0, 0, 0, 1))))
        assert cached() == fresh and cached().errors == fresh.errors
        assert cached() is cached()  # one shared, immutable value


def test_cached_noisy_ghz_majority_equals_a_fresh_compile_bit_for_bit():
    # shuffled and interleaved, so a noise level left in a shared program would show
    calls = [(k, eps) for k in (3, 5, 7) for eps in (0.0, 1e-3, 0.9 * float(beta(k).beta), 0.5)] * 2
    random.Random(51).shuffle(calls)
    for k, eps in calls:
        target = BooleanFunction.from_callable(k, lambda *x: int(2 * sum(x) > k))
        program = ghzc.run_as_l2program(ghzc.compile_function(target), eps)
        fresh = gates.gate_from_report(mbqc.run_exact(program, target))
        gate = kmaj_from_noisy_ghz(k, eps)
        assert gate.target == target and gate.errors == fresh.errors


def test_noise_independent_parts_are_built_once(monkeypatch):
    runs, compiles = [], []
    run_exact, compile_function = mbqc.run_exact, ghzc.compile_function
    monkeypatch.setattr(mbqc, "run_exact", lambda *args: runs.append(args) or run_exact(*args))
    monkeypatch.setattr(ghzc, "compile_function", lambda f: compiles.append(f) or compile_function(f))
    for cached in (chsh_and_gate, gates._compiled, make_named):
        cached.cache_clear()
    for _ in range(20):
        maj3_from_and(chsh_and_gate())
    assert len(runs) == 1
    runs.clear()
    for i in range(20):
        kmaj_from_noisy_ghz(5, 0.02 * i)
    assert (len(compiles), len(runs)) == (1, 20)


@pytest.mark.parametrize("cached", [chsh_and_gate, noncontextual_and_gate, gates._compiled, make_named])
def test_every_construction_cache_is_bounded(cached):
    assert cached.cache_info().maxsize is not None


def test_named_function_cache_holds_at_most_16_tables_of_2_to_16_entries():
    assert make_named.cache_info().maxsize == 16
    # only maj has a free arity, and it is refused above 16 before its table is built
    with pytest.raises(ValueError, match="above cap 16"):
        make_named("maj", 17)
    # a kept maj3 does not stand in for a float arity, which builds no table
    make_named("maj", 3)
    with pytest.raises(TypeError):
        make_named("maj", 3.0)


def test_gate_from_report_reads_each_input_success():
    # xor's program scored against and: right only at 00, so the error varies
    target = make_named("and")
    program = ghzc.compile_function(make_named("xor"))
    report = mbqc.run_exact(ghzc.run_as_l2program(program, 0.1), target)
    gate = gates.gate_from_report(report)
    assert gate.target == target
    for x, p in report.success.items():
        assert gate.errors[index_of(x, target.arity)] == 1.0 - p
    assert len(set(gate.errors)) == 2
    # the report's key order plays no part
    backwards = mbqc.StrategyReport(target=target, success=dict(reversed(report.success.items())))
    assert gates.gate_from_report(backwards) == gate


def test_noisy_gate_validation():
    with pytest.raises(ValueError):
        NoisyGate(make_named("and"), (0.0, 0.0))
    with pytest.raises(ValueError):
        NoisyGate(make_named("and"), (0.0, 0.0, 0.0, 1.5))


def test_classification_tolerance():
    gate = NoisyGate(make_named("and"), (0.1, 0.1, 0.1, 0.2))
    assert gate.epsilon is None


# ---------------------------------------------------------------------------
# the gap and small violations

@pytest.mark.parametrize(
    "k,expected",
    [(3, Fraction(1, 12)), (5, Fraction(19, 240)), (7, Fraction(81, 1120))],
)
def test_gap_values(k, expected):
    assert gap(k) == expected


def test_gap_monotone_positive_and_shrinking():
    # the gap decays like 1/sqrt(k), so desk-scale evidence of the decay is
    # a factor ~0.415 between k = 3 and k = 41
    values = [gap(k) for k in range(3, 42, 2)]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < values[0] / 2


def test_noncontextual_floor_exceeds_threshold():
    for k in range(3, 42, 2):
        assert Fraction(kmaj_nonlinearity(k), 1 << k) > beta(k).beta


@pytest.mark.parametrize(
    "delta,k,epsilon",
    [
        ("0.09", 3, Fraction(4, 25)),
        ("0.08", 5, Fraction(93, 400)),
        ("0.073", 7, Fraction(1083, 4000)),
    ],
)
def test_min_k_for_violation(delta, k, epsilon):
    witness = min_k_for_violation(delta)
    assert witness.k == k
    assert witness.epsilon == epsilon
    assert witness.below_threshold
    assert witness.epsilon < beta(k).beta
    assert witness.epsilon != 0


def test_min_k_breaks_ties_toward_smaller_k():
    # just above gap(5): k = 5 still wins only once the gap drops below delta
    assert min_k_for_violation(Fraction(1, 12)).k == 5
    assert min_k_for_violation(Fraction(1, 12) + Fraction(1, 10**9)).k == 3


def test_min_k_trivial_witness_for_huge_delta():
    # at delta = nu(maj3)/8 = 1/4 the witness error is exactly 0 before clipping
    for delta in (Fraction(3, 5), Fraction(1, 4)):
        witness = min_k_for_violation(delta)
        assert witness.k == 3
        assert witness.epsilon == 0 and witness.below_threshold


def test_min_k_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        min_k_for_violation(0)


@pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan, "inf", "nan"])
def test_min_k_rejects_a_non_finite_delta_with_value_error(delta):
    with pytest.raises(ValueError, match=f"violation delta {delta!r} is not a finite rational"):
        min_k_for_violation(delta)


def test_threshold_sweep_rows():
    rows = threshold_sweep(7)
    assert [r["k"] for r in rows] == [3, 5, 7]
    assert rows[0]["beta"] == Fraction(1, 6)
    assert rows[1]["nu_over_2k"] == Fraction(5, 16)


def test_threshold_sweep_rejects_kmax_above_cap_before_any_work(monkeypatch):
    def no_work(k):
        raise AssertionError("beta computed before the cap check")

    monkeypatch.setattr(gates, "beta", no_work)
    with pytest.raises(ValueError, match=f"kmax {gates.SWEEP_K_CAP + 2} above cap 7147"):
        threshold_sweep(gates.SWEEP_K_CAP + 2)


def test_sweep_cap_is_the_largest_k_whose_row_prints():
    # Python's default int-to-string limit is 4300 digits
    def widest(k):
        nu = Fraction(kmaj_nonlinearity(k), 1 << k)
        values = (gates.beta(k).beta, nu, gates.gap(k))
        return max(max(abs(v.numerator), v.denominator) for v in values)

    assert widest(gates.SWEEP_K_CAP) < 10**4300 <= widest(gates.SWEEP_K_CAP + 2)


def test_min_k_stops_at_the_cap(monkeypatch):
    assert min_k_for_violation(Fraction(1, 100)).k > 7
    monkeypatch.setattr(gates, "K_CAP", 7)
    with pytest.raises(ValueError, match="no k below cap 7"):
        min_k_for_violation(Fraction(1, 100))


# ---------------------------------------------------------------------------
# the restoring recursion

def test_recursion_trivial_points():
    assert maj_error_recursion(3, 0.0, 0.0) == 0.0
    assert maj_error_recursion(3, 0.3, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_recursion_matches_cubic_form():
    # independent route for k = 3: p' = eps + (1-2 eps)(3p^2 - 2p^3)
    for eps in (0.0, 0.1, SIN2_PI8, 0.3):
        for p in (0.0, 0.1, 0.25, 0.4, 0.5):
            expected = eps + (1 - 2 * eps) * (3 * p**2 - 2 * p**3)
            assert maj_error_recursion(3, eps, p) == pytest.approx(expected, abs=1e-15)
    assert maj_error_recursion(3, SIN2_PI8, 0.4) == pytest.approx(0.395348196, abs=1e-9)


def test_majority_error_is_binomial_tail():
    assert gates.majority_error(5, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert gates.majority_error(3, 0.2) == pytest.approx(
        3 * 0.04 * 0.8 + 0.008, abs=1e-15
    )


@pytest.mark.parametrize("n", [1, 3, 9, 81, 729, 2187, 4097])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(p=st.floats(0.5 - 1e-12, 0.5 + 1e-12) | st.sampled_from([np.nextafter(0.5, 0), 0.5, np.nextafter(0.5, 1)]))
def test_an_odd_majority_errs_on_the_side_of_one_half_that_p_does(n, p):
    # the summed tail used to land above 1/2 just below p = 1/2 (by 1.9e-13
    # at n = 729) and below it just above
    error = gates.majority_error(n, p)
    assert error <= 0.5 or p > 0.5
    assert error >= 0.5 or p < 0.5
    assert gates.majority_errors(n, [p]).tolist() == [error]


def test_derivative_tangent_at_threshold():
    assert recursion_derivative(3, 1 / 6, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert recursion_derivative(5, float(beta(5).beta), 0.5) == pytest.approx(
        1.0, abs=1e-12
    )


def test_eta_two_routes_agree():
    analysis = analyze_recursion(3, SIN2_PI8)
    assert analysis.eta is not None
    assert 0.29 < analysis.eta < 0.30
    iterated = eta_by_iteration(3, SIN2_PI8)
    assert abs(analysis.eta - iterated) < 1e-9
    # the closed-form fixed point for this particular epsilon is 1 - 1/sqrt(2)
    closed = 1 - 1 / math.sqrt(2)
    assert maj_error_recursion(3, SIN2_PI8, closed) == pytest.approx(closed, abs=1e-15)
    assert analysis.eta == pytest.approx(closed, abs=1e-12)


def test_half_is_always_fixed():
    for eps in (0.0, 0.1, 0.3, 0.5):
        analysis = analyze_recursion(3, eps)
        assert analysis.fixed_points[-1] == pytest.approx(0.5, abs=1e-12)


def test_restoring_region_strictly_decreases():
    analysis = analyze_recursion(3, SIN2_PI8)
    eta = analysis.eta
    p = eta + 1e-6
    while p < 0.5 - 1e-6:
        assert maj_error_recursion(3, SIN2_PI8, p) < p
        p += 1e-3


def test_above_threshold_has_no_interior_fixed_point():
    analysis = analyze_recursion(3, 0.2)
    assert analysis.eta is None
    assert all(p > 0.5 - 1e-6 for p in analysis.fixed_points)
    p = 0.0
    while p < 0.5 - 1e-6:
        assert maj_error_recursion(3, 0.2, p) > p
        p += 1e-3


# analyze_recursion's (k, epsilon, fixed_points, eta) as computed by the
# earlier 4096-point grid scan with sign-change bisection, frozen as an
# independent reference: epsilon runs over 0..1/2 in steps of 0.05 plus
# beta_k times 0.5, 0.9, 0.99 and 1.01
FROZEN_FIXED_POINTS = [
    (3, 0.0, (0.0, 0.5), 0.0),
    (3, 0.05, (0.05904144815590184, 0.5), 0.05904144815590184),
    (3, 0.08333333333333333, (0.1127016653792583, 0.5), 0.1127016653792583),
    (3, 0.1, (0.1464466094067265, 0.5), 0.1464466094067265),
    (3, 0.15, (0.3110177634953857, 0.5), 0.3110177634953857),
    (3, 0.16499999999999998, (0.43891527782184525, 0.5), 0.43891527782184525),
    (3, 0.16833333333333333, (0.5,), None),
    (3, 0.2, (0.5,), None),
    (3, 0.25, (0.5,), None),
    (3, 0.3, (0.5,), None),
    (3, 0.35, (0.5,), None),
    (3, 0.4, (0.5,), None),
    (3, 0.45, (0.5,), None),
    (3, 0.5, (0.5,), None),
    (5, 0.0, (0.0, 0.5), 0.0),
    (5, 0.05, (0.05111145569228581, 0.5), 0.05111145569228581),
    (5, 0.1, (0.10866443003567694, 0.5), 0.10866443003567694),
    (5, 0.11666666666666667, (0.13056280424668998, 0.5), 0.13056280424668998),
    (5, 0.15, (0.18110146991196308, 0.5), 0.18110146991196308),
    (5, 0.2, (0.29026523793919656, 0.5), 0.29026523793919656),
    (5, 0.21000000000000002, (0.32293518894618467, 0.5), 0.32293518894618467),
    (5, 0.231, (0.4428547030961205, 0.5), 0.4428547030961205),
    (5, 0.23566666666666666, (0.5,), None),
    (5, 0.25, (0.5,), None),
    (5, 0.3, (0.5,), None),
    (5, 0.35, (0.5,), None),
    (5, 0.4, (0.5,), None),
    (5, 0.45, (0.5,), None),
    (5, 0.5, (0.5,), None),
    (7, 0.0, (0.0, 0.5), 0.0),
    (7, 0.05, (0.050176617288567815, 0.5), 0.050176617288567815),
    (7, 0.1, (0.10238324568201085, 0.5), 0.10238324568201085),
    (7, 0.1357142857142857, (0.1431676207817847, 0.5), 0.1431676207817847),
    (7, 0.15, (0.16088785779898673, 0.5), 0.16088785779898673),
    (7, 0.2, (0.23407165008219444, 0.5), 0.23407165008219444),
    (7, 0.24428571428571427, (0.3314097717435427, 0.5), 0.3314097717435427),
    (7, 0.25, (0.34956297360177, 0.5), 0.34956297360177),
    (7, 0.2687142857142857, (0.4456418824145878, 0.5), 0.4456418824145878),
    (7, 0.27414285714285713, (0.5,), None),
    (7, 0.3, (0.5,), None),
    (7, 0.35, (0.5,), None),
    (7, 0.4, (0.5,), None),
    (7, 0.45, (0.5,), None),
    (7, 0.5, (0.5,), None),
    (9, 0.0, (0.0, 0.5), 0.0),
    (9, 0.05, (0.050029986638364665, 0.5), 0.050029986638364665),
    (9, 0.1, (0.10073744294785092, 0.5), 0.10073744294785092),
    (9, 0.1484126984126984, (0.1526956678787168, 0.5), 0.1526956678787168),
    (9, 0.15, (0.15448960933027367, 0.5), 0.15448960933027367),
    (9, 0.2, (0.2163019297317037, 0.5), 0.2163019297317037),
    (9, 0.25, (0.29847631138769026, 0.5), 0.29847631138769026),
    (9, 0.2671428571428571, (0.3379442780412245, 0.5), 0.3379442780412245),
    (9, 0.2938571428571429, (0.44778470556797245, 0.5), 0.44778470556797245),
    (9, 0.2997936507936508, (0.5,), None),
    (9, 0.3, (0.5,), None),
    (9, 0.35, (0.5,), None),
    (9, 0.4, (0.5,), None),
    (9, 0.45, (0.5,), None),
    (9, 0.5, (0.5,), None),
    (11, 0.0, (0.0, 0.5), 0.0),
    (11, 0.05, (0.050005224362976275, 0.5), 0.050005224362976275),
    (11, 0.1, (0.10023972070264042, 0.5), 0.10023972070264042),
    (11, 0.15, (0.15199376892957117, 0.5), 0.15199376892957117),
    (11, 0.15764790764790765, (0.16021829173517377, 0.5), 0.16021829173517377),
    (11, 0.2, (0.2086217784870219, 0.5), 0.2086217784870219),
    (11, 0.25, (0.27788180787606764, 0.5), 0.27788180787606764),
    (11, 0.2837662337662338, (0.3432364420203107, 0.5), 0.3432364420203107),
    (11, 0.3, (0.38974076579800165, 0.5), 0.38974076579800165),
    (11, 0.31214285714285717, (0.44951712328256477, 0.5), 0.44951712328256477),
    (11, 0.3184487734487734, (0.5,), None),
    (11, 0.35, (0.5,), None),
    (11, 0.4, (0.5,), None),
    (11, 0.45, (0.5,), None),
    (11, 0.5, (0.5,), None),
    (21, 0.0, (0.0, 0.5), 0.0),
    (21, 0.05, (0.050000000970288117, 0.5), 0.050000000970288117),
    (21, 0.1, (0.10000108256914553, 0.5), 0.10000108256914553),
    (21, 0.15, (0.1500492185555422, 0.5), 0.1500492185555422),
    (21, 0.18243495410678073, (0.1827100746458341, 0.5), 0.1827100746458341),
    (21, 0.2, (0.20059727792468296, 0.5), 0.20059727792468296),
    (21, 0.25, (0.25360548497901325, 0.5), 0.25360548497901325),
    (21, 0.3, (0.3150412796036792, 0.5), 0.3150412796036792),
    (21, 0.3283829173922053, (0.36034587013973507, 0.5), 0.36034587013973507),
    (21, 0.35, (0.40998888941578615, 0.5), 0.40998888941578615),
    (21, 0.36122120913142586, (0.45511072327748714, 0.5), 0.45511072327748714),
    (21, 0.3685186072956971, (0.5,), None),
    (21, 0.4, (0.5,), None),
    (21, 0.45, (0.5,), None),
    (21, 0.5, (0.5,), None),
    (41, 0.0, (0.0, 0.5), 0.0),
    (41, 0.05, (0.050000000000000266, 0.5), 0.050000000000000266),
    (41, 0.1, (0.10000000002908438, 0.5), 0.10000000002908438),
    (41, 0.15, (0.15000004324398963, 0.5), 0.15000004324398963),
    (41, 0.2, (0.20000501817452632, 0.5), 0.20000501817452632),
    (41, 0.20136374306159988, (0.20136932478121095, 0.5), 0.20136932478121095),
    (41, 0.25, (0.2501382551589262, 0.5), 0.2501382551589262),
    (41, 0.3, (0.30152683098955624, 0.5), 0.30152683098955624),
    (41, 0.35, (0.3597804409405412, 0.5), 0.3597804409405412),
    (41, 0.3624547375108798, (0.377400596239307, 0.5), 0.377400596239307),
    (41, 0.39870021126196775, (0.4607090442559638, 0.5), 0.4607090442559638),
    (41, 0.4, (0.4676368128922892, 0.5), 0.4676368128922892),
    (41, 0.40675476098443175, (0.5,), None),
    (41, 0.45, (0.5,), None),
    (41, 0.5, (0.5,), None),
]


@pytest.mark.parametrize("k,eps,points,eta", FROZEN_FIXED_POINTS)
def test_fixed_points_match_frozen_grid_scan(k, eps, points, eta):
    analysis = analyze_recursion(k, eps)
    assert len(analysis.fixed_points) == len(points)
    assert analysis.fixed_points == pytest.approx(points, abs=1e-12)
    assert (analysis.eta is None) == (eta is None)
    if eta is not None:
        assert analysis.eta == pytest.approx(eta, abs=1e-12)


def exact_majority_tail(k, p):
    """P(majority of k independent p-flipped copies is wrong), exactly."""
    q = Fraction(p)
    a, b = q.numerator, q.denominator - q.numerator
    # Horner in a over j = k, k-1, ..., k//2 + 1, carrying the power of b
    total, b_power = 0, 1
    for j in range(k, k // 2, -1):
        total = total * a + math.comb(k, j) * b_power
        b_power *= b
    return Fraction(total * a ** (k // 2 + 1), q.denominator**k)


@pytest.mark.parametrize("k", [1031, 2073])
def test_recursion_matches_exact_tail_at_large_k(k):
    # C(1031, 516) alone overflows a float; dyadic p keeps the exact sums small
    for eps in (0.0, 0.1):
        for p in (0.4375, 0.490234375, 0.499755859375, 0.5, 0.5625):
            want = Fraction(eps) + (1 - 2 * Fraction(eps)) * exact_majority_tail(k, p)
            assert maj_error_recursion(k, eps, p) == pytest.approx(float(want), rel=1e-12)


def restore_polynomial(gate):
    """The error polynomial of a k-input restore, whose inputs read k wires of
    one bundle, at true value 0 and 1."""
    k = gate.k
    return gates.error_polynomial(gate, (tuple(1 << i for i in range(k)),), [0, (1 << k) - 1])


#: read errors at which the restore polynomial meets its exact value
RESTORE_PROBABILITIES = (0.0, 1e-9, 1e-3, 0.1, 0.25, 0.4, 0.49, 0.5, 0.6, 0.9, 1.0)


def assert_restore_within_bound(coefficients, k, exact):
    # every term is nonnegative and each row is one exact sum of its terms, so
    # p' stays within (k + 2) units of 2^-52 of the exact value, relatively
    ps = np.array(RESTORE_PROBABILITIES)
    got = gates.polynomial_error(np.broadcast_to(coefficients, ps.shape + coefficients.shape), ps[:, None])
    for p, value in zip(RESTORE_PROBABILITIES, got.tolist()):
        want = exact(p)
        assert abs(Fraction(value) - want) <= (k + 2) * Fraction(1, 2**52) * want, (k, p)


@pytest.mark.parametrize("k", [1, 3, 5, 7, 15])
@pytest.mark.parametrize("eps", [0.0, 0.1, SIN2_PI8])
def test_restore_polynomial_matches_exact_tail(k, eps):
    # a uniform gate restores both true values alike: eps + (1 - 2 eps) tail
    e = Fraction(eps)
    restore = restore_polynomial(uniform_noisy_gate(make_named("maj", k), eps))
    for coefficients in restore:
        assert_restore_within_bound(
            coefficients, k, lambda p: e + (1 - 2 * e) * exact_majority_tail(k, p)
        )


def test_restore_polynomial_matches_pattern_enumeration_with_input_dependent_errors():
    k = 5
    errors = tuple((i * 37 % 101) / 250 for i in range(1 << k))
    gate = NoisyGate(make_named("maj", k), errors)
    table = gate.target.table
    for v, coefficients in enumerate(restore_polynomial(gate)):
        x = v * ((1 << k) - 1)

        def exact(p):
            q, total = Fraction(p), Fraction(0)
            for flips in range(1 << k):
                j, e = flips.bit_count(), Fraction(errors[x ^ flips])
                wrong = table[x ^ flips] != table[x]
                total += q**j * (1 - q) ** (k - j) * ((1 - e) if wrong else e)
            return total

        assert_restore_within_bound(coefficients, k, exact)


@pytest.mark.parametrize(
    "sources", [((1,), (2, 4)), ((1,), (6,)), ((1, 2), (4,)), ((1,), (2,), (4,)), ((7,),)]
)
def test_error_polynomial_matches_wire_pattern_enumeration(sources):
    # a compute stage at W > 1 and at W = 1, other groupings of three gate
    # inputs into independent wires, and one wire feeding all three, against
    # the exact sum over every pattern of wrong wires
    gate = NoisyGate(make_named("xnand"), tuple((i * 37 % 101) / 250 for i in range(8)))
    table = gate.target.table
    wires = [(i, mask) for i, masks in enumerate(sources) for mask in masks]
    for x in range(8):
        coefficients = gates.error_polynomial(gate, sources, [x])
        for ps in [(0.13, 0.27, 0.4), (0.5, 1e-3, 0.9), (0.0, 1.0, 0.5), (1e-9, 0.6, 0.1)]:
            ps = ps[: len(sources)]
            want = Fraction(0)
            for pattern in range(1 << len(wires)):
                prob, flip = Fraction(1), 0
                for w, (i, mask) in enumerate(wires):
                    wrong = pattern >> w & 1
                    prob *= Fraction(ps[i]) if wrong else 1 - Fraction(ps[i])
                    flip ^= mask * wrong
                e = Fraction(gate.errors[x ^ flip])
                want += prob * ((1 - e) if table[x ^ flip] != table[x] else e)
            [got] = gates.polynomial_error(coefficients, np.array([ps])).tolist()
            # as for a restore: within (wires + 2) units of 2^-52, relatively
            assert abs(Fraction(got) - want) <= (len(wires) + 2) * Fraction(1, 2**52) * want, (x, ps)


#: |p - _ZERO_ONE| is (p, 1 - p)
_ZERO_ONE = np.array([0.0, 1.0])


def reference_polynomial_error(coefficients, ps):
    """``gates.polynomial_error`` with one powers buffer per row and ``|p -
    (0, 1)|`` for (p, 1 - p), as it stood before its powers were written in
    place: the reference the kernel must equal bit for bit."""
    rows, m = ps.shape
    terms = coefficients
    for i, c in enumerate(coefficients.shape[1:]):
        powers = np.empty((rows, 2, c))  # each row's powers of p_i, then of 1 - p_i
        powers[:, :, 0] = 1.0
        powers[:, :, 1:] = np.abs(ps[:, i, None] - _ZERO_ONE)[:, :, None]
        np.multiply.accumulate(powers, axis=-1, out=powers)
        shape = (rows,) + (1,) * i + (c,) + (1,) * (m - 1 - i)
        terms = terms * powers[:, 0].reshape(shape) * powers[:, 1, ::-1].reshape(shape)
    return np.fromiter(map(math.fsum, terms.reshape(rows, -1).tolist()), float, rows)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dims", [(2,), (4,), (6,), (8,), (2, 3)], ids=["k1", "k3", "k5", "k7", "compute"])
def test_polynomial_error_equals_reference(dims, seed):
    # the one-source shape of a k-input restore and the two-source shape of a
    # compute stage, on random rows with read errors 0, 1/2 and 1 among them
    rng = np.random.default_rng([seed, *dims])
    rows = 64
    coefficients = rng.random((rows, *dims))
    ps = rng.random((rows, len(dims)))
    ps[rng.random(ps.shape) < 0.3] = 0.0
    ps[rng.random(ps.shape) < 0.2] = 0.5
    ps[rng.random(ps.shape) < 0.2] = 1.0
    assert {0.0, 0.5, 1.0} <= set(ps.ravel().tolist())
    got = gates.polynomial_error(coefficients, ps)
    assert got.tolist() == reference_polynomial_error(coefficients, ps).tolist()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from([1, 3, 5, 7]),
    rows=st.integers(1, 64),
    rounds=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_polynomial_error_rounds_equal_chained_calls_property(k, rows, rounds, seed):
    # a restore chain's rounds in one pass, on random k-input restore rows
    # with read errors 0, 1/2 and 1 among them, bit for bit as one call per
    # round, each reading the one before's error
    rng = np.random.default_rng(seed)
    coefficients = rng.random((rows, k + 1))
    ps = rng.choice([0.0, 0.5, 1.0, *rng.random(3)], size=(rows, 1))
    want = ps[:, 0]
    for _ in range(rounds):
        want = gates.polynomial_error(coefficients, want[:, None])
    assert gates.polynomial_error(coefficients, ps, rounds=rounds).tobytes() == want.tobytes()


@pytest.mark.parametrize("dims, rounds", [((4,), 0), ((2, 3), 2)])
def test_polynomial_error_refuses_rounds_it_cannot_chain(dims, rounds):
    # a round needs one source to feed the next its error, and a call at least one round
    with pytest.raises(ValueError, match="rounds"):
        gates.polynomial_error(np.ones((1, *dims)), np.full((1, len(dims)), 0.5), rounds)


@pytest.mark.parametrize("k", [1031, 2073, 10001])
def test_derivative_matches_exact_formula_at_large_k(k):
    half = (k - 1) // 2
    for eps in (0.0, 0.1):
        for p in (0.49, 0.4997, 0.5):
            q = Fraction(p)
            want = (1 - 2 * Fraction(eps)) * k * math.comb(k - 1, half) * (q * (1 - q)) ** half
            assert recursion_derivative(k, eps, p) == pytest.approx(float(want), rel=1e-12)


def test_small_violation_witness_restores():
    witness = min_k_for_violation("0.005")
    eps = float(witness.epsilon)
    analysis = analyze_recursion(witness.k, eps)
    eta = analysis.eta
    assert eta is not None and eta < 0.5
    assert analysis.fixed_points == (eta, 0.5)
    assert abs(maj_error_recursion(witness.k, eps, eta) - eta) <= 1e-12
    assert recursion_derivative(witness.k, eps, eta) < 1.0


def test_recursion_validation():
    with pytest.raises(ValueError):
        maj_error_recursion(3, 0.6, 0.1)
    with pytest.raises(ValueError):
        maj_error_recursion(3, 0.1, 1.2)
    with pytest.raises(ValueError):
        maj_error_recursion(4, 0.0, 0.1)


@pytest.mark.parametrize(
    "k, eps, p", [(4, 0.1, 0.3), (0, 0.1, 0.3), (-1, 0.1, 0.3), (3, 0.7, 0.3), (3, -0.1, 0.3)]
)
def test_derivative_rejects_what_the_recursion_rejects(k, eps, p):
    # an even k has no majority recursion, and an epsilon above 1/2 gives a
    # negative slope; both used to return a number
    with pytest.raises(ValueError):
        maj_error_recursion(k, eps, p)
    with pytest.raises(ValueError):
        recursion_derivative(k, eps, p)


# ---------------------------------------------------------------------------
# exact one-sided Clopper-Pearson upper bound

#: a report's per-input levels: alpha = 0.05 over 1 and over 256 inputs
CP_LEVELS = (0.05, 0.05 / 256)


def cdf_at_most(n, k, p: Fraction, level: Fraction) -> bool:
    """P(X <= k) <= level for X ~ Bin(n, p), in exact integer arithmetic."""
    a, d = p.numerator, p.denominator
    scaled = sum(math.comb(n, j) * a**j * (d - a) ** (n - j) for j in range(k + 1))
    return scaled * level.denominator <= level.numerator * d**n


@pytest.mark.parametrize("level", CP_LEVELS)
def test_clopper_pearson_upper_inverts_the_exact_cdf(level):
    # the exact bound b* solves P_b*(X <= k) = level and the CDF falls in p,
    # so |b - b*| <= 1e-12 iff the CDF is at most the level at b + 1e-12
    # (b is not more than 1e-12 below b*) and above it at b - 1e-12
    tol, exact_level = Fraction(1, 10**12), Fraction(level)
    for n in range(1, 41):
        for k in range(n):
            b = Fraction(gates.clopper_pearson_upper(k, n, level))
            assert cdf_at_most(n, k, b + tol, exact_level), (n, k)
            assert not cdf_at_most(n, k, b - tol, exact_level), (n, k)
        assert gates.clopper_pearson_upper(n, n, level) == 1.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 30),
    p=st.integers(1, 99).map(lambda i: Fraction(i, 100)),
    level=st.sampled_from(CP_LEVELS),
)
def test_clopper_pearson_upper_covers_p(n, p, level):
    # the outcomes whose bound falls below the true p have total probability
    # at most the level, summed exactly
    miss = sum(
        math.comb(n, k) * p**k * (1 - p) ** (n - k)
        for k in range(n + 1)
        if gates.clopper_pearson_upper(k, n, level) < p
    )
    assert miss <= Fraction(level)


def test_clopper_pearson_upper_of_no_errors():
    # P(X = 0) = (1 - b)^n = alpha gives b = 1 - alpha^(1/n)
    bound = gates.clopper_pearson_upper(0, 16384, 0.05)
    assert bound == pytest.approx(-math.expm1(math.log(0.05) / 16384), abs=1e-12)
    assert bound == pytest.approx(1.828e-4, abs=1e-7)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_gap_rejects_k_without_a_threshold(k):
    with pytest.raises(ValueError):
        gap(k)


def test_eta_iteration_that_does_not_converge_raises():
    # at the threshold epsilon = beta_3 = 1/6 the step shrinks too slowly for 1e-14
    with pytest.raises(RuntimeError, match="did not converge"):
        gates.eta_by_iteration(3, 1 / 6)
