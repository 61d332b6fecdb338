import math
from fractions import Fraction

import pytest

from l2mbqc import gates
from l2mbqc.boolfn import kmaj_nonlinearity, make_named
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
    majority_flip_probability,
    min_k_for_violation,
    noncontextual_and_gate,
    perfect_gate,
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
    assert gate.is_epsilon_noisy
    assert gate.epsilon == pytest.approx(SIN2_PI8, abs=1e-12)
    assert gate.epsilon < float(beta(3).beta)


def test_noncontextual_and_gate():
    gate = noncontextual_and_gate()
    assert gate.errors == (0.25, 0.25, 0.25, 0.25)


def test_maj3_from_perfect_and_is_exact():
    derived = maj3_from_and(perfect_gate(make_named("and")))
    assert derived.target == make_named("maj", 3)
    assert derived.errors == (0.0,) * 8


def test_xnand_from_perfect_and_matches_table():
    derived = xnand_from_and(perfect_gate(make_named("and")))
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


def test_constructions_reject_wrong_target():
    with pytest.raises(ValueError):
        maj3_from_and(perfect_gate(make_named("nand")))
    with pytest.raises(ValueError):
        xnand_from_and(perfect_gate(make_named("xor")))


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.4])
def test_kmaj_from_noisy_ghz_exact_error(k, eps):
    gate = kmaj_from_noisy_ghz(k, eps)
    assert gate.target == make_named("maj", k)
    for e in gate.errors:
        assert e == pytest.approx(eps, abs=1e-12)
    assert max(gate.errors) - min(gate.errors) <= 1e-12


def test_noisy_gate_validation():
    with pytest.raises(ValueError):
        NoisyGate(make_named("and"), (0.0, 0.0))
    with pytest.raises(ValueError):
        NoisyGate(make_named("and"), (0.0, 0.0, 0.0, 1.5))


def test_classification_tolerance():
    gate = NoisyGate(make_named("and"), (0.1, 0.1, 0.1, 0.2))
    assert gate.epsilon is None
    assert not gate.is_epsilon_noisy


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
    assert not witness.trivial


def test_min_k_breaks_ties_toward_smaller_k():
    # just above gap(5): k = 5 still wins only once the gap drops below delta
    assert min_k_for_violation(Fraction(1, 12)).k == 5
    assert min_k_for_violation(Fraction(1, 12) + Fraction(1, 10**9)).k == 3


def test_min_k_trivial_witness_for_huge_delta():
    witness = min_k_for_violation(Fraction(3, 5))
    assert witness.k == 3
    assert witness.trivial and witness.epsilon == 0


def test_min_k_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        min_k_for_violation(0)


def test_threshold_sweep_rows():
    rows = threshold_sweep(7)
    assert [r["k"] for r in rows] == [3, 5, 7]
    assert rows[0]["beta"] == Fraction(1, 6)
    assert rows[1]["nu_over_2k"] == Fraction(5, 16)


def test_threshold_sweep_rejects_kmax_above_cap_before_any_work(monkeypatch):
    def no_work(k):
        raise AssertionError("beta computed before the cap check")

    monkeypatch.setattr(gates, "beta", no_work)
    with pytest.raises(ValueError, match=f"kmax {gates.K_CAP + 2} above cap 10001"):
        threshold_sweep(gates.K_CAP + 2)


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


def test_majority_flip_probability_is_binomial_tail():
    assert majority_flip_probability(5, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert majority_flip_probability(3, 0.2) == pytest.approx(
        3 * 0.04 * 0.8 + 0.008, abs=1e-15
    )


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


def test_recursion_validation():
    with pytest.raises(ValueError):
        maj_error_recursion(3, 0.6, 0.1)
    with pytest.raises(ValueError):
        maj_error_recursion(3, 0.1, 1.2)
    with pytest.raises(ValueError):
        majority_flip_probability(4, 0.1)
