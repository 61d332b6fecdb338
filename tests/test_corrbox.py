import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from l2mbqc import corrbox
from l2mbqc.corrbox import (
    BipartiteBox,
    GhzBox,
    NoncontextualBox,
    OutcomeDistribution,
    chsh_and_box,
    distribution,
    ghz_parity_probability,
    noncontextual_and_box,
    statevector_oracle,
)

COS2_PI8 = math.cos(math.pi / 8) ** 2


def random_bipartite(rng):
    return BipartiteBox(
        alice=tuple(rng.uniform(0, 2 * math.pi, 2)),
        bob=tuple(rng.uniform(0, 2 * math.pi, 2)),
    )


def random_ghz(rng, n, epsilon=0.0):
    return GhzBox(
        angles=tuple(tuple(rng.uniform(0, 2 * math.pi, 2)) for _ in range(n)),
        epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# bipartite box

def test_equal_angles_perfectly_correlated():
    box = BipartiteBox(alice=(0.7, 0.0), bob=(0.7, 0.0))
    dist = distribution(box, (0, 0))
    assert dist.parity_probability(0) == pytest.approx(1.0, abs=1e-12)


def test_chsh_and_success_on_every_input():
    box = chsh_and_box()
    for b0, b1 in itertools.product((0, 1), repeat=2):
        dist = distribution(box, (b0, b1))
        assert dist.parity_probability(b0 & b1) == pytest.approx(COS2_PI8, abs=1e-12)


def test_orthogonal_angles_uniform():
    box = BipartiteBox(alice=(math.pi / 2, 0.0), bob=(0.0, 0.0))
    dist = distribution(box, (0, 0))
    for outcome in itertools.product((0, 1), repeat=2):
        assert dist[outcome] == pytest.approx(0.25, abs=1e-12)


def test_bipartite_marginals_uniform():
    rng = np.random.default_rng(7)
    for _ in range(20):
        box = random_bipartite(rng)
        for inputs in itertools.product((0, 1), repeat=2):
            dist = distribution(box, inputs)
            for party in (0, 1):
                marg = dist.marginal([party])
                assert marg[(0,)] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# GHZ box

def test_ghz_parity_examples():
    box = GhzBox(angles=((0.0, 0.0),) * 3, epsilon=0.0)
    assert ghz_parity_probability(box, (0, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    box = GhzBox(angles=((0.0, math.pi),) * 3, epsilon=0.1)
    assert ghz_parity_probability(box, (1, 0, 0)) == pytest.approx(0.9, abs=1e-12)
    box = GhzBox(angles=((0.0, math.pi),) * 3, epsilon=0.0)
    assert ghz_parity_probability(box, (1, 0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_ghz_distribution_consistency():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        box = random_ghz(rng, n, epsilon=float(rng.uniform(0, 0.5)))
        inputs = tuple(int(b) for b in rng.integers(0, 2, n))
        dist = distribution(box, inputs)
        assert dist.parity_probability(1) == pytest.approx(
            ghz_parity_probability(box, inputs), abs=1e-12
        )
        # every proper-subset marginal is uniform
        for size in range(1, n):
            for parties in itertools.combinations(range(n), size):
                marg = dist.marginal(parties)
                for outcome in itertools.product((0, 1), repeat=size):
                    assert marg[outcome] == pytest.approx(1.0 / (1 << size), abs=1e-12)


def test_ghz_three_party_uniform_case():
    # summed angles 3*pi/2 have zero cosine, so all strings are equally likely
    box = GhzBox(angles=((0.0, math.pi / 2),) * 3, epsilon=0.0)
    dist = distribution(box, (1, 1, 1))
    for outcome in itertools.product((0, 1), repeat=3):
        assert dist[outcome] == pytest.approx(0.125, abs=1e-12)
    oracle = statevector_oracle(box, (1, 1, 1))
    for outcome in itertools.product((0, 1), repeat=3):
        assert oracle[outcome] == pytest.approx(0.125, abs=1e-10)


def test_noise_interpolates_affinely():
    angles = ((0.2, 1.3), (0.4, 2.2), (1.0, 0.5))
    inputs = (1, 0, 1)
    p0 = ghz_parity_probability(GhzBox(angles, 0.0), inputs)
    for eps in (0.1, 0.25, 0.3, 0.4):
        p = ghz_parity_probability(GhzBox(angles, eps), inputs)
        assert p == pytest.approx((1 - 2 * eps) * p0 + eps, abs=1e-12)
    assert ghz_parity_probability(GhzBox(angles, 0.5), inputs) == pytest.approx(
        0.5, abs=1e-12
    )


def test_parity_probability_broadcasts_over_bit_arrays():
    rng = np.random.default_rng(23)
    boxes = [random_bipartite(rng), chsh_and_box()]
    boxes += [random_ghz(rng, n, eps) for n in (1, 3, 6) for eps in (0.0, 0.1)]
    for box in boxes:
        bits = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(box.n_parties)]
        together = corrbox.parity_probability(box, bits)
        assert together.shape == (32,)
        for col in range(32):
            alone = corrbox.parity_probability(box, tuple(int(b[col]) for b in bits))
            assert together[col] == alone
        with pytest.raises(ValueError):
            corrbox.parity_probability(box, bits[:-1])
        with pytest.raises(ValueError):
            corrbox.parity_probability(box, bits + bits[:1])


def test_ghz_phase_is_the_correctly_rounded_angle_sum():
    # the compensated sum agrees with math.fsum bit for bit, so the result
    # does not depend on the party order
    rng = np.random.default_rng(31)
    for eps in (0.0, 0.1):
        box = random_ghz(rng, 300, eps)
        for _ in range(20):
            inputs = tuple(int(b) for b in rng.integers(0, 2, 300))
            phi = math.fsum(pair[b] for pair, b in zip(box.angles, inputs))
            expected = (1.0 - 2.0 * eps) * (1.0 - math.cos(phi)) / 2.0 + eps
            assert ghz_parity_probability(box, inputs) == expected


def test_epsilon_validation():
    with pytest.raises(ValueError):
        GhzBox(angles=((0.0, 0.0),), epsilon=0.6)
    with pytest.raises(ValueError):
        GhzBox(angles=((0.0, 0.0),), epsilon=-0.01)


# ---------------------------------------------------------------------------
# state-vector oracle agreement

def test_oracle_matches_closed_forms_randomly():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        if rng.random() < 0.4:
            box = random_bipartite(rng)
            inputs = tuple(int(b) for b in rng.integers(0, 2, 2))
            closed = distribution(box, inputs)
        else:
            box = random_ghz(rng, int(rng.integers(1, 5)))
            inputs = tuple(int(b) for b in rng.integers(0, 2, box.n_parties))
            closed = distribution(box, inputs)
        oracle = statevector_oracle(box, inputs)
        for outcome in itertools.product((0, 1), repeat=box.n_parties):
            assert abs(closed[outcome] - oracle[outcome]) < 1e-10
        checked += 1


def test_oracle_trivial_cases():
    # one-qubit GHZ state measured along X is deterministic
    box = GhzBox(angles=((0.0, 1.0),), epsilon=0.0)
    assert statevector_oracle(box, (0,))[(0,)] == pytest.approx(1.0, abs=1e-12)
    # two parties at angle zero: perfectly correlated parity
    box = GhzBox(angles=((0.0, 0.0), (0.0, 0.0)), epsilon=0.0)
    dist = statevector_oracle(box, (0, 0))
    assert dist[(0, 0)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert dist.parity_probability(0) == pytest.approx(1.0, abs=1e-12)


def test_oracle_rejects_noise_and_oversize():
    with pytest.raises(ValueError):
        statevector_oracle(GhzBox(angles=((0.0, 0.0),), epsilon=0.1), (0,))
    big = GhzBox(angles=((0.0, 0.0),) * 17, epsilon=0.0)
    with pytest.raises(ValueError):
        statevector_oracle(big, (0,) * 17)


# ---------------------------------------------------------------------------
# no-signalling

def test_no_signalling():
    rng = np.random.default_rng(5)
    boxes = [random_bipartite(rng) for _ in range(5)]
    boxes += [random_ghz(rng, n, float(rng.uniform(0, 0.5))) for n in (2, 3, 4)]
    boxes.append(noncontextual_and_box())
    for box in boxes:
        n = box.n_parties
        for inputs in itertools.product((0, 1), repeat=n):
            base = corrbox.distribution(box, inputs)
            for flip_at in range(n):
                other = list(inputs)
                other[flip_at] ^= 1
                alt = corrbox.distribution(box, tuple(other))
                rest = [i for i in range(n) if i != flip_at]
                if not rest:
                    continue
                m1, m2 = base.marginal(rest), alt.marginal(rest)
                for outcome in itertools.product((0, 1), repeat=len(rest)):
                    assert abs(m1[outcome] - m2[outcome]) < 1e-12


# ---------------------------------------------------------------------------
# Tsirelson consistency

def test_and_success_never_beats_tsirelson_on_grid():
    # one angle can be fixed by global rotation symmetry
    step = math.pi / 64
    grid = np.arange(0, 2 * math.pi, step)
    a1, b0, b1 = np.meshgrid(grid, grid, grid, indexing="ij", sparse=True)
    s00 = (1 + np.cos(0.0 - b0)) / 2
    s01 = (1 + np.cos(0.0 - b1)) / 2
    s10 = (1 + np.cos(a1 - b0)) / 2
    s11 = (1 - np.cos(a1 - b1)) / 2
    worst = np.minimum(np.minimum(s00, s01), np.minimum(s10, s11))
    assert float(worst.max()) <= COS2_PI8 + 1e-9


# ---------------------------------------------------------------------------
# non-contextual boxes

def test_quarter_noisy_and_mixture():
    box = noncontextual_and_box()
    for a, b in itertools.product((0, 1), repeat=2):
        dist = distribution(box, (a, b))
        assert dist.parity_probability(a & b) == pytest.approx(0.75, abs=0)


def test_single_response_is_point_mass():
    box = NoncontextualBox(mixture=((Fraction(1), ((1, 0), (0, 1))),))
    dist = distribution(box, (1, 0))
    assert dist[(1, 1)] == 1.0
    # outcomes are packed with party j's output in bit j
    box = NoncontextualBox(mixture=((Fraction(1), ((1, 0), (0, 0))),))
    dist = distribution(box, (1, 0))
    assert dist[(1, 0)] == 1.0
    assert dist.probs[0b01] == 1.0
    assert dist[(0, 1)] == 0.0


def test_marginal_keeps_the_listed_party_order():
    box = NoncontextualBox(
        mixture=(
            (Fraction(1, 2), ((0, 1), (0, 0), (0, 1))),
            (Fraction(1, 3), ((0, 0), (0, 1), (0, 1))),
            (Fraction(1, 6), ((0, 0), (0, 0), (0, 0))),
        )
    )
    dist = distribution(box, (0, 0, 0))
    assert dist[(1, 0, 1)] == 0.5
    forward, swapped = dist.marginal([0, 1]), dist.marginal([1, 0])
    assert forward[(1, 0)] == pytest.approx(0.5, abs=1e-15)
    assert forward[(0, 1)] == pytest.approx(1 / 3, abs=1e-15)
    for a, b in itertools.product((0, 1), repeat=2):
        assert swapped[(b, a)] == forward[(a, b)]


def test_mixture_with_global_negation_has_uniform_parity():
    # negating every output of an odd number of parties flips the parity
    box = NoncontextualBox(
        mixture=(
            (Fraction(1, 2), ((1, 0), (0, 0), (0, 0))),
            (Fraction(1, 2), ((1, 1), (0, 1), (0, 1))),
        )
    )
    for inputs in itertools.product((0, 1), repeat=3):
        dist = distribution(box, inputs)
        assert dist.parity_probability(1) == pytest.approx(0.5, abs=0)


def test_mixture_validation():
    with pytest.raises(ValueError):
        NoncontextualBox(mixture=())
    with pytest.raises(ValueError):
        NoncontextualBox(mixture=((0.5, ((0, 0),)),))  # weights do not sum to 1
    with pytest.raises(ValueError):
        NoncontextualBox(mixture=((1.0, ((2, 0),)),))  # non-bit slope


# ---------------------------------------------------------------------------
# distribution container

def test_distribution_validation():
    with pytest.raises(ValueError):
        OutcomeDistribution(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        OutcomeDistribution(np.array([1.5, -0.5]))

