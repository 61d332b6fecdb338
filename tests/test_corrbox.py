import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2mbqc import corrbox
from l2mbqc.corrbox import (
    GhzBox,
    NoncontextualBox,
    OutcomeDistribution,
    chsh_and_box,
    distribution,
    ghz_parity_probability,
    noncontextual_and_box,
    statevector_oracle,
    statevector_parity,
)

COS2_PI8 = math.cos(math.pi / 8) ** 2


def random_ghz(rng, n, epsilon=0.0):
    return GhzBox(
        angles=tuple(tuple(rng.uniform(0, 2 * math.pi, 2)) for _ in range(n)),
        epsilon=epsilon,
    )


def xz_basis(theta) -> np.ndarray:
    """<v_o| of cos(theta) Z + sin(theta) X for outcomes 0 (+1) and 1 (-1), per angle."""
    c, s = np.cos(np.divide(theta, 2.0)), np.sin(np.divide(theta, 2.0))
    return np.stack([c, s, -s, c], axis=-1).reshape(np.shape(theta) + (2, 2)).astype(complex)


# ---------------------------------------------------------------------------
# the Bell pair: the two-party GHZ box

def test_equal_angles_perfectly_correlated():
    # equal XZ-plane angles on the Bell pair are opposite equatorial ones
    box = GhzBox(angles=((0.7, 0.0), (-0.7, 0.0)))
    dist = distribution(box, (0, 0))
    assert dist.parity_probability(0) == pytest.approx(1.0, abs=1e-12)


def test_chsh_and_success_on_every_input():
    box = chsh_and_box()
    for b0, b1 in itertools.product((0, 1), repeat=2):
        dist = distribution(box, (b0, b1))
        assert dist.parity_probability(b0 & b1) == pytest.approx(COS2_PI8, abs=1e-12)


def test_orthogonal_angles_uniform():
    box = GhzBox(angles=((math.pi / 2, 0.0), (0.0, 0.0)))
    dist = distribution(box, (0, 0))
    for outcome in itertools.product((0, 1), repeat=2):
        assert dist[outcome] == pytest.approx(0.25, abs=1e-12)


def test_bipartite_marginals_uniform():
    rng = np.random.default_rng(7)
    for _ in range(20):
        box = random_ghz(rng, 2)
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


def form_bits(forms, x):
    """Each packed affine form 2 T + c evaluated at the input x."""
    return tuple(((form >> 1 & x).bit_count() & 1) ^ (form & 1) for form in forms)


def test_parity_probability_of_forms_matches_scalar_calls():
    rng = np.random.default_rng(23)
    boxes = [random_ghz(rng, 2), chsh_and_box()]
    boxes += [random_ghz(rng, n, eps) for n in (1, 3, 6) for eps in (0.0, 0.1)]
    for box in boxes:
        for n in (0, 1, 5):
            forms = [int(f) for f in rng.integers(0, 2 << n, box.n_parties)]
            together = corrbox.parity_probability(box, forms, n)
            assert together.shape == (1 << n,)
            for x in range(1 << n):
                alone = corrbox.parity_probability(box, form_bits(forms, x), 0)
                assert together[x] == alone[0]
            with pytest.raises(ValueError):
                corrbox.parity_probability(box, forms[:-1], n)
            with pytest.raises(ValueError):
                corrbox.parity_probability(box, forms + forms[:1], n)
            with pytest.raises(ValueError):  # mask bit n is beyond the input
                corrbox.parity_probability(box, [2 << n] + forms[1:], n)
        with pytest.raises(ValueError):  # a plain input that is not a bit
            corrbox.parity_probability(box, (2,) + (0,) * (box.n_parties - 1), 0)
        with pytest.raises(ValueError):
            corrbox.parity_probability(box, (-1,) + (0,) * (box.n_parties - 1), 0)


def fsum_parity(box, forms, n):
    """The closed form at every x, from math.fsum over that x's chosen angles."""
    pairs, eps = box.angles, box.epsilon
    out = []
    for x in range(1 << n):
        phi = math.fsum(pair[b] for pair, b in zip(pairs, form_bits(forms, x)))
        out.append((1.0 - 2.0 * eps) * (1.0 - math.cos(phi)) / 2.0 + eps)
    return out


def test_ghz_phase_of_forms_is_the_correctly_rounded_angle_sum(monkeypatch):
    # every x must match math.fsum over that x's chosen angles, bit for bit,
    # on the two-limb int64 path ("ii": one transform per limb) and on the
    # Python-int path ("O")
    paths = []
    twice_phase = corrbox._twice_phase

    def recording(scaled, forms, n):
        paths.append(scaled.dtype.kind)
        return twice_phase(scaled, forms, n)

    monkeypatch.setattr(corrbox, "_twice_phase", recording)

    def check(box, forms, n, path=None):
        paths.clear()
        assert corrbox.parity_probability(box, forms, n).tolist() == fsum_parity(box, forms, n)
        assert path is None or "".join(paths) == path

    rng = np.random.default_rng(37)
    # negative angles from 1e-300 to 1e3, or from 2^-12 to 2^12, in one box
    for base, low, high in ((10.0, -300, 3), (2.0, -12, 12)):
        for n in range(11):
            for _ in range(3):
                parties = int(rng.integers(1, 40))
                signs = rng.choice((-1.0, 1.0), (parties, 2))
                angles = signs * base ** rng.uniform(low, high, (parties, 2))
                eps = float(rng.choice((0.0, rng.uniform(0, 0.5))))
                box = GhzBox(tuple((float(a0), float(a1)) for a0, a1 in angles), eps)
                check(box, [int(f) for f in rng.integers(0, 2 << n, parties)], n)
    # two-party boxes, and plain input bits (n = 0)
    for box in (chsh_and_box(), random_ghz(rng, 2), GhzBox(((1e-300, 1.0), (-2.0, -3.0)))):
        path = "O" if box.angles[0][0] == 1e-300 else "ii"
        for n in (0, 3):
            check(box, [int(f) for f in rng.integers(0, 2 << n, 2)], n, path)
    # exponent gaps: 1.5 has exponent 1, so 1.5 2^-g is g below it; a gap of
    # 32 passes the span check, but the top angle's high limb alone is 3 2^51
    for gap, path in ((30, "ii"), (31, "O"), (32, "O"), (33, "O")):
        small = math.ldexp(1.5, -gap)
        box = GhzBox(((1.5, 0.0), (small, -small), (0.0, 3 * small)), 0.1)
        for n in (0, 2):
            check(box, [int(f) for f in rng.integers(0, 2 << n, 3)], n, path)
    # the high limbs' magnitudes summing to 2^51 - 1 and 2^51: 2^-29 sets the
    # low exponent, so an angle w 2^-52 (exponent 1) has high limb w >> 3,
    # and 2^-29 itself has high limb 2^20
    for total, path in ((2**51 - 1, "ii"), (2**51, "O")):
        rest = total - 2**20 - (2**50 - 1)
        angles = ((math.ldexp(2**53 - 8, -52), 0.0), (math.ldexp(8 * rest + 5, -52), 2.0**-29))
        for n in (0, 1):
            check(GhzBox(angles), [int(f) for f in rng.integers(0, 2 << n, 2)], n, path)
    # the low limbs' magnitudes summing just under and just over 2^51: equal
    # exponents, each angle's low limb 2^32 - 1, on 2^18 parties and one more
    angle = math.ldexp(2**52 + 2**32 - 1, -52)
    for parties, path in ((1 << 18, "ii"), ((1 << 18) + 1, "O")):
        box = GhzBox(((angle, angle),) * parties)
        check(box, [0] * parties, 0, path)


def test_ghz_phase_of_large_angles_is_the_correctly_rounded_angle_sum():
    # every angle at or above 2^53: no fractional bits to keep
    angles = ((1e20, -3e300), (2.0**60, 7e22), (-1e300, 2e300))
    box = GhzBox(angles, 0.0)
    for x in range(8):
        bits = tuple((x >> j) & 1 for j in range(3))
        phi = math.fsum(pair[b] for pair, b in zip(angles, bits))
        assert ghz_parity_probability(box, bits) == (1.0 - math.cos(phi)) / 2.0


def test_boxes_reject_non_finite_angles():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            GhzBox(angles=((0.0, 0.0), (bad, 0.0)))
        with pytest.raises(ValueError):
            GhzBox(angles=((0.0, bad), (0.0, 0.0)))


def test_ghz_phase_is_the_correctly_rounded_angle_sum():
    # the exact sum agrees with math.fsum bit for bit, so the result
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
        parties = 2 if rng.random() < 0.4 else int(rng.integers(1, 5))
        box = random_ghz(rng, parties)
        inputs = tuple(int(b) for b in rng.integers(0, 2, parties))
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


def test_oracle_packs_party_zero_in_the_low_bit():
    # a 3-party GHZ state read in Z, Z and X: parties 0 and 1 agree and party
    # 2 is uniform, so with party j on bit j the support is 000, 011, 100, 111
    bases = xz_basis(np.array([(0.0, 0.0), (0.0, 0.0), (math.pi / 2,) * 2]))
    probs = corrbox._measure(bases, np.zeros((1, 3), dtype=np.intp))
    dist = OutcomeDistribution(probs[0])
    assert np.flatnonzero(dist.probs).tolist() == [0b000, 0b011, 0b100, 0b111]
    assert dist.probs[[0b000, 0b011, 0b100, 0b111]] == pytest.approx([0.25] * 4, abs=1e-15)
    assert dist[(1, 1, 0)] == dist.probs[0b011] > 0.0
    assert dist[(0, 1, 1)] == 0.0


def _dense_measure(bases, rows):
    """The GHZ state's outcome probabilities by a dense 2x2 pass per party (oracle copy).

    Starts from all 2^N amplitudes of (|0...0> + |1...1>)/sqrt(2) per row,
    bit j of the index being party j's qubit, and applies the top qubit's
    basis while moving it to bit 0, so after N steps bit j is party j's
    outcome again.
    """
    b = len(rows)
    amps = np.zeros((b, 1 << len(bases)), dtype=complex)
    amps[:, 0] = amps[:, -1] = 1.0 / math.sqrt(2.0)
    out = np.empty_like(amps)
    for j in reversed(range(len(bases))):
        m = bases[j][rows[:, j]][..., None]  # (B, 2, 2, 1)
        top = amps.reshape(b, 2, -1)  # party j is the top qubit
        low = out.reshape(b, -1, 2)  # party j is written as bit 0
        for o in (0, 1):
            np.multiply(m[:, o, 0], top[:, 0], out=low[:, :, o])
            low[:, :, o] += m[:, o, 1] * top[:, 1]
        amps, out = out, amps
    return np.abs(amps) ** 2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_born_rule_kernel_matches_the_dense_pass(data):
    # bases in the XZ plane or on the equator; each row picks every party's
    # basis on its own
    parties = data.draw(st.integers(1, 12))
    angles = np.array(data.draw(st.lists(_angle_pairs, min_size=parties, max_size=parties)))
    plane = data.draw(st.sampled_from([xz_basis, corrbox._xy_basis]))
    bases = plane(angles)
    batch = data.draw(st.integers(1, 4))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=batch * parties, max_size=batch * parties))
    rows = np.array(bits, dtype=np.int64).reshape(batch, parties)
    got = corrbox._measure(bases, rows)
    assert got.shape == (batch, 1 << parties)
    assert np.abs(got - _dense_measure(bases, rows)).max() <= 1e-15


def test_oracle_rejects_noise_and_oversize():
    with pytest.raises(ValueError):
        statevector_oracle(GhzBox(angles=((0.0, 0.0),), epsilon=0.1), (0,))
    big = GhzBox(angles=((0.0, 0.0),) * 17, epsilon=0.0)
    with pytest.raises(ValueError):
        statevector_oracle(big, (0,) * 17)


@pytest.mark.parametrize("box, inputs", [
    (GhzBox(((0.0, 1.0),) * 3), (0, 2, 1)),
    (GhzBox(((0.0, 1.0),) * 3), (0, -1, 1)),
    (GhzBox(((0.0, 1.0),) * 3), (0, 1)),
    (GhzBox(((0.0, 1.0),) * 3), (0, 0.5, 1)),
    (chsh_and_box(), (0, 2)),
    (chsh_and_box(), (0, 1, 1)),
    (noncontextual_and_box(), (2, 0)),
    (noncontextual_and_box(), (0, 2)),
    (noncontextual_and_box(), (-1, 0)),
    (noncontextual_and_box(), (0, 1, 1)),
])
def test_oracle_rejects_inputs_that_are_not_one_bit_per_party(box, inputs):
    # every family: the closed forms check the bits; the oracle covers GHZ
    with pytest.raises(ValueError):
        distribution(box, inputs)
    with pytest.raises(ValueError):
        corrbox.outcome_table(box, inputs, 0)
    if isinstance(box, NoncontextualBox):
        return
    with pytest.raises(ValueError):
        statevector_oracle(box, inputs)
    with pytest.raises(ValueError):
        statevector_parity(box, inputs, 0)


_angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
_angle_pairs = st.tuples(_angle, _angle)


def _ghz_boxes(max_parties, noisy):
    epsilons = st.floats(0.0, 0.5) if noisy else st.just(0.0)
    angles = st.lists(_angle_pairs, min_size=1, max_size=max_parties).map(tuple)
    return st.builds(GhzBox, angles, epsilons)


@st.composite
def _noncontextual_boxes(draw):
    k = draw(st.integers(0, 4))  # zero parties: one empty outcome
    bit = st.integers(0, 1)
    responses = st.lists(st.tuples(bit, bit), min_size=k, max_size=k).map(tuple)
    entries = draw(st.lists(st.tuples(st.integers(1, 4), responses), min_size=1, max_size=4))
    total = sum(w for w, _ in entries)
    return NoncontextualBox(tuple((Fraction(w, total), r) for w, r in entries))


_bell_boxes = st.builds(GhzBox, st.tuples(_angle_pairs, _angle_pairs))


@st.composite
def _forms_for(draw, box):
    """An input arity n and one packed affine form 2 T + c per party."""
    n, k = draw(st.integers(0, 4)), box.n_parties
    return n, draw(st.lists(st.integers(0, (2 << n) - 1), min_size=k, max_size=k))


def _mixture_reference(box, bits):
    """Each mixture weight added, in mixture order, at its responses' outcome."""
    probs = [0.0] * (1 << box.n_parties)
    for weight, responses in box.mixture:
        outcome = sum(
            ((slope & b) ^ intercept) << j
            for j, ((slope, intercept), b) in enumerate(zip(responses, bits))
        )
        probs[outcome] += float(weight)
    return probs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_outcome_table_rows_are_the_distributions_of_the_form_bits(data):
    box = data.draw(st.one_of(_bell_boxes, _ghz_boxes(6, True), _noncontextual_boxes()))
    n, forms = data.draw(_forms_for(box))
    table = corrbox.outcome_table(box, forms, n)
    assert table.shape == (1 << n, 1 << box.n_parties)
    for x in range(1 << n):
        bits = form_bits(forms, x)
        assert (table[x] == distribution(box, bits).probs).all()
        if isinstance(box, NoncontextualBox):
            assert table[x].tolist() == _mixture_reference(box, bits)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_statevector_parity_matches_the_closed_form(data):
    box = data.draw(st.one_of(_bell_boxes, _ghz_boxes(8, False)))
    n, forms = data.draw(_forms_for(box))
    got = statevector_parity(box, forms, n)
    assert np.abs(got - corrbox.parity_probability(box, forms, n)).max() <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_statevector_parity_matches_the_oracle_row_by_row(data):
    box = data.draw(_ghz_boxes(8, False))
    n, forms = data.draw(_forms_for(box))
    got = statevector_parity(box, forms, n)
    assert got.shape == (1 << n,)
    for x, p in enumerate(got):
        oracle = statevector_oracle(box, form_bits(forms, x))
        assert abs(p - oracle.parity_probability(1)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alice=_angle_pairs, bob=_angle_pairs)
def test_bell_pair_in_the_xz_plane_is_the_two_party_ghz_box(alice, bob):
    # the Bell pair measured at XZ-plane angles alice and bob, from Z, gives
    # the two-party GHZ box with equatorial angles alice and -bob
    box = GhzBox((alice, (-bob[0], -bob[1])))
    bases = xz_basis(np.array((alice, bob)))
    for inputs in itertools.product((0, 1), repeat=2):
        bell = corrbox._measure(bases, np.array([inputs]))[0]
        assert np.abs(distribution(box, inputs).probs - bell).max() <= 1e-12
        assert np.abs(statevector_oracle(box, inputs).probs - bell).max() <= 1e-12


def test_statevector_parity_chunks_rows():
    # 15 qubits: chunks of two inputs; at n = 0 the one chunk is short
    rng = np.random.default_rng(11)
    box = random_ghz(rng, 15)
    for n in (0, 3):
        forms = [int(f) for f in rng.integers(0, 2 << n, 15)]
        got = statevector_parity(box, forms, n)
        for x, p in enumerate(got):
            oracle = statevector_oracle(box, form_bits(forms, x))
            assert abs(p - oracle.parity_probability(1)) <= 1e-12
    bell = chsh_and_box()
    forms = (0b10, 0b100)  # party j reads input bit j
    expected = [
        statevector_oracle(bell, form_bits(forms, x)).parity_probability(1) for x in range(4)
    ]
    assert statevector_parity(bell, forms, 2) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# no-signalling

def test_no_signalling():
    rng = np.random.default_rng(5)
    boxes = [random_ghz(rng, 2) for _ in range(5)]
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


def test_every_family_has_the_enumeration_cap():
    # 2^21 outcome columns per input are refused before they are allocated
    parties = corrbox.GHZ_ENUMERATION_CAP + 1
    boxes = [
        GhzBox(((0.0, 1.0),) * parties),
        NoncontextualBox(((1, ((0, 1),) * parties),)),
    ]
    for box in boxes:
        with pytest.raises(ValueError, match="above enumeration cap"):
            distribution(box, (0,) * parties)
        with pytest.raises(ValueError, match="above enumeration cap"):
            corrbox.outcome_table(box, (0,) * parties, 0)


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


@pytest.mark.parametrize("outcome", [(2, 0), (-1, 0), (0, 3), (0,), (0, 0, 0)])
def test_outcome_entries_must_be_bits(outcome):
    dist = distribution(chsh_and_box(), (0, 0))
    with pytest.raises(ValueError):
        dist[outcome]


@pytest.mark.parametrize(
    "error, build, message",
    [
        (ValueError, lambda: corrbox.OutcomeDistribution(np.ones(3) / 3), "3 probabilities are not 2"),
        (ValueError, lambda: corrbox.GhzBox(()), "at least one party"),
        (ValueError, lambda: corrbox.GhzBox(((0.0, 1.0, 2.0), (3.0, 4.0))), "party 0 has 3 angles, not a pair"),
        (ValueError, lambda: corrbox.GhzBox(((0.0, 1.0), (0.5,))), "party 1 has 1 angles, not a pair"),
        (
            ValueError,
            lambda: corrbox.NoncontextualBox(
                ((Fraction(1, 2), ((0, 0),)), (Fraction(1, 2), ((0, 0), (0, 0))))
            ),
            "inconsistent party counts",
        ),
        (
            ValueError,
            lambda: corrbox.NoncontextualBox(((-1, ((0, 0),)), (2, ((0, 0),)))),
            "negative mixture weight",
        ),
        (
            TypeError,
            lambda: corrbox.parity_probability(corrbox.noncontextual_and_box(), (0b10, 0b100), 2),
            "not a GHZ box",
        ),
        (
            TypeError,
            lambda: corrbox.statevector_oracle(corrbox.noncontextual_and_box(), (0, 1)),
            "noiseless GhzBox only",
        ),
        (TypeError, lambda: corrbox.outcome_table("box", (0,), 0), "not a correlation box"),
    ],
    ids=[
        "three-outcomes",
        "ghz-no-parties",
        "ghz-angle-triple",
        "ghz-angle-single",
        "mixture-party-counts",
        "mixture-negative-weight",
        "parity-of-noncontextual",
        "oracle-of-noncontextual",
        "table-of-non-box",
    ],
)
def test_malformed_boxes_and_unsupported_calls_raise(error, build, message):
    with pytest.raises(error, match=message):
        build()
