"""Correlation resources with one-bit inputs and outputs per party.

Two box families: N-party GHZ boxes measured on the equator (optionally
mixed with white noise), of which the Bell pair (|00> + |11>)/sqrt(2) is the
two-party case, and non-contextual mixtures of deterministic local responses.
Every box function takes the same input: party j reads an affine GF(2)
form of an n-bit input x, packed as 2 T_j + c_j, and the answer covers all
2^n inputs; at n = 0 the forms are plain input bits. Closed-form
distributions are cross-checkable against a state-vector oracle, the Born
rule on the GHZ state's two nonzero amplitudes, that never uses the closed
forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .boolfn import index_of, index_parity, walsh

PROBABILITY_TOL = 1e-12
GHZ_ENUMERATION_CAP = 20
STATEVECTOR_QUBIT_CAP = 16
#: the widest exponent span of a box's nonzero angles that the int64 phase
#: sum takes; each exact angle integer splits at bit LIMB_BITS into two limbs
LIMB_BITS = 32
#: each limb's magnitudes must sum below this for the int64 phase sum: then
#: every partial sum is exact in int64 and both limb results in a float
LIMB_SUM_CAP = 2.0**51


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities over output bit-strings, validated to sum to one.

    ``probs[o]`` is the probability of the packed outcome o, whose bit j is
    party j's output (the package's table order), so ``probs`` has length
    2^n for n parties.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size & (probs.size - 1) or not probs.size:
            raise ValueError(f"{probs.size} probabilities are not 2^n outcomes")
        low = int(probs.argmin())
        if probs[low] < -PROBABILITY_TOL:
            raise ValueError(f"negative probability {probs[low]} at outcome {low}")
        total = float(probs.sum())
        if not abs(total - 1.0) <= PROBABILITY_TOL:  # NaN fails too
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n_parties(self) -> int:
        return self.probs.size.bit_length() - 1

    def __getitem__(self, outcome: tuple[int, ...]) -> float:
        return float(self.probs[index_of(outcome, self.n_parties)])

    def parity_probability(self, value: int = 1) -> float:
        """Probability that the xor of all output bits equals ``value``."""
        return float(self.probs[index_parity(self.n_parties) == value].sum())

    def marginal(self, parties: Sequence[int]) -> "OutcomeDistribution":
        """The distribution of the listed parties' outputs, in that order."""
        n = self.n_parties
        # in the C-order cube party j is axis n - 1 - j; keep parties[0] last
        keep = [n - 1 - j for j in reversed(parties)]
        rest = [axis for axis in range(n) if axis not in keep]
        cube = self.probs.reshape((2,) * n).transpose(keep + rest)
        return OutcomeDistribution(cube.reshape(1 << len(keep), -1).sum(axis=1))


# ---------------------------------------------------------------------------
# box families

def _check_epsilon(epsilon: float):
    """A GHZ box's noise weight must lie in [0, 1/2]; NaN fails too."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon {epsilon} outside [0, 1/2]")


def _check_finite(pairs: Sequence[tuple[float, float]]):
    if set(map(len, pairs)) != {2}:
        j = next(j for j, pair in enumerate(pairs) if len(pair) != 2)
        raise ValueError(f"party {j} has {len(pairs[j])} angles, not a pair")
    # the exact phase sum scales every angle to an integer
    angles = np.fromiter(itertools.chain.from_iterable(pairs), float)
    finite = np.isfinite(angles)
    if not finite.all():
        raise ValueError(f"angle {angles[finite.argmin()]} is not finite")


@dataclass(frozen=True)
class GhzBox:
    """N parties sharing a GHZ state mixed with white noise of weight 2*epsilon.

    Per-party equatorial angle pairs (for input 0 / input 1); epsilon in
    [0, 1/2], with 1/2 erasing all correlations.
    """

    angles: tuple[tuple[float, float], ...]
    epsilon: float = 0.0

    def __post_init__(self):
        if len(self.angles) < 1:
            raise ValueError("GhzBox needs at least one party")
        _check_epsilon(self.epsilon)
        _check_finite(self.angles)

    @property
    def n_parties(self) -> int:
        return len(self.angles)


Weight = Union[float, Fraction]


@dataclass(frozen=True)
class NoncontextualBox:
    """Convex mixture of deterministic local responses.

    Each mixture entry is (weight, responses) where responses fixes, per
    party, the pair (slope, intercept) of the affine map
    output = slope*input xor intercept.
    """

    mixture: tuple[tuple[Weight, tuple[tuple[int, int], ...]], ...]

    def __post_init__(self):
        if not self.mixture:
            raise ValueError("empty mixture")
        n = len(self.mixture[0][1])
        total = Fraction(0)
        for weight, responses in self.mixture:
            if len(responses) != n:
                raise ValueError("inconsistent party counts in mixture")
            w = Fraction(weight)
            if w < 0:
                raise ValueError("negative mixture weight")
            total += w
            for slope, intercept in responses:
                if slope not in (0, 1) or intercept not in (0, 1):
                    raise ValueError("responses must be affine over single bits")
        if abs(float(total) - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"mixture weights sum to {float(total)}, not 1")

    @property
    def n_parties(self) -> int:
        return len(self.mixture[0][1])


CorrelationBox = Union[GhzBox, NoncontextualBox]


def chsh_and_box() -> GhzBox:
    """Bell pair whose output parity matches AND of the inputs on 85.36% of runs.

    The two-party GHZ box with equatorial input-0/input-1 angles 0 and pi/2
    for the first party and -pi/4 and +pi/4 for the second, so the summed
    angle is pi/4 away from a AND b times pi on every input and all four
    inputs succeed with the same probability cos^2(pi/8).
    """
    return GhzBox(angles=((0.0, math.pi / 2), (-math.pi / 4, math.pi / 4)))


def noncontextual_and_box() -> NoncontextualBox:
    """Uniform mixture of four local responses whose parity is a 1/4-noisy AND.

    The four global behaviours realize the affine functions 0, a, b and
    a xor b xor 1 as the parity of the two outputs.
    """
    q = Fraction(1, 4)
    return NoncontextualBox(
        mixture=(
            (q, ((0, 0), (0, 0))),  # parity 0
            (q, ((1, 0), (0, 0))),  # parity a
            (q, ((0, 0), (1, 0))),  # parity b
            (q, ((1, 1), (1, 0))),  # parity a xor b xor 1
        )
    )


# ---------------------------------------------------------------------------
# closed-form distributions

def _check_forms(forms: Iterable[int], parties: int, n: int) -> np.ndarray:
    """The input forms as int64, one per party, checked.

    Party j reads the affine form parity(T_j & x) xor c_j at the n-bit input
    x, passed packed as the int 2 T_j + c_j; at n = 0 the forms are plain
    input bits. A count other than one per party, a form that is not an
    integer, or a mask T_j with bits at or above n raises ValueError.
    """
    forms = np.asarray(list(forms))
    if forms.shape != (parties,):
        raise ValueError(f"{forms.size} input forms for {parties} parties")
    if forms.size and forms.dtype.kind not in "biu":
        raise ValueError(f"input forms {forms.tolist()} are not integers")
    forms = forms.astype(np.int64)
    bad = (forms < 0) | (forms >> (n + 1) != 0)
    if bad.any():
        raise ValueError(f"input form {forms[bad.argmax()]} is not an affine form on {n} bits")
    return forms


def _form_bits(forms: np.ndarray, n: int) -> np.ndarray:
    """Party j's input bit at every n-bit input x, as a (2^n, parties) array."""
    x = np.arange(1 << n)[:, None]
    return index_parity(n)[x & (forms >> 1)] ^ (forms & 1)


def parity_probability(box: GhzBox, forms: Iterable[int], n: int) -> np.ndarray:
    """P(xor of all outputs = 1) = (1 - 2 eps)(1 - cos phi)/2 + eps at every n-bit input x.

    Party j reads the form 2 T_j + c_j (see ``_check_forms``), and the
    result has one probability per x. phi(x) sums the chosen angles. A
    non-contextual box has no closed form here: use ``outcome_table``.
    The noise-free gap 1 - cos phi comes from ``_phase_gap`` and is mixed
    with the noise by ``_noise_mix``.
    """
    if not isinstance(box, GhzBox):
        raise TypeError(f"not a GHZ box: {box!r}")
    return _noise_mix(_phase_gap(box, forms, n), box.epsilon)


def _phase_gap(box: GhzBox, forms: Iterable[int], n: int) -> np.ndarray:
    """1 - cos phi(x) at every n-bit input x, party j reading the form
    2 T_j + c_j; the box's noise weight is not read.

    The sum phi(x) is exact: every angle a is an integer A = a D over one
    power-of-two denominator D, so 2 D phi(x) = sum_j (A0_j + A1_j) - W(g)(x),
    with W the Walsh transform of g[T] = sum over parties j with T_j = T of
    (-1)^c_j (A1_j - A0_j), and phi(x) is that integer rounded once. So phi(x)
    is the correctly rounded sum that math.fsum gives, bit for bit, whatever
    the party order. When the nonzero angles' exponents span at most
    LIMB_BITS, each A splits into two int64 limbs A = hi 2^32 + lo, one
    transform runs per limb, and the integer is rounded by one float addition
    of the two exact limb results; this needs each limb's sum of magnitudes
    below LIMB_SUM_CAP, which keeps every partial sum exact in int64 and
    every limb result exact in a float. Otherwise the transform runs on
    Python ints and one integer division per x rounds it. Angles must be
    finite, which the boxes check when they are built.
    """
    angles = box.angles
    forms = _check_forms(forms, len(angles), n)
    # fromiter over the flat pairs: about half the time of asarray on the tuples
    flat = np.fromiter(itertools.chain.from_iterable(angles), np.float64, 2 * len(angles))
    # an angle is m 2^(e - 53) with m an integer, |m| < 2^53, so with
    # low <= every nonzero angle's e and low <= 53 each A = a D, D = 2^(53 - low),
    # is the integer m 2^shift; a zero has m = 0 and needs no shift
    mantissa, exponent = np.frexp(flat.reshape(-1, 2))
    whole = np.ldexp(mantissa, 53).astype(np.int64)
    nonzero = whole != 0
    low = int(exponent.min(initial=53, where=nonzero))
    shift = np.where(nonzero, exponent - low, 0).astype(np.int64)
    phi = None
    if shift.max(initial=0) <= LIMB_BITS:
        cut = LIMB_BITS - shift
        hi = whole >> cut
        lo = (whole & ((1 << cut) - 1)) << shift
        # float sums: an int64 sum of up to 2^53 per angle could wrap
        if max(np.abs(hi).sum(dtype=np.float64), lo.sum(dtype=np.float64)) < LIMB_SUM_CAP:
            twice_hi, twice_lo = (_twice_phase(limb, forms, n) for limb in (hi, lo))
            # exact limb results, one rounding in the addition, an exact scale
            twice = np.ldexp(twice_hi.astype(np.float64), LIMB_BITS) + twice_lo
            phi = np.ldexp(twice, low - 54)
    if phi is None:
        scaled = whole.astype(object) << shift.astype(object)
        phi = (_twice_phase(scaled, forms, n) / (1 << (54 - low))).astype(np.float64)
    return 1.0 - np.cos(phi)


def _noise_mix(gap: np.ndarray, epsilon: float) -> np.ndarray:
    """P(parity 1) = (1 - 2 eps) gap / 2 + eps of a box with noise weight
    epsilon, from its noise-free gap = 1 - cos phi(x)."""
    return (1.0 - 2.0 * epsilon) * gap / 2.0 + epsilon


def _twice_phase(scaled: np.ndarray, forms: np.ndarray, n: int) -> np.ndarray:
    """2 D phi(x) at every x from the integer angles A (one row per party),
    in their dtype: sum_j (A0_j + A1_j) - W(g)(x)."""
    diff = scaled[:, 1] - scaled[:, 0]
    spread = np.zeros(1 << n, dtype=scaled.dtype)
    np.add.at(spread, forms >> 1, np.where(forms & 1, -diff, diff))
    return scaled.sum() - walsh(spread)


def ghz_parity_probability(box: GhzBox, inputs: Sequence[int]) -> float:
    """Probability that the xor of all outputs is 1, for one input bit per party."""
    return float(parity_probability(box, inputs, 0)[0])


def outcome_table(box: CorrelationBox, forms: Iterable[int], n: int) -> np.ndarray:
    """P(outcome o | x) for every n-bit input x (rows) and packed outcome o (columns).

    Party j reads the form 2 T_j + c_j (see ``_check_forms``). GHZ outcomes
    are uniform within each parity class, so
    P(o | x) = 2^-N (1 + (1-2e)(-1)^(xor o) cos phi(x)); a non-contextual box
    puts each mixture weight on the outcome of its deterministic responses,
    added in mixture order. Every family has at most GHZ_ENUMERATION_CAP
    parties, checked before the 2^N columns are allocated.
    """
    if not isinstance(box, (GhzBox, NoncontextualBox)):
        raise TypeError(f"not a correlation box: {box!r}")
    k = box.n_parties
    if k > GHZ_ENUMERATION_CAP:
        raise ValueError(f"{k} parties above enumeration cap {GHZ_ENUMERATION_CAP}")
    if isinstance(box, NoncontextualBox):
        bits = _form_bits(_check_forms(forms, k, n), n)[:, None]  # (2^n, 1, k)
        entries = len(box.mixture)
        responses = np.array([r for _, r in box.mixture], dtype=np.int64).reshape(entries, k, 2)
        # bit j of the outcome of (x, entry) is slope_j & b_j(x) xor intercept_j
        outcomes = ((responses[..., 0] & bits) ^ responses[..., 1]) @ (1 << np.arange(k))
        table = np.zeros((1 << n, 1 << k))
        # np.add.at adds in index order: each cell sums its weights in mixture order
        weights = [float(w) for w, _ in box.mixture]
        np.add.at(table, (np.arange(1 << n)[:, None], outcomes), weights)
        return table
    p1, share = parity_probability(box, forms, n)[:, None], 1 << (k - 1)
    return np.where(index_parity(k), p1 / share, (1.0 - p1) / share)


def distribution(box: CorrelationBox, inputs: Sequence[int]) -> OutcomeDistribution:
    """The joint outcome distribution for one input bit per party.

    It is the n = 0 row of ``outcome_table``: the inputs are the plain bits.
    """
    return OutcomeDistribution(outcome_table(box, inputs, 0)[0])


# ---------------------------------------------------------------------------
# state-vector oracle

def _xy_basis(phi) -> np.ndarray:
    # rows are <v_o| for outcomes 0 (+1 eigenvalue) and 1 (-1 eigenvalue) of
    # cos(phi) X + sin(phi) Y; an array of angles gives a stack of 2x2 matrices
    s = np.full(np.shape(phi), 1.0 / math.sqrt(2.0))
    e = s * np.exp(-1j * np.asarray(phi, dtype=np.float64))
    return np.stack([s, e, s, -e], axis=-1).reshape(np.shape(phi) + (2, 2))


def _measure(bases: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Outcome probabilities of B measured GHZ states, as (B, 2^N).

    Party j of row b is measured in ``bases[j, rows[b, j]]``, a 2x2 matrix
    whose row o is <v_o|, and bit j of the outcome index is party j's
    outcome. The state (|0...0> + |1...1>)/sqrt(2) has two nonzero
    amplitudes, so by the Born rule outcome o has amplitude
    (prod_j <v_{o_j}|0> + prod_j <v_{o_j}|1>)/sqrt(2). Each product is built
    one party at a time as an outer product that puts party j on bit j:
    about 2 2^N complex multiplications per row, with the two (B, 2^N)
    products the largest arrays held.
    """
    b = len(rows)
    m = bases[np.arange(len(bases)), rows]  # m[b, j, o, i] = <v_o|i> of party j
    zeros, ones = m[:, 0, :, 0] / math.sqrt(2.0), m[:, 0, :, 1] / math.sqrt(2.0)
    for j in range(1, len(bases)):
        # party j's outcome goes on bit j, above the parties already measured
        zeros = (m[:, j, :, 0, None] * zeros[:, None]).reshape(b, -1)
        ones = (m[:, j, :, 1, None] * ones[:, None]).reshape(b, -1)
    zeros += ones
    probs = zeros.real ** 2
    probs += zeros.imag ** 2
    return probs


def _basis_pairs(box: CorrelationBox) -> np.ndarray:
    """Each party's equatorial bases for input 0 and 1, as (N, 2, 2, 2)."""
    if not isinstance(box, GhzBox):
        raise TypeError("oracle supports noiseless GhzBox only")
    if box.epsilon != 0.0:
        raise ValueError("state-vector oracle covers only epsilon = 0")
    if box.n_parties > STATEVECTOR_QUBIT_CAP:
        raise ValueError(f"{box.n_parties} qubits above oracle cap {STATEVECTOR_QUBIT_CAP}")
    return _xy_basis(np.array(box.angles))


def statevector_parity(box: GhzBox, forms: Iterable[int], n: int) -> np.ndarray:
    """P(xor of all outputs = 1) at every n-bit input x, party j reading form 2 T_j + c_j.

    Independent of the closed forms: every input's measured state gets all
    2^N outcome probabilities from the Born rule (see ``_measure``), and the
    odd outcomes are summed. Inputs go in chunks of
    2^(STATEVECTOR_QUBIT_CAP - N), so no chunk holds more than 2^16
    amplitudes. The forms are checked as in ``parity_probability``.
    """
    pairs = _basis_pairs(box)
    k = len(pairs)
    rows = _form_bits(_check_forms(forms, k, n), n)
    odd = index_parity(k).astype(np.float64)
    step = 1 << (STATEVECTOR_QUBIT_CAP - k)
    out = np.empty(len(rows))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        out[start:start + step] = _measure(pairs, chunk) @ odd
    return out


def statevector_oracle(box: CorrelationBox, inputs: Sequence[int]) -> OutcomeDistribution:
    """Independent verification path: the Born rule on the measured state.

    Supports noiseless GHZ boxes, the Bell pair among them; no closed forms
    are used anywhere on this path. It runs the kernel of
    ``statevector_parity`` on a batch of one, so it holds at most 2^16
    amplitudes; inputs that are not one bit per party raise ValueError.
    """
    pairs = _basis_pairs(box)
    row = _check_forms(inputs, len(pairs), 0)
    return OutcomeDistribution(_measure(pairs, row[None])[0])
