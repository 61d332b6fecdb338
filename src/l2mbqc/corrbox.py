"""Correlation resources with one-bit inputs and outputs per party.

Three box families: two-qubit Bell-state boxes measured in the XZ plane,
N-party GHZ boxes measured on the equator (optionally mixed with white
noise), and non-contextual mixtures of deterministic local responses.
Closed-form distributions are cross-checkable against a dense state-vector
oracle that never uses the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .boolfn import index_parity, walsh

PROBABILITY_TOL = 1e-12
GHZ_ENUMERATION_CAP = 20
STATEVECTOR_QUBIT_CAP = 16


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
        if len(outcome) != self.n_parties or any(b not in (0, 1) for b in outcome):
            raise ValueError(f"outcome {outcome} is not one bit per party")
        return float(self.probs[sum(b << j for j, b in enumerate(outcome))])

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

def _check_finite(pairs: Iterable[tuple[float, float]]):
    # the exact phase sum scales every angle to an integer
    for pair in pairs:
        for angle in pair:
            if not math.isfinite(angle):
                raise ValueError(f"angle {angle} is not finite")


@dataclass(frozen=True)
class BipartiteBox:
    """Two parties sharing (|00> + |11>)/sqrt(2), measured in the XZ plane.

    Each party holds a pair of angles (for input 0 / input 1), measured
    from the Z axis. Outcome +1 of the chosen direction codes for bit 0.
    """

    alice: tuple[float, float]
    bob: tuple[float, float]

    def __post_init__(self):
        _check_finite((self.alice, self.bob))

    @property
    def n_parties(self) -> int:
        return 2


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
        if not 0.0 <= self.epsilon <= 0.5:
            raise ValueError(f"epsilon {self.epsilon} outside [0, 1/2]")
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


CorrelationBox = Union[BipartiteBox, GhzBox, NoncontextualBox]


def chsh_and_box() -> BipartiteBox:
    """Bell box whose output parity matches AND of the inputs on 85.36% of runs.

    Input-0/input-1 directions: Z and X for the first party; for the second,
    +pi/4 and -pi/4 from Z. The sign choice on the second party's input-1
    direction labels the (X-Z)/sqrt(2) eigenvectors so that every one of the
    four inputs succeeds with the same probability cos^2(pi/8).
    """
    return BipartiteBox(alice=(0.0, math.pi / 2), bob=(math.pi / 4, -math.pi / 4))


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

def _parity_one(box: BipartiteBox | GhzBox, forms: Iterable[int], n: int) -> np.ndarray:
    """P(xor of all outputs = 1) = (1 - 2 eps)(1 - cos phi)/2 + eps, for all x.

    Party j's input bit at the n-bit input x is the affine form
    parity(T_j & x) xor c_j, passed packed as the int 2 T_j + c_j; one form
    per party (a ValueError otherwise), and the result has one probability
    per x. At n = 0 the forms are the plain input bits. phi(x) sums the
    chosen angles; a Bell box is a two-party GHZ box with the second
    party's angles negated and eps = 0.

    The sum is exact: every angle a is an integer A = a D over one
    power-of-two denominator D, so 2 D phi(x) = sum_j (A0_j + A1_j) - W(g)(x),
    with W the Walsh transform of the Python ints
    g[T] = sum over parties j with T_j = T of (-1)^c_j (A1_j - A0_j), and one
    integer division per x rounds it. So phi(x) is the correctly rounded sum
    that math.fsum gives, bit for bit, whatever the party order. Angles must
    be finite, which the boxes check when they are built.
    """
    if isinstance(box, BipartiteBox):
        angles, epsilon = (box.alice, (-box.bob[0], -box.bob[1])), 0.0
    else:
        angles, epsilon = box.angles, box.epsilon
    forms = np.asarray(list(forms))
    if forms.shape != (len(angles),):
        raise ValueError(f"{forms.size} input forms for {len(angles)} parties")
    if forms.dtype.kind not in "biu":
        raise ValueError(f"input forms {forms.tolist()} are not integers")
    forms = forms.astype(np.int64)
    bad = (forms < 0) | (forms >> (n + 1) != 0)
    if bad.any():
        raise ValueError(f"input form {forms[bad.argmax()]} is not an affine form on {n} bits")
    # an angle is m 2^(e - 53) with m an integer, |m| < 2^53, so with
    # low <= every e and low <= 53 each A = a D, D = 2^(53 - low), is an integer
    mantissa, exponent = np.frexp(np.asarray(angles, dtype=np.float64))
    low = min(int(exponent.min()), 53)
    denom = 1 << (53 - low)
    whole = np.ldexp(mantissa, 53).astype(np.int64).astype(object)
    scaled = whole << (exponent - low).astype(object)  # A, one row per party
    total = scaled.sum()
    diff = scaled[:, 1] - scaled[:, 0]
    spread = np.zeros(1 << n, dtype=object)
    np.add.at(spread, forms >> 1, np.where(forms & 1, -diff, diff))
    phi = ((total - walsh(spread)) / (2 * denom)).astype(np.float64)
    visibility = 1.0 - 2.0 * epsilon
    return visibility * (1.0 - np.cos(phi)) / 2.0 + epsilon


def ghz_parity_probability(box: GhzBox, inputs: Sequence[int]) -> float:
    """Probability that the xor of all outputs is 1, for the chosen angles."""
    return float(_parity_one(box, inputs, 0)[0])


def distribution(box: CorrelationBox, inputs: Sequence[int]) -> OutcomeDistribution:
    """The joint outcome distribution for one input bit per party.

    Bell and GHZ outcomes are uniform within each parity class, so
    P(o) = 2^-N (1 + (1-2e)(-1)^(xor o) cos(sum phi)); a non-contextual box
    puts each mixture weight on the outcome of its deterministic responses.
    """
    if isinstance(box, NoncontextualBox):
        if len(inputs) != box.n_parties:
            raise ValueError("one input bit per party required")
        probs = np.zeros(1 << box.n_parties)
        for weight, responses in box.mixture:
            outcome = sum(
                ((slope * b) ^ intercept) << j
                for j, ((slope, intercept), b) in enumerate(zip(responses, inputs))
            )
            probs[outcome] += float(weight)
        return OutcomeDistribution(probs)
    if not isinstance(box, (BipartiteBox, GhzBox)):
        raise TypeError(f"not a correlation box: {box!r}")
    n = box.n_parties
    if n > GHZ_ENUMERATION_CAP:
        raise ValueError(f"{n} parties above enumeration cap {GHZ_ENUMERATION_CAP}")
    p1, share = float(_parity_one(box, inputs, 0)[0]), 1 << (n - 1)
    return OutcomeDistribution(
        np.where(index_parity(n), p1 / share, (1.0 - p1) / share)
    )


def parity_probability(box: BipartiteBox | GhzBox, forms: Iterable[int], n: int) -> np.ndarray:
    """P(xor of all outputs = 1) at every n-bit input x, without outcome strings.

    Party j reads the affine form parity(T_j & x) xor c_j, passed as the int
    2 T_j + c_j; a form whose mask T_j has bits at or above n raises
    ValueError (at n = 0, an input that is not a bit). The phase of every x
    comes from one exact Walsh transform, see ``_parity_one``. A
    non-contextual box has no closed form here: use ``distribution``.
    """
    if isinstance(box, (BipartiteBox, GhzBox)):
        return _parity_one(box, forms, n)
    raise TypeError(f"not a Bell or GHZ box: {box!r}")


# ---------------------------------------------------------------------------
# state-vector oracle

def _xz_basis(theta) -> np.ndarray:
    # rows are <v_o| for outcomes 0 (+1 eigenvalue) and 1 (-1 eigenvalue);
    # one 2x2 matrix per angle, so an array of angles gives a stack
    c, s = np.cos(np.divide(theta, 2.0)), np.sin(np.divide(theta, 2.0))
    return np.stack([c, s, -s, c], axis=-1).reshape(np.shape(theta) + (2, 2)).astype(complex)


def _xy_basis(phi) -> np.ndarray:
    s = np.full(np.shape(phi), 1.0 / math.sqrt(2.0))
    e = s * np.exp(-1j * np.asarray(phi, dtype=np.float64))
    return np.stack([s, e, s, -e], axis=-1).reshape(np.shape(phi) + (2, 2))


def _measure(amps: np.ndarray, bases: Sequence[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Outcome probabilities of B states measured party by party, as (B, 2^N).

    Row b of ``amps`` holds 2^N amplitudes, bit j of the index being party
    j's qubit; party j of row b is measured in ``bases[j][rows[b, j]]`` (a
    stack of 2x2 matrices whose rows are <v_o|). Each step applies the top
    qubit's basis with elementwise ufuncs and writes the result with that
    qubit moved to bit 0, so after N steps bit j is party j's outcome again.
    Two (B, 2^N) buffers and one half-size temporary are held.
    """
    b = len(rows)
    out = np.empty_like(amps)
    for j in reversed(range(len(bases))):
        m = bases[j][rows[:, j]][..., None]  # (B, 2, 2, 1)
        top = amps.reshape(b, 2, -1)  # party j is the top qubit
        low = out.reshape(b, -1, 2)  # party j is written as bit 0
        for o in (0, 1):
            np.multiply(m[:, o, 0], top[:, 0], out=low[:, :, o])
            low[:, :, o] += m[:, o, 1] * top[:, 1]
        amps, out = out, amps
    probs = np.abs(amps)
    probs *= probs
    return probs


def _project_all(state: np.ndarray, bases: list[np.ndarray]) -> OutcomeDistribution:
    # axis j is party j; reversed axes put party 0 in the least-significant bit
    amps = np.asarray(state, dtype=complex).transpose().reshape(1, -1)
    rows = np.zeros((1, state.ndim), dtype=np.intp)
    return OutcomeDistribution(_measure(amps, [basis[None] for basis in bases], rows)[0])


def _ghz_state(batch: int, n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits, once per row."""
    amps = np.zeros((batch, 1 << n), dtype=complex)
    amps[:, 0] = amps[:, -1] = 1.0 / math.sqrt(2.0)
    return amps


def _basis_pairs(box: CorrelationBox, rows) -> tuple[np.ndarray, np.ndarray]:
    """Each party's bases for input 0 and 1, (N, 2, 2, 2), and the checked (B, N) rows.

    The Bell box shares the two-qubit GHZ state, measured in the XZ plane.
    """
    if isinstance(box, BipartiteBox):
        pairs = _xz_basis(np.array((box.alice, box.bob)))
    elif isinstance(box, GhzBox):
        if box.epsilon != 0.0:
            raise ValueError("state-vector oracle covers only epsilon = 0")
        if box.n_parties > STATEVECTOR_QUBIT_CAP:
            raise ValueError(f"{box.n_parties} qubits above oracle cap {STATEVECTOR_QUBIT_CAP}")
        pairs = _xy_basis(np.array(box.angles))
    else:
        raise TypeError("oracle supports BipartiteBox and noiseless GhzBox only")
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != len(pairs):
        raise ValueError(f"input rows of shape {rows.shape} are not one bit per party")
    if rows.dtype.kind not in "biu":
        raise ValueError(f"input rows of dtype {rows.dtype} are not bits")
    bad = ((rows != 0) & (rows != 1)).any(axis=1)
    if bad.any():
        raise ValueError(f"input row {rows[bad.argmax()].tolist()} is not bits")
    return pairs, rows.astype(np.intp)


def statevector_parity(box: BipartiteBox | GhzBox, rows) -> np.ndarray:
    """P(xor of all outputs = 1) for each row of input bits, one bit per party.

    Independent of the closed forms: every row's measured state is simulated
    in one batched dense pass (see ``statevector_oracle``), in chunks of
    2^(STATEVECTOR_QUBIT_CAP - N) rows, so no chunk holds more than 2^16
    amplitudes. Rows that are not one bit per party raise ValueError.
    """
    pairs, rows = _basis_pairs(box, rows)
    n = len(pairs)
    odd = index_parity(n).astype(np.float64)
    step = 1 << (STATEVECTOR_QUBIT_CAP - n)
    out = np.empty(len(rows))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        out[start:start + step] = _measure(_ghz_state(len(chunk), n), pairs, chunk) @ odd
    return out


def statevector_oracle(box: CorrelationBox, inputs: Sequence[int]) -> OutcomeDistribution:
    """Independent verification path: dense simulation of the measured state.

    Supports the Bell-state box and noiseless GHZ boxes; no closed forms
    are used anywhere on this path. It is the batch of one of the dense pass
    that ``statevector_parity`` runs over many inputs, so it holds at most
    2^16 amplitudes; inputs that are not one bit per party raise ValueError.
    """
    pairs, (row,) = _basis_pairs(box, [inputs])
    n = len(pairs)
    # the GHZ state is symmetric under reversing its axes
    state = _ghz_state(1, n).reshape((2,) * n)
    return _project_all(state, [pair[b] for pair, b in zip(pairs, row)])
