"""Correlation resources with one-bit inputs and outputs per party.

Three box families: two-qubit Bell-state boxes measured in the XZ plane,
N-party GHZ boxes measured on the equator (optionally mixed with white
noise), and non-contextual mixtures of deterministic local responses.
Closed-form distributions are cross-checkable against a dense state-vector
oracle that never uses the closed forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .boolfn import index_parity

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
        if len(outcome) != self.n_parties:
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

@dataclass(frozen=True)
class BipartiteBox:
    """Two parties sharing (|00> + |11>)/sqrt(2), measured in the XZ plane.

    Each party holds a pair of angles (for input 0 / input 1), measured
    from the Z axis. Outcome +1 of the chosen direction codes for bit 0.
    """

    alice: tuple[float, float]
    bob: tuple[float, float]

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

def _parity_one(box: BipartiteBox | GhzBox, inputs: Iterable) -> float | np.ndarray:
    """P(xor of all outputs = 1) = (1 - 2 eps)(1 - cos phi)/2 + eps.

    ``inputs`` yields one bit per party (a ValueError otherwise), either all
    ints or all equal-length bit arrays, and the result broadcasts the same
    way; it is read once, one party at a time. phi sums the chosen angles; a
    Bell box is a two-party GHZ box with the second party's angles negated and
    eps = 0. The sum is compensated (two-sum), so phi is the correctly rounded
    sum that math.fsum gives, up to a double-double residual, whatever the
    party order.
    """
    if isinstance(box, BipartiteBox):
        angles, epsilon = (box.alice, (-box.bob[0], -box.bob[1])), 0.0
    else:
        angles, epsilon = box.angles, box.epsilon
    phi = err = 0.0
    for (a0, a1), b in zip(angles, inputs, strict=True):
        a = np.where(b, a1, a0)
        total = phi + a
        back = total - phi
        err = err + ((phi - (total - back)) + (a - back))
        phi = total
    visibility = 1.0 - 2.0 * epsilon
    return visibility * (1.0 - np.cos(phi + err)) / 2.0 + epsilon


def ghz_parity_probability(box: GhzBox, inputs: Sequence[int]) -> float:
    """Probability that the xor of all outputs is 1, for the chosen angles."""
    return _parity_one(box, inputs)


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
    p1, share = float(_parity_one(box, inputs)), 1 << (n - 1)
    return OutcomeDistribution(
        np.where(index_parity(n), p1 / share, (1.0 - p1) / share)
    )


def parity_probability(box: CorrelationBox, inputs: Iterable) -> float | np.ndarray:
    """P(xor of all outputs = 1) without enumerating outcome strings.

    Bell and GHZ boxes also take one bit array per party, read one party at a
    time, and return one probability per array position.
    """
    if isinstance(box, (BipartiteBox, GhzBox)):
        return _parity_one(box, inputs)
    if isinstance(box, NoncontextualBox):
        return distribution(box, inputs).parity_probability(1)
    raise TypeError(f"not a correlation box: {box!r}")


# ---------------------------------------------------------------------------
# state-vector oracle

def _xz_basis(theta: float) -> np.ndarray:
    # rows are <v_o| for outcomes 0 (+1 eigenvalue) and 1 (-1 eigenvalue)
    return np.array(
        [
            [math.cos(theta / 2), math.sin(theta / 2)],
            [-math.sin(theta / 2), math.cos(theta / 2)],
        ],
        dtype=complex,
    )


def _xy_basis(phi: float) -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    e = cmath.exp(-1j * phi)
    return np.array([[s, s * e], [s, -s * e]], dtype=complex)


def _project_all(state: np.ndarray, bases: list[np.ndarray]) -> OutcomeDistribution:
    amps = state
    for axis, basis in enumerate(bases):
        amps = np.moveaxis(np.tensordot(basis, amps, axes=([1], [axis])), 0, axis)
    # axis j is party j; reversed axes put party 0 in the least-significant bit
    return OutcomeDistribution((np.abs(amps) ** 2).transpose().ravel())


def statevector_oracle(box: CorrelationBox, inputs: Sequence[int]) -> OutcomeDistribution:
    """Independent verification path: dense simulation of the measured state.

    Supports the Bell-state box and noiseless GHZ boxes; no closed forms
    are used anywhere on this path.
    """
    if isinstance(box, BipartiteBox):
        state = np.zeros((2, 2), dtype=complex)
        state[0, 0] = state[1, 1] = 1.0 / math.sqrt(2.0)
        b0, b1 = inputs
        return _project_all(state, [_xz_basis(box.alice[b0]), _xz_basis(box.bob[b1])])
    if isinstance(box, GhzBox):
        if box.epsilon != 0.0:
            raise ValueError("state-vector oracle covers only epsilon = 0")
        n = box.n_parties
        if n > STATEVECTOR_QUBIT_CAP:
            raise ValueError(f"{n} qubits above oracle cap {STATEVECTOR_QUBIT_CAP}")
        state = np.zeros((2,) * n, dtype=complex)
        state[(0,) * n] = state[(1,) * n] = 1.0 / math.sqrt(2.0)
        bases = [
            _xy_basis(pair[b]) for pair, b in zip(box.angles, inputs, strict=True)
        ]
        return _project_all(state, bases)
    raise TypeError("oracle supports BipartiteBox and noiseless GhzBox only")
