"""Correlation resources with one-bit inputs and outputs per party.

Three box families: two-qubit Bell-state boxes measured in the XZ plane,
N-party GHZ boxes measured on the equator (optionally mixed with white
noise), and non-contextual mixtures of deterministic local responses.
Closed-form distributions are cross-checkable against a dense state-vector
oracle that never uses the closed forms.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

PROBABILITY_TOL = 1e-12
GHZ_ENUMERATION_CAP = 20
STATEVECTOR_QUBIT_CAP = 16


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over output bit-strings, validated to sum to one."""

    probs: dict[tuple[int, ...], float]

    def __post_init__(self):
        total = 0.0
        for outcome, p in self.probs.items():
            if p < -PROBABILITY_TOL:
                raise ValueError(f"negative probability {p} at {outcome}")
            total += p
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def __getitem__(self, outcome: tuple[int, ...]) -> float:
        return self.probs.get(outcome, 0.0)

    def parity_probability(self, value: int = 1) -> float:
        """Probability that the xor of all output bits equals ``value``."""
        total = sum(
            p for outcome, p in self.probs.items()
            if (sum(outcome) & 1) == value
        )
        return total

    def marginal(self, parties: Sequence[int]) -> "OutcomeDistribution":
        out: dict[tuple[int, ...], float] = {}
        for outcome, p in self.probs.items():
            key = tuple(outcome[i] for i in parties)
            out[key] = out.get(key, 0.0) + p
        return OutcomeDistribution(out)


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


def _parity_classes(n_parties: int, p1: float) -> OutcomeDistribution:
    """Outcomes uniform within each parity class, odd parity with mass p1."""
    share, p1 = 1 << (n_parties - 1), float(p1)
    mass = ((1.0 - p1) / share, p1 / share)
    return OutcomeDistribution({
        outcome: mass[sum(outcome) & 1]
        for outcome in itertools.product((0, 1), repeat=n_parties)
    })


def bipartite_distribution(box: BipartiteBox, inputs: Sequence[int]) -> OutcomeDistribution:
    """Joint outcome distribution P(o1, o2) = (1 + (-1)^(o1^o2) cos(a-b))/4."""
    return _parity_classes(2, _parity_one(box, inputs))


def ghz_parity_probability(box: GhzBox, inputs: Sequence[int]) -> float:
    """Probability that the xor of all outputs is 1, for the chosen angles."""
    return _parity_one(box, inputs)


def ghz_full_distribution(box: GhzBox, inputs: Sequence[int]) -> OutcomeDistribution:
    """Full joint distribution 2^-N (1 + (1-2e)(-1)^(xor o) cos(sum phi))."""
    n = box.n_parties
    if n > GHZ_ENUMERATION_CAP:
        raise ValueError(f"{n} parties above enumeration cap {GHZ_ENUMERATION_CAP}")
    return _parity_classes(n, _parity_one(box, inputs))


def noncontextual_distribution(box: NoncontextualBox, inputs: Sequence[int]) -> OutcomeDistribution:
    if len(inputs) != box.n_parties:
        raise ValueError("one input bit per party required")
    probs: dict[tuple[int, ...], float] = {}
    for weight, responses in box.mixture:
        outcome = tuple(
            (slope * b) ^ intercept
            for (slope, intercept), b in zip(responses, inputs)
        )
        probs[outcome] = probs.get(outcome, 0.0) + float(weight)
    return OutcomeDistribution(probs)


def distribution(box: CorrelationBox, inputs: Sequence[int]) -> OutcomeDistribution:
    if isinstance(box, BipartiteBox):
        return bipartite_distribution(box, inputs)
    if isinstance(box, GhzBox):
        return ghz_full_distribution(box, inputs)
    if isinstance(box, NoncontextualBox):
        return noncontextual_distribution(box, inputs)
    raise TypeError(f"not a correlation box: {box!r}")


def parity_probability(box: CorrelationBox, inputs: Iterable) -> float | np.ndarray:
    """P(xor of all outputs = 1) without enumerating outcome strings.

    Bell and GHZ boxes also take one bit array per party, read one party at a
    time, and return one probability per array position.
    """
    if isinstance(box, (BipartiteBox, GhzBox)):
        return _parity_one(box, inputs)
    if isinstance(box, NoncontextualBox):
        return noncontextual_distribution(box, inputs).parity_probability(1)
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
    n = len(bases)
    for axis, basis in enumerate(bases):
        amps = np.moveaxis(np.tensordot(basis, amps, axes=([1], [axis])), 0, axis)
    probs = np.abs(amps) ** 2
    # product() walks the outcomes in the same C order as ravel()
    return OutcomeDistribution(
        dict(zip(itertools.product((0, 1), repeat=n), probs.ravel().tolist()))
    )


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
