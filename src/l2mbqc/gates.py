"""Noisy-gate algebra: constructions, reliability thresholds, and fixed points.

A noisy gate is a target function plus a per-input probability of emitting
the negated output. Gates are built here from correlation resources (the
Bell-state AND, majority and XNAND from their single-AND decompositions,
majority gates from noisy GHZ programs) and analyzed against the restoring
threshold beta_k and the error recursion of wire-wise majority voting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import ghzc, mbqc
from .boolfn import BooleanFunction, kmaj_nonlinearity, make_named

EPSILON_CLASSIFICATION_TOL = 1e-12

RationalLike = Union[Fraction, int, str, float]

# largest odd k that min_k_for_violation scans and threshold_sweep tabulates
K_CAP = 10001


@dataclass(frozen=True)
class NoisyGate:
    """Target function plus per-input output-flip probabilities."""

    target: BooleanFunction
    errors: tuple[float, ...]

    def __post_init__(self):
        if len(self.errors) != 1 << self.target.arity:
            raise ValueError("one error entry per input required")
        if any(not 0.0 <= e <= 1.0 for e in self.errors):
            raise ValueError("error probabilities must be in [0, 1]")

    @property
    def k(self) -> int:
        return self.target.arity

    @property
    def epsilon(self) -> float | None:
        """Common error value when input-independent, else None."""
        if max(self.errors) - min(self.errors) <= EPSILON_CLASSIFICATION_TOL:
            return self.errors[0]
        return None


def uniform_noisy_gate(target: BooleanFunction, epsilon: float) -> NoisyGate:
    return NoisyGate(target, (float(epsilon),) * (1 << target.arity))


def perfect_gate(target: BooleanFunction) -> NoisyGate:
    return uniform_noisy_gate(target, 0.0)


def gate_from_report(target: BooleanFunction, report: mbqc.StrategyReport) -> NoisyGate:
    errors = [0.0] * (1 << target.arity)
    for x, p in report.success.items():
        errors[target.index_of(x)] = 1.0 - p
    return NoisyGate(target, tuple(errors))


# ---------------------------------------------------------------------------
# constructions from correlation resources

def chsh_and_gate() -> NoisyGate:
    """AND from the Bell-state protocol, evaluated exactly (never hardcoded)."""
    target = make_named("and")
    report = mbqc.run_exact(mbqc.chsh_and_program(), target)
    return gate_from_report(target, report)


def noncontextual_and_gate() -> NoisyGate:
    """The 1/4-noisy AND available without any contextuality."""
    target = make_named("and")
    report = mbqc.run_exact(mbqc.noncontextual_and_program(), target)
    return gate_from_report(target, report)


def _require_and(gate: NoisyGate):
    if gate.target != make_named("and"):
        raise ValueError("construction needs a gate targeting 2-bit AND")


def maj3_from_and(and_gate: NoisyGate) -> NoisyGate:
    """3-MAJ(a,b,c) = ((a xor b) AND (a xor c)) xor a, with perfect xors.

    The only noisy element is the AND, so the error at (a,b,c) is the AND
    gate's error at its actual input (a xor b, a xor c).
    """
    _require_and(and_gate)
    target = make_named("maj", 3)
    errors = []
    for i in range(8):
        a, b, c = i & 1, (i >> 1) & 1, (i >> 2) & 1
        errors.append(and_gate.errors[(a ^ b) | ((a ^ c) << 1)])
    return NoisyGate(target, tuple(errors))


def xnand_from_and(and_gate: NoisyGate) -> NoisyGate:
    """XNAND(a,b1,b2) = ((a xor b1) AND (a xor b1 xor b2)) xor a xor 1."""
    _require_and(and_gate)
    target = make_named("xnand")
    errors = []
    for i in range(8):
        a, b1, b2 = i & 1, (i >> 1) & 1, (i >> 2) & 1
        errors.append(and_gate.errors[(a ^ b1) | ((a ^ b1 ^ b2) << 1)])
    return NoisyGate(target, tuple(errors))


def gate_from_noisy_ghz(target: BooleanFunction, epsilon: float) -> NoisyGate:
    """Gate for any target from its compiled GHZ program on a noise-mixed state."""
    program = ghzc.compile_function(target)
    report = mbqc.run_exact(ghzc.run_as_l2program(program, epsilon), target)
    return gate_from_report(target, report)


def kmaj_from_noisy_ghz(k: int, epsilon: float) -> NoisyGate:
    """Majority gate from the compiled GHZ program on a noise-mixed state."""
    return gate_from_noisy_ghz(make_named("maj", k), epsilon)


# ---------------------------------------------------------------------------
# thresholds and the contextuality gap

@dataclass(frozen=True)
class Threshold:
    k: int
    beta: Fraction


def beta(k: int) -> Threshold:
    """Restoring threshold: 1/2 - 2^(k-2) / (k * C(k-1, (k-1)/2)), odd k >= 3."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"threshold needs odd k >= 3, got {k}")
    value = Fraction(1, 2) - Fraction(1 << (k - 2), k * math.comb(k - 1, (k - 1) // 2))
    return Threshold(k=k, beta=value)


def gap(k: int) -> Fraction:
    """nu(k-MAJ)/2^k - beta_k: the margin between the non-contextual error
    floor for majority and the error ceiling for restoration."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"gap needs odd k >= 3, got {k}")
    return Fraction(kmaj_nonlinearity(k), 1 << k) - beta(k).beta


@dataclass(frozen=True)
class ViolationWitness:
    """Smallest k whose gap is below a requested inequality violation."""

    k: int
    gap: Fraction
    epsilon: Fraction
    below_threshold: bool
    trivial: bool


def min_k_for_violation(delta: RationalLike) -> ViolationWitness:
    """Smallest odd k with gap(k) < delta, plus the witness gate error.

    The witness epsilon = nu(k-MAJ)/2^k - delta realizes an average error
    that undercuts the non-contextual bound by exactly delta while staying
    below the restoring threshold. Accepts exact rationals or decimal
    strings; floats are converted exactly.
    """
    d = Fraction(delta)
    if d <= 0:
        raise ValueError("violation delta must be positive")
    k = 3
    while gap(k) >= d:
        k += 2
        if k > K_CAP:
            raise ValueError(f"no k below cap {K_CAP} with gap under {d}")
    g = gap(k)
    eps = Fraction(kmaj_nonlinearity(k), 1 << k) - d
    trivial = eps <= 0
    if trivial:
        eps = Fraction(0)
    return ViolationWitness(
        k=k, gap=g, epsilon=eps, below_threshold=eps < beta(k).beta, trivial=trivial
    )


def threshold_sweep(kmax: int) -> list[dict]:
    """Rows (k, beta_k, nu/2^k, gap) in exact and float form for odd k <= kmax."""
    if kmax < 3:
        raise ValueError("kmax must be at least 3")
    if kmax > K_CAP:
        raise ValueError(f"kmax {kmax} above cap {K_CAP}")
    rows = []
    for k in range(3, kmax + 1, 2):
        b = beta(k).beta
        nu_frac = Fraction(kmaj_nonlinearity(k), 1 << k)
        rows.append(
            {
                "k": k,
                "beta": b,
                "nu_over_2k": nu_frac,
                "gap": nu_frac - b,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# majority error recursion

def majority_error(n: int, p: float) -> float:
    """P(majority vote over n independent p-flipped copies is wrong); ties
    count as wrong.

    This is P(X >= ceil(n/2)) for X ~ Bin(n, p). Above p = 1/2 it is one
    minus the mirrored tail of Bin(n, 1 - p), so the summed tail always has
    odds at most one and its terms fall from the first.
    """
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    half = (n + 1) // 2
    if p > 0.5:
        return 1.0 - _binomial_upper_tail(n, 1.0 - p, n - half + 1)
    return _binomial_upper_tail(n, p, half)


def _binomial_upper_tail(n: int, p: float, m: int) -> float:
    """P(X >= m) for X ~ Bin(n, p), with 0 < p <= 1/2 and m >= n/2.

    The first term comes from log space, since C(n, m) overflows a float
    from n ~ 1030; the rest follow by the pmf ratio until they fall below
    1e-17 of the first.
    """
    first = math.exp(
        math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
        + m * math.log(p) + (n - m) * math.log1p(-p)
    )
    odds = p / (1.0 - p)
    terms = [first]
    term = first
    for j in range(m, n):
        term *= (n - j) / (j + 1) * odds
        if term <= 1e-17 * first:
            break
        terms.append(term)
    return math.fsum(terms)


def restore_polynomial(gate: NoisyGate) -> np.ndarray:
    """Coefficients ``G[v, j]`` of one restore step of a k-input gate whose
    inputs read independent wires of one bundle of true value v.

    With each read wrong with probability p, the output wire is wrong with
    probability p' = sum_j G[v, j] p^j (1 - p)^(k - j): ``G[v, j]`` adds up,
    over the C(k, j) patterns that flip j of the inputs, the probability that
    the gate's output on the flipped input differs from its value on the
    true one. The 2^k patterns are enumerated once per v, for uniform and
    input-dependent errors alike, and each coefficient is one exact sum
    rounded once.
    """
    n = 1 << gate.k
    table = np.array(gate.target.table)
    errors = np.array(gate.errors)
    patterns = np.arange(n)
    weights = np.array([e.bit_count() for e in range(n)])
    coefficients = np.empty((2, gate.k + 1))
    for v in (0, 1):
        idx = patterns ^ (n - 1) * v
        wrong = table[idx] != table[(n - 1) * v]
        # a wrong output contributes 1 - e, a right one e
        signed = np.where(wrong, -errors[idx], errors[idx])
        for j in range(gate.k + 1):
            at = weights == j
            coefficients[v, j] = math.fsum([int(np.count_nonzero(wrong[at])), *signed[at].tolist()])
    return coefficients


#: |p - _ZERO_ONE| is (p, 1 - p)
_ZERO_ONE = np.array([0.0, 1.0])


def restore_error(coefficients: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p'_r = sum_j c_rj p_r^j (1 - p_r)^(k - j) for each coefficient row
    c_r of ``coefficients`` (shape (m, k + 1)) and read error p_r of ``p``
    (shape (m,)).

    Only IEEE multiplications and subtractions and exact sums are used, so
    the value is the same on every platform. The powers are running
    products and every term is nonnegative, so the terms' relative accuracy
    carries over to p' on all of [0, 1]. Each row's terms are added exactly
    and rounded once (``math.fsum``): a row's value depends on nothing but
    its own terms.
    """
    m, k = len(p), coefficients.shape[1] - 1
    powers = np.empty((m, 2, k + 1))  # each row's powers of p, then of 1 - p
    powers[:, :, 0] = 1.0
    powers[:, :, 1:] = np.abs(p[:, None] - _ZERO_ONE)[:, :, None]
    np.multiply.accumulate(powers, axis=-1, out=powers)
    terms = coefficients * powers[:, 0] * powers[:, 1, ::-1]
    return np.fromiter(map(math.fsum, terms.tolist()), float, m)


def maj_error_recursion(k: int, epsilon: float, p: float) -> float:
    """One restoring step: p' = eps + (1 - 2 eps) P[majority of k wrong]."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"majority needs odd k, got {k}")
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon {epsilon} outside [0, 1/2]")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p {p} outside [0, 1]")
    return epsilon + (1.0 - 2.0 * epsilon) * majority_error(k, p)


def recursion_derivative(k: int, epsilon: float, p: float) -> float:
    """d p'/d p = (1 - 2 eps) k C(k-1,h) (p(1-p))^h with h = (k-1)/2.

    Written as C(k-1,h)/4^h times (4p(1-p))^h: the first factor is an exact
    integer ratio and neither exceeds 1, so nothing overflows.
    """
    maj_error_recursion(k, epsilon, 0.0)  # validates k and epsilon
    half = (k - 1) // 2
    return (
        (1.0 - 2.0 * epsilon)
        * k
        * (math.comb(k - 1, half) / 4**half)
        * (4.0 * p * (1.0 - p)) ** half
    )


@dataclass(frozen=True)
class RecursionAnalysis:
    """Fixed points of the restoring recursion on [0, 1/2]."""

    k: int
    epsilon: float
    fixed_points: tuple[float, ...]
    eta: float | None


def _bisect(fn, lo: float, hi: float) -> float:
    """Boundary, to 1e-15, between fn >= 0 at lo and fn < 0 at hi."""
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if fn(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def analyze_recursion(k: int, epsilon: float) -> RecursionAnalysis:
    """Fixed points of the restoring recursion on [0, 1/2], from its shape.

    The slope of p' grows on [0, 1/2], so p' - p is convex there; it is
    epsilon >= 0 at p = 0 and zero at p = 1/2. When the slope at 1/2 exceeds
    1 (epsilon < beta_k) there is exactly one fixed point below 1/2, eta,
    and it lies left of the point where the slope equals 1: one bisection
    finds that point and a second finds eta. Otherwise 1/2 is the only
    fixed point on [0, 1/2].
    """
    maj_error_recursion(k, epsilon, 0.0)  # validates k and epsilon
    eta = None
    if recursion_derivative(k, epsilon, 0.5) > 1.0:
        knee = _bisect(lambda p: 1.0 - recursion_derivative(k, epsilon, p), 0.0, 0.5)
        eta = _bisect(lambda p: maj_error_recursion(k, epsilon, p) - p, 0.0, knee)
    return RecursionAnalysis(
        k=k,
        epsilon=epsilon,
        fixed_points=(0.5,) if eta is None else (eta, 0.5),
        eta=eta,
    )


def eta_by_iteration(k: int, epsilon: float) -> float:
    """Fixed-point iteration of the recursion from p = 1/4, as an independent
    route to eta: at most 100000 steps, stopping once a step moves p by less
    than 1e-14."""
    p = 0.25
    for _ in range(100000):
        nxt = maj_error_recursion(k, epsilon, p)
        if abs(nxt - p) < 1e-14:
            return nxt
        p = nxt
    raise RuntimeError("fixed-point iteration did not converge")
