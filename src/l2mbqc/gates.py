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

from . import ghzc, mbqc
from .boolfn import BooleanFunction, kmaj_nonlinearity, make_named

EPSILON_CLASSIFICATION_TOL = 1e-12

RationalLike = Union[Fraction, int, str, float]

# largest odd k that min_k_for_violation scans and threshold_sweep tabulates
K_CAP = 10001

# grid points on [0, 1/2] that analyze_recursion scans for sign changes
_FIXED_POINT_GRID = 4096


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

    def error(self, x_idx: int) -> float:
        return self.errors[x_idx]

    @property
    def epsilon(self) -> float | None:
        """Common error value when input-independent, else None."""
        if max(self.errors) - min(self.errors) <= EPSILON_CLASSIFICATION_TOL:
            return self.errors[0]
        return None

    @property
    def is_epsilon_noisy(self) -> bool:
        return self.epsilon is not None


def uniform_noisy_gate(target: BooleanFunction, epsilon: float) -> NoisyGate:
    return NoisyGate(target, (float(epsilon),) * (1 << target.arity))


def perfect_gate(target: BooleanFunction) -> NoisyGate:
    return uniform_noisy_gate(target, 0.0)


def gate_from_report(target: BooleanFunction, report: mbqc.StrategyReport) -> NoisyGate:
    errors = [0.0] * (1 << target.arity)
    for x, p in report.success.items():
        errors[sum(b << j for j, b in enumerate(x))] = 1.0 - p
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
        errors.append(and_gate.error((a ^ b) | ((a ^ c) << 1)))
    return NoisyGate(target, tuple(errors))


def xnand_from_and(and_gate: NoisyGate) -> NoisyGate:
    """XNAND(a,b1,b2) = ((a xor b1) AND (a xor b1 xor b2)) xor a xor 1."""
    _require_and(and_gate)
    target = make_named("xnand")
    errors = []
    for i in range(8):
        a, b1, b2 = i & 1, (i >> 1) & 1, (i >> 2) & 1
        errors.append(and_gate.error((a ^ b1) | ((a ^ b1 ^ b2) << 1)))
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

def majority_flip_probability(k: int, p: float) -> float:
    """Probability that the majority of k independent p-flipped copies is wrong."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"majority needs odd k, got {k}")
    return math.fsum(
        math.comb(k, j) * p**j * (1.0 - p) ** (k - j)
        for j in range(k // 2 + 1, k + 1)
    )


def maj_error_recursion(k: int, epsilon: float, p: float) -> float:
    """One restoring step: p' = eps + (1 - 2 eps) P[majority of k wrong]."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon {epsilon} outside [0, 1/2]")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p {p} outside [0, 1]")
    return epsilon + (1.0 - 2.0 * epsilon) * majority_flip_probability(k, p)


def recursion_derivative(k: int, epsilon: float, p: float) -> float:
    """d p'/d p = (1 - 2 eps) k C(k-1,(k-1)/2) (p(1-p))^((k-1)/2)."""
    half = (k - 1) // 2
    return (
        (1.0 - 2.0 * epsilon)
        * k
        * math.comb(k - 1, half)
        * (p * (1.0 - p)) ** half
    )


@dataclass(frozen=True)
class RecursionAnalysis:
    """Fixed points of the restoring recursion on [0, 1/2]."""

    k: int
    epsilon: float
    fixed_points: tuple[float, ...]
    eta: float | None


def _bisect_fixed_point(k: int, epsilon: float, lo: float, hi: float) -> float:
    f_lo = maj_error_recursion(k, epsilon, lo) - lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = maj_error_recursion(k, epsilon, mid) - mid
        if f_mid == 0.0 or hi - lo < 1e-15:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def analyze_recursion(k: int, epsilon: float) -> RecursionAnalysis:
    """Locate fixed points on [0, 1/2] by sign-change bisection.

    p = 1/2 is always fixed; the smallest attracting fixed point below it is
    reported as eta when the recursion is restoring (epsilon < beta_k).
    """
    points = []
    prev_p = 0.0
    prev_h = maj_error_recursion(k, epsilon, 0.0) - 0.0
    if prev_h == 0.0:
        points.append(0.0)
    for i in range(1, _FIXED_POINT_GRID + 1):
        p = 0.5 * i / _FIXED_POINT_GRID
        h = maj_error_recursion(k, epsilon, p) - p
        if h == 0.0:
            points.append(p)
        elif (prev_h < 0) != (h < 0):
            points.append(_bisect_fixed_point(k, epsilon, prev_p, p))
        prev_p, prev_h = p, h
    if not points or abs(points[-1] - 0.5) > 1e-9:
        points.append(0.5)
    # dedupe near-identical roots
    unique: list[float] = []
    for p in points:
        if not unique or p - unique[-1] > 1e-9:
            unique.append(p)
    eta = None
    for p in unique:
        if p < 0.5 - 1e-9 and abs(recursion_derivative(k, epsilon, p)) < 1.0:
            eta = p
            break
    return RecursionAnalysis(
        k=k,
        epsilon=epsilon,
        fixed_points=tuple(unique),
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
