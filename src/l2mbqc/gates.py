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
from typing import Sequence, Union

import numpy as np

from . import ghzc, mbqc
from .boolfn import BooleanFunction, input_keys, kmaj_nonlinearity, make_named

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
    """The gate whose error at each input is the report's failure there, in
    table order."""
    if report.n != target.arity:
        raise ValueError(f"report on {report.n} bits for a {target.arity}-bit target")
    success = report.success
    return NoisyGate(target, tuple(1.0 - success[x] for x in input_keys(target.arity)))


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

    The first term comes through lgamma, whose absolute error grows with n,
    so the relative error grows with n too: against the exact tail at
    p = 0.4375 and 0.490234375 it is 4.4e-13 and 5.2e-13 at n = 1031, and
    1.4e-12 and 1.6e-12 at n = 4097.
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


def error_polynomial(gate: NoisyGate, sources: Sequence[Sequence[int]], x) -> np.ndarray:
    """Coefficients ``G[j_1, ..., j_m]`` of the output-wire error of a gate
    at true input index ``x`` (or each of an array of them, in front).

    ``sources`` lists the m distinct source bundles, each as one gate-input
    mask per wire; a wrong wire flips every gate input in its mask. With
    each of source i's c_i wires wrong independently with probability p_i,
    the output is wrong with probability sum_j G[j] prod_i p_i^j_i
    (1 - p_i)^(c_i - j_i) (``polynomial_error``): ``G[j]`` adds up, over the
    wire patterns with j_i wrong wires in each source i, the probability
    that the output on the flipped input differs from the one at x, as one
    exact sum rounded once. A k-input restore's ``sources`` are
    ``((1, 2, ..., 2^(k-1)),)``: k wires of one bundle.
    """
    dims = tuple(len(masks) + 1 for masks in sources)
    patterns = np.arange(1 << sum(dims) - len(dims))  # bit w set: wire w is wrong
    flips = cells = w = 0
    for masks, dim in zip(sources, dims):
        count = 0  # the source's wrong wires in each pattern
        for mask in masks:
            on = patterns >> w & 1
            flips, count, w = flips ^ on * mask, count + on, w + 1
        cells = cells * dim + count  # each pattern's coefficient, in C order
    order = np.argsort(cells, kind="stable")  # each coefficient's patterns, one slice
    ends = np.cumsum(np.bincount(cells, minlength=math.prod(dims))).tolist()
    cuts = list(zip([0, *ends[:-1]], ends))
    table, errors, x = np.array(gate.target.table), np.array(gate.errors), np.asarray(x)
    idx = (x[..., None] ^ flips[order]).reshape(-1, len(order))
    wrong = table[idx] != table[x].reshape(-1, 1)
    # a wrong output contributes 1 - e, a right one e
    signed = np.where(wrong, -errors[idx], errors[idx]).tolist()
    sums = [[math.fsum([sum(bad[a:b]), *e[a:b]]) for a, b in cuts] for bad, e in zip(wrong.tolist(), signed)]
    return np.reshape(sums, x.shape + dims)


#: |p - _ZERO_ONE| is (p, 1 - p)
_ZERO_ONE = np.array([0.0, 1.0])


def polynomial_error(coefficients: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Each row r's error polynomial (``error_polynomial``) with coefficients
    ``coefficients[r]`` at the read errors ``ps[r]``, one per source.

    Only IEEE multiplications and subtractions and exact sums are used, so
    the value is the same on every platform. The powers are running
    products, one row per source, and every term is nonnegative, so the
    terms' relative accuracy carries over to p' on all of [0, 1]. Each row's
    terms are added exactly and rounded once (``math.fsum``).
    """
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
