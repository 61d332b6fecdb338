"""Noisy-gate algebra: constructions, reliability thresholds, and fixed points.

A noisy gate is a target function plus a per-input probability of emitting
the negated output. Resource gates are exact runs of box programs (the
Bell-state and non-contextual ANDs, any target from a noisy GHZ program),
whose constructions import ``corrbox``, ``mbqc`` and ``ghzc`` only when
called. The two AND gates and the noise-free half of each recent target's
compiled GHZ program are built once per process and shared as immutable
values; per epsilon only ``corrbox``'s noise mix runs, with the exact run's
IEEE operations.
Majority and XNAND are one noisy AND with mod-2 pre- and post-processing.
All are analyzed against the restoring threshold beta_k and the error
recursion of wire-wise majority voting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .boolfn import BooleanFunction, input_keys, kmaj_nonlinearity, make_named

EPSILON_CLASSIFICATION_TOL = 1e-12

RationalLike = Union[Fraction, int, str, float]

# largest odd k that min_k_for_violation scans
K_CAP = 10001
# largest odd k that threshold_sweep tabulates: the widest integer of the row
# at k = 7149 has 4301 digits, past Python's default int-to-string limit
SWEEP_K_CAP = 7147
# most float64 tail terms one chunk of majority_errors' pass computes, so
# its scratch is bounded before it is allocated, whatever the width and the
# number of classes
TAIL_TERMS = 1 << 15
# tail terms per row in majority_errors' pass; a row whose terms outlast it
# takes the scalar
PASS_TERMS = 64


@dataclass(frozen=True)
class NoisyGate:
    """Target function plus per-input output-flip probabilities."""

    target: BooleanFunction
    errors: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "errors", tuple(self.errors))  # a list too, as a hashable value
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


def gate_from_report(report: mbqc.StrategyReport) -> NoisyGate:
    """The gate for the report's target whose error at each input is the
    report's failure there, in table order."""
    target, success = report.target, report.success
    return NoisyGate(target, tuple(1.0 - success[x] for x in input_keys(target.arity)))


# ---------------------------------------------------------------------------
# constructions from correlation resources

@functools.lru_cache(maxsize=1)
def chsh_and_gate() -> NoisyGate:
    """AND from the Bell-state protocol, run exactly by ``mbqc`` (never hardcoded) once per process."""
    from . import mbqc
    return gate_from_report(mbqc.run_exact(mbqc.chsh_and_program(), make_named("and")))


@functools.lru_cache(maxsize=1)
def noncontextual_and_gate() -> NoisyGate:
    """The 1/4-noisy AND available without any contextuality, run by ``mbqc`` once per process."""
    from . import mbqc
    return gate_from_report(mbqc.run_exact(mbqc.noncontextual_and_program(), make_named("and")))


def _from_and(and_gate: NoisyGate, target: BooleanFunction, and_input) -> NoisyGate:
    """A 3-bit gate that is one AND with perfect mod-2 pre- and post-processing.

    The only noisy element is the AND, so the error at x is the AND gate's
    error at its actual input ``and_input(*x)``, a pair of bits.
    """
    if and_gate.target != make_named("and"):
        raise ValueError("construction needs a gate targeting 2-bit AND")
    pairs = (and_input(*x) for x in input_keys(3))
    return NoisyGate(target, tuple(and_gate.errors[u | v << 1] for u, v in pairs))


def maj3_from_and(and_gate: NoisyGate) -> NoisyGate:
    """3-MAJ(a,b,c) = ((a xor b) AND (a xor c)) xor a, with perfect xors."""
    return _from_and(and_gate, make_named("maj", 3), lambda a, b, c: (a ^ b, a ^ c))


def xnand_from_and(and_gate: NoisyGate) -> NoisyGate:
    """XNAND(a,b1,b2) = ((a xor b1) AND (a xor b1 xor b2)) xor a xor 1."""
    return _from_and(and_gate, make_named("xnand"), lambda a, b1, b2: (a ^ b1, a ^ b1 ^ b2))


@functools.lru_cache(maxsize=16)
def _noise_free(target: BooleanFunction) -> tuple[np.ndarray, np.ndarray] | None:
    """The noise-free half of the target's compiled GHZ program
    (``ghzc._noise_free_half``: each input's gap 1 - cos phi and whether its
    parity must be 1), shared by every epsilon; 16 recent targets are kept.
    None for a constant target, whose program has no qubit.
    """
    from . import ghzc
    half = ghzc._noise_free_half(ghzc.compile_function(target), target)
    for array in half or ():
        array.flags.writeable = False  # shared across calls
    return half


def gate_from_noisy_ghz(target: BooleanFunction, epsilon: float) -> NoisyGate:
    """Gate for any target from its compiled GHZ program (``ghzc``) on a noise-mixed state.

    Only ``corrbox``'s noise mix runs per epsilon, on the cached noise-free
    half (``_noise_free``), with the IEEE operations of ``mbqc.run_exact``
    on the program, so the errors equal that exact run's bit for bit.
    """
    from . import corrbox
    corrbox._check_epsilon(epsilon)
    half = _noise_free(target)
    if half is None:  # the constant program is right on every input
        return uniform_noisy_gate(target, 0.0)
    gap, want_one = half
    p1 = corrbox._noise_mix(gap, epsilon)
    # run_exact's success is p1 where the parity must be 1, else 1 - p1
    return NoisyGate(target, (1.0 - np.where(want_one, p1, 1.0 - p1)).tolist())


def kmaj_from_noisy_ghz(k: int, epsilon: float) -> NoisyGate:
    """Majority gate from the compiled GHZ program on a noise-mixed state."""
    return gate_from_noisy_ghz(make_named("maj", k), epsilon)


# ---------------------------------------------------------------------------
# thresholds and the contextuality gap

@dataclass(frozen=True)
class Threshold:
    beta: Fraction


def beta(k: int) -> Threshold:
    """Restoring threshold: 1/2 - 2^(k-2) / (k * C(k-1, (k-1)/2)), odd k >= 3."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"threshold needs odd k >= 3, got {k}")
    value = Fraction(1, 2) - Fraction(1 << (k - 2), k * math.comb(k - 1, (k - 1) // 2))
    return Threshold(beta=value)


def gap(k: int) -> Fraction:
    """nu(k-MAJ)/2^k - beta_k, odd k >= 3: the margin between the non-contextual
    error floor for majority and the error ceiling for restoration."""
    return Fraction(kmaj_nonlinearity(k), 1 << k) - beta(k).beta


@dataclass(frozen=True)
class ViolationWitness:
    """Smallest k whose gap is below a requested inequality violation."""

    k: int
    epsilon: Fraction

    @property
    def below_threshold(self) -> bool:
        return self.epsilon < beta(self.k).beta


def min_k_for_violation(delta: RationalLike) -> ViolationWitness:
    """Smallest odd k with gap(k) < delta, plus the witness gate error.

    The witness epsilon = nu(k-MAJ)/2^k - delta realizes an average error
    that undercuts the non-contextual bound by exactly delta while staying
    below the restoring threshold. Accepts exact rationals or decimal
    strings; floats are converted exactly.
    """
    try:
        d = Fraction(delta)
    except (OverflowError, ValueError):  # Fraction raises OverflowError on an infinite float
        raise ValueError(f"violation delta {delta!r} is not a finite rational") from None
    if d <= 0:
        raise ValueError("violation delta must be positive")
    k = 3
    while gap(k) >= d:
        k += 2
        if k > K_CAP:
            raise ValueError(f"no k below cap {K_CAP} with gap under {d}")
    return ViolationWitness(k, max(Fraction(kmaj_nonlinearity(k), 1 << k) - d, Fraction(0)))


def threshold_sweep(kmax: int) -> list[dict]:
    """Rows (k, beta_k, nu/2^k, gap) in exact and float form for odd k <= kmax."""
    if kmax < 3:
        raise ValueError("kmax must be at least 3")
    if kmax > SWEEP_K_CAP:
        raise ValueError(f"kmax {kmax} above cap {SWEEP_K_CAP}")
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
    odds at most one and its terms fall from the first. At odd n it is 1/2 at
    p = 1/2 by symmetry, at most 1/2 below and at least 1/2 above; the summed
    tail can miss each (by 5.9e-13 at n = 2187), so it is clamped to its side.

    The first term comes through lgamma, whose absolute error grows with n,
    so the relative error grows with n too: against the exact tail at
    p = 0.4375 and 0.490234375 it is 4.4e-13 and 5.2e-13 at n = 1031, and
    1.4e-12 and 1.6e-12 at n = 4097.
    """
    if p == 0.0:
        return 0.0
    if p == 1.0 or (p == 0.5 and n % 2):
        return float(p)
    half = (n + 1) // 2
    if p > 0.5:
        error = 1.0 - _binomial_upper_tail(n, 1.0 - p, n - half + 1)
        return max(error, 0.5) if n % 2 else error
    error = _binomial_upper_tail(n, p, half)
    return min(error, 0.5) if n % 2 else error


def majority_errors(n: int, ps) -> np.ndarray:
    """``majority_error(n, p)`` for every p in ``ps``, bit for bit, in one call.

    The bundle readout calls this once per report, on every output class's
    wire error. The restoring recursion, the one-p caller, keeps the scalar
    (``clopper_pearson_upper`` inverts ``_binomial_upper_tail`` directly).
    The scalar is also the reference this kernel is tested against, and it
    sums the rare tails that outlast ``_binomial_upper_tails``' pass.
    """
    ps = np.asarray(ps, dtype=float)
    upper, tails = ps > 0.5, ps + 0.0  # a copy, with -0.0 made 0.0 as the scalar returns it
    np.subtract(1.0, ps, out=tails, where=upper)  # mirrored, as in the scalar
    # q = 0 exactly at p = 0 and p = 1, which sum no tail; at odd n both
    # sides' tails start at m = (n + 1) / 2
    half, inner = (n + 1) // 2, tails != 0.0
    for m, side in [(half, inner)] if n % 2 else [(half, inner & ~upper), (half + 1, inner & upper)]:
        rows = np.flatnonzero(side)
        if len(rows):
            tails[rows] = _binomial_upper_tails(n, tails[rows], m)
    np.subtract(1.0, tails, out=tails, where=upper)
    if n % 2:  # as the scalar returns it: 1/2 at p = 1/2, else clamped to p's side
        tails[ps == 0.5] = 0.5
        np.minimum(tails, 0.5, out=tails, where=ps < 0.5)
        np.maximum(tails, 0.5, out=tails, where=upper)
    return tails


@functools.lru_cache(maxsize=256)
def _log_choose(n: int, m: int) -> float:
    """log C(n, m) through lgamma, the constant part of a tail's first term;
    kept for recent (n, m). C(n, m) itself overflows a float from n ~ 1030."""
    return math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)


def _binomial_upper_tail(n: int, p: float, m: int) -> float:
    """P(X >= m) for X ~ Bin(n, p), with 0 < p < 1 and m >= (n + 1)p - 1,
    so that the terms fall from the first.

    The first term comes from log space; the rest follow by the pmf ratio
    until they fall below 1e-17 of the first.
    """
    first = math.exp(_log_choose(n, m) + m * math.log(p) + (n - m) * math.log1p(-p))
    odds = p / (1.0 - p)
    terms = [first]
    term = first
    for j in range(m, n):
        term *= (n - j) / (j + 1) * odds
        if term <= 1e-17 * first:
            break
        terms.append(term)
    return math.fsum(terms)


def _binomial_upper_tails(n: int, qs: np.ndarray, m: int) -> np.ndarray:
    """``_binomial_upper_tail(n, q, m)`` for each q of ``qs``, bit for bit, with
    0 < q <= 1/2 and m >= n/2 as ``majority_errors`` calls it.

    One pass over chunks of rows: each chunk is one (rows, c + 1) block, c =
    min(``PASS_TERMS``, n - m). Column 0 holds each row's first term, and the
    running product of the pmf ratios after it (``np.multiply.accumulate``,
    sequential like the scalar's ``*=``) gives the next c terms. Each row's
    terms above its cutoff, and its first term always (which may underflow
    to 0), get one ``math.fsum``. A row still above its cutoff at the end of
    the block while terms remain goes to the scalar.
    """
    # the scalar's first term, each step the same IEEE operation on each row
    logs = np.fromiter(map(math.log, qs.tolist()), float, len(qs))
    log1ps = np.fromiter(map(math.log1p, (-qs).tolist()), float, len(qs))
    exponents = _log_choose(n, m) + m * logs + (n - m) * log1ps
    firsts = np.fromiter(map(math.exp, exponents.tolist()), float, len(qs))
    odds, cutoffs = qs / (1.0 - qs), 1e-17 * firsts
    c = min(PASS_TERMS, n - m)
    ratios = np.arange(n - m, n - m - c, -1) / np.arange(m + 1, m + c + 1)
    tails, chunk = [], TAIL_TERMS // (c + 1)
    for start in range(0, len(qs), chunk):
        rows = slice(start, start + chunk)
        block = np.hstack([firsts[rows, None], ratios * odds[rows, None]])
        np.multiply.accumulate(block, axis=1, out=block)
        # both factors of a ratio are at most 1 (m >= n/2, q <= 1/2), so no
        # term exceeds the one before: the terms above the cutoff are a
        # prefix of each row, the ones the scalar's loop keeps
        keep = block > cutoffs[rows, None]
        keep[:, 0] = True  # as the scalar keeps its first term, even one that underflows to 0
        terms = block[keep].tolist()
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        tails += map(math.fsum, map(terms.__getitem__, map(slice, [0, *ends], ends)))
        for r in np.flatnonzero(keep[:, -1]).tolist() if c < n - m else ():
            tails[start + r] = _binomial_upper_tail(n, float(qs[start + r]), m)
    return np.array(tails)


def clopper_pearson_upper(k: int, n: int, level: float) -> float:
    """One-sided Clopper-Pearson upper bound on p from k of n Bernoulli(p)
    draws, at a level below 1/2: the p where P(X <= k) = P(n - X >= n - k) =
    level, rounded up. That tail falls as p grows, from at least 1/2 at p = k/n
    (the median of Bin(n, k/n) is k), so bisection on [k/n, 1] brackets it.
    Not exact: the float tail can leave p below the exact bound, by a relative
    2e-13 to 3.9e-12 in 7 of 92 checked cases, all at n = 4096 (ROADMAP item 27)."""
    if k == n:
        return 1.0
    below = _bisect(lambda p: _binomial_upper_tail(n, 1.0 - p, n - k) - level, k / n, 1.0)
    return min(below + 1e-15, 1.0)


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


def polynomial_error(coefficients: np.ndarray, ps: np.ndarray, rounds: int = 1) -> np.ndarray:
    """Each row r's error polynomial (``error_polynomial``) with coefficients
    ``coefficients[r]`` at the read errors ``ps[r]``, one per source.

    Only IEEE multiplications and subtractions and exact sums are used, so
    the value is the same on every platform. The powers are running
    products, of p_i and of 1 - p_i side by side, and every term is
    nonnegative, so the terms' relative accuracy carries over to p' on all
    of [0, 1]. Each row's terms are added exactly and rounded once
    (``math.fsum``).

    A one-source polynomial may run ``rounds`` >= 1 times in one pass, each
    round reading the error the one before returned, as a restore chain
    does; the result equals that many chained calls bit for bit.
    """
    rows, m = ps.shape
    if rounds < 1 or (m > 1 and rounds > 1):
        raise ValueError(f"{rounds} rounds of a {m}-source polynomial")
    terms = np.empty(coefficients.shape)
    views = []  # per source: its buffer, where p_i and 1 - p_i go, and its powers on the source's axis
    for i, c in enumerate(coefficients.shape[1:]):
        power = np.ones((2, rows, c))  # each row's powers of p_i, then of 1 - p_i
        shape = (rows,) + (1,) * i + (c,) + (1,) * (m - 1 - i)  # a reshape that only adds unit axes is a view
        views.append((power, power[0, :, 1:], power[1, :, 1:],
                      power[0].reshape(shape), power[1, :, ::-1].reshape(shape)))
    for _ in range(rounds):
        for i, (power, p_read, q_read, p_powers, q_powers) in enumerate(views):
            p_read[...] = ps[:, i, None]
            np.subtract(1.0, p_read, out=q_read)
            np.multiply.accumulate(power, axis=-1, out=power)
            np.multiply(terms if i else coefficients, p_powers, out=terms)
            np.multiply(terms, q_powers, out=terms)
        p = np.fromiter(map(math.fsum, terms.reshape(rows, -1).tolist()), float, rows)
        ps = p[:, None]
    return p


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

    eta: float | None

    @property
    def fixed_points(self) -> tuple[float, ...]:
        return (0.5,) if self.eta is None else (self.eta, 0.5)


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
    return RecursionAnalysis(eta)


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
