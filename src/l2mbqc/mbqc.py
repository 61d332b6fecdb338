"""Exact execution of box programs under mod-2 linear classical control.

A program wires correlation boxes to the input bits and to earlier box
outputs through affine GF(2) maps only; the representation admits no other
classical processing. Running a program against a target function yields
per-input success probabilities, the average error, and inequality
certificates that witness contextuality of the employed correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import corrbox
from .boolfn import BooleanFunction, nonlinearity
from .corrbox import (
    BipartiteBox,
    CorrelationBox,
    GhzBox,
    chsh_and_box,
    noncontextual_and_box,
)

PATH_CAP = 1 << 22

NONCONTEXTUAL_SEARCH_ARITY_CAP = 4


@dataclass(frozen=True)
class AffineBitMap:
    """bit = (x_mask . x) xor (out_mask . outputs) xor const, all over GF(2)."""

    x_mask: int = 0
    out_mask: int = 0
    const: int = 0

    def __post_init__(self):
        if self.const not in (0, 1):
            raise ValueError("const must be a bit")
        if self.x_mask < 0 or self.out_mask < 0:
            raise ValueError("masks must be nonnegative")


@dataclass(frozen=True)
class L2Program:
    """Boxes plus affine-only classical side processing.

    Box outputs are numbered globally in declaration order; an input map
    for a party of box i may reference outputs of boxes before i only.
    """

    n: int
    boxes: tuple[CorrelationBox, ...]
    input_maps: tuple[tuple[AffineBitMap, ...], ...]
    output_map: AffineBitMap

    def __post_init__(self):
        if len(self.input_maps) != len(self.boxes):
            raise ValueError("one input-map group per box required")
        seen = 0
        for box, maps in zip(self.boxes, self.input_maps):
            if len(maps) != box.n_parties:
                raise ValueError("one input map per box party required")
            for m in maps:
                self._check_map(m, seen)
            seen += box.n_parties
        self._check_map(self.output_map, seen)

    def _check_map(self, m: AffineBitMap, available_outputs: int):
        if m.x_mask >> self.n:
            raise ValueError("input map references bits beyond the arity")
        if m.out_mask >> available_outputs:
            raise ValueError("map references outputs of later boxes")

    def box_output_range(self, i: int) -> tuple[int, int]:
        start = sum(box.n_parties for box in self.boxes[:i])
        return start, start + self.boxes[i].n_parties


# ---------------------------------------------------------------------------
# exact evaluation

@dataclass(frozen=True)
class StrategyReport:
    """Per-input success of a program against its target function."""

    n: int
    success: dict[tuple[int, ...], float]
    average_error: float
    worst_error: float

    def as_csv_rows(self) -> list[tuple[str, float]]:
        return [
            ("".join(str(b) for b in x), p) for x, p in sorted(self.success.items())
        ]

    def summary(self) -> dict:
        return {
            "inputs": 1 << self.n,
            "average_error": self.average_error,
            "worst_error": self.worst_error,
            "per_input_success": {
                "".join(str(b) for b in x): p for x, p in sorted(self.success.items())
            },
        }


def _collapsible(program: L2Program, i: int) -> bool:
    """True when downstream maps use box i only through its full parity."""
    if not isinstance(program.boxes[i], (BipartiteBox, GhzBox)):
        return False
    start, end = program.box_output_range(i)
    segment = ((1 << (end - start)) - 1) << start
    later = [
        m
        for j in range(i + 1, len(program.boxes))
        for m in program.input_maps[j]
    ]
    later.append(program.output_map)
    for m in later:
        part = m.out_mask & segment
        if part not in (0, segment):
            return False
    return True


def _eval_map(
    m: AffineBitMap,
    x_idx: int,
    history: tuple[int, ...],
    program: L2Program,
    collapsed: tuple[bool, ...],
) -> int:
    bit = ((m.x_mask & x_idx).bit_count() & 1) ^ m.const
    for i, outcome in enumerate(history):
        start, end = program.box_output_range(i)
        width = end - start
        seg = (m.out_mask >> start) & ((1 << width) - 1)
        if seg == 0:
            continue
        if collapsed[i]:
            # collapse guarantees seg covers the whole box
            bit ^= outcome
        else:
            bit ^= (seg & outcome).bit_count() & 1
    return bit


def _box_support(
    box: CorrelationBox, inputs: tuple[int, ...], collapsed: bool
) -> list[tuple[int, float]]:
    if collapsed:
        p1 = corrbox.parity_probability(box, inputs)
        return [(0, 1.0 - p1), (1, p1)]
    dist = corrbox.distribution(box, inputs)
    out = []
    for outcome, p in dist.probs.items():
        if p == 0.0:
            continue
        packed = sum(b << j for j, b in enumerate(outcome))
        out.append((packed, p))
    return out


def run_exact(
    program: L2Program, target: BooleanFunction, *, path_cap: int = PATH_CAP
) -> StrategyReport:
    """Enumerate all outcome paths exactly and score z against the target.

    Boxes whose outputs are consumed only through their full parity are
    replaced by a single parity bit with its closed-form distribution,
    which keeps compiled many-qubit programs tractable.
    """
    if program.n != target.arity:
        raise ValueError("program arity does not match the target function")
    collapsed = tuple(_collapsible(program, i) for i in range(len(program.boxes)))
    support_bound = 1
    for box, c in zip(program.boxes, collapsed):
        support_bound *= 2 if c else (1 << box.n_parties)
        if support_bound > path_cap:
            raise ValueError(f"enumeration needs more than {path_cap} paths")

    success: dict[tuple[int, ...], float] = {}
    for x_idx in range(1 << program.n):
        paths: dict[tuple[int, ...], float] = {(): 1.0}
        for i, box in enumerate(program.boxes):
            new_paths: dict[tuple[int, ...], float] = {}
            for history, prob in paths.items():
                inputs = tuple(
                    _eval_map(m, x_idx, history, program, collapsed)
                    for m in program.input_maps[i]
                )
                for outcome, p in _box_support(box, inputs, collapsed[i]):
                    if p == 0.0:
                        continue
                    key = history + (outcome,)
                    new_paths[key] = new_paths.get(key, 0.0) + prob * p
            paths = new_paths
        want = target.table[x_idx]
        good = 0.0
        for history, prob in paths.items():
            z = _eval_map(program.output_map, x_idx, history, program, collapsed)
            if z == want:
                good += prob
        x_bits = tuple((x_idx >> j) & 1 for j in range(program.n))
        success[x_bits] = good

    errors = [1.0 - p for p in success.values()]
    return StrategyReport(
        n=program.n,
        success=success,
        average_error=math.fsum(errors) / len(errors),
        worst_error=max(errors),
    )


# ---------------------------------------------------------------------------
# inequality certificates

@dataclass(frozen=True)
class Certificate:
    """Signed violation of the non-contextual error bound for the target."""

    nu: int
    bound: Fraction
    average_error: float
    delta: float
    contextual: bool


def contextuality_certificate(
    report: StrategyReport, target: BooleanFunction
) -> Certificate:
    """delta = nu(f)/2^n - average error; delta > 0 certifies contextuality."""
    nu = nonlinearity(target)
    bound = Fraction(nu, 1 << target.arity)
    delta = float(bound) - report.average_error
    return Certificate(
        nu=nu,
        bound=bound,
        average_error=report.average_error,
        delta=delta,
        contextual=delta > 0,
    )


@lru_cache(maxsize=None)
def _deterministic_strategy_tables(n: int) -> tuple[int, ...]:
    """Truth tables (bit-packed) of every deterministic local strategy.

    One box party with an affine input wire, an affine single-bit response,
    and an affine output map; this composition reaches exactly the
    strategies available without contextual correlations.
    """
    tables = set()
    size = 1 << n
    for in_mask in range(size):
        for in_const in (0, 1):
            for slope in (0, 1):
                for intercept in (0, 1):
                    for use_out in (0, 1):
                        for post_mask in range(size):
                            for post_const in (0, 1):
                                t = 0
                                for x in range(size):
                                    wire = ((in_mask & x).bit_count() & 1) ^ in_const
                                    o = (slope & wire) ^ intercept
                                    z = (use_out & o) ^ ((post_mask & x).bit_count() & 1) ^ post_const
                                    t |= z << x
                                tables.add(t)
    return tuple(sorted(tables))


def best_noncontextual_error(target: BooleanFunction) -> Fraction:
    """Exhaustive minimum average error over deterministic local strategies.

    Mixtures cannot beat the best pure strategy, so this is the exact
    non-contextual optimum; it coincides with nu(f)/2^n.
    """
    n = target.arity
    if n > NONCONTEXTUAL_SEARCH_ARITY_CAP:
        raise ValueError(
            f"arity {n} above exhaustive-search cap {NONCONTEXTUAL_SEARCH_ARITY_CAP}"
        )
    f_int = sum(b << i for i, b in enumerate(target.table))
    best = min(
        (f_int ^ t).bit_count() for t in _deterministic_strategy_tables(n)
    )
    return Fraction(best, 1 << n)


# ---------------------------------------------------------------------------
# reference programs

def chsh_and_program() -> L2Program:
    """The Bell-state protocol whose output parity approximates AND."""
    return L2Program(
        n=2,
        boxes=(chsh_and_box(),),
        input_maps=((AffineBitMap(x_mask=0b01), AffineBitMap(x_mask=0b10)),),
        output_map=AffineBitMap(out_mask=0b11),
    )


def noncontextual_and_program() -> L2Program:
    """The 1/4-noisy AND from a mixture of deterministic local responses."""
    return L2Program(
        n=2,
        boxes=(noncontextual_and_box(),),
        input_maps=((AffineBitMap(x_mask=0b01), AffineBitMap(x_mask=0b10)),),
        output_map=AffineBitMap(out_mask=0b11),
    )


def constant_program(n: int, value: int) -> L2Program:
    """Boxless program that always outputs the given bit."""
    return L2Program(
        n=n, boxes=(), input_maps=(), output_map=AffineBitMap(const=value & 1)
    )
