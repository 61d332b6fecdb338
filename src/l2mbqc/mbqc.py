"""Exact execution of box programs under mod-2 linear classical control.

A program wires correlation boxes to the input bits and to earlier box
outputs through affine GF(2) maps only; the representation admits no other
classical processing. On each outcome path of earlier boxes, every box
party therefore reads an affine form of the input, the one convention that
every ``corrbox`` function takes. Running a program against a target
function yields per-input success probabilities, the average error, and
inequality certificates that witness contextuality of the employed
correlations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import numpy as np

from . import corrbox
from .boolfn import BooleanFunction, index_parity, input_keys, nonlinearity
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


# ---------------------------------------------------------------------------
# exact evaluation

@dataclass(frozen=True)
class StrategyReport:
    """Per-input success of a program against its target function."""

    n: int
    success: dict[tuple[int, ...], float]
    average_error: float
    worst_error: float


def _collapsible(program: L2Program, i: int, start: int) -> bool:
    """True when later maps use box i, outputs from ``start``, only as a parity."""
    box = program.boxes[i]
    if not isinstance(box, (BipartiteBox, GhzBox)):
        return False
    segment = ((1 << box.n_parties) - 1) << start
    later = [m for maps in program.input_maps[i + 1:] for m in maps]
    later.append(program.output_map)
    return all((m.out_mask & segment) in (0, segment) for m in later)


def run_exact(program: L2Program, target: BooleanFunction) -> StrategyReport:
    """Enumerate all outcome paths exactly and score z against the target.

    Every input is evaluated at once: each path is the packed outputs of the
    boxes run so far (bit j is global output j) with its probability for
    every input x. On each path every box party reads an affine form of x
    (its map's out_mask part is a constant there), and the box answers for
    all inputs at once: ``corrbox.outcome_table`` gives P(o | x). Boxes whose
    outputs are consumed only through their full parity are replaced by a
    single parity bit, stored at the box's first output position, from
    ``corrbox.parity_probability``: one exact Walsh transform gives the box's
    phase at every input, which keeps compiled many-qubit programs tractable.
    ``PATH_CAP`` bounds paths x inputs, the number of probabilities held at
    once.
    """
    if program.n != target.arity:
        raise ValueError("program arity does not match the target function")
    n_inputs = 1 << program.n
    sizes = [box.n_parties for box in program.boxes]
    starts = list(itertools.accumulate(sizes, initial=0))
    collapsed = [_collapsible(program, i, starts[i]) for i in range(len(sizes))]
    cells = n_inputs
    for size, parity_only in zip(sizes, collapsed):
        cells *= 2 if parity_only else 1 << size
        if cells > PATH_CAP:
            raise ValueError(
                f"exact evaluation needs more than {PATH_CAP} paths x inputs"
            )

    def flip(m: AffineBitMap, outs: int) -> int:
        """The map's constant on the path with packed outputs outs."""
        return ((m.out_mask & outs).bit_count() + m.const) & 1

    paths = [(0, np.ones(n_inputs))]
    steps = zip(program.boxes, program.input_maps, starts, collapsed)
    for box, maps, start, parity_only in steps:
        new_paths = []
        for outs, prob in paths:
            forms = [m.x_mask << 1 | flip(m, outs) for m in maps]
            if parity_only:
                p1 = corrbox.parity_probability(box, forms, program.n)
                new_paths += [(outs, prob * (1.0 - p1)), (outs | 1 << start, prob * p1)]
            else:
                table = corrbox.outcome_table(box, forms, program.n)
                for o in range(table.shape[1]):
                    new_paths.append((outs | o << start, prob * table[:, o]))
        paths = new_paths

    # z = parity(x_mask & x) xor flip is right where flip = f(x) xor parity(x_mask & x)
    out_map = program.output_map
    x_part = index_parity(program.n)[out_map.x_mask & np.arange(n_inputs)]
    right = np.asarray(target.table, dtype=np.uint8) ^ x_part
    good = np.zeros(n_inputs)
    for outs, prob in paths:
        good += prob * (right == flip(out_map, outs))
    success = dict(zip(input_keys(program.n), good.tolist()))
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
