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
from functools import cached_property, lru_cache
import numpy as np

from . import corrbox
from .boolfn import (
    COMPILE_ARITY_CAP, BooleanFunction, affine_distance, all_affine_forms, index_parity, input_keys, nonlinearity,
)
from .corrbox import CorrelationBox, GhzBox, chsh_and_box, noncontextual_and_box

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
        if self.n < 0:
            raise ValueError(f"arity {self.n} is negative")
        if len(self.input_maps) != len(self.boxes):
            raise ValueError("one input-map group per box required")
        seen = 0  # the outputs of earlier boxes, which a group's maps may read
        for i, maps in enumerate((*self.input_maps, (self.output_map,))):
            if i < len(self.boxes) and len(maps) != self.boxes[i].n_parties:
                raise ValueError("one input map per box party required")
            if max([m.x_mask for m in maps], default=0) >> self.n:
                raise ValueError("input map references bits beyond the arity")
            if max([m.out_mask for m in maps], default=0) >> seen:
                raise ValueError("map references outputs of later boxes")
            seen += len(maps)


# ---------------------------------------------------------------------------
# exact evaluation

@dataclass(frozen=True)
class StrategyReport:
    """Per-input success of a program against its target function."""

    target: BooleanFunction
    success: dict[tuple[int, ...], float]

    @cached_property
    def average_error(self) -> float:
        return math.fsum([1.0 - s for s in self.success.values()]) / len(self.success)

    @cached_property
    def worst_error(self) -> float:
        return 1.0 - min(self.success.values())


def run_exact(program: L2Program, target: BooleanFunction) -> StrategyReport:
    """Evaluate all outcomes exactly, merged on what later maps read, and
    score z against the target.

    Every input is evaluated at once: a state is a representative string of
    the outputs so far (bit j is global output j) with its probability for
    every input x. On a state every box party reads an affine form of x, and
    the box answers for all inputs at once with one column P(o | x) per
    outcome o, from ``corrbox.outcome_table``, once per distinct tuple of
    forms among the states. The maps after a box read the outputs up to it
    through a GF(2) basis of their cut out_masks, whose length is the cut
    rank; extensions with equal parities on it are summed into one state, so
    a box extends at most 2^(cut rank before it) states.
    A GHZ box that this basis reads wholly or not at all is parity-only: its
    two columns are its parity's, from ``corrbox.parity_probability``, one
    exact Walsh transform, stored at its first output position. ``PATH_CAP``
    bounds 2^(cut rank before a box) x columns x inputs before any box runs.
    The cut rank grows with shared wires: 5 for tree4's CHSH cone at W=3
    r=1, but 25 for TREE3 at W=729 r=1 and 251 for tree4 at W=81 r=2.
    """
    if program.n != target.arity:
        raise ValueError("program arity does not match the target function")
    n_inputs = 1 << program.n
    starts = list(itertools.accumulate((box.n_parties for box in program.boxes), initial=0))
    # backward: the key basis after a box, cut to the outputs before it and
    # joined with its maps, spans what the maps after the previous box read
    bases, parity_only, basis = [], [], [program.output_map.out_mask]
    for box, maps, start in reversed(list(zip(program.boxes, program.input_maps, starts))):
        segment = ((1 << box.n_parties) - 1) << start
        parity_only.insert(0, isinstance(box, GhzBox) and all((v & segment) in (0, segment) for v in basis))
        bases.insert(0, basis)
        later, basis = basis + [m.out_mask for m in maps if m.out_mask], []
        for v in later:
            v &= (1 << start) - 1
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
        if (n_inputs << len(basis)) << (1 if parity_only[0] else box.n_parties) > PATH_CAP:
            raise ValueError(f"exact evaluation needs more than {PATH_CAP} paths x inputs")

    states = {(): (0, np.ones(n_inputs))}
    for box, maps, start, parity, basis in zip(program.boxes, program.input_maps, starts, parity_only, bases):
        merged, box_columns = {}, {}  # the box's columns per tuple of party forms
        for outs, prob in states.values():
            forms = tuple(m.x_mask << 1 | ((m.out_mask & outs).bit_count() + m.const) & 1 for m in maps)
            columns = box_columns.get(forms)
            if columns is None and parity:
                p1 = corrbox.parity_probability(box, forms, program.n)
                columns = box_columns[forms] = (1.0 - p1, p1)
            elif columns is None:
                columns = box_columns[forms] = corrbox.outcome_table(box, forms, program.n).T
            for o, column in enumerate(columns):
                outs_o = outs | o << start
                key = tuple((v & outs_o).bit_count() & 1 for v in basis)
                # the first string with a key represents every string summed into it
                merged.setdefault(key, [outs_o, 0.0])[1] += prob * column
        states = merged

    # z is right where the state constant (out_mask . outs) xor const = f(x) xor parity(x_mask & x)
    out_map = program.output_map
    x_part = index_parity(program.n)[out_map.x_mask & np.arange(n_inputs)]
    right = np.asarray(target.table, dtype=np.uint8) ^ x_part
    good = np.zeros(n_inputs)
    for outs, prob in states.values():
        good += prob * (right == ((out_map.out_mask & outs).bit_count() + out_map.const) & 1)
    return StrategyReport(target, dict(zip(input_keys(program.n), good.tolist())))


# ---------------------------------------------------------------------------
# inequality certificates

@dataclass(frozen=True)
class Certificate:
    """Signed violation of the non-contextual error bound for the target."""

    nu: int
    bound: Fraction
    average_error: float

    @property
    def delta(self) -> float:
        return float(self.bound) - self.average_error

    @property
    def contextual(self) -> bool:
        return self.delta > 0


def contextuality_certificate(
    report: StrategyReport, target: BooleanFunction
) -> Certificate:
    """delta = nu(f)/2^n - average error; delta > 0 certifies contextuality."""
    if report.target != target:
        raise ValueError("report was scored against another target function")
    nu = nonlinearity(target)
    return Certificate(nu, Fraction(nu, 1 << target.arity), report.average_error)


def best_noncontextual_error(target: BooleanFunction) -> Fraction:
    """Exhaustive minimum average error over deterministic local strategies.

    A deterministic party answers an affine function of its affine input,
    and the control adds affine forms of x, so these strategies compute
    exactly the affine functions: the optimum is the least distance to one.
    Mixtures cannot beat the best pure strategy, so this is the exact
    non-contextual optimum; it coincides with nu(f)/2^n.
    """
    n = target.arity
    if n > NONCONTEXTUAL_SEARCH_ARITY_CAP:
        raise ValueError(
            f"arity {n} above exhaustive-search cap {NONCONTEXTUAL_SEARCH_ARITY_CAP}"
        )
    return Fraction(min(affine_distance(target, l) for l in all_affine_forms(n)), 1 << n)


# ---------------------------------------------------------------------------
# reference programs

@lru_cache(maxsize=1 << COMPILE_ARITY_CAP)
def _subset_map(mask: int) -> AffineBitMap:
    """The input map of a party on subset mask, shared: a map is immutable,
    and building one per party cost more than the rest of the wrapping."""
    return AffineBitMap(x_mask=mask)


def _parity_program(n: int, box: CorrelationBox, masks: tuple[int, ...], const: int = 0) -> L2Program:
    """One box, party j reading parity(masks[j] & x); z is its outcomes' parity xor const."""
    return L2Program(
        n=n,
        boxes=(box,),
        input_maps=(tuple(map(_subset_map, masks)),),
        output_map=AffineBitMap(out_mask=(1 << len(masks)) - 1, const=const),
    )


def chsh_and_program() -> L2Program:
    """The Bell-state protocol whose output parity approximates AND."""
    return _parity_program(2, chsh_and_box(), (0b01, 0b10))


def noncontextual_and_program() -> L2Program:
    """The 1/4-noisy AND from a mixture of deterministic local responses."""
    return _parity_program(2, noncontextual_and_box(), (0b01, 0b10))


def constant_program(n: int, value: int) -> L2Program:
    """Boxless program that always outputs the given bit."""
    return L2Program(
        n=n, boxes=(), input_maps=(), output_map=AffineBitMap(const=value & 1)
    )
