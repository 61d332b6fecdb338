"""Compile Boolean functions to non-adaptive GHZ measurement programs.

Each qubit is tagged with a nonempty subset of input bits; its measurement
angle is 0 or a fixed increment depending on the parity of those bits, and
the program output is the parity of all outcomes xor a constant. Increments
come from the exact parity-basis expansion, so at most 2^n - 1 qubits are
needed and the phase bookkeeping stays in rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .boolfn import COMPILE_ARITY_CAP, BooleanFunction, input_keys
from .corrbox import STATEVECTOR_QUBIT_CAP, GhzBox, _twice_phase, statevector_parity
from .mbqc import L2Program, _parity_program, constant_program


class QubitSpec(NamedTuple):
    """One qubit: the input subset driving it and its angle increment.

    ``delta`` is the increment in units of pi, kept as an exact rational.
    """

    mask: int
    delta: Fraction


@dataclass(frozen=True)
class GhzProgram:
    """Non-adaptive measurement program on a shared GHZ state."""

    n: int
    qubits: tuple[QubitSpec, ...]
    constant: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"arity {self.n} is negative")
        masks = tuple([mask for mask, _ in self.qubits])
        if min(masks, default=1) <= 0:
            raise ValueError("qubit subset mask must be nonempty")
        if self.constant not in (0, 1):
            raise ValueError("constant must be a bit")
        if max(masks, default=0) >> self.n:
            raise ValueError("qubit subset references bits beyond the arity")
        # derived once, read by verify and the box program; _ratios: (num, den) per qubit;
        # tuples, since gates shares one compiled program across calls
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_ratios", tuple([delta.as_integer_ratio() for _, delta in self.qubits]))

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def phase_sum(self, x_idx: int) -> Fraction:
        """Sum of active increments for input x, in units of pi."""
        total = Fraction(0)
        for q in self.qubits:
            if (q.mask & x_idx).bit_count() & 1:
                total += q.delta
        return total


def compile_function(f: BooleanFunction) -> GhzProgram:
    """Derive increments from the parity expansion: delta_T = -2 c_T.

    The exact coefficients are c_T = w_T / 2^n with w the Walsh transform of
    the 0/1 table, and w_T = -S(T)/2 for T != 0 with S the function's signed
    spectrum, so delta_T = S(T) / 2^n. Subsets with zero coefficient are
    dropped (the qubit bound is "at most").
    """
    if f.arity > COMPILE_ARITY_CAP:
        raise ValueError(f"arity {f.arity} above compile cap {COMPILE_ARITY_CAP}")
    masks = np.flatnonzero(f.spectrum[1:]) + 1
    coefficients = f.spectrum[masks].tolist()
    # few distinct coefficients (about 50 over 1000 qubits at n = 10): one Fraction each
    deltas = {c: Fraction(c, 1 << f.arity) for c in set(coefficients)}
    pairs = zip(masks.tolist(), map(deltas.__getitem__, coefficients))
    # tuple.__new__ fills each record without a Python-level QubitSpec.__new__ call
    qubits = tuple(map(tuple.__new__, repeat(QubitSpec), pairs))
    return GhzProgram(n=f.arity, qubits=qubits, constant=f.table[0])


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class GhzVerification:
    """The inputs that fail the exact congruence, sorted, plus simulated
    success per input."""

    failing_inputs: list[tuple[int, ...]]
    success: dict[tuple[int, ...], float]
    _oracle: Callable[[], dict] | None = field(default=None, repr=False, compare=False)

    @property
    def deterministic(self) -> bool:
        return not self.failing_inputs

    @cached_property
    def statevector_success(self) -> dict[tuple[int, ...], float] | None:
        """The success per input from the state-vector oracle, computed when
        first read; None where the oracle does not run."""
        return None if self._oracle is None else self._oracle()


def verify(program: GhzProgram, f: BooleanFunction) -> GhzVerification:
    """Check the phase congruence exactly and the simulated success per input.

    With D the common denominator of the increments and a_T the sum of the
    numerators delta * D over the qubits on subset T, the phase sum S(x) of
    every input (units of pi) is 2 D S(x) = sum_T a_T - W(x), W the exact
    integer Walsh transform of a: ``corrbox._twice_phase``, with qubit q a
    party of angles 0 and delta_q D reading parity(mask_q & x). The
    congruence S(x) = f(x) xor constant (mod 2), which alone decides
    ``deterministic``, and the closed-form success (1 + cos(pi (S(x) - want)))/2
    both follow from S(x) mod 2. For 1 to 16 qubits, ``statevector_success``
    computes the success again, when first read, as an independent path:
    ``corrbox.statevector_parity`` applies the Born rule to every input's
    measured GHZ state, from the basis matrices alone, in chunks that hold
    at most 2^16 amplitudes. Otherwise (a program with no qubit has no
    state to measure) it is None.
    """
    if program.n != f.arity:
        raise ValueError("program arity does not match the function")

    denom = math.lcm(*(b for _, b in program._ratios))
    scaled = [a * (denom // b) for a, b in program._ratios]
    # every partial sum below is at most 2 (sum |delta D| + D) in magnitude, so
    # int64 is exact under this bound; past it, Python ints: a program file may
    # carry any denominator
    exact = np.int64 if (sum(map(abs, scaled)) + 2 * denom) * 4 < 1 << 62 else object
    rows = np.zeros((program.n_qubits, 2), dtype=exact)  # qubit q: angles 0, delta_q D
    rows[:, 1] = scaled
    forms = np.array(program._masks, dtype=np.int64) << 1
    twice_phase = _twice_phase(rows, forms, program.n)
    want = np.array(f.table, dtype=exact) ^ program.constant
    # 2 D ((S(x) - want) mod 2)
    residue = (twice_phase - 2 * denom * want) % (4 * denom)
    # the success of each distinct residue, from the exact int / int quotient
    values, which = np.unique(residue, return_inverse=True)
    cosines = [math.cos(math.pi * (r / (2 * denom))) for r in values.tolist()]
    succeeds = ((1.0 + np.array(cosines)) / 2.0)[which]
    keys = input_keys(program.n)

    def oracle() -> dict[tuple[int, ...], float]:
        p1 = statevector_parity(run_as_l2program(program).boxes[0], forms, program.n)
        return dict(zip(keys, np.where(want != 0, p1, 1.0 - p1).tolist()))

    return GhzVerification(
        failing_inputs=sorted(keys[x_idx] for x_idx in np.flatnonzero(residue).tolist()),
        success=dict(zip(keys, succeeds.tolist())),
        _oracle=oracle if 0 < program.n_qubits <= STATEVECTOR_QUBIT_CAP else None,
    )


def run_as_l2program(program: GhzProgram, epsilon: float = 0.0) -> L2Program:
    """Wrap the measurement program as a box program over one noisy GHZ box."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon {epsilon} outside [0, 1/2]")
    if program.n_qubits == 0:
        return constant_program(program.n, program.constant)
    # a / b is float(delta), without its two property reads
    box = GhzBox(angles=tuple([(0.0, a / b * math.pi) for a, b in program._ratios]), epsilon=epsilon)
    return _parity_program(program.n, box, program._masks, program.constant)


# ---------------------------------------------------------------------------
# serialization

def program_to_config(program: GhzProgram) -> dict:
    return {
        "n": program.n,
        "constant": program.constant,
        "qubits": [
            {"mask": q.mask, "num": q.delta.numerator, "den": q.delta.denominator}
            for q in program.qubits
        ],
    }


def _json_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: no float, bool or string."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def program_from_config(config: dict) -> GhzProgram:
    """Parse a program config; any malformed body raises ValueError.

    ``n``, ``constant`` and every qubit's ``mask``, ``num`` and ``den`` must
    be JSON integers, so nothing is truncated. A program may have at most
    ``(1 << COMPILE_ARITY_CAP) - 1`` qubits, the most that
    ``compile_function`` emits.
    """
    cap = (1 << COMPILE_ARITY_CAP) - 1
    try:
        n_qubits = len(config["qubits"])
        if n_qubits > cap:  # checked before any qubit is parsed
            raise ValueError(f"program has {n_qubits} qubits, above cap {cap}")
        qubits = tuple(
            QubitSpec(
                mask=_json_int(q, "mask"),
                delta=Fraction(_json_int(q, "num"), _json_int(q, "den")),
            )
            for q in config["qubits"]
        )
        for i, q in enumerate(qubits):
            # run_as_l2program measures at the float angle delta * pi
            try:
                finite = math.isfinite(float(q.delta) * math.pi)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"qubit {i} (mask {q.mask}): increment overflows a float")
        return GhzProgram(
            n=_json_int(config, "n"), qubits=qubits, constant=_json_int(config, "constant")
        )
    except KeyError as exc:
        raise ValueError(f"program config missing key {exc}") from None
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed program config: {exc}") from None
