"""Compile Boolean functions to non-adaptive GHZ measurement programs.

Each qubit is tagged with a nonempty subset of input bits; its measurement
angle is 0 or a fixed increment depending on the parity of those bits, and
the program output is the parity of all outcomes xor a constant. Increments
come from the exact parity-basis expansion, so at most 2^n - 1 qubits are
needed and the phase bookkeeping stays in rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import COMPILE_ARITY_CAP, BooleanFunction, index_parity, input_keys, walsh
from .corrbox import STATEVECTOR_QUBIT_CAP, GhzBox, statevector_parity
from .mbqc import AffineBitMap, L2Program, constant_program

SUCCESS_TOL = 1e-10


@dataclass(frozen=True)
class QubitSpec:
    """One qubit: the input subset driving it and its angle increment.

    ``delta`` is the increment in units of pi, kept as an exact rational.
    """

    mask: int
    delta: Fraction

    def __post_init__(self):
        if self.mask <= 0:
            raise ValueError("qubit subset mask must be nonempty")


@dataclass(frozen=True)
class GhzProgram:
    """Non-adaptive measurement program on a shared GHZ state."""

    n: int
    qubits: tuple[QubitSpec, ...]
    constant: int

    def __post_init__(self):
        if self.constant not in (0, 1):
            raise ValueError("constant must be a bit")
        for q in self.qubits:
            if q.mask >> self.n:
                raise ValueError("qubit subset references bits beyond the arity")

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

    The exact coefficients are c_T = w_T / 2^n with w the integer Walsh
    transform of the 0/1 table, so delta_T = -w_T / 2^(n-1). Subsets with
    zero coefficient are dropped (the qubit bound is "at most").
    """
    if f.arity > COMPILE_ARITY_CAP:
        raise ValueError(f"arity {f.arity} above compile cap {COMPILE_ARITY_CAP}")
    w = walsh(np.asarray(f.table, dtype=np.int64)).tolist()
    # few distinct coefficients (about 50 over 1000 qubits at n = 10): one Fraction each
    deltas = {c: Fraction(-c, 1 << (f.arity - 1)) for c in set(w[1:])}
    qubits = tuple(
        QubitSpec(mask=mask, delta=deltas[w[mask]])
        for mask in range(1, 1 << f.arity)
        if w[mask]
    )
    return GhzProgram(n=f.arity, qubits=qubits, constant=f.table[0])


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class GhzVerification:
    """Exact congruence flags plus simulated success, per input."""

    deterministic: bool
    congruence_ok: dict[tuple[int, ...], bool]
    success: dict[tuple[int, ...], float]
    statevector_success: dict[tuple[int, ...], float] | None

    @property
    def failing_inputs(self) -> list[tuple[int, ...]]:
        return sorted(x for x, ok in self.congruence_ok.items() if not ok)


def verify(
    program: GhzProgram,
    f: BooleanFunction,
    *,
    use_statevector: bool | None = None,
) -> GhzVerification:
    """Check the phase congruence exactly and the simulated success per input.

    With D the common denominator of the increments and a_T the sum of the
    numerators delta * D over the qubits on subset T, one exact integer Walsh
    transform W gives the phase sum S(x) of every input at once (units of
    pi): 2 D S(x) = sum_T a_T - W(x). The congruence S(x) = f(x) xor
    constant (mod 2) and the closed-form success (1 + cos(pi (S(x) - want)))/2
    both follow from S(x) mod 2. When the program is small enough, the
    state-vector oracle computes the success again as an independent path:
    ``corrbox.statevector_parity`` simulates every input's measured GHZ state
    in one batched dense pass, chunked so that no chunk holds more than 2^16
    amplitudes.
    """
    if program.n != f.arity:
        raise ValueError("program arity does not match the function")
    if use_statevector is None:
        use_statevector = 0 < program.n_qubits <= STATEVECTOR_QUBIT_CAP

    # Python ints: a program file may carry any denominator
    denom = math.lcm(*(q.delta.denominator for q in program.qubits))
    numerators = np.zeros(1 << program.n, dtype=object)
    for q in program.qubits:
        numerators[q.mask] += q.delta.numerator * (denom // q.delta.denominator)
    twice_phase = numerators.sum() - walsh(numerators)  # 2 D S(x)

    congruence: dict[tuple[int, ...], bool] = {}
    success: dict[tuple[int, ...], float] = {}
    keys = input_keys(program.n)
    for x_idx, x in enumerate(keys):
        want = f.table[x_idx] ^ program.constant
        # 2 D ((S(x) - want) mod 2)
        residue = (twice_phase[x_idx] - 2 * denom * want) % (4 * denom)
        congruence[x] = residue == 0
        success[x] = (1.0 + math.cos(math.pi * (residue / (2 * denom)))) / 2.0

    sv_success: dict[tuple[int, ...], float] | None = None
    if use_statevector and program.n_qubits == 0:
        sv_success = dict(success)
    elif use_statevector:
        box = run_as_l2program(program).boxes[0]
        # qubit q of input x reads parity(mask_q & x)
        masks = np.array([q.mask for q in program.qubits])
        rows = index_parity(program.n)[np.arange(1 << program.n)[:, None] & masks]
        p1 = statevector_parity(box, rows).tolist()
        sv_success = {
            x: p if f.table[x_idx] ^ program.constant else 1.0 - p
            for x_idx, (x, p) in enumerate(zip(keys, p1))
        }

    deterministic = all(congruence.values()) and all(
        p >= 1.0 - SUCCESS_TOL for p in success.values()
    )
    return GhzVerification(
        deterministic=deterministic,
        congruence_ok=congruence,
        success=success,
        statevector_success=sv_success,
    )


def run_as_l2program(program: GhzProgram, epsilon: float = 0.0) -> L2Program:
    """Wrap the measurement program as a box program over one noisy GHZ box."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon {epsilon} outside [0, 1/2]")
    if program.n_qubits == 0:
        return constant_program(program.n, program.constant)
    box = GhzBox(
        angles=tuple((0.0, float(q.delta) * math.pi) for q in program.qubits),
        epsilon=epsilon,
    )
    maps = tuple(AffineBitMap(x_mask=q.mask) for q in program.qubits)
    all_outputs = (1 << program.n_qubits) - 1
    return L2Program(
        n=program.n,
        boxes=(box,),
        input_maps=(maps,),
        output_map=AffineBitMap(out_mask=all_outputs, const=program.constant),
    )


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


def program_from_config(config: dict) -> GhzProgram:
    """Parse a program config; any malformed body raises ValueError.

    A program may have at most ``(1 << COMPILE_ARITY_CAP) - 1`` qubits, the
    most that ``compile_function`` emits.
    """
    cap = (1 << COMPILE_ARITY_CAP) - 1
    try:
        n_qubits = len(config["qubits"])
        if n_qubits > cap:  # checked before any qubit is parsed
            raise ValueError(f"program has {n_qubits} qubits, above cap {cap}")
        qubits = tuple(
            QubitSpec(mask=int(q["mask"]), delta=Fraction(int(q["num"]), int(q["den"])))
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
            n=int(config["n"]), qubits=qubits, constant=int(config["constant"])
        )
    except KeyError as exc:
        raise ValueError(f"program config missing key {exc}") from None
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed program config: {exc}") from None
