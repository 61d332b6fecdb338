import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2mbqc import ghzc, mbqc
from l2mbqc.boolfn import BooleanFunction, make_named
from l2mbqc.corrbox import statevector_oracle
from l2mbqc.ghzc import (
    STATEVECTOR_QUBIT_CAP,
    GhzProgram,
    QubitSpec,
    compile_function,
    program_from_config,
    program_to_config,
    run_as_l2program,
    verify,
)


def random_function(rng, n):
    return BooleanFunction(n, tuple(rng.randrange(2) for _ in range(1 << n)))


def test_compile_and_example():
    program = compile_function(make_named("and"))
    half = Fraction(1, 2)
    assert {(q.mask, q.delta) for q in program.qubits} == {
        (0b01, half),
        (0b10, half),
        (0b11, -half),
    }
    assert program.constant == 0


def test_compile_xor_single_qubit():
    program = compile_function(make_named("xor"))
    assert [(q.mask, q.delta) for q in program.qubits] == [(0b11, Fraction(1))]
    assert program.constant == 0


def test_compile_constant_needs_no_qubits():
    program = compile_function(make_named("const1", 3))
    assert program.n_qubits == 0 and program.constant == 1
    result = verify(program, make_named("const1", 3))
    assert result.deterministic


def test_compile_arity_cap():
    with pytest.raises(ValueError):
        compile_function(BooleanFunction(11, (0,) * (1 << 11)))


def test_all_n3_functions_compile_deterministically():
    for bits in range(256):
        f = BooleanFunction(3, tuple((bits >> i) & 1 for i in range(8)))
        program = compile_function(f)
        assert program.n_qubits <= 7
        result = verify(program, f, use_statevector=False)
        assert result.deterministic
        assert all(result.congruence_ok.values())


@pytest.mark.parametrize("n", [4, 5])
def test_random_functions_compile_deterministically(n):
    rng = random.Random(1000 + n)
    for _ in range(500):
        f = random_function(rng, n)
        program = compile_function(f)
        assert program.n_qubits <= (1 << n) - 1
        result = verify(program, f, use_statevector=False)
        assert result.deterministic


def test_statevector_agrees_with_closed_form():
    rng = random.Random(42)
    fns = [make_named("and"), make_named("xor"), make_named("maj", 3)]
    fns += [random_function(rng, 3) for _ in range(5)]
    fns += [random_function(rng, 4) for _ in range(2)]
    for f in fns:
        program = compile_function(f)
        if not 0 < program.n_qubits <= 16:
            continue
        result = verify(program, f, use_statevector=True)
        assert result.deterministic
        for x, p in result.success.items():
            assert abs(p - result.statevector_success[x]) < 1e-10


def test_phase_congruence_is_exact_rational():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        f = random_function(rng, n)
        program = compile_function(f)
        for x in range(1 << n):
            residue = (program.phase_sum(x) - (f.table[x] ^ program.constant)) % 2
            assert residue == 0


def test_angle_granularity():
    rng = random.Random(8)
    for n in (2, 3, 4, 5):
        f = random_function(rng, n)
        for q in compile_function(f).qubits:
            assert q.delta != 0
            # multiples of pi / 2^(n-1)
            assert ((1 << (n - 1)) * q.delta).denominator == 1


def test_tampered_increment_fails_exactly_where_active():
    f = make_named("and")
    program = compile_function(f)
    qubits = list(program.qubits)
    qubits[0] = QubitSpec(qubits[0].mask, qubits[0].delta + 1)  # +pi
    bad = GhzProgram(program.n, tuple(qubits), program.constant)
    result = verify(bad, f)
    active = {
        tuple((x >> j) & 1 for j in range(2))
        for x in range(4)
        if bin(qubits[0].mask & x).count("1") & 1
    }
    assert set(result.failing_inputs) == active
    for x, ok in result.congruence_ok.items():
        assert ok == (x not in active)
        expected = 0.0 if x in active else 1.0
        assert result.success[x] == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.25, 0.4, 0.5])
def test_noise_passes_through_linearly(epsilon):
    f = make_named("maj", 3)
    report = mbqc.run_exact(run_as_l2program(compile_function(f), epsilon), f)
    for p in report.success.values():
        assert p == pytest.approx(1.0 - epsilon, abs=1e-12)


def test_run_as_l2program_validates_epsilon():
    with pytest.raises(ValueError):
        run_as_l2program(compile_function(make_named("and")), epsilon=0.7)


def test_verify_arity_mismatch():
    with pytest.raises(ValueError):
        verify(compile_function(make_named("and")), make_named("xnand"))


@st.composite
def programs(draw, max_arity=8):
    """A random GHZ program: any subsets, any exact increments."""
    n = draw(st.integers(1, max_arity))
    qubits = draw(st.lists(
        st.builds(
            QubitSpec,
            mask=st.integers(1, (1 << n) - 1),
            delta=st.builds(Fraction, st.integers(-(1 << 40), 1 << 40), st.integers(1, 1 << 20)),
        ),
        max_size=16,
    ))
    return GhzProgram(n, tuple(qubits), draw(st.integers(0, 1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(program=programs())
def test_config_roundtrip_property(program):
    config = json.loads(json.dumps(program_to_config(program)))
    assert program_from_config(config) == program


def sylvester_hadamard(n):
    """H[a, x] = (-1)^(a.x), built by Kronecker products."""
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(n):
        h = np.kron(np.array([[1, 1], [1, -1]]), h)
    return h


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_compile_emits_exactly_the_nonzero_masks(n, seed):
    f = random_function(random.Random(seed), n)
    sums = sylvester_hadamard(n) @ np.array(f.table)  # 2^n c_T
    program = compile_function(f)
    assert [q.mask for q in program.qubits] == [m for m in range(1, 1 << n) if sums[m]]
    assert verify(program, f).deterministic


# ---------------------------------------------------------------------------
# increments against the parity expansion by direct summation

def summation_coefficients(f):
    """Direct-summation oracle for the parity expansion c_T."""
    n = f.arity
    out = {}
    for mask in range(1 << n):
        total = 0
        for x in range(1 << n):
            sign = -1 if bin(mask & x).count("1") & 1 else 1
            total += f.table[x] * sign
        out[mask] = Fraction(total, 1 << n)
    return out


def increments(f):
    """The compiled delta_T of every nonempty subset T, 0 where none is emitted."""
    deltas = dict.fromkeys(range(1, 1 << f.arity), Fraction(0))
    deltas.update((q.mask, q.delta) for q in compile_function(f).qubits)
    return deltas


def test_compile_increments_and():
    q = Fraction(1, 4)
    assert increments(make_named("and")) == {0b01: 2 * q, 0b10: 2 * q, 0b11: -2 * q}
    coefficients = summation_coefficients(make_named("and"))
    assert increments(make_named("and")) == {m: -2 * coefficients[m] for m in range(1, 4)}


def test_compile_increments_const0_and_xor():
    assert compile_function(make_named("const0", 2)).qubits == ()
    xor = compile_function(make_named("xor"))
    assert {q.mask: q.delta for q in xor.qubits} == {0b11: Fraction(1)}
    coefficients = summation_coefficients(make_named("xor"))
    assert increments(make_named("xor")) == {m: -2 * coefficients[m] for m in range(1, 4)}


def test_compile_increments_reconstruct_exactly():
    rng = random.Random(99)
    samples = [BooleanFunction(2, tuple((bits >> i) & 1 for i in range(4))) for bits in range(16)]
    samples += [random_function(rng, 4) for _ in range(40)]
    for f in samples:
        coefficients = summation_coefficients(f)
        deltas = increments(f)
        assert deltas == {m: -2 * coefficients[m] for m in deltas}
        # f(x) = c_0 + sum_T c_T (-1)^(T.x), with c_T = -delta_T / 2
        for x in range(1 << f.arity):
            value = coefficients[0] - sum(
                d / 2 * (-1) ** ((m & x).bit_count() & 1) for m, d in deltas.items()
            )
            assert value == f.table[x]
        assert coefficients[0] - sum(deltas.values()) / 2 == f.table[0]


def test_config_roundtrip():
    program = compile_function(make_named("maj", 3))
    config = program_to_config(program)
    assert program_from_config(config) == program
    with pytest.raises(ValueError):
        program_from_config({"n": 2})


@pytest.mark.parametrize("key", ["n", "constant", "mask", "num", "den"])
@pytest.mark.parametrize("value", [1.9, 1.0, True, "1"])
def test_config_fields_must_be_json_integers(key, value):
    # int() would truncate 1.9 to 1 and take True as 1: a different program
    config = {"n": 2, "constant": 0, "qubits": [{"mask": 1, "num": 1, "den": 2}]}
    if key in ("n", "constant"):
        config[key] = value
    else:
        config["qubits"][0][key] = value
    with pytest.raises(ValueError, match=f"{key} {value!r} is not an integer"):
        program_from_config(config)


# ---------------------------------------------------------------------------
# transform-based verify against the per-input Fraction oracle

def _program(n, qubits, constant=0):
    return GhzProgram(
        n, tuple(QubitSpec(m, Fraction(d)) for m, d in qubits), constant
    )


def _tampered(n, seed):
    rng = random.Random(seed)
    qubits = []
    while not qubits:
        f = random_function(rng, n)
        qubits = list(compile_function(f).qubits)
    i = rng.randrange(len(qubits))
    shift = Fraction(rng.choice([1, 3]), 1 << rng.randrange(n))
    qubits[i] = QubitSpec(qubits[i].mask, qubits[i].delta + shift)
    return GhzProgram(n, tuple(qubits), f.table[0]), f


def _target_from_phases(program, rng):
    """f(x) = S(x) xor constant where S(x) is an integer; a random bit elsewhere."""
    table = []
    for x in range(1 << program.n):
        s = program.phase_sum(x)
        bit = int(s) % 2 if s.denominator == 1 else rng.randrange(2)
        table.append(bit ^ program.constant)
    return BooleanFunction(program.n, tuple(table))


ORACLE_CASES = {
    # the same mask several times, some increments cancelling
    "repeated-masks": _program(
        3, [(1, "1/2"), (1, "1/2"), (3, "-1/4"), (3, "1/4"), (5, "1"), (5, "1/2"), (7, "3/2")]
    ),
    "non-dyadic": _program(
        4, [(1, "1/3"), (2, "-5/7"), (3, "2/3"), (12, "5/7"), (15, "-1/3"), (1, "1/3")], 1
    ),
    "beyond-int64": _program(
        2, [(1, Fraction(1, 2**70 + 1)), (2, Fraction(2**70, 2**70 + 1)), (3, "1/2")]
    ),
    "one-qubit": _program(1, [(1, "1")]),
    "no-qubits": _program(3, [], 1),
    # D = 2^57 and sum |delta D| + 2 D = 2^60 - 1: the last int64 value of the bound
    "int64-edge": _program(
        3,
        [
            (1, Fraction(2**58 + 1, 2**57)),
            (2, Fraction(-(2**58 - 1), 2**57)),
            (7, Fraction(2**58 - 1, 2**57)),
        ],
    ),
}

# one more unit of numerator: sum |delta D| + 2 D = 2^60, past int64's bound
OBJECT_EDGE = _program(
    3,
    [
        (1, Fraction(2**58 + 1, 2**57)),
        (2, Fraction(-(2**58 - 1), 2**57)),
        (7, Fraction(2**58, 2**57)),
    ],
)


def _per_input_statevector_success(program, f):
    """The cross-check as one state-vector oracle call per input (oracle copy)."""
    box = run_as_l2program(program).boxes[0]
    out = {}
    for x_idx in range(1 << program.n):
        x = tuple((x_idx >> j) & 1 for j in range(program.n))
        box_inputs = tuple((q.mask & x_idx).bit_count() & 1 for q in program.qubits)
        p1 = statevector_oracle(box, box_inputs).parity_probability(1)
        out[x] = p1 if f.table[x_idx] ^ program.constant else 1.0 - p1
    return out


def _check_against_oracle(program, f):
    result = verify(program, f)
    for x_idx in range(1 << program.n):
        x = tuple((x_idx >> j) & 1 for j in range(program.n))
        residue = (program.phase_sum(x_idx) - (f.table[x_idx] ^ program.constant)) % 2
        assert result.congruence_ok[x] == (residue == 0)
        # the exact residue rounded once, so equal to the last bit
        assert result.success[x] == (1 + math.cos(math.pi * float(residue))) / 2
    if 0 < program.n_qubits <= STATEVECTOR_QUBIT_CAP:
        for x, p in result.success.items():
            assert abs(p - result.statevector_success[x]) <= 1e-10
        if program.n <= 5:
            per_input = _per_input_statevector_success(program, f)
            assert result.statevector_success.keys() == per_input.keys()
            for x, p in per_input.items():
                assert abs(p - result.statevector_success[x]) <= 1e-12
    else:
        assert result.statevector_success is None
    return result


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_transform_verify_matches_fraction_oracle(name):
    program = ORACLE_CASES[name]
    rng = random.Random(name)
    for _ in range(4):
        _check_against_oracle(program, _target_from_phases(program, rng))


def test_verify_takes_int64_up_to_its_bound(monkeypatch):
    dtypes = []
    transform = ghzc.walsh

    def recording(values):
        dtypes.append(values.dtype)
        return transform(values)

    monkeypatch.setattr(ghzc, "walsh", recording)
    rng = random.Random("edge")
    for program, dtype in ((ORACLE_CASES["int64-edge"], np.int64), (OBJECT_EDGE, object)):
        for _ in range(4):
            dtypes.clear()
            _check_against_oracle(program, _target_from_phases(program, rng))
            assert dtypes == [np.dtype(dtype)]


# n=4 programs reach 15 qubits, where the state-vector oracle is the slow part
@pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (5, 0), (6, 0), (6, 1)])
def test_transform_verify_matches_oracle_on_tampered_programs(n, seed):
    program, f = _tampered(n, 100 * n + seed)
    result = _check_against_oracle(program, f)
    assert not result.deterministic


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_flipped_constant_fails_congruence_everywhere(n):
    f = random_function(random.Random(n), n)
    program = compile_function(f)
    flipped = GhzProgram(program.n, program.qubits, 1 - program.constant)
    assert verify(program, f).deterministic
    result = _check_against_oracle(flipped, f)
    assert not result.deterministic
    assert not any(result.congruence_ok.values())
    assert all(p == pytest.approx(0.0, abs=1e-12) for p in result.success.values())


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cross_check_holds_one_chunk_at_a_time():
    # 16 qubits at n = 5: 32 inputs, one row of 2^16 amplitudes per chunk
    program = _program(5, [(m, Fraction(m, 16)) for m in range(1, 17)])
    f = _target_from_phases(program, random.Random(16))
    _check_against_oracle(program, f)
    box = run_as_l2program(program).boxes[0]
    one_call = _traced_peak(lambda: statevector_oracle(box, (1,) * 16))
    assert _traced_peak(lambda: verify(program, f, use_statevector=True)) <= 2 * one_call


def test_cross_check_above_the_cap_raises_before_allocating():
    program = _program(5, [(m, "1/2") for m in range(1, 18)])
    f = _target_from_phases(program, random.Random(17))
    one_row = 16 << 17  # complex amplitudes of one 17-qubit state

    def cross_check():
        with pytest.raises(ValueError, match="cap"):
            verify(program, f, use_statevector=True)

    assert _traced_peak(cross_check) < one_row
