import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2mbqc import boolfn
from l2mbqc.boolfn import (
    AffineForm,
    BooleanFunction,
    affine_distance,
    all_affine_forms,
    kmaj_nonlinearity,
    index_bits,
    input_keys,
    make_named,
    nonlinearity,
    walsh,
)


def brute_nonlinearity(f):
    """Independent route: explicit minimum over enumerated affine forms."""
    return min(affine_distance(f, l) for l in all_affine_forms(f.arity))


@st.composite
def functions(draw, max_arity=8):
    """A random truth table of arity at most ``max_arity``."""
    n = draw(st.integers(0, max_arity))
    return BooleanFunction(n, index_bits(draw(st.integers(0, (1 << (1 << n)) - 1)), 1 << n))


def all_functions(n):
    for bits in range(1 << (1 << n)):
        yield BooleanFunction(n, tuple((bits >> i) & 1 for i in range(1 << n)))


# ---------------------------------------------------------------------------
# evaluation and named constructors

def test_evaluate_named_examples():
    assert make_named("and")(1, 1) == 1
    assert make_named("xnand")(0, 1, 0) == 0
    assert make_named("maj", 3)(1, 0, 1) == 1


def test_xnand_truth_table_rows():
    xnand = make_named("xnand")
    expected = {
        (0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 0, (0, 1, 1): 1,
        (1, 0, 0): 1, (1, 0, 1): 0, (1, 1, 0): 0, (1, 1, 1): 0,
    }
    for bits, out in expected.items():
        assert xnand(*bits) == out


def test_xnand_duplicated_input_is_nand():
    xnand, nand = make_named("xnand"), make_named("nand")
    for b0, b1 in itertools.product((0, 1), repeat=2):
        assert xnand(b0, b1, b1) == nand(b0, b1)


def test_maj1_is_identity():
    m = make_named("maj", 1)
    assert m.table == (0, 1)


def test_const_and_errors():
    assert make_named("const1", 3).table == (1,) * 8
    assert make_named("const0", 0).table == (0,)
    with pytest.raises(ValueError):
        make_named("maj", 4)
    with pytest.raises(ValueError):
        make_named("maj")
    with pytest.raises(ValueError):
        make_named("frobnicate")


def test_make_named_rejects_arity_above_cap_before_building():
    for name, k in (("maj", 17), ("const1", 17)):
        with pytest.raises(ValueError, match="above cap 16"):
            make_named(name, k)
    assert len(make_named("maj", 15).table) == 1 << 15


@pytest.mark.parametrize("n", [0, 1, 5, boolfn.COMPILE_ARITY_CAP + 1])
def test_input_keys_are_in_table_order(n):
    assert input_keys(n) == tuple(index_bits(i, n) for i in range(1 << n))


def test_input_keys_above_the_cache_bound_are_not_kept():
    # 2^14 tuples take about 2 MiB; none may outlive the caller's reference
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keys = input_keys(14)
        assert len(keys) == 1 << 14
        del keys
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


def test_evaluate_arity_mismatch():
    with pytest.raises(ValueError):
        make_named("and")((1, 0, 1))


@pytest.mark.parametrize("x", [(2, 3), (1, -1), (0, 3), (1.0, 0), (0, "1"), (np.int64(2), 0)])
def test_index_of_rejects_entries_that_are_not_bits(x):
    # each entry used to be reduced mod 2, so (2, 3) read as (0, 1)
    f = make_named("and")
    with pytest.raises(ValueError, match="is not a bit"):
        f.index_of(x)
    with pytest.raises(ValueError, match="is not a bit"):
        f(*x)


def test_index_of_takes_bools_and_numpy_bits():
    f = make_named("and")
    assert f.index_of((True, np.int64(1))) == 3
    assert f(np.array([1, 0], dtype=np.uint8)) == 0
    assert f(True, True) == 1


def test_one_numpy_scalar_is_one_bit():
    # a lone non-int argument used to be read as a sequence of bits
    ident = make_named("maj", 1)
    for one in (np.int64(1), np.uint8(1), np.bool_(True)):
        assert ident(one) == 1
    for zero in (np.int32(0), np.bool_(False)):
        assert ident(zero) == 0
    assert make_named("and")(np.bool_(True), np.int64(1)) == 1
    with pytest.raises(ValueError, match="is not a bit"):
        ident(np.int64(2))


def test_decomposition_identities():
    # 3-MAJ and XNAND from a single AND plus parities
    maj, xnand = make_named("maj", 3), make_named("xnand")
    for a, b, c in itertools.product((0, 1), repeat=3):
        assert ((a ^ b) & (a ^ c)) ^ a == maj(a, b, c)
        assert ((a ^ b) & (a ^ b ^ c)) ^ a ^ 1 == xnand(a, b, c)


# ---------------------------------------------------------------------------
# affine distance and nonlinearity

def test_affine_distance_examples():
    and2 = make_named("and")
    assert affine_distance(and2, AffineForm(2, 0, 0)) == 1  # constant 0
    for l in all_affine_forms(3):
        assert affine_distance(l.truth_table(), l) == 0
    maj3 = make_named("maj", 3)
    x1 = AffineForm(3, 0b001, 0)
    assert affine_distance(maj3, x1) == 2
    disagreements = [
        i for i in range(8) if maj3.table[i] != x1.evaluate_index(i)
    ]
    assert disagreements == [0b001, 0b110]  # input strings 100 and 011


def test_affine_distance_arity_mismatch():
    with pytest.raises(ValueError):
        affine_distance(make_named("and"), AffineForm(3, 1, 0))


def test_nonlinearity_examples():
    assert nonlinearity(make_named("and")) == 1
    for l in all_affine_forms(3):
        assert nonlinearity(l.truth_table()) == 0
    assert nonlinearity(make_named("maj", 3)) == 2 == kmaj_nonlinearity(3)
    assert nonlinearity(make_named("const1", 2)) == 0  # the constant offset is free


def test_nonlinearity_matches_enumeration():
    import random

    rng = random.Random(20240817)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            f = BooleanFunction(
                n, tuple(rng.randrange(2) for _ in range(1 << n))
            )
            assert nonlinearity(f) == brute_nonlinearity(f)


def test_nonlinearity_zero_iff_affine_n3():
    affine_tables = {l.truth_table().table for l in all_affine_forms(3)}
    for f in all_functions(3):
        assert (nonlinearity(f) == 0) == (f.table in affine_tables)


@pytest.mark.parametrize(
    "k,expected", [(1, 0), (3, 2), (5, 10), (7, 44), (9, 186)]
)
def test_kmaj_nonlinearity_closed_form(k, expected):
    assert kmaj_nonlinearity(k) == expected


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_kmaj_nonlinearity_matches_brute_force(k):
    assert kmaj_nonlinearity(k) == brute_nonlinearity(make_named("maj", k))


def test_kmaj_nonlinearity_rejects_even_or_negative_k():
    for k in (0, 2, -3):
        with pytest.raises(ValueError):
            kmaj_nonlinearity(k)


def test_nonlinearity_arity_cap():
    with pytest.raises(ValueError):
        nonlinearity(BooleanFunction(17, (0,) * (1 << 17)))


# ---------------------------------------------------------------------------
# text format

def test_text_roundtrip():
    for f in (
        make_named("and"),
        make_named("xnand"),
        make_named("maj", 5),
        make_named("const1", 0),
    ):
        assert boolfn.from_text(boolfn.to_text(f)) == f


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(f=functions())
def test_text_roundtrip_property(f):
    assert boolfn.from_text(boolfn.to_text(f)) == f


def test_text_format_shape():
    assert boolfn.to_text(make_named("and")) == "n=2\n8\n"


def test_text_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        boolfn.from_text("m=2\n8\n")
    with pytest.raises(ValueError, match="line 2"):
        boolfn.from_text("n=2\nzz\n")
    with pytest.raises(ValueError, match="line 2"):
        boolfn.from_text("n=1\nff\n")  # more bits than 2^1
    # int(s, 16) and int(s) also take signs, 0x prefixes, underscores and
    # non-ASCII digits
    for table in ("-1", "+8", "0x8", "1_0", "\u06608"):
        with pytest.raises(ValueError, match="line 2: invalid hex table"):
            boolfn.from_text(f"n=3\n{table}\n")
    for arity in ("+2", "1_0", "-1", "\u0662"):
        with pytest.raises(ValueError, match="line 1: bad arity"):
            boolfn.from_text(f"n={arity}\n8\n")
    with pytest.raises(ValueError, match="line 4: invalid hex table"):
        boolfn.from_text("# header\nn=2\n\n-1\n")


@pytest.mark.parametrize("arity", [17, 64])
def test_text_arity_above_cap_rejected_before_allocating(arity):
    # n=64 would otherwise build a 2^64-bit bound before any check
    with pytest.raises(ValueError, match=f"line 1: arity {arity} above cap 16"):
        boolfn.from_text(f"n={arity}\n0\n")


def test_table_validation():
    with pytest.raises(ValueError):
        BooleanFunction(2, (0, 1, 0))
    with pytest.raises(ValueError):
        BooleanFunction(1, (0, 2))


# ---------------------------------------------------------------------------
# the Walsh kernel

def brute_walsh(values):
    n = len(values)
    return [
        sum(v * (-1 if (a & x).bit_count() & 1 else 1) for x, v in enumerate(values))
        for a in range(n)
    ]


def test_walsh_matches_direct_sum_in_int64_and_exact_ints():
    rng = random.Random(5)
    for size in (1, 2, 8, 64):
        values = [rng.randrange(-50, 50) for _ in range(size)]
        out = walsh(np.asarray(values, dtype=np.int64))
        assert out.dtype == np.int64 and out.tolist() == brute_walsh(values)
        big = [v * (2**80 + 1) for v in values]
        exact = walsh(np.asarray(big, dtype=object))
        assert exact.dtype == object and list(exact) == brute_walsh(big)


def test_walsh_leaves_its_input_alone():
    for values in ([7], [1, 2, 3, 4], list(range(-8, 8))):
        for dtype in (np.int64, object):
            given_values = np.asarray(values, dtype=dtype)
            out = walsh(given_values)
            assert given_values.tolist() == values and out is not given_values
            assert out.tolist() == brute_walsh(values)


def test_walsh_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        walsh(np.zeros(6, dtype=np.int64))
