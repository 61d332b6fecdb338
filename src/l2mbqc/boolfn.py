"""Boolean functions as explicit truth tables.

Tables are indexed with the first input bit in the least-significant
position: input x = (x1, ..., xn) lives at index x1 + 2*x2 + ... + 2^(n-1)*xn.
Distances to affine functions, the Walsh transform, and the closed-form
majority nonlinearity all live here.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

#: largest arity of a truth table read from a file or built by name for
#: maj/const, and of the exhaustive nonlinearity search
BRUTE_FORCE_ARITY_CAP = 16
#: largest arity ``ghzc.compile_function`` accepts; ``input_keys`` caches the
#: tables up to it (about 0.25 MB in all)
COMPILE_ARITY_CAP = 10


def index_bits(value: int, width: int) -> tuple[int, ...]:
    """The low ``width`` bits of value, least-significant first: the input
    whose table index is value."""
    return tuple((value >> j) & 1 for j in range(width))


#: the scalar types that may stand for one input bit
_BIT_TYPES = (int, np.integer, np.bool_)


def as_bits(x: Iterable[int]) -> tuple[int, ...]:
    """The entries of x as ints; any entry other than 0 or 1 raises
    ValueError, where bools, numpy integers and numpy bools equal to 0 or 1
    pass."""
    bits = tuple(x)
    for b in bits:
        if not isinstance(b, _BIT_TYPES) or b not in (0, 1):
            raise ValueError(f"input entry {b!r} is not a bit")
    return tuple(map(int, bits))


def input_keys(n: int) -> tuple[tuple[int, ...], ...]:
    """Every n-bit input as a bit tuple, in table order: bit j of index i is
    entry j. Cached up to ``COMPILE_ARITY_CAP`` inputs; a larger table is
    built afresh, so nothing holds its 2^n tuples after the caller drops it."""
    return (_cached_input_keys if n <= COMPILE_ARITY_CAP else _input_keys)(n)


def _input_keys(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(x[::-1] for x in itertools.product((0, 1), repeat=n))


_cached_input_keys = lru_cache(maxsize=None)(_input_keys)


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of an n-bit Boolean function."""

    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        if len(self.table) != 1 << self.arity:
            raise ValueError(
                f"table length {len(self.table)} does not match arity {self.arity}"
            )
        if any(b not in (0, 1) for b in self.table):
            raise ValueError("table entries must be bits")

    @classmethod
    def from_callable(cls, arity: int, fn: Callable[..., int]) -> "BooleanFunction":
        """Tabulate ``fn(x1, ..., xn)`` over all inputs."""
        table = tuple(int(fn(*x)) & 1 for x in input_keys(arity))
        return cls(arity, table)

    def index_of(self, x: Iterable[int]) -> int:
        bits = as_bits(x)
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} input bits, got {len(bits)}")
        return sum(b << j for j, b in enumerate(bits))

    def __call__(self, *x: int) -> int:
        """f(x1, ..., xn), or f(bits) with one sequence of bits."""
        if len(x) == 1 and not isinstance(x[0], _BIT_TYPES):
            x = tuple(x[0])
        return self.table[self.index_of(x)]


@dataclass(frozen=True)
class AffineForm:
    """x -> (xor of the bits selected by mask) xor constant."""

    arity: int
    mask: int
    constant: int = 0

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.arity):
            raise ValueError("mask selects bits outside the arity")
        if self.constant not in (0, 1):
            raise ValueError("constant must be a bit")

    def evaluate_index(self, i: int) -> int:
        return ((self.mask & i).bit_count() & 1) ^ self.constant

    def truth_table(self) -> BooleanFunction:
        return BooleanFunction(
            self.arity,
            tuple(self.evaluate_index(i) for i in range(1 << self.arity)),
        )


def all_affine_forms(arity: int) -> Iterable[AffineForm]:
    """All 2^(n+1) affine forms on n bits."""
    for mask in range(1 << arity):
        for constant in (0, 1):
            yield AffineForm(arity, mask, constant)


# ---------------------------------------------------------------------------
# named functions

_XNAND_TABLE = {
    # (b0, b1, b2) -> output
    (0, 0, 0): 1,
    (0, 0, 1): 1,
    (0, 1, 0): 0,
    (0, 1, 1): 1,
    (1, 0, 0): 1,
    (1, 0, 1): 0,
    (1, 1, 0): 0,
    (1, 1, 1): 0,
}


def make_named(name: str, k: int | None = None) -> BooleanFunction:
    """Construct a named function: and, nand, xor, const0, const1, maj, xnand.

    ``k`` is the arity for maj (odd) and the const functions; the other
    names have fixed arity.
    """
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key in ("const0", "const1", "maj", "kmaj") and k is not None and k > BRUTE_FORCE_ARITY_CAP:
        # checked before the 2^k-entry table is built
        raise ValueError(f"{name} arity {k} above cap {BRUTE_FORCE_ARITY_CAP}")
    if key == "and":
        return BooleanFunction.from_callable(2, lambda a, b: a & b)
    if key == "nand":
        return BooleanFunction.from_callable(2, lambda a, b: 1 - (a & b))
    if key == "xor":
        return BooleanFunction.from_callable(2, lambda a, b: a ^ b)
    if key in ("const0", "const1"):
        n = 2 if k is None else k
        if n < 0:
            raise ValueError("const arity must be nonnegative")
        bit = 1 if key == "const1" else 0
        return BooleanFunction(n, (bit,) * (1 << n))
    if key in ("maj", "kmaj"):
        if k is None:
            raise ValueError("maj requires the number of inputs k")
        if k < 1 or k % 2 == 0:
            raise ValueError(f"majority needs odd k >= 1, got {k}")
        table = tuple(
            1 if i.bit_count() * 2 > k else 0 for i in range(1 << k)
        )
        return BooleanFunction(k, table)
    if key == "xnand":
        f = BooleanFunction.from_callable(3, lambda b0, b1, b2: _XNAND_TABLE[(b0, b1, b2)])
        return f
    raise ValueError(f"unknown function name {name!r}")


# ---------------------------------------------------------------------------
# distance to affine functions

def affine_distance(f: BooleanFunction, l: AffineForm) -> int:
    """Number of inputs where f and the affine form disagree."""
    if l.arity != f.arity:
        raise ValueError("arity mismatch between function and affine form")
    return sum(
        1 for i in range(1 << f.arity) if f.table[i] != l.evaluate_index(i)
    )


def walsh(values) -> np.ndarray:
    """Fast Walsh-Hadamard transform: out[a] = sum_x values[x] (-1)^(a.x).

    The length must be a power of two. The dtype is kept, so an int64 table
    stays int64 and an object array of Python ints stays exact at any size.
    Each level is one butterfly, two ufunc calls from one buffer into the
    other; the input is never written.
    """
    w = np.array(values)
    if w.ndim != 1 or w.size & (w.size - 1):
        raise ValueError(f"transform length {w.size} is not a power of two")
    spare = np.empty_like(w)
    h = 1
    while h < w.size:
        pairs, out = w.reshape(-1, 2, h), spare.reshape(-1, 2, h)
        np.add(pairs[:, 0], pairs[:, 1], out=out[:, 0])
        np.subtract(pairs[:, 0], pairs[:, 1], out=out[:, 1])
        w, spare = spare, w
        h *= 2
    return w


def index_parity(n: int) -> np.ndarray:
    """The parity of every index 0 .. 2^n - 1 (uint8): out[i] = popcount(i) & 1."""
    parity = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        parity = np.concatenate((parity, parity ^ 1))
    return parity


def nonlinearity(f: BooleanFunction) -> int:
    """Minimum distance from f to any affine form.

    The constant-1 offset is allowed, matching what a parity-limited control
    computer can add for free.
    """
    if f.arity > BRUTE_FORCE_ARITY_CAP:
        raise ValueError(
            f"arity {f.arity} above brute-force cap {BRUTE_FORCE_ARITY_CAP}"
        )
    # signed spectrum W(a) = sum_x (-1)^(f(x) xor a.x)
    spectrum = walsh(1 - 2 * np.asarray(f.table, dtype=np.int64))
    return ((1 << f.arity) - int(np.max(np.abs(spectrum)))) // 2


def kmaj_nonlinearity(k: int) -> int:
    """Closed-form nonlinearity of the k-input majority, odd k."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"majority nonlinearity needs odd k >= 1, got {k}")
    return (1 << (k - 1)) - math.comb(k - 1, (k - 1) // 2)


# ---------------------------------------------------------------------------
# truth-table text format

def to_text(f: BooleanFunction) -> str:
    """Serialize as a header line ``n=<arity>`` plus a hex string of the table.

    Bit i of the hex value is table entry i, so index 0 sits in the
    least-significant nibble.
    """
    value = 0
    for i, b in enumerate(f.table):
        value |= b << i
    digits = max(1, (len(f.table) + 3) // 4)
    return f"n={f.arity}\n{value:0{digits}x}\n"


def from_text(text: str) -> BooleanFunction:
    """Parse the truth-table text format; raises ValueError with line numbers."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError("line 1: expected a header line and a hex table line")
    (hdr_no, header), (tab_no, hexpart) = lines[0], lines[1]
    if not header.startswith("n="):
        raise ValueError(f"line {hdr_no}: header must look like 'n=<arity>'")
    # int() alone would also take signs, underscores and non-ASCII digits
    if not re.fullmatch(r"[0-9]+", header[2:]):
        raise ValueError(f"line {hdr_no}: bad arity {header[2:]!r}")
    arity = int(header[2:])
    if arity > BRUTE_FORCE_ARITY_CAP:
        # checked before the 2^arity-bit table bound below is built
        raise ValueError(
            f"line {hdr_no}: arity {arity} above cap {BRUTE_FORCE_ARITY_CAP}"
        )
    if not re.fullmatch(r"[0-9a-fA-F]+", hexpart):  # no sign, 0x prefix or underscore
        raise ValueError(f"line {tab_no}: invalid hex table {hexpart!r}")
    value = int(hexpart, 16)
    size = 1 << arity
    if value >= (1 << size):
        raise ValueError(f"line {tab_no}: table has more than 2^{arity} bits")
    return BooleanFunction(arity, index_bits(value, size))
