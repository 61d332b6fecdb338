"""Reliable evaluation of NAND formulas from noisy gates by multiplexing.

Every logical bit is carried by a bundle of W wires. Compute stages apply a
noisy three-input XNAND wire-wise to one copy of the first operand and two
copies of the second; restore stages vote with noisy k-input majority gates
to push the bundle error back toward its fixed point. Both kinds are one
``Stage`` shape: a target bundle and one source bundle per gate input.
``build`` lays out the stages and draws nothing; the wire permutation that
feeds each gate input is the circuit's ``wiring``, drawn from (seed, stage
order) the first time the sampler runs on the circuit.

Every error model runs on one stage walk, ``_walk``, which tracks the true
logical values and hands each stage's gate and true input indices to the
model's step; the step maps how wrong the read bundles are to how wrong the
target is. The walk takes a batch of inputs at once and groups them by each
bundle's (true value, state), and calls each stage's step once, on numpy
arrays with one row per distinct (true index, read states): the sweep over
all 2^n inputs is one walk. The independence model's state is one wire's
error probability, with the wires of a bundle assumed independent: a compute
stage enumerates the flip patterns of its independent input wires, and a
restore stage is one polynomial in the read error
(``gates.restore_polynomial``). The seeded wire-level Monte Carlo's state
is the set of wrong wires under the circuit's fixed wiring, walked one
input at a time; it quantifies how much that assumption leaks.

The Monte Carlo sampler is bit-sliced: 64 trials ride in one uint64 word,
and trials run in blocks of ``BLOCK`` = 1024. Block b draws all its gate
flips from one SFC64 stream seeded with (seed, input, b), so a trial's
outcome depends only on (seed, input, block) and a shorter run is a prefix
of a longer one. ``MC_STREAM`` names this stream contract,
"bitsliced-sfc64-v2".
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .boolfn import BRUTE_FORCE_ARITY_CAP, input_keys, make_named
from .gates import NoisyGate, beta, majority_error, restore_error, restore_polynomial

EQUAL_ERROR_SLACK = 0.05
#: largest stages x width of a circuit, checked before any stage is laid
#: out: the wiring holds k length-W permutations per restore stage, and the
#: sampler draws BLOCK / 8 bytes of flips per wire, stage and error value
CIRCUIT_SIZE_CAP = 1 << 21
#: most Monte Carlo trials per sampled input
TRIALS_CAP = 1 << 24


# ---------------------------------------------------------------------------
# NAND formulas

@dataclass(frozen=True)
class FormulaDag:
    """NAND gates over named inputs; reference i < n_inputs is input i,
    reference n_inputs + j is node j. The last node is the output."""

    inputs: tuple[str, ...]
    nodes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("formula needs at least one NAND node")
        for j, (a, b) in enumerate(self.nodes):
            limit = len(self.inputs) + j
            if not (0 <= a < limit and 0 <= b < limit):
                raise ValueError(f"node {j} references an unavailable operand")

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def output_ref(self) -> int:
        return self.n_inputs + self.n_nodes - 1

    def evaluate_all(self, x: Sequence[int]) -> list[int]:
        """Values of every reference (inputs then nodes) for one assignment."""
        if len(x) != self.n_inputs:
            raise ValueError("one bit per formula input required")
        vals = [int(b) & 1 for b in x]
        for a, b in self.nodes:
            vals.append(1 - (vals[a] & vals[b]))
        return vals

    def evaluate(self, x: Sequence[int]) -> int:
        return self.evaluate_all(x)[-1]

    def consumer_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for a, b in self.nodes:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        return counts


def parse_formula(text: str) -> FormulaDag:
    """Parse nested s-expressions of NAND over named inputs.

    Example: ``(nand a (nand a b))``. Errors carry the 1-based line number.
    """
    tokens: list[tuple[str, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        chunk = line.split("#", 1)[0]
        chunk = chunk.replace("(", " ( ").replace(")", " ) ")
        for tok in chunk.split():
            tokens.append((tok, line_no))
    if not tokens:
        raise ValueError("line 1: empty formula")

    inputs: dict[str, int] = {}
    nodes: list[tuple[int, int]] = []
    # open groups, innermost last: (line of the '(', operands parsed so far);
    # an explicit stack, so nesting depth is bounded by memory, not recursion
    open_groups: list[tuple[int, list[int]]] = []
    pos = 0
    while True:
        if pos >= len(tokens):
            raise ValueError(f"line {tokens[-1][1]}: unexpected end of formula")
        tok, line_no = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos][0].lower() != "nand":
                raise ValueError(f"line {line_no}: expected 'nand' after '('")
            pos += 1
            open_groups.append((line_no, []))
            continue
        if tok == ")":
            raise ValueError(f"line {line_no}: unexpected ')'")
        if not tok.replace("_", "").isalnum() or tok[0].isdigit():
            raise ValueError(f"line {line_no}: bad input name {tok!r}")
        ref = inputs.setdefault(tok, len(inputs))
        # close every group this operand completes
        while open_groups:
            open_line, operands = open_groups[-1]
            operands.append(ref)
            if len(operands) < 2:
                break
            if pos >= len(tokens) or tokens[pos][0] != ")":
                raise ValueError(f"line {open_line}: expected ')'")
            pos += 1
            open_groups.pop()
            nodes.append((operands[0], operands[1]))
            ref = -len(nodes)  # provisional node handle
        if not open_groups:
            break

    if pos != len(tokens):
        raise ValueError(f"line {tokens[pos][1]}: trailing tokens after formula")
    if ref >= 0:
        raise ValueError("line 1: formula must contain at least one nand")
    n = len(inputs)
    fixed = tuple(
        tuple(ref if ref >= 0 else n + (-ref - 1) for ref in node) for node in nodes
    )
    return FormulaDag(inputs=tuple(inputs), nodes=fixed)


def formula_to_text(formula: FormulaDag) -> str:
    """Render as nested s-expressions; iterative, so any depth renders."""
    parts: list[str] = []
    pending: list[int | str] = [formula.output_ref]  # refs to render, literal text
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item < formula.n_inputs:
            parts.append(formula.inputs[item])
        else:
            a, b = formula.nodes[item - formula.n_inputs]
            pending.extend((")", b, " ", a, "(nand "))
    return "".join(parts)


# ---------------------------------------------------------------------------
# circuit construction

@dataclass(frozen=True)
class Stage:
    """One gate applied wire-wise: output wire j of bundle ``target`` is the
    gate of ``kind`` ("restore" or "compute") on, for each gate input i, wire
    ``perm[j]`` of bundle ``sources[i]``, where ``perm`` is entry i of the
    stage's row of the circuit's ``wiring``, or wire j itself when that entry
    is None.

    A restore stage reads its one source k times; a compute stage reads
    ``(a, b, b)``.
    """

    kind: str
    target: int
    sources: tuple[int, ...]


@dataclass(frozen=True)
class ReliableCircuit:
    """A laid-out circuit. The stages name only bundles; the wire
    permutations are ``wiring``, drawn from ``seed`` on first use."""

    formula: FormulaDag
    width: int
    kmaj: NoisyGate
    xnand: NoisyGate
    stages: tuple[Stage, ...]
    input_bundles: tuple[int, ...]
    output_bundle: int
    #: dead_after[s]: the bundles that stage s reads for the last time
    dead_after: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...]
    seed: int

    @functools.cached_property
    def wiring(self) -> tuple[tuple[np.ndarray | None, ...], ...]:
        """Per stage, the index array that feeds each gate input, so the
        sampler gathers wires with it directly; None feeds wire j itself.

        Drawn once per circuit from ``default_rng([seed, 0])``, stage by
        stage: a restore draws k independent permutations of range(W)
        (classic multiplexing, which admits occasional duplicate votes on an
        output wire); a compute reads ``a`` as is and ``b`` through sigma1
        and its rotation sigma2[i] = sigma1[(i + W//2) % W].
        """
        rng = np.random.default_rng([self.seed, 0])
        w = self.width
        rows = []
        for stage in self.stages:
            if stage.kind == "restore":
                rows.append(tuple(rng.permutation(w) for _ in stage.sources))
            else:
                sigma1 = rng.permutation(w)
                rows.append((None, sigma1, np.roll(sigma1, -(w // 2))))
        return tuple(rows)


def build(
    formula: FormulaDag,
    width: int,
    k: int,
    restore_rounds: int,
    *,
    xnand: NoisyGate,
    kmaj: NoisyGate,
    seed: int,
) -> ReliableCircuit:
    """Lay out restore and compute stages for the formula.

    Every input bundle gets ``restore_rounds`` restores before first use and
    every compute output gets the same number after it. A bundle consumed by
    more than one gate input is re-restored once per consumer so consumers
    never share wires. Threshold violations warn but do not fail: exploring
    the unreliable regime is part of the point.

    ``build`` draws nothing: the circuit's ``wiring`` is drawn from ``seed``
    the first time the sampler runs on it, so a negative seed is rejected
    here, before any work. Stages x width may be at most
    ``CIRCUIT_SIZE_CAP``; the stage count follows from the formula before
    any stage is laid out.
    """
    _check_seed(seed)
    if width < k:
        raise ValueError(f"bundle width {width} smaller than k = {k}")
    if restore_rounds < 0:
        raise ValueError("restore_rounds must be nonnegative")
    if kmaj.target != make_named("maj", k):
        raise ValueError(f"restore gate must target {k}-input majority")
    if xnand.target != make_named("xnand"):
        raise ValueError("compute gate must target the 3-input XNAND")
    consumers = formula.consumer_counts()
    n_stages = (
        (formula.n_inputs + formula.n_nodes) * restore_rounds
        + formula.n_nodes
        + sum(c for c in consumers.values() if c >= 2)
    )
    if n_stages * width > CIRCUIT_SIZE_CAP:
        raise ValueError(
            f"circuit has {n_stages} stages x width {width}, above cap {CIRCUIT_SIZE_CAP}"
        )

    warnings: list[str] = []
    if k >= 3:
        threshold = float(beta(k).beta)
        if kmaj.epsilon is None:
            warnings.append("restore gate error is input-dependent; threshold analysis assumes the worst entry")
            worst = max(kmaj.errors)
        else:
            worst = kmaj.epsilon
        if worst >= threshold:
            warnings.append(
                f"restore gate error {worst:.6f} is not below beta_{k} = {threshold:.6f}; restoration will not converge"
            )
    mu = max(xnand.errors)
    if mu >= 0.5:
        warnings.append(f"compute gate error {mu:.6f} is not below 1/2")

    stages: list[Stage] = []
    new_bundle = itertools.count().__next__

    def add_restores(src: int, rounds: int) -> int:
        for _ in range(rounds):
            target = new_bundle()
            stages.append(Stage("restore", target, (src,) * k))
            src = target
        return src

    raw_inputs = tuple(new_bundle() for _ in formula.inputs)
    prepared = {i: add_restores(b, restore_rounds) for i, b in enumerate(raw_inputs)}
    if any(c >= 2 for c in consumers.values()):
        warnings.append(
            "references consumed more than once are duplicated through an extra restore each; "
            "analytic independence across those copies is approximate"
        )

    def operand_bundle(ref: int) -> int:
        return add_restores(prepared[ref], 1 if consumers[ref] >= 2 else 0)

    for j, (a_ref, b_ref) in enumerate(formula.nodes):
        a_bundle = operand_bundle(a_ref)
        b_bundle = operand_bundle(b_ref)
        tgt = new_bundle()
        stages.append(Stage("compute", tgt, (a_bundle, b_bundle, b_bundle)))
        prepared[formula.n_inputs + j] = add_restores(tgt, restore_rounds)

    last_read = {src: s for s, stage in enumerate(stages) for src in stage.sources}
    dead_after: list[list[int]] = [[] for _ in stages]
    for src, s in last_read.items():
        dead_after[s].append(src)

    return ReliableCircuit(
        formula=formula,
        width=width,
        kmaj=kmaj,
        xnand=xnand,
        stages=tuple(stages),
        input_bundles=raw_inputs,
        output_bundle=prepared[formula.output_ref],
        dead_after=tuple(map(tuple, dead_after)),
        warnings=tuple(warnings),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the stage walk

def _combinations(stage: Stage, live: dict, n: int):
    """The rows of a stage whose gate inputs read more than one bundle of the
    walk's ``live`` ones, for a batch of ``n`` inputs: one row per combination
    of the sources' classes that occurs, as ``(inverse, counts, idx, reads)``
    (see ``_walk``). A stage with one split source takes its rows from that
    source's classes as they are."""
    # each distinct source with the gate inputs it feeds, as an index mask
    masks: dict[int, int] = {}
    for i, src in enumerate(stage.sources):
        masks[src] = masks.get(src, 0) | 1 << i
    # the sources whose inputs fall into more than one class (none for one input)
    split = [src for src in masks if live[src][0] is not None] if n > 1 else []
    pick = {}  # source -> the class of each row, where not taken as is
    if len(split) <= 1:
        inverse, _, _, counts = live[split[0] if split else stage.sources[0]]
    else:  # a mixed-radix code per input, first split source least significant
        code, size = 0, 1
        for src in reversed(split):
            code = code * len(live[src][1]) + live[src][0]
            size *= len(live[src][1])
        if size <= n:  # count every code; a code's row is the number of smaller codes that occur
            counts = np.bincount(code, minlength=size)
            codes = np.flatnonzero(counts)
            inverse, counts = (np.cumsum(counts > 0) - 1)[code], counts[codes]
        else:
            codes, inverse, counts = np.unique(code, return_inverse=True, return_counts=True)
        for src in split:
            codes, pick[src] = np.divmod(codes, len(live[src][1]))
    if split:  # unsplit sources repeat their one class on every row
        for src in masks:
            if src not in split:
                pick[src] = np.zeros(len(counts), dtype=int)
    parts, read = [], {}  # each distinct source's part of idx, and its states, per row
    for src, mask in masks.items():
        _, values, states, _ = live[src]
        if src in pick:
            values, states = values[pick[src]], states[pick[src]]
        parts.append(values * mask)
        read[src] = states
    return inverse, counts, sum(parts[1:], parts[0]), [read[src] for src in stage.sources]


def _walk(circuit: ReliableCircuit, xs: Sequence[tuple[int, ...]], clean, step):
    """Run every stage on the batch of input bit tuples ``xs`` at once; return
    the output bundle's ``(classes, values, states)``.

    A bundle's state is an error model's account of how wrong it is; input
    bundles start ``clean``. A live bundle splits the batch into classes:
    ``values`` holds each class's true value, ``states`` each class's state
    along a leading class axis, ``counts`` the inputs in each class and
    ``classes`` each input's class id, or None when one class holds the
    whole batch. Stage s calls ``step(s, stage, gate, idx, reads, counts)``
    once, with one row per combination of its sources' classes that occurs:
    ``idx`` holds the rows' true input indices, ``reads`` the read states in
    gate-input order and ``counts`` the inputs that share each row; the step
    returns the target's state per row. A stage whose gate inputs all read
    one bundle, as a restore's do, takes its rows from that bundle's classes
    as they are, and so does a stage with one split source. Rows with equal
    (value, state) merge into one class, so a stage has one row per distinct
    (true index, read states), and a batch of one never compares states. A
    bundle is dropped after its last read. Every input must have one bit per
    formula input.
    """
    n = len(xs)
    clean = np.asarray(clean)[None]
    live = {}  # bundle -> (classes, values, states, counts)
    for b, bits in zip(circuit.input_bundles, zip(*xs)):
        ones = bits.count(1)
        if 0 < ones < n:
            live[b] = (np.array(bits), np.array([0, 1]), np.concatenate([clean, clean]),
                       np.array([n - ones, ones]))
        else:
            live[b] = (None, np.array(bits[:1]), clean, np.array([n]))
    gate_of = {"restore": circuit.kmaj, "compute": circuit.xnand}
    table_of = {kind: np.array(gate.target.table) for kind, gate in gate_of.items()}
    for s, stage in enumerate(circuit.stages):
        if len(set(stage.sources)) == 1:  # every gate input reads one bundle, whose classes are the rows
            inverse, values, states, counts = live[stage.sources[0]]
            idx = values * ((1 << len(stage.sources)) - 1)
            reads = [states] * len(stage.sources)
        else:
            inverse, counts, idx, reads = _combinations(stage, live, n)
        states = step(s, stage, gate_of[stage.kind], idx, reads, counts)
        values = table_of[stage.kind][idx]
        if len(values) > 1:
            rows = states.tolist() if states.ndim == 1 else map(tuple, states.reshape(len(values), -1).tolist())
            keys = list(zip(values.tolist(), rows))
            if len(set(keys)) < len(keys):  # equal rows merge, in order of first appearance
                ids: dict = {}  # key -> its class
                first = []  # each class's first row
                for r, key in enumerate(keys):
                    if key not in ids:
                        ids[key] = len(first)
                        first.append(r)
                remap = np.array([ids[key] for key in keys])
                values, states = values[first], states[first]
                counts = np.bincount(remap, weights=counts).astype(int)
                inverse = remap[inverse] if len(first) > 1 else None
        live[stage.target] = (inverse, values, states, counts)
        for src in circuit.dead_after[s]:
            del live[src]
    classes, values, states, _ = live[circuit.output_bundle]
    return classes, values, states


# ---------------------------------------------------------------------------
# analytic error propagation

#: |p - _ONE_ZERO| is (1 - p, p)
_ONE_ZERO = np.array([1.0, 0.0])


def _gate_error(gate: NoisyGate, x, wires: Sequence[tuple[int, float]]):
    """Output-wire error of a noisy gate whose true input index is ``x``.

    Each wire ``(mask, p)`` is wrong independently with probability p, and
    a wrong wire flips every gate input in ``mask``. ``x`` and every p may
    be arrays of one shape, which the result then has. The sum runs over all
    flip patterns in a fixed order, so it is reproducible bit for bit: wire
    0 is the most significant bit of the pattern, each pattern's probability
    is multiplied from the last wire to the first, and the patterns are
    added in order.
    """
    table = np.array(gate.target.table)
    errors = np.array(gate.errors)
    x = np.asarray(x)[..., None]
    prob, flips = np.ones(x.shape), [0]
    for mask, p in reversed(wires):  # each wire is the next more significant bit
        right_wrong = np.abs(np.asarray(p)[..., None] - _ONE_ZERO)
        prob = (right_wrong[..., :, None] * prob[..., None, :]).reshape(x.shape[:-1] + (-1,))
        flips += [f ^ mask for f in flips]
    idx = x ^ flips
    e = errors[idx]
    terms = prob * np.where(table[idx] != table[x], 1.0 - e, e)
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _wires(stage: Stage, errors: Sequence[float], width: int) -> list[tuple[int, float]]:
    """The independent wires behind a stage's reads, given each read's error,
    as (input mask, error). Reads are independent draws from their bundles,
    except that all reads of a width-1 bundle are its one wire.
    """
    wires: dict[tuple[int, int], tuple[int, float]] = {}  # (bundle, draw) -> wire
    for i, (src, p) in enumerate(zip(stage.sources, errors)):
        key = (src, 0 if width == 1 else i)
        mask, _ = wires.get(key, (0, p))
        wires[key] = (mask | 1 << i, p)
    return list(wires.values())


@dataclass(frozen=True)
class AnalyticResult:
    """One input's exact error propagation under the independence assumption."""

    x: tuple[int, ...]
    value: int
    logical_error: float
    trajectory: tuple[tuple[int, str, int, float], ...]  # (stage, kind, bundle, error)
    warnings: tuple[str, ...]


def _independence_walk(circuit: ReliableCircuit, xs: Sequence[tuple[int, ...]]):
    """``_walk`` under the independence model (see ``simulate_analytic``), plus
    each per-stage warning with the number of inputs that raised it, in stage
    order, and the trajectory of every stage's errors, one per row."""
    restore = restore_polynomial(circuit.kmaj)
    # (true values, read errors) of every restore evaluated so far -> its result;
    # the restore chains of different inputs repeat the same rows
    restored: dict[bytes, np.ndarray] = {}
    tripped: dict[str, int] = {}
    trajectory: list[tuple[int, str, int, np.ndarray]] = []

    def step(s: int, stage: Stage, gate: NoisyGate, idx: np.ndarray, reads: list, counts: np.ndarray):
        if stage.kind == "compute":
            drift = np.abs(reads[0] - reads[1]) > EQUAL_ERROR_SLACK
            if drift.any():
                w = f"stage {s}: operand errors differ beyond the equal-error slack {EQUAL_ERROR_SLACK}"
                tripped[w] = tripped.get(w, 0) + int(counts[drift].sum())
            p = _gate_error(gate, idx, _wires(stage, reads, circuit.width))
        else:  # every read is the source bundle, so idx & 1 is its true value
            v = idx & 1
            key = v.tobytes() + reads[0].tobytes()
            p = restored.get(key)
            if p is None:
                p = restored[key] = restore_error(restore[v], reads[0])
        trajectory.append((s, stage.kind, stage.target, p))
        return p

    return _walk(circuit, xs, 0.0, step), tripped, trajectory


def _input_bits(circuit: ReliableCircuit, x: Sequence[int]) -> tuple[int, ...]:
    x = tuple(int(b) & 1 for b in x)
    if len(x) != circuit.formula.n_inputs:
        raise ValueError("one bit per formula input required")
    return x


def simulate_analytic(circuit: ReliableCircuit, x: Sequence[int]) -> AnalyticResult:
    """Propagate per-bundle error probabilities stage by stage for one input.

    A bundle's state is the probability that one of its wires is wrong.
    Within-bundle wires are treated as independent and identically
    distributed; compute stages flag operand bundles whose errors drifted
    apart beyond the equal-error slack of the voting analysis. A restore
    stage is one polynomial in the read error (``gates.restore_polynomial``),
    whether its gate errs uniformly or not.
    """
    x = _input_bits(circuit, x)
    (_, [value], [p]), tripped, trajectory = _independence_walk(circuit, [x])
    return AnalyticResult(
        x=x,
        value=int(value),
        logical_error=majority_error(circuit.width, float(p)),
        trajectory=tuple((s, kind, b, float(err)) for s, kind, b, [err] in trajectory),
        warnings=tuple(tripped),
    )


# ---------------------------------------------------------------------------
# Monte Carlo

#: trials per random stream; 64 trials share a uint64 word, so a bundle in
#: flight is a (W, BLOCK // 64) word array
BLOCK = 1024
#: stream version reported with sampled results
MC_STREAM = "bitsliced-sfc64-v2"
#: rounds of a flip mask's expansion drawn densely before settled words drop out
ROUNDS_PER_PASS = 10
_WORDS = BLOCK // 64
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True)
class MonteCarloResult:
    x: tuple[int, ...]
    trials: int
    seed: int
    empirical_error: float
    ci_halfwidth: float


def _flip_words(bitgen: np.random.BitGenerator, p: float, n: int) -> np.ndarray:
    """``n`` words whose bits are independently 1 with probability exactly p.

    A lane flips iff its uniform U = 0.u1u2... is below p = 0.p1p2..., i.e.
    iff u_i = 0 and p_i = 1 at the first bit where they differ. Rounds walk
    p's finite binary expansion, most significant bit first, in passes of
    ``ROUNDS_PER_PASS``: each round of a pass draws one random word per word
    that had an undecided lane when the pass began, and the words whose
    lanes are all decided drop out between passes. Lanes left undecided
    when the expansion ends have U >= p.
    """
    num, den = float(p).as_integer_ratio()
    bits = [(num >> shift) & 1 for shift in reversed(range(den.bit_length() - 1))]
    out = np.zeros(n, dtype=np.uint64)
    live = None  # indices of the words still in play, once some dropped out
    undecided = np.full(n, _ONES)
    for start in range(0, len(bits), ROUNDS_PER_PASS):
        if start:
            keep = np.flatnonzero(undecided)
            if not keep.size:
                break
            live = keep if live is None else live[keep]
            undecided = undecided[keep]
        flips = out if live is None else np.zeros(live.size, dtype=np.uint64)
        for bit in bits[start : start + ROUNDS_PER_PASS]:
            r = bitgen.random_raw(undecided.size)
            r &= undecided  # undecided lanes with u_i = 1
            undecided ^= r  # undecided lanes with u_i = 0
            if bit:  # the u_i = 0 lanes fall below p, the others stay undecided
                flips |= undecided
                undecided = r
        if live is not None:
            out[live] |= flips
    return out


def _mux(keys: tuple[int, ...], xs: Sequence[np.ndarray], leaf, memo: dict):
    """Shannon mux tree of the table ``keys`` over bit-sliced operands ``xs``.

    Entry i of ``keys`` is the value at input index i, whose bit j is operand
    j. Keys 0 and 1 are the constant words and fold away; any other key is
    looked up with ``leaf``. Returns a word array, or the int 0 or 1 when
    the result is constant. Equal sub-tables are evaluated once.
    """
    if len(keys) == 1:
        return keys[0] if keys[0] in (0, 1) else leaf(keys[0])
    if keys in memo:
        return memo[keys]
    half = len(keys) // 2
    lo, hi = keys[:half], keys[half:]
    f0 = _mux(lo, xs, leaf, memo)
    if lo == hi:
        return f0
    f1 = _mux(hi, xs, leaf, memo)
    x = xs[half.bit_length() - 1]
    if isinstance(f0, int) and isinstance(f1, int):
        out = x if f1 else ~x
    elif isinstance(f0, int):
        out = (x & f1) if f0 == 0 else (f1 | ~x)
    elif isinstance(f1, int):
        out = (f0 & ~x) if f1 == 0 else (f0 | x)
    else:
        out = f0 ^ (x & (f0 ^ f1))  # = (x & f1) | (~x & f0)
    memo[keys] = out
    return out


def _gate_keys(gate: NoisyGate) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
    """Mux keys of a gate's value table and flip table, and the error values
    that need a drawn mask: key 2 + j selects the mask of ``values[j]``."""
    values = tuple(sorted({e for e in gate.errors if 0.0 < e < 1.0}))
    flips = tuple(
        0 if e == 0.0 else 1 if e == 1.0 else 2 + values.index(e) for e in gate.errors
    )
    return tuple(int(b) for b in gate.target.table), flips, values


def _wrong_trials(
    circuit: ReliableCircuit, x: tuple[int, ...], seed: int, n_blocks: int
) -> Iterator[np.ndarray]:
    """For blocks 0 .. n_blocks-1, a (BLOCK,) bool array of the trials whose
    majority readout is wrong (ties count as wrong).

    A bundle's state has a set bit per wrong wire. Value and flip tables are
    re-indexed by the true input index, entry e being the gate at ``idx ^ e``,
    so each lane meets the entry and the drawn mask of its actual inputs.

    Block b draws every flip from one SFC64 stream seeded with
    (seed, input, b): per gate, one Bernoulli mask per distinct error value
    strictly between 0 and 1, for all of the gate's stages at once, restore
    gate first, values ascending.
    """
    x_key = sum(b << i for i, b in enumerate(x))
    w = circuit.width
    clean = np.zeros((w, _WORDS), dtype=np.uint64)
    # restore gate first: the order in which each block draws its masks
    gate_keys = {"restore": _gate_keys(circuit.kmaj), "compute": _gate_keys(circuit.xnand)}
    kind_count = {kind: sum(stage.kind == kind for stage in circuit.stages) for kind in gate_keys}
    wiring = circuit.wiring
    # (kind, true index) -> the re-indexed wrongness and flip keys, filled on first use
    reindexed: dict[tuple[str, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def run_block(block: int) -> np.ndarray:
        bitgen = np.random.SFC64(np.random.SeedSequence([seed, x_key, block]))
        masks = {
            kind: [_flip_words(bitgen, p, n * w * _WORDS).reshape(n, w, _WORDS)
                   for p in gate_keys[kind][2]]
            for kind, n in kind_count.items()
        }
        seen = dict.fromkeys(gate_keys, 0)  # stages of each kind walked so far

        def step(s: int, stage: Stage, gate: NoisyGate, idx: np.ndarray, reads: list[np.ndarray], counts):
            (idx,) = idx.tolist()  # one input, so one row
            i = seen[stage.kind]
            seen[stage.kind] += 1
            if (stage.kind, idx) not in reindexed:
                table, flips, _ = gate_keys[stage.kind]
                reindexed[stage.kind, idx] = (
                    tuple(table[idx ^ e] ^ table[idx] for e in range(len(table))),
                    tuple(flips[idx ^ e] for e in range(len(flips))),
                )
            wrong_keys, flip_keys = reindexed[stage.kind, idx]
            kind_masks = masks[stage.kind]
            es = [r[0] if perm is None else r[0, perm] for r, perm in zip(reads, wiring[s])]
            wrong = _mux(wrong_keys, es, None, {})
            flip = _mux(flip_keys, es, lambda key: kind_masks[key - 2][i], {})
            if isinstance(wrong, int):
                wrong = ~clean if wrong else clean
            if isinstance(flip, int):
                return (~wrong if flip else wrong)[None]
            return (wrong ^ flip)[None]

        _, _, [wrong_wires] = _walk(circuit, [x], clean, step)
        lanes = np.unpackbits(
            wrong_wires.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little"
        )
        return 2 * lanes.sum(axis=0) >= w

    # each block's arrays die with its call, so nothing outlives a block
    for block in range(n_blocks):
        yield run_block(block)


def _check_seed(seed: int):
    if seed < 0:
        raise ValueError(f"seed {seed} is negative; seeds are nonnegative integers")


def _check_trials(trials: int):
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > TRIALS_CAP:
        raise ValueError(f"{trials} trials above cap {TRIALS_CAP}")


def simulate_monte_carlo(
    circuit: ReliableCircuit, x: Sequence[int], trials: int, seed: int
) -> MonteCarloResult:
    """Sample every wire with the circuit's fixed wiring; exact given the seed.

    The sampler is bit-sliced: 64 trials share a uint64 word and each gate's
    truth table is evaluated as a mux tree of word operations. Trials run in
    blocks of ``BLOCK`` = 1024, and block b draws from its own SFC64 stream
    seeded with (seed, input, b). A partial last block still
    draws the whole block, so a trial's outcome depends only on
    (seed, input, block) and the first n trials of a longer run are the run
    with ``trials=n``. Memory is set by the block size, not the trial count,
    which may be at most ``TRIALS_CAP``. The stream is versioned as
    ``MC_STREAM``.
    """
    _check_trials(trials)
    _check_seed(seed)
    x = _input_bits(circuit, x)
    wrong = 0
    n_blocks = -(-trials // BLOCK)
    for block, wrong_mask in enumerate(_wrong_trials(circuit, x, seed, n_blocks)):
        wrong += int(np.count_nonzero(wrong_mask[: trials - block * BLOCK]))
    p_hat = wrong / trials
    ci = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)
    return MonteCarloResult(
        x=x, trials=trials, seed=seed, empirical_error=p_hat, ci_halfwidth=ci
    )


# ---------------------------------------------------------------------------
# reports and certification

@dataclass(frozen=True)
class InputRow:
    x: tuple[int, ...]
    analytic_error: float
    empirical_error: float | None = None
    ci_halfwidth: float | None = None


@dataclass(frozen=True)
class SimulationReport:
    """Worst-input summary over all assignments, with optional Monte Carlo."""

    rows: tuple[InputRow, ...]
    delta: float
    worst_input: tuple[int, ...]
    margin: float
    reliable: bool
    warnings: tuple[str, ...]

    def summary(self) -> dict:
        return {
            "delta": self.delta,
            "worst_input": "".join(str(b) for b in self.worst_input),
            "margin": self.margin,
            "reliable": self.reliable,
            "warnings": list(self.warnings),
        }


def certify(report: SimulationReport, margin: float) -> bool:
    """Reliable iff the worst-input error stays below 1/2 by the margin.

    Uses the analytic delta; rows carrying Monte Carlo results must also
    keep their upper confidence bound below the line.
    """
    _check_margin(margin)
    return _certified(report.delta, report.rows, margin)


def _check_margin(margin: float):
    if not 0.0 < margin < 0.5:
        raise ValueError(f"margin {margin} outside (0, 1/2)")


def _certified(delta: float, rows: Iterable[InputRow], margin: float) -> bool:
    line = 0.5 - margin
    if delta > line:
        return False
    for row in rows:
        if row.empirical_error is not None:
            if row.empirical_error + (row.ci_halfwidth or 0.0) > line:
                return False
    return True


def build_report(
    circuit: ReliableCircuit,
    *,
    margin: float = 0.05,
    trials: int | None = None,
    seed: int | None = None,
    mc_inputs: str = "worst",
) -> SimulationReport:
    """Analytic sweep over all inputs, optionally backed by Monte Carlo.

    ``mc_inputs`` selects which assignments get sampled when ``trials`` is
    set: "worst" (the analytic worst case) or "all". Every argument is
    checked before the sweep starts.
    """
    _check_margin(margin)
    if mc_inputs not in ("worst", "all"):
        raise ValueError(f"mc_inputs must be 'worst' or 'all', got {mc_inputs!r}")
    if trials is not None and seed is None:
        raise ValueError("a seed is mandatory for Monte Carlo runs")
    if trials is not None:
        _check_trials(trials)
        _check_seed(seed)
    n = circuit.formula.n_inputs
    if n > BRUTE_FORCE_ARITY_CAP:
        raise ValueError(f"formula has {n} inputs, above cap {BRUTE_FORCE_ARITY_CAP}")
    xs = input_keys(n)
    (classes, _, states), tripped, _ = _independence_walk(circuit, xs)
    class_errors = [majority_error(circuit.width, p) for p in states.tolist()]
    if classes is None:  # one class holds every input
        classes = np.zeros(len(xs), dtype=int)
    errors = np.take(class_errors, classes)
    worst = int(np.argmax(errors))  # the first input in table order with the largest error
    worst_x, delta = xs[worst], errors[worst].item()
    sampled = [] if trials is None else [worst_x] if mc_inputs == "worst" else xs
    mc = {x: simulate_monte_carlo(circuit, x, trials, seed) for x in sampled}

    # rows in itertools.product order, where x[0] is the most significant bit
    # of the row index; in the table order of xs it is the least significant
    row_errors = errors.reshape((2,) * n).T.ravel().tolist()
    rows = list(map(InputRow, itertools.product((0, 1), repeat=n), row_errors))
    for x, res in mc.items():
        r = int("".join(map(str, x)), 2)
        rows[r] = InputRow(x, rows[r].analytic_error, res.empirical_error, res.ci_halfwidth)
    rows = tuple(rows)
    return SimulationReport(
        rows=rows,
        delta=delta,
        worst_input=worst_x,
        margin=margin,
        reliable=_certified(delta, rows, margin),
        warnings=tuple(sorted(circuit.warnings))
        + tuple(f"{w} on {count} of {1 << n} inputs" for w, count in tripped.items()),
    )
