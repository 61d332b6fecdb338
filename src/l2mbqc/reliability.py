"""Reliable evaluation of NAND formulas from noisy gates by multiplexing.

Every logical bit is carried by a bundle of W wires. Compute stages apply a
noisy three-input XNAND wire-wise to one copy of the first operand and two
copies of the second; restore stages vote with noisy k-input majority gates
to push the bundle error back toward its fixed point. ``build`` lays out
two stage shapes: a restore reads one bundle k times, a compute reads
``(a, b, b)`` with a != b. It draws nothing; the wire permutation that
feeds each gate input is the circuit's ``wiring``, drawn from (seed, stage
order) the first time the sampler runs on the circuit.

Every error model runs on one stage walk, ``_walk``, which tracks the true
logical values and follows the steps that ``build`` records, one per
formula node: a compute stage with the chain of restores laid out after it,
and each other chain of restores laid out back to back. It hands the
model's step each row's code, the true values its first stage reads (v for
a restore chain, a + 2b for a compute, whose value is NAND(a, b)); the step
maps the read bundles' states to the last target's. The walk takes a batch
of inputs at once, groups them by each bundle's (true value, state) and
calls the step once per recorded step, on numpy arrays with one row per
distinct (code, read states). The independence model's state is one wire's
error probability, with the wires of a bundle assumed independent: each
stage shape is one polynomial in its sources' read errors
(``gates.error_polynomial``), kept for recent gates as one row per code; a
step evaluates its compute polynomial, then all its restore rounds in one
pass (``polynomial_error``'s ``rounds``), and the sweep over all 2^n table
indices is one walk. The seeded
wire-level Monte Carlo's state is every wire's actual value under the
circuit's fixed wiring, and its walks take the sampled inputs a chunk at a
time; it quantifies how much that assumption leaks.

The Monte Carlo sampler is bit-sliced: 64 trials ride in one uint64 word,
and trials run in blocks of ``BLOCK`` = 1024. Block b draws all its gate
flips from one SFC64 stream seeded with (seed, b), a group of stages at a
time as the walk reaches them, so every input meets the same flips, a
trial's outcome depends only on (seed, input, block) and a shorter run is a
prefix of a longer one. ``MC_STREAM`` names this stream contract,
"bitsliced-sfc64-v3".
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .boolfn import BRUTE_FORCE_ARITY_CAP, index_bits, index_of, make_named
from .gates import NoisyGate, beta, clopper_pearson_upper, error_polynomial, majority_errors, polynomial_error

#: largest stages x width of a circuit, checked before any stage is laid out:
#: it bounds the layout and the wiring, k length-W permutations per restore
#: stage. The sampler's arrays are bounded apart from it (see ``GROUP_WORDS``)
CIRCUIT_SIZE_CAP = 1 << 21
#: most Monte Carlo trials per sampler call, and per report over all its sampled inputs
TRIALS_CAP = 1 << 24
#: family-wise level of a report's sampled upper bounds, Bonferroni over the inputs
ALPHA = 0.05


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
        vals = list(index_bits(index_of(x, self.n_inputs), self.n_inputs))
        for a, b in self.nodes:
            vals.append(1 - (vals[a] & vals[b]))
        return vals

    def consumer_counts(self) -> Counter[int]:
        return Counter(itertools.chain.from_iterable(self.nodes))


def parse_formula(text: str) -> FormulaDag:
    """Parse nested s-expressions of NAND over named inputs.

    Example: ``(nand a (nand a b))``. Input names are letters, digits and
    ``_``, no leading digit, not ``nand``. Errors carry the line number.
    """
    tokens: list[tuple[str, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        chunk = line.split("#", 1)[0]
        chunk = chunk.replace("(", " ( ").replace(")", " ) ")
        for tok in chunk.split():
            tokens.append((tok, line_no))
    if not tokens:
        raise ValueError("line 1: empty formula")
    tokens.append(("", tokens[-1][1]))  # the end of the text, on its last token's line

    inputs: dict[str, int] = {}
    nodes: list[tuple[int, int]] = []
    # one group that takes the whole formula, then the open '(nand' groups,
    # innermost last: (line of the '(', operands read so far, None until its
    # 'nand' is read); an explicit stack, so nesting depth is bounded by
    # memory, not recursion
    groups: list[tuple[int, list[int] | None]] = [(1, [])]
    for tok, line_no in tokens:
        open_line, operands = groups[-1]
        if len(groups) == 1 and operands:
            if tok:
                raise ValueError(f"line {line_no}: trailing tokens after formula")
        elif operands is None:
            if tok.lower() != "nand":
                raise ValueError(f"line {open_line}: expected 'nand' after '('")
            groups[-1] = (open_line, [])
        elif len(operands) == 2:
            if tok != ")":
                raise ValueError(f"line {open_line}: expected ')'")
            groups.pop()
            nodes.append((operands[0], operands[1]))
            groups[-1][1].append(-len(nodes))  # provisional node handle
        elif tok == "(":
            groups.append((line_no, None))
        elif tok == ")":
            raise ValueError(f"line {line_no}: unexpected ')'")
        elif not tok:
            raise ValueError(f"line {line_no}: unexpected end of formula")
        elif not tok.replace("_", "").isalnum() or tok[0].isdigit() or tok.lower() == "nand":
            raise ValueError(f"line {line_no}: bad input name {tok!r}")
        else:
            operands.append(inputs.setdefault(tok, len(inputs)))
    if groups[0][1][0] >= 0:
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

class Stage(NamedTuple):
    """One gate applied wire-wise: output wire j of bundle ``target`` is the
    gate of ``kind`` ("restore" or "compute") on, for each gate input i, wire
    ``perm[j]`` of bundle ``sources[i]``, where ``perm`` is entry i of the
    stage's row of the circuit's ``wiring``, or wire j itself when that entry
    is None.

    ``build`` is the only producer, and lays out two shapes, on which the
    stage walk relies: a restore stage reads its one source k times, a
    compute stage reads ``(a, b, b)`` with a != b.
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
    #: the stage walk's steps in order, as (stage range, dead bundles): each
    #: compute stage with the restores after it and each other chain of
    #: restores, the bundles its first stage reads for the last time
    steps: tuple[tuple[range, tuple[int, ...]], ...]
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

    ``build`` records the stage walk's ``steps`` as it lays the stages out:
    each compute stage with the chain of restores after it, and each other
    chain of restores laid out back to back, each stage after a step's first
    reading the one before. ``build`` draws nothing: the
    circuit's ``wiring`` is drawn from ``seed`` the first time the sampler
    runs on it, so a negative seed is rejected here, before any work. Stages
    x width may be at most ``CIRCUIT_SIZE_CAP``; the stage count follows
    from the formula before any stage is laid out.
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
        threshold, worst = float(beta(k).beta), max(kmaj.errors)
        if kmaj.epsilon is None:
            warnings.append("restore gate error is input-dependent; threshold analysis assumes the worst entry")
        if worst >= threshold:
            warnings.append(
                f"restore gate error {worst:.6f} is not below beta_{k} = {threshold:.6f}; restoration will not converge"
            )
    mu = max(xnand.errors)
    if mu >= 0.5:
        warnings.append(f"compute gate error {mu:.6f} is not below 1/2")

    stages: list[Stage] = []
    runs: list[range] = []  # each step's stages
    new_bundle = itertools.count().__next__

    def add_restores(src: int, rounds: int, head: int = 0) -> int:
        if head + rounds:  # one step: the ``head`` stages just laid out, which made src, then the restores
            runs.append(range(len(stages) - head, len(stages) + rounds))
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
        prepared[formula.n_inputs + j] = add_restores(tgt, restore_rounds, head=1)

    # a step's later stages read only its own targets, so its reads are its first stage's
    last_read = {src: i for i, run in enumerate(runs) for src in stages[run.start].sources}
    dead: list[list[int]] = [[] for _ in runs]
    for src, i in last_read.items():
        dead[i].append(src)

    return ReliableCircuit(
        formula=formula,
        width=width,
        kmaj=kmaj,
        xnand=xnand,
        stages=tuple(stages),
        input_bundles=raw_inputs,
        output_bundle=prepared[formula.output_ref],
        steps=tuple(zip(runs, map(tuple, dead))),
        warnings=tuple(warnings),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the stage walk

def _pairs(live: dict, a: int, b: int, n: int):
    """The rows of a compute stage that reads bundle ``a`` once and ``b``
    twice, for a batch of ``n`` inputs: one row per pair of their classes
    that occurs, as ``(inverse, idx, reads)`` (see ``_walk``); code a + 2b."""
    (ca, va, sa), (cb, vb, sb) = live[a], live[b]
    if ca is None:  # a batch of one: one class each
        inverse = None
    else:  # one code per input, a's class least significant
        code, size = cb * len(va) + ca, len(va) * len(vb)
        if size <= n:  # mark every code; a code's row is the number of smaller codes that occur
            occurs = np.bincount(code, minlength=size) > 0
            codes, inverse = np.flatnonzero(occurs), (np.cumsum(occurs) - 1)[code]
        else:
            codes, inverse = np.unique(code, return_inverse=True)
        pb, pa = np.divmod(codes, len(va))
        va, sa, vb, sb = va[pa], sa[pa], vb[pb], sb[pb]
    return inverse, va + 2 * vb, [sa, sb, sb]


def _walk(circuit: ReliableCircuit, xs: np.ndarray, start, step):
    """Run every stage on the batch of input table indices ``xs`` (an int
    array; bit j of an index is formula input j) at once; return the output
    bundle's ``(classes, values, states)``.

    A bundle's state is an error model's account of it; an input bundle
    with true value v starts in state ``start[v]``. A live bundle splits the
    batch into classes: ``values`` holds each class's true value, ``states``
    each class's state along a leading class axis and ``classes`` each
    input's class id, or None for a batch of one input (the
    output's is always an array). Each of the circuit's ``steps``, a compute
    stage with its restores or a restore chain, is one call ``step(stages,
    idx, reads)``, with ``stages`` the range of its stage indices: a restore
    chain's rows are its source's classes as they are, a compute's the pairs
    of its sources' classes that occur (``_pairs``); ``idx`` holds the rows'
    codes, the true values its first stage reads (v for a restore chain,
    a + 2b for a compute), and ``reads`` the first stage's read states in
    gate-input order; the step returns the last target's state per row. A
    compute's value is NAND(a, b), restores keep it, and a step's
    intermediate targets never go live. Rows with equal (value, state) merge
    into one class, so a call has one row per distinct (code, read states),
    and a batch of one never compares states. A bundle is dropped after the
    step that reads it last.
    """
    n = len(xs)
    start = np.asarray(start)
    live = {}  # bundle -> (classes, values, states)
    bits = xs >> np.arange(len(circuit.input_bundles))[:, None] & 1  # row j: input j
    for b, row, ones in zip(circuit.input_bundles, bits, bits.sum(axis=1).tolist()):
        values = np.array([0, 1]) if 0 < ones < n else row[:1]
        live[b] = (None if n == 1 else row - values[0], values, start[values])  # a constant bit: one class, 0
    for chain, dead in circuit.steps:
        head = circuit.stages[chain[0]]
        if head.kind == "restore":  # k reads of one bundle: its classes are the rows, its values the codes
            inverse, values, states = live[head.sources[0]]
            idx, reads = values, [states] * len(head.sources)
        else:  # XNAND(a, b, b) = NAND(a, b), false only at a = b = 1
            inverse, idx, reads = _pairs(live, *head.sources[:2], n)
            values = (idx != 3).astype(int)
        states = step(chain, idx, reads)
        if len(values) > 1:
            # a float state is its own key; a word state keys by its bytes
            rows = states.tolist() if states.ndim == 1 else [row.tobytes() for row in states]
            keys = list(zip(values.tolist(), rows))
            if len(set(keys)) < len(keys):  # equal rows merge, in order of first appearance
                ids: dict = {}  # key -> its class
                first = []  # each class's first row
                for r, key in enumerate(keys):
                    if key not in ids:
                        ids[key] = len(first)
                        first.append(r)
                values, states = values[first], states[first]
                inverse = np.array([ids[key] for key in keys])[inverse]  # each input's merged class
        live[circuit.stages[chain[-1]].target] = (inverse, values, states)
        for src in dead:
            del live[src]
    classes, values, states = live[circuit.output_bundle]
    return np.zeros(n, dtype=int) if classes is None else classes, values, states


# ---------------------------------------------------------------------------
# analytic error propagation

@functools.lru_cache(maxsize=16)
def _error_table(kind: str, gate: NoisyGate, one_wire: bool):
    """The ``gates.error_polynomial`` coefficients of a stage of ``kind``,
    one row per row code (see ``_walk``), in code order; kept for recent
    tables. A restore reads k wires of its one bundle, at gate input index
    0 or 2^k - 1, a compute one wire of ``a`` and two of ``b``, at index
    a + 6b; all reads of a bundle carry its value. With ``one_wire`` (width
    1) each bundle is one wire.
    """
    if kind == "restore":  # per bundle, the gate inputs each wire feeds; code v reads v on all k
        wires, indices = [tuple(1 << i for i in range(gate.k))], [0, (1 << gate.k) - 1]
    else:  # code a + 2b reads (a, b, b)
        wires, indices = [(1,), (2, 4)], [0, 1, 6, 7]
    sources = [(sum(masks),) if one_wire else masks for masks in wires]
    return error_polynomial(gate, sources, indices)


def _independence_walk(circuit: ReliableCircuit, xs: np.ndarray):
    """``_walk`` under the independence model: a bundle's state is the
    probability that one of its wires is wrong, with a bundle's wires taken
    as independent, which is optimistic wherever restores correlate them
    (see ``simulate_monte_carlo``). Each stage is one polynomial in its
    sources' read errors, whether its gate errs uniformly or not."""
    one_wire = circuit.width == 1
    # looked up once per walk, since hashing a gate takes 2^k steps
    tables = {"restore": _error_table("restore", circuit.kmaj, one_wire),
              "compute": _error_table("compute", circuit.xnand, one_wire)}
    # (kind, step length, row codes, read errors) -> result, for rows that repeat
    results: dict[tuple, np.ndarray] = {}

    def step(stages: range, idx: np.ndarray, reads: list):
        kind = circuit.stages[stages[0]].kind
        reads = reads[:1] if kind == "restore" else reads[:2]  # one read per bundle
        key = (kind, len(stages), idx.tobytes(), *[r.tobytes() for r in reads])
        p = results.get(key)
        if p is None:
            ps, restores = np.array(reads).T, len(stages)
            if kind == "compute":  # the restores after it read its error and its value, NAND(a, b)
                p = polynomial_error(tables[kind][idx], ps)
                ps, idx, restores = p[:, None], (idx != 3).astype(int), restores - 1
            if restores:  # they keep the value: each round reads the error of the one before
                p = polynomial_error(tables["restore"][idx], ps, restores)
            results[key] = p
        return p

    return _walk(circuit, xs, (0.0, 0.0), step)


# ---------------------------------------------------------------------------
# Monte Carlo

#: trials per random stream; 64 trials share a uint64 word, so a bundle in
#: flight is a (W, BLOCK // 64) word array
BLOCK = 1024
#: stream version reported with sampled results
MC_STREAM = "bitsliced-sfc64-v3"
#: rounds of a flip mask's expansion drawn densely before settled words drop out
ROUNDS_PER_PASS = 10
#: most words per flip mask and per chunk's bundle state: a block draws the
#: masks of a gate kind's stages a group at a time, as many stages as fit. A
#: sampled stage must fit one group, so the sampled width is at most
#: GROUP_WORDS // _WORDS = 4096, and the readout unpacks at most 4 MiB
GROUP_WORDS = 1 << 16
_WORDS = BLOCK // 64
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True)
class MonteCarloResult:
    trials: int
    empirical_error: float


def _flip_words(bitgen: np.random.BitGenerator, p: float, n: int) -> np.ndarray:
    """``n`` words whose bits are independently 1 with probability exactly p.

    A lane flips iff its uniform U = 0.u1u2... is below p = 0.p1p2..., i.e.
    iff u_i = 0 and p_i = 1 at the first bit where they differ; a set random
    bit stands for u_i = 0. Rounds walk p's finite binary expansion, most
    significant bit first, in passes of ``ROUNDS_PER_PASS``: each round of a
    pass draws one random word per word that had an undecided lane when the
    pass began, and the words whose lanes are all decided drop out between
    passes. Lanes left undecided when the expansion ends have U >= p.
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
            r = bitgen.random_raw(undecided.size)  # the lanes with u_i = 0
            if bit:  # undecided u_i = 0 lanes fall below p, the others stay undecided
                r &= undecided
                flips |= r
                undecided ^= r
            else:  # undecided u_i = 1 lanes rise above p, the others stay undecided
                undecided &= r
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
    circuit: ReliableCircuit, xs: np.ndarray, seed: int, n_blocks: int
) -> Iterator[tuple[int, slice, np.ndarray]]:
    """Per block 0 .. n_blocks-1 and per chunk of ``xs``, in turn, (block, rows,
    wrong): row r of the (chunk, BLOCK) bool array marks the trials of input
    ``xs[rows][r]`` whose majority readout is wrong (ties count as wrong).

    A bundle's state holds each wire's actual value, one bit per trial, so
    every row runs the gate's own value and flip tables; the readout XORs
    the output with its true value's word. The inputs walk in chunks of at
    most ``GROUP_WORDS`` words per bundle state.

    Block b draws every flip from one SFC64 stream seeded with (seed, b),
    anew for each chunk, so every input meets the same masks. Per gate, the
    stages of its kind are drawn in groups of consecutive ones, as many as
    fit in ``GROUP_WORDS`` words per mask: when the walk reaches a group's
    first stage, it draws one Bernoulli mask for the whole group per
    distinct error value strictly between 0 and 1, ascending.
    """
    w = circuit.width
    # the words of a bundle whose wires all carry 0, and all carry 1
    start = np.broadcast_to(np.array([0, _ONES], dtype=np.uint64)[:, None, None], (2, w, _WORDS))
    gate_keys = {"restore": _gate_keys(circuit.kmaj), "compute": _gate_keys(circuit.xnand)}
    kind_count = {kind: sum(stage.kind == kind for stage in circuit.stages) for kind in gate_keys}
    group = GROUP_WORDS // (w * _WORDS)  # stages per mask group, and inputs per chunk
    wiring = circuit.wiring

    def run_chunk(block: int, chunk: np.ndarray) -> np.ndarray:
        bitgen = np.random.SFC64(np.random.SeedSequence([seed, block]))
        masks = {}  # kind -> its current group's masks, one per error value
        seen = dict.fromkeys(gate_keys, 0)  # stages of each kind walked so far

        def step(stages: range, idx: np.ndarray, reads: list[np.ndarray]):
            for s in stages:  # a step's stages in order, each after the first reading the one before
                stage = circuit.stages[s]
                if s > stages[0]:
                    reads = [out] * len(stage.sources)
                i = seen[stage.kind] % group  # the stage's place in its group
                if not i:
                    n = min(group, kind_count[stage.kind] - seen[stage.kind])
                    masks[stage.kind] = [_flip_words(bitgen, p, n * w * _WORDS).reshape(n, w, _WORDS)
                                         for p in gate_keys[stage.kind][2]]
                seen[stage.kind] += 1
                table, flips, _ = gate_keys[stage.kind]
                kind_masks = masks[stage.kind]
                vs = [r if perm is None else r.take(perm, axis=1) for r, perm in zip(reads, wiring[s])]
                value = _mux(table, vs, None, {})  # a word array: majority and XNAND read their inputs
                flip = _mux(flips, vs, lambda key: kind_masks[key - 2][i], {})
                out = value ^ (start[flip] if isinstance(flip, int) else flip)
            return out

        classes, values, states = _walk(circuit, chunk, start, step)
        # per class, whether each trial's readout is wrong
        wrong = [
            2 * np.unpackbits((state ^ start[v]).astype("<u8", copy=False).view(np.uint8),
                              axis=1, bitorder="little").sum(axis=0) >= w
            for state, v in zip(states, values.tolist())
        ]
        return np.array(wrong)[classes]

    # each chunk's arrays die with its call, so nothing outlives a chunk
    for block in range(n_blocks):
        for lo in range(0, len(xs), group):
            yield block, slice(lo, lo + group), run_chunk(block, xs[lo : lo + group])


def _wrong_counts(circuit: ReliableCircuit, xs: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """Wrong trials among the first ``trials`` of each input in ``xs``, counted per chunk."""
    wrong = np.zeros(len(xs), dtype=int)
    for block, rows, wrong_mask in _wrong_trials(circuit, xs, seed, -(-trials // BLOCK)):
        wrong[rows] += np.count_nonzero(wrong_mask[:, : trials - block * BLOCK], axis=1)
    return wrong


def _check_seed(seed: int):
    if seed < 0:
        raise ValueError(f"seed {seed} is negative; seeds are nonnegative integers")


def _check_trials(trials: int, width: int, inputs: int = 1):
    if trials < 1:
        raise ValueError("need at least one trial")
    if width > GROUP_WORDS // _WORDS:  # one stage per mask group, one input per chunk
        raise ValueError(f"sampled width {width} above cap {GROUP_WORDS // _WORDS}")
    lanes = inputs * -(-trials // BLOCK) * BLOCK  # the trials drawn, in whole blocks per input
    if lanes > TRIALS_CAP:
        raise ValueError(f"{inputs} input(s) x {trials} trials above cap {TRIALS_CAP}: "
                         f"the sampler draws whole blocks of {BLOCK} trials, {lanes} in all")


def simulate_monte_carlo(
    circuit: ReliableCircuit, x: Sequence[int], trials: int, seed: int
) -> MonteCarloResult:
    """Sample every wire with the circuit's fixed wiring; exact given the seed.

    The sampler is bit-sliced: 64 trials share a uint64 word and each gate's
    truth table is evaluated as a mux tree of word operations. Trials run in
    blocks of ``BLOCK`` = 1024, and block b draws from its own SFC64 stream
    seeded with (seed, b), so every input meets the same flips. A partial
    last block still draws the whole block, so a trial's outcome depends
    only on (seed, input, block) and the first n trials of a longer run are
    the run with ``trials=n``. The flips are drawn a group of stages at a
    time, at most ``GROUP_WORDS`` words per mask, when the walk reaches the
    group. So memory is set by the block size, the width and the few live
    bundles, not by the trial or stage count; trials may be at most
    ``TRIALS_CAP`` and the width at most ``GROUP_WORDS // _WORDS``, both
    checked before any work. The stream is versioned as ``MC_STREAM``.
    """
    _check_trials(trials, circuit.width)
    _check_seed(seed)
    index = index_of(x, circuit.formula.n_inputs)
    [wrong] = _wrong_counts(circuit, np.array([index]), trials, seed).tolist()
    return MonteCarloResult(trials, wrong / trials)


# ---------------------------------------------------------------------------
# reports and certification

class InputRow(NamedTuple):
    """One input's report row; a tuple, so rows compare as tuples and a
    sampled row is filled in with ``_replace``."""

    x: tuple[int, ...]
    analytic_error: float
    empirical_error: float | None = None
    upper: float | None = None  # the exact upper bound the verdict reads, once sampled


@dataclass(frozen=True)
class SimulationReport:
    """Every input's row, the independence figure's worst input, the verdict."""

    rows: tuple[InputRow, ...]
    delta: float
    worst_input: tuple[int, ...]
    margin: float
    warnings: tuple[str, ...]
    #: kind "none", or "sampled" with the sampled inputs, trials and level
    evidence: dict

    @property
    def reliable(self) -> bool:
        """The one verdict rule: every input sampled, each upper bound below 1/2 - margin."""
        return all(row.upper is not None and row.upper < 0.5 - self.margin for row in self.rows)


def certify(report: SimulationReport, margin: float) -> bool:
    """The report's verdict at another margin."""
    _check_margin(margin)
    return replace(report, margin=margin).reliable


def _check_margin(margin: float):
    if not 0.0 < margin < 0.5:
        raise ValueError(f"margin {margin} outside (0, 1/2)")


def build_report(
    circuit: ReliableCircuit,
    *,
    margin: float = 0.05,
    trials: int | None = None,
    seed: int | None = None,
    mc_inputs: str = "all",
) -> SimulationReport:
    """Independence sweep over all N = 2^n inputs, and the verdict.

    ``reliable`` holds iff every input was sampled and each one's exact
    one-sided Clopper-Pearson upper bound at level ``ALPHA`` / N is below
    1/2 - margin; no verdict reads the optimistic independence figure.
    ``mc_inputs`` picks the inputs ``trials`` samples: "all", or "worst",
    the independence figure's worst, which needs ``trials`` and can refute
    but never certify. Every argument, sampled inputs x trials and the
    sampled width are checked before the sweep.
    """
    _check_margin(margin)
    if mc_inputs not in ("worst", "all"):
        raise ValueError(f"mc_inputs must be 'worst' or 'all', got {mc_inputs!r}")
    if trials is not None and seed is None:
        raise ValueError("a seed is mandatory for Monte Carlo runs")
    if trials is None and mc_inputs == "worst":
        raise ValueError("mc_inputs 'worst' applies only with trials")
    n = circuit.formula.n_inputs
    if n > BRUTE_FORCE_ARITY_CAP:
        raise ValueError(f"formula has {n} inputs, above cap {BRUTE_FORCE_ARITY_CAP}")
    evidence = {"kind": "none", "note": "independence figure only, optimistic"}
    if trials is not None:
        evidence = {"kind": "sampled", "sampled_inputs": 1 if mc_inputs == "worst" else 1 << n,
                    "inputs": 1 << n, "trials": trials, "bound": "exact one-sided Clopper-Pearson",
                    "family_level": ALPHA}
        _check_trials(trials, circuit.width, evidence["sampled_inputs"])
        _check_seed(seed)
    classes, _, states = _independence_walk(circuit, np.arange(1 << n))
    errors = majority_errors(circuit.width, states)[classes]
    worst = int(np.argmax(errors))  # the first input in table order with the largest error
    worst_x, delta = index_bits(worst, n), errors[worst].item()

    # rows in itertools.product order, where x[0] is the most significant bit
    # of the row index; in the table order of xs it is the least significant,
    # so row_of[i], which reverses i's n bits, is table index i's row and back
    row_of = np.arange(1 << n).reshape((2,) * n).T.ravel()
    # tuple.__new__ fills each row without the named tuple's per-row __new__ call
    rows = list(map(tuple.__new__, itertools.repeat(InputRow), zip(
        itertools.product((0, 1), repeat=n), errors[row_of].tolist(), itertools.repeat(None), itertools.repeat(None))))
    if trials is not None:
        xs = np.arange(1 << n) if mc_inputs == "all" else np.array([worst])
        counts = _wrong_counts(circuit, xs, trials, seed).tolist()
        upper = {wrong: clopper_pearson_upper(wrong, trials, ALPHA / (1 << n)) for wrong in set(counts)}
        for i, wrong in zip(xs.tolist(), counts):
            rows[row_of[i]] = rows[row_of[i]]._replace(empirical_error=wrong / trials, upper=upper[wrong])
    return SimulationReport(
        rows=tuple(rows),
        delta=delta,
        worst_input=worst_x,
        margin=margin,
        warnings=tuple(sorted(circuit.warnings)),
        evidence=evidence,
    )
