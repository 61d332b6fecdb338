"""Reliable evaluation of NAND formulas from noisy gates by multiplexing.

Every logical bit is carried by a bundle of W wires. Compute stages apply a
noisy three-input XNAND wire-wise to one copy of the first operand and two
copies of the second; restore stages vote with noisy k-input majority gates
to push the bundle error back toward its fixed point. Both kinds are one
``Stage`` shape: a target bundle and one read per gate input, each a source
bundle with the wire permutation that feeds that input.

Every error model runs on one stage walk, ``_walk``, which tracks the true
logical values and hands each stage's gate and true input index to the
model's step; the step maps how wrong the read bundles are to how wrong the
target is. The independence model's state is one wire's error probability,
with the wires of a bundle assumed independent. The seeded wire-level Monte
Carlo's state is the set of wrong wires under the circuit's fixed wiring,
which quantifies how much that assumption leaks.

The Monte Carlo sampler is bit-sliced: 64 trials ride in one uint64 word,
and trials run in blocks of ``BLOCK`` = 1024. Block b draws all its gate
flips from one counter-based Philox stream keyed by (seed, input, b), so a
trial's outcome depends only on (seed, input, block) and a shorter run is a
prefix of a longer one. ``MC_STREAM`` names this stream contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .boolfn import BRUTE_FORCE_ARITY_CAP, make_named
from .gates import NoisyGate, beta, maj_error_recursion

EQUAL_ERROR_SLACK = 0.05


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

@dataclass(frozen=True, eq=False)
class Stage:
    """One gate applied wire-wise: output wire j of bundle ``target`` is the
    gate of ``kind`` ("restore" or "compute") on, for each gate input i with
    ``reads[i] = (source, perm)``, wire ``perm[j]`` of bundle ``source``, or
    wire j itself when ``perm`` is None. A ``perm`` is an index array, so the
    sampler gathers wires with it directly.

    A restore stage reads its source through k permutations of range(W); a
    compute stage reads ``(a, None), (b, sigma1), (b, sigma2)``.
    """

    kind: str
    target: int
    reads: tuple[tuple[int, np.ndarray | None], ...]


@dataclass(frozen=True)
class ReliableCircuit:
    formula: FormulaDag
    width: int
    k: int
    kmaj: NoisyGate
    xnand: NoisyGate
    stages: tuple[Stage, ...]
    input_bundles: tuple[int, ...]
    output_bundle: int
    #: dead_after[s]: the bundles that stage s reads for the last time
    dead_after: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...]


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

    Each restore stage samples k independent permutations (classic
    multiplexing), which admits occasional duplicate votes on an output
    wire.
    """
    if width < k:
        raise ValueError(f"bundle width {width} smaller than k = {k}")
    if restore_rounds < 0:
        raise ValueError("restore_rounds must be nonnegative")
    if kmaj.target != make_named("maj", k):
        raise ValueError(f"restore gate must target {k}-input majority")
    if xnand.target != make_named("xnand"):
        raise ValueError("compute gate must target the 3-input XNAND")

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

    rng = np.random.default_rng([seed, 0])
    stages: list[Stage] = []
    new_bundle = itertools.count().__next__

    def add_restores(src: int, rounds: int) -> int:
        for _ in range(rounds):
            reads = tuple((src, rng.permutation(width)) for _ in range(k))
            src = new_bundle()
            stages.append(Stage("restore", src, reads))
        return src

    consumers = formula.consumer_counts()
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
        sigma1 = rng.permutation(width)
        sigma2 = np.roll(sigma1, -(width // 2))  # sigma2[i] = sigma1[(i + W//2) % W]
        reads = ((a_bundle, None), (b_bundle, sigma1), (b_bundle, sigma2))
        stages.append(Stage("compute", tgt, reads))
        prepared[formula.n_inputs + j] = add_restores(tgt, restore_rounds)

    last_read = {src: s for s, stage in enumerate(stages) for src, _ in stage.reads}
    dead_after: list[list[int]] = [[] for _ in stages]
    for src, s in last_read.items():
        dead_after[s].append(src)

    return ReliableCircuit(
        formula=formula,
        width=width,
        k=k,
        kmaj=kmaj,
        xnand=xnand,
        stages=tuple(stages),
        input_bundles=raw_inputs,
        output_bundle=prepared[formula.output_ref],
        dead_after=tuple(map(tuple, dead_after)),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# the stage walk

def _walk(circuit: ReliableCircuit, x: tuple[int, ...], clean, step):
    """Run every stage on input bits ``x``; return the output bundle's true
    value and state.

    A bundle's state is an error model's account of how wrong it is; input
    bundles start ``clean``. Stage s applies ``gate`` at true input index
    ``idx``, and ``step(s, stage, gate, idx, reads)`` maps the states of its
    reads, in gate-input order, to the target's state. A bundle is dropped
    after its last read.
    """
    if len(x) != circuit.formula.n_inputs:
        raise ValueError("one bit per formula input required")
    value = dict(zip(circuit.input_bundles, x))
    state = dict.fromkeys(circuit.input_bundles, clean)
    gate_of = {"restore": circuit.kmaj, "compute": circuit.xnand}
    for s, stage in enumerate(circuit.stages):
        gate = gate_of[stage.kind]
        idx, reads = 0, []
        for i, (src, _) in enumerate(stage.reads):
            idx |= value[src] << i
            reads.append(state[src])
        value[stage.target] = gate.target.table[idx]
        state[stage.target] = step(s, stage, gate, idx, reads)
        for src in circuit.dead_after[s]:
            del value[src], state[src]
    return value[circuit.output_bundle], state[circuit.output_bundle]


# ---------------------------------------------------------------------------
# analytic error propagation

def _gate_error(gate: NoisyGate, x: int, wires: Sequence[tuple[int, float]]) -> float:
    """Output-wire error of a noisy gate whose true input index is ``x``.

    Each wire ``(mask, p)`` is wrong independently with probability p, and
    a wrong wire flips every gate input in ``mask``. The sum runs over all
    flip patterns in a fixed order, so it is reproducible bit for bit: wire
    0 is the most significant bit of the pattern, and each pattern's
    probability is multiplied from the last wire to the first.
    """
    table = gate.target.table
    want = table[x]
    total = 0.0
    for flips in range(1 << len(wires)):
        prob, idx = 1.0, x
        for j, (mask, p) in enumerate(reversed(wires)):
            if flips >> j & 1:
                prob *= p
                idx ^= mask
            else:
                prob *= 1.0 - p
        e = gate.errors[idx]
        total += prob * ((1.0 - e) if table[idx] != want else e)
    return total


def _wires(stage: Stage, errors: Sequence[float], width: int) -> list[tuple[int, float]]:
    """The independent wires behind a stage's reads, given each read's error,
    as (input mask, error). Reads are independent draws from their bundles,
    except that all reads of a width-1 bundle are its one wire.
    """
    wires: dict[tuple[int, int], tuple[int, float]] = {}  # (bundle, draw) -> wire
    for i, ((src, _), p) in enumerate(zip(stage.reads, errors)):
        key = (src, 0 if width == 1 else i)
        mask, _ = wires.get(key, (0, p))
        wires[key] = (mask | 1 << i, p)
    return list(wires.values())


def _majority_readout_error(width: int, p: float) -> float:
    """P(majority vote over the bundle is wrong); ties count as wrong.

    This is P(X >= ceil(W/2)) for X ~ Bin(W, p). Above p = 1/2 it is one
    minus the mirrored tail of Bin(W, 1 - p), so the summed tail always has
    odds at most one and its terms fall from the first.
    """
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    half = (width + 1) // 2
    if p > 0.5:
        return 1.0 - _binomial_upper_tail(width, 1.0 - p, width - half + 1)
    return _binomial_upper_tail(width, p, half)


def _binomial_upper_tail(n: int, p: float, m: int) -> float:
    """P(X >= m) for X ~ Bin(n, p), with 0 < p <= 1/2 and m >= n/2.

    The first term comes from log space, since C(n, m) overflows a float
    from n ~ 1030; the rest follow by the pmf ratio until they fall below
    1e-17 of the first.
    """
    first = math.exp(
        math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
        + m * math.log(p) + (n - m) * math.log1p(-p)
    )
    odds = p / (1.0 - p)
    terms = [first]
    term = first
    for j in range(m, n):
        term *= (n - j) / (j + 1) * odds
        if term <= 1e-17 * first:
            break
        terms.append(term)
    return math.fsum(terms)


@dataclass(frozen=True)
class AnalyticResult:
    """One input's exact error propagation under the independence assumption."""

    x: tuple[int, ...]
    value: int
    logical_error: float
    trajectory: tuple[tuple[int, str, int, float], ...]  # (stage, kind, bundle, error)
    warnings: tuple[str, ...]


def simulate_analytic(circuit: ReliableCircuit, x: Sequence[int]) -> AnalyticResult:
    """Propagate per-bundle error probabilities stage by stage for one input.

    A bundle's state is the probability that one of its wires is wrong.
    Within-bundle wires are treated as independent and identically
    distributed; compute stages flag operand bundles whose errors drifted
    apart beyond the equal-error slack of the voting analysis. A restore
    gate with one error on every input uses the closed majority recursion.
    """
    x = tuple(int(b) & 1 for b in x)
    restore_eps = circuit.kmaj.epsilon
    warnings: list[str] = []
    trajectory: list[tuple[int, str, int, float]] = []

    def step(s: int, stage: Stage, gate: NoisyGate, idx: int, reads: list[float]) -> float:
        if stage.kind == "compute" and abs(reads[0] - reads[1]) > EQUAL_ERROR_SLACK:
            warnings.append(f"stage {s}: operand errors differ beyond the equal-error "
                            f"slack {EQUAL_ERROR_SLACK}")
        if stage.kind == "restore" and restore_eps is not None:
            p = maj_error_recursion(circuit.k, restore_eps, reads[0])
        else:
            p = _gate_error(gate, idx, _wires(stage, reads, circuit.width))
        trajectory.append((s, stage.kind, stage.target, p))
        return p

    value, p = _walk(circuit, x, 0.0, step)
    return AnalyticResult(
        x=x,
        value=value,
        logical_error=_majority_readout_error(circuit.width, p),
        trajectory=tuple(trajectory),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Monte Carlo

#: trials per random stream; 64 trials share a uint64 word, so a bundle in
#: flight is a (W, BLOCK // 64) word array
BLOCK = 1024
#: stream version reported with sampled results
MC_STREAM = "bitsliced-philox-v1"
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
    p's finite binary expansion, most significant bit first, drawing one
    random word per word that still has an undecided lane; lanes left
    undecided when the expansion ends have U >= p.
    """
    num, den = float(p).as_integer_ratio()
    out = np.zeros(n, dtype=np.uint64)
    live = np.arange(n)
    undecided = np.full(n, _ONES)
    for shift in reversed(range(den.bit_length() - 1)):
        if not live.size:
            break
        r = bitgen.random_raw(live.size)
        if (num >> shift) & 1:
            out[live] |= undecided & ~r
            undecided &= r
        else:
            undecided &= ~r
        keep = undecided != 0
        if not keep.all():
            live, undecided = live[keep], undecided[keep]
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

    Block b draws every flip from one Philox stream keyed by
    (seed, input, b): per gate, one Bernoulli mask per distinct error value
    strictly between 0 and 1, for all of the gate's stages at once, restore
    gate first, values ascending.
    """
    x_key = sum(b << i for i, b in enumerate(x))
    w = circuit.width
    clean = np.zeros((w, _WORDS), dtype=np.uint64)
    # restore gate first: the order in which each block draws its masks
    gate_keys = {"restore": _gate_keys(circuit.kmaj), "compute": _gate_keys(circuit.xnand)}
    kind_count = dict.fromkeys(gate_keys, 0)
    # per stage, fixed by x: its index among its kind, its wrongness and flip keys
    plan: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []

    def prepare(s: int, stage: Stage, gate: NoisyGate, idx: int, reads: list) -> None:
        table, flips, _ = gate_keys[stage.kind]
        plan.append((
            kind_count[stage.kind],
            tuple(table[idx ^ e] ^ table[idx] for e in range(len(table))),
            tuple(flips[idx ^ e] for e in range(len(flips))),
        ))
        kind_count[stage.kind] += 1

    _walk(circuit, x, None, prepare)

    def run_block(block: int) -> np.ndarray:
        bitgen = np.random.Philox(np.random.SeedSequence([seed, x_key, block]))
        masks = {
            kind: [_flip_words(bitgen, p, n * w * _WORDS).reshape(n, w, _WORDS)
                   for p in gate_keys[kind][2]]
            for kind, n in kind_count.items()
        }

        def step(s: int, stage: Stage, gate: NoisyGate, idx: int, reads: list[np.ndarray]):
            i, wrong_keys, flip_keys = plan[s]
            kind_masks = masks[stage.kind]
            es = [r if perm is None else r[perm] for r, (_, perm) in zip(reads, stage.reads)]
            wrong = _mux(wrong_keys, es, None, {})
            flip = _mux(flip_keys, es, lambda key: kind_masks[key - 2][i], {})
            if isinstance(wrong, int):
                wrong = ~clean if wrong else clean
            if isinstance(flip, int):
                return ~wrong if flip else wrong
            return wrong ^ flip

        _, wrong_wires = _walk(circuit, x, clean, step)
        lanes = np.unpackbits(
            wrong_wires.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little"
        )
        return 2 * lanes.sum(axis=0) >= w

    # each block's arrays die with its call, so nothing outlives a block
    for block in range(n_blocks):
        yield run_block(block)


def simulate_monte_carlo(
    circuit: ReliableCircuit, x: Sequence[int], trials: int, seed: int
) -> MonteCarloResult:
    """Sample every wire with the circuit's fixed wiring; exact given the seed.

    The sampler is bit-sliced: 64 trials share a uint64 word and each gate's
    truth table is evaluated as a mux tree of word operations. Trials run in
    blocks of ``BLOCK`` = 1024, and block b draws from its own counter-based
    Philox stream keyed by (seed, input, b). A partial last block still
    draws the whole block, so a trial's outcome depends only on
    (seed, input, block) and the first n trials of a longer run are the run
    with ``trials=n``. Memory is set by the block size, not the trial count.
    The stream is versioned as ``MC_STREAM``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    x = tuple(int(b) & 1 for b in x)
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
    if trials is not None and trials < 1:
        raise ValueError("need at least one trial")
    n = circuit.formula.n_inputs
    if n > BRUTE_FORCE_ARITY_CAP:
        raise ValueError(f"formula has {n} inputs, above cap {BRUTE_FORCE_ARITY_CAP}")
    errors: dict[tuple[int, ...], float] = {}
    tripped: dict[str, int] = {}  # per-stage warning -> inputs that raised it
    for idx in range(1 << n):
        x = tuple((idx >> j) & 1 for j in range(n))
        res = simulate_analytic(circuit, x)
        errors[x] = res.logical_error
        for w in res.warnings:
            tripped[w] = tripped.get(w, 0) + 1

    worst_x = max(errors, key=errors.get)
    mc: dict[tuple[int, ...], MonteCarloResult] = {}
    if trials is not None:
        selected = [worst_x] if mc_inputs == "worst" else list(errors)
        for x in selected:
            mc[x] = simulate_monte_carlo(circuit, x, trials, seed)

    rows = tuple(
        InputRow(
            x=x,
            analytic_error=err,
            empirical_error=mc[x].empirical_error if x in mc else None,
            ci_halfwidth=mc[x].ci_halfwidth if x in mc else None,
        )
        for x, err in sorted(errors.items())
    )
    # every per-stage warning reads "stage <s>: ..."; list them in stage order
    stage_lines = sorted(tripped, key=lambda w: int(w[len("stage "):w.index(":")]))
    delta = errors[worst_x]
    return SimulationReport(
        rows=rows,
        delta=delta,
        worst_input=worst_x,
        margin=margin,
        reliable=_certified(delta, rows, margin),
        warnings=tuple(sorted(circuit.warnings))
        + tuple(f"{w} on {tripped[w]} of {1 << n} inputs" for w in stage_lines),
    )
