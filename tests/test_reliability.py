import collections
import functools
import hashlib
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l2mbqc import corrbox, gates, mbqc, reliability
from l2mbqc.boolfn import BooleanFunction, input_keys, make_named, nonlinearity
from l2mbqc.corrbox import GhzBox, chsh_and_box, noncontextual_and_box
from l2mbqc.gates import (
    NoisyGate,
    chsh_and_gate,
    maj3_from_and,
    noncontextual_and_gate,
    uniform_noisy_gate,
    xnand_from_and,
)
from l2mbqc.reliability import (
    build,
    build_report,
    certify,
    formula_to_text,
    parse_formula,
    simulate_monte_carlo,
)

SIN2_PI8 = math.sin(math.pi / 8) ** 2

TREE2 = "(nand (nand a b) (nand c d))"
TREE3 = "(nand (nand (nand a b) (nand c d)) (nand (nand e f) (nand g h)))"


def chsh_gates():
    and_gate = chsh_and_gate()
    return maj3_from_and(and_gate), xnand_from_and(and_gate)


def perfect_gates(k=3):
    return uniform_noisy_gate(make_named("maj", k), 0.0), uniform_noisy_gate(make_named("xnand"), 0.0)


def table_index(x):
    """The table index of input x: bit j is x[j]."""
    return sum(b << j for j, b in enumerate(x))


def analytic_error(circ, x):
    """Input x's independence figure: its walk's output wire error, read out
    by a majority over the bundle."""
    _, _, [p] = reliability._independence_walk(circ, np.array([table_index(x)]))
    return gates.majority_error(circ.width, float(p))


def wrong_blocks(circ, xs, seed, n_blocks):
    """Per block, the (len(xs), BLOCK) wrong-trial rows, joined from the
    sampler's chunks."""
    blocks = [[] for _ in range(n_blocks)]
    for block, _, wrong in reliability._wrong_trials(circ, xs, seed, n_blocks):
        blocks[block].append(wrong)
    return [np.concatenate(chunks) for chunks in blocks]


def halfwidth(p, trials):
    """The normal-approximation 95 % half-width 1.96 sqrt(p(1 - p)/n) of a
    sampled error p, a tolerance for comparing it with another figure."""
    return 1.96 * math.sqrt(p * (1.0 - p) / trials)


# ---------------------------------------------------------------------------
# formulas

def test_parse_roundtrip():
    f = parse_formula(TREE3)
    assert f.inputs == tuple("abcdefgh")
    assert f.n_nodes == 7
    assert parse_formula(formula_to_text(f)) == f


def test_deep_formula_roundtrips_without_recursion():
    depth = 5000
    text = "a"
    for i in range(depth):
        text = f"(nand {text} x{i % 7})"
    f = parse_formula(text)
    assert f.n_nodes == depth
    assert f.inputs == ("a",) + tuple(f"x{i}" for i in range(7))
    rendered = formula_to_text(f)
    assert rendered == text
    assert parse_formula(rendered) == f


def test_parse_evaluates_nand_semantics():
    f = parse_formula("(nand a (nand a b))")
    for a, b in itertools.product((0, 1), repeat=2):
        assert f.evaluate_all((a, b))[-1] == 1 - (a & (1 - (a & b)))


def test_parse_errors_carry_line_numbers():
    # an unclosed group is reported at the line that opened it
    with pytest.raises(ValueError, match="line 1.*'\\)'"):
        parse_formula("(nand a\n(nand b c)\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_formula("(nand a\n(xor b c))")
    with pytest.raises(ValueError, match="line 1"):
        parse_formula("(xor a b)")
    with pytest.raises(ValueError, match="line 1"):
        parse_formula("justaninput")
    with pytest.raises(ValueError, match="line 3"):
        parse_formula("(nand a\n b\n) extra")


#: one text per error ``parse_formula`` raises, with its exact message
MALFORMED_FORMULAS = {
    "empty": ("# only a comment\n\n", "line 1: empty formula"),
    "unexpected-end": ("(nand a\n(nand b", "line 2: unexpected end of formula"),
    "no-nand": ("(nand a\n(", "line 2: expected 'nand' after '('"),
    "stray-close": ("(nand a\n)", "line 2: unexpected ')'"),
    "bad-name": ("(nand a\n1a)", "line 2: bad input name '1a'"),
    "three-operands": ("(nand a\nb c)", "line 1: expected ')'"),
    "trailing": ("(nand a b)\n\n(nand c d)", "line 3: trailing tokens after formula"),
    "no-gate": ("  abc  # no gate", "line 1: formula must contain at least one nand"),
    "keyword-name": ("(nand a\nNand)", "line 2: bad input name 'Nand'"),
}


@pytest.mark.parametrize("text, message", MALFORMED_FORMULAS.values(), ids=MALFORMED_FORMULAS)
def test_malformed_formula_messages(text, message):
    with pytest.raises(ValueError) as err:
        parse_formula(text)
    assert str(err.value) == message


#: pieces of the formula syntax, joined at random with arbitrary text and whole formulas
FORMULA_PIECES = ["(", ")", "nand", "NAND", "a", "b_1", "\u00e9", "1a", "a-b", "#", " ", "\t", "\n"]
FORMULAS = st.recursive(
    st.sampled_from(["a", "b_1", "\u00e9"]),
    lambda sub: st.tuples(sub, sub).map("(nand {0[0]} {0[1]})".format),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(FORMULA_PIECES) | st.text(max_size=3) | FORMULAS, max_size=8))
def test_formula_soup_parses_or_raises_value_error(pieces):
    try:
        f = parse_formula("".join(pieces))
    except ValueError:
        return
    assert parse_formula(formula_to_text(f)) == f


def test_consumer_counts():
    f = parse_formula("(nand a (nand a b))")
    counts = f.consumer_counts()
    assert counts[0] == 2  # input a feeds two gates
    assert counts[1] == 1


# ---------------------------------------------------------------------------
# construction

def test_width_below_k_rejected():
    f = parse_formula("(nand a b)")
    kmaj, xnand = perfect_gates()
    with pytest.raises(ValueError):
        build(f, width=2, k=3, restore_rounds=0, xnand=xnand, kmaj=kmaj, seed=1)


def test_gate_targets_validated():
    f = parse_formula("(nand a b)")
    kmaj, xnand = perfect_gates()
    with pytest.raises(ValueError):
        build(f, 9, 3, 0, xnand=kmaj, kmaj=kmaj, seed=1)
    with pytest.raises(ValueError):
        build(f, 9, 5, 0, xnand=xnand, kmaj=kmaj, seed=1)


def test_threshold_warning_present_only_when_violated():
    f = parse_formula("(nand a b)")
    kmaj, xnand = chsh_gates()
    circ = build(f, 81, 3, 2, xnand=xnand, kmaj=kmaj, seed=1)
    assert not any("beta" in w for w in circ.warnings)
    degraded = uniform_noisy_gate(make_named("maj", 3), 0.2)
    circ = build(f, 81, 3, 2, xnand=xnand, kmaj=degraded, seed=1)
    assert any("beta_3" in w for w in circ.warnings)


def test_threshold_check_reads_the_worst_entry():
    # entries within EPSILON_CLASSIFICATION_TOL of each other count as one
    # uniform error, yet the check reads the largest: a later entry at beta_3
    # warns even when the first lies just below it
    f = parse_formula("(nand a b)")
    _, xnand = chsh_gates()
    threshold = float(gates.beta(3).beta)
    errors = (threshold - 1e-13,) * 7 + (threshold,)
    kmaj = gates.NoisyGate(make_named("maj", 3), errors)
    assert kmaj.epsilon == errors[0]
    circ = build(f, 81, 3, 2, xnand=xnand, kmaj=kmaj, seed=1)
    assert [w for w in circ.warnings if "beta_3" in w] == [
        f"restore gate error {threshold:.6f} is not below beta_3 = {threshold:.6f}; restoration will not converge"
    ]
    assert not any("input-dependent" in w for w in circ.warnings)


def test_restore_wiring_rows_are_permutations():
    f = parse_formula("(nand a b)")
    kmaj, xnand = chsh_gates()
    circ = build(f, 27, 3, 2, xnand=xnand, kmaj=kmaj, seed=5)
    for stage, perms in zip(circ.stages, circ.wiring, strict=True):
        if stage.kind == "restore":
            for row in perms:
                assert sorted(row) == list(range(27))
        else:
            identity, sigma1, sigma2 = perms
            assert identity is None
            assert sorted(sigma1) == list(range(27))
            assert all(a != b for a, b in zip(sigma1, sigma2))


def test_fanout_gets_private_restored_copies():
    f = parse_formula("(nand a (nand a b))")
    kmaj, xnand = chsh_gates()
    circ = build(f, 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=2)
    computes = [s for s in circ.stages if s.kind == "compute"]
    # input a feeds both gates through distinct duplicated bundles
    assert computes[0].sources[0] != computes[1].sources[0]
    restores = sum(s.kind == "restore" for s in circ.stages)
    # two inputs and two node outputs at r=1, plus one duplication per use of a
    assert restores == 4 + 2


def test_wiring_replays_the_seeded_draws_in_stage_order():
    # one default_rng([seed, 0]) walks the stages in order: k permutations per
    # restore, sigma1 per compute with sigma2 its rotation by W // 2
    f = parse_formula("(nand a (nand a b))")
    kmaj, xnand = chsh_gates()
    circ = build(f, 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=11)
    rng = np.random.default_rng([11, 0])
    for stage, perms in zip(circ.stages, circ.wiring, strict=True):
        if stage.kind == "restore":
            assert len(perms) == 3
            for row in perms:
                assert row.tolist() == rng.permutation(9).tolist()
        else:
            identity, sigma1, sigma2 = perms
            want = rng.permutation(9).tolist()
            assert identity is None
            assert sigma1.tolist() == want
            assert sigma2.tolist() == [want[(i + 4) % 9] for i in range(9)]
    assert circ.wiring is circ.wiring  # drawn once per circuit


def test_a_kmaj_with_list_errors_reports_as_its_tuple():
    # the analytic sweep caches per gate, which a list of errors could not key
    xnand = chsh_gates()[1]
    reports = [
        build_report(build(parse_formula(TREE2), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=7))
        for kmaj in (NoisyGate(make_named("maj", 3), [0.1] * 8), uniform_noisy_gate(make_named("maj", 3), 0.1))
    ]
    assert reports[0] == reports[1]


def test_analytic_report_draws_no_wiring(monkeypatch):
    kmaj, xnand = chsh_gates()

    def no_draw(*args, **kwargs):
        raise AssertionError("a wire permutation was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    circ = build(parse_formula(TREE3), 81, 3, 2, xnand=xnand, kmaj=kmaj, seed=7)
    build_report(circ, margin=0.05)
    assert "wiring" not in vars(circ)


# ---------------------------------------------------------------------------
# analytic propagation

def test_perfect_gates_compute_exactly():
    f = parse_formula("(nand a b)")
    kmaj, xnand = perfect_gates(k=1)
    circ = build(f, 1, 1, 0, xnand=xnand, kmaj=kmaj, seed=1)
    for x in itertools.product((0, 1), repeat=2):
        assert analytic_error(circ, x) == 0.0
        _, [value], _ = reliability._independence_walk(circ, np.array([table_index(x)]))
        assert value == 1 - (x[0] & x[1])
        mc = simulate_monte_carlo(circ, x, trials=64, seed=3)
        assert mc.empirical_error == 0.0


def test_perfect_gates_deep_tree_all_zero_errors(monkeypatch):
    f = parse_formula(TREE2)
    kmaj, xnand = perfect_gates()
    circ = build(f, 9, 3, 2, xnand=xnand, kmaj=kmaj, seed=1)
    stage_errors = []  # every stage error the walk evaluates; repeated rows reuse one

    def recorded(coefficients, ps, rounds=1):
        stage_errors.append(gates.polynomial_error(coefficients, ps, rounds))
        return stage_errors[-1]

    monkeypatch.setattr(reliability, "polynomial_error", recorded)
    assert analytic_error(circ, (1, 0, 1, 1)) == 0.0
    assert stage_errors and not np.concatenate(stage_errors).any()


def stage_error(gate, x, sources, ps):
    """A stage's output-wire error at true input index ``x``: ``sources`` are
    its wires as ``gates.error_polynomial`` takes them, ``ps`` one read error
    per source."""
    coefficients = gates.error_polynomial(gate, sources, [x])
    return gates.polynomial_error(coefficients, np.array([ps], dtype=float)).item()


#: the wires of a 3-input restore: three reads of one bundle
VOTES = ((1, 2, 4),)
#: the wires of a compute stage at W > 1: one read of a, two of b
OPERANDS = ((1,), (2, 4))


def test_restore_stage_matches_recursion_example():
    # one restore applied to a bundle at error 0.4 under the Bell-derived gate
    kmaj, _ = chsh_gates()
    out = stage_error(kmaj, 0, VOTES, [0.4])
    assert out == pytest.approx(0.395348196, abs=1e-9)
    assert out < 0.4
    # a barely input-dependent gate, which the analytic sweep enumerates; it agrees
    perturbed = gates.NoisyGate(
        make_named("maj", 3), (SIN2_PI8,) * 7 + (SIN2_PI8 + 2e-12,)
    )
    assert perturbed.epsilon is None
    brute = stage_error(perturbed, 0, VOTES, [0.4])
    assert brute == pytest.approx(out, abs=1e-10)


def test_compute_stage_with_clean_inputs_is_gate_error():
    _, xnand = chsh_gates()
    for v_a, v_b in itertools.product((0, 1), repeat=2):
        x = v_a | v_b << 1 | v_b << 2
        out = stage_error(xnand, x, OPERANDS, [0.0, 0.0])
        assert out == pytest.approx(SIN2_PI8, abs=1e-12)


def test_compute_stage_enumeration_against_direct_sum():
    # brute-force oracle over the eight flip patterns
    _, xnand = chsh_gates()
    p_a, p_b = 0.13, 0.27
    for v_a, v_b in itertools.product((0, 1), repeat=2):
        want = 1 - (v_a & v_b)
        total = 0.0
        for e_a, e1, e2 in itertools.product((0, 1), repeat=3):
            prob = (
                (p_a if e_a else 1 - p_a)
                * (p_b if e1 else 1 - p_b)
                * (p_b if e2 else 1 - p_b)
            )
            bits = (v_a ^ e_a) | ((v_b ^ e1) << 1) | ((v_b ^ e2) << 2)
            wrong = xnand.target.table[bits] != want
            e = xnand.errors[bits]
            total += prob * ((1 - e) if wrong else e)
        x = v_a | v_b << 1 | v_b << 2
        got = stage_error(xnand, x, OPERANDS, [p_a, p_b])
        assert got == pytest.approx(total, abs=1e-15)


def test_monotone_restoration_scan():
    kmaj, _ = chsh_gates()
    eta = gates.analyze_recursion(3, SIN2_PI8).eta
    p = eta + 1e-6
    while p < 0.5 - 1e-6:
        assert stage_error(kmaj, 0b111, VOTES, [p]) < p
        p += 1e-3
    degraded = uniform_noisy_gate(make_named("maj", 3), 0.2)
    assert any(
        stage_error(degraded, 0, VOTES, [p]) >= p
        for p in [i * 1e-3 for i in range(1, 500)]
    )


# ---------------------------------------------------------------------------
# Monte Carlo

def exact_logical_error(circ, x):
    """Joint enumeration over every wire-flip pattern; feasible for tiny W."""
    w = circ.width
    vals = circ.formula.evaluate_all(x)
    gate_of = {"restore": circ.kmaj, "compute": circ.xnand}
    init = {b: (vals[i],) * w for i, b in enumerate(circ.input_bundles)}
    states = {tuple(sorted(init.items())): 1.0}
    for stage, perms in zip(circ.stages, circ.wiring, strict=True):
        new = {}
        for key, prob in states.items():
            bundles = dict(key)
            outs, errs = [], []
            gate = gate_of[stage.kind]
            for j in range(w):
                idx = 0
                for i, (src, perm) in enumerate(zip(stage.sources, perms)):
                    idx |= bundles[src][j if perm is None else perm[j]] << i
                outs.append(gate.target.table[idx])
                errs.append(gate.errors[idx])
            target = stage.target
            for flips in itertools.product((0, 1), repeat=w):
                p = prob
                for fl, e in zip(flips, errs):
                    p *= e if fl else (1.0 - e)
                if p == 0.0:
                    continue
                nb = dict(bundles)
                nb[target] = tuple(o ^ fl for o, fl in zip(outs, flips))
                k2 = tuple(sorted(nb.items()))
                new[k2] = new.get(k2, 0.0) + p
        states = new
    want = vals[circ.formula.output_ref]
    total = 0.0
    for key, prob in states.items():
        out = dict(key)[circ.output_bundle]
        wrong = sum(1 for bit in out if bit != want)
        if 2 * wrong >= w:
            total += prob
    return total


@st.composite
def nand_trees(draw, max_leaves=3):
    """A random NAND tree over distinct inputs, so no input fans out."""
    names = iter("abcdefgh")

    def tree(leaves):
        if leaves == 1:
            return next(names)
        left = draw(st.integers(1, leaves - 1))
        return f"(nand {tree(left)} {tree(leaves - left)})"

    return tree(draw(st.integers(2, max_leaves)))


ERROR_VALUES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    text=nand_trees(),
    rounds=st.integers(0, 1),
    restore_errors=st.tuples(ERROR_VALUES, ERROR_VALUES),
    compute_errors=st.tuples(*[ERROR_VALUES] * 8),
)
def test_single_wire_analytic_is_exact_on_trees(text, rounds, restore_errors, compute_errors):
    # at W=1 without fan-out every operand pair is independent, so the
    # independence model is exact; the two b reads of a compute stage are
    # the same wire
    kmaj = gates.NoisyGate(make_named("maj", 1), restore_errors)
    xnand = gates.NoisyGate(make_named("xnand"), compute_errors)
    f = parse_formula(text)
    circ = build(f, 1, 1, rounds, xnand=xnand, kmaj=kmaj, seed=1)
    for x in itertools.product((0, 1), repeat=f.n_inputs):
        got = analytic_error(circ, x)
        assert got == pytest.approx(exact_logical_error(circ, x), abs=1e-12)


def test_monte_carlo_matches_exact_enumeration():
    kmaj, xnand = chsh_gates()
    f = parse_formula("(nand a b)")
    circ = build(f, 3, 3, 1, xnand=xnand, kmaj=kmaj, seed=3)
    for x in ((0, 0), (0, 1), (1, 1)):
        exact = exact_logical_error(circ, x)
        mc = simulate_monte_carlo(circ, x, trials=200000, seed=9)
        assert abs(exact - mc.empirical_error) < 2.5 * halfwidth(mc.empirical_error, mc.trials)


INPUT_DEPENDENT_CASES = [
    (3, 3, (0.0, 0.05, 0.1, 0.2, 0.05, 1.0, 0.3, 0.02)),
    (2, 1, (0.25, 0.0)),  # even width: a tied readout counts as wrong
]


@pytest.mark.parametrize("width, k, restore_errors", INPUT_DEPENDENT_CASES)
def test_monte_carlo_matches_exact_enumeration_with_input_dependent_errors(
    width, k, restore_errors
):
    # errors vary with the gate input and include 0 (no draw) and 1 (always
    # flips); 0.05 is shared by two entries of a table, so it gets one mask
    # that the mux tree selects by input
    kmaj = gates.NoisyGate(make_named("maj", k), restore_errors)
    xnand = gates.NoisyGate(
        make_named("xnand"), (0.1, 0.0, 0.3, 1.0, 0.05, 0.2, 0.0, 0.05)
    )
    circ = build(parse_formula("(nand a b)"), width, k, 1, xnand=xnand, kmaj=kmaj, seed=3)
    for x in itertools.product((0, 1), repeat=2):
        exact = exact_logical_error(circ, x)
        assert 0.0 < exact < 1.0
        mc = simulate_monte_carlo(circ, x, trials=200000, seed=9)
        assert abs(exact - mc.empirical_error) < 2.5 * halfwidth(mc.empirical_error, mc.trials)


@pytest.mark.parametrize("stages_per_group", [1, 2])
def test_monte_carlo_matches_exact_enumeration_across_mask_groups(monkeypatch, stages_per_group):
    # the enumeration circuits are so narrow that one group holds every
    # stage of a kind; here each W=3 stage draws alone, or with one more
    # stage of its kind, so the three restores end in a partial group
    monkeypatch.setattr(reliability, "GROUP_WORDS", stages_per_group * 3 * reliability._WORDS)
    test_monte_carlo_matches_exact_enumeration()
    for case in INPUT_DEPENDENT_CASES:
        test_monte_carlo_matches_exact_enumeration_with_input_dependent_errors(*case)


# wrong trials per block of (nand a b), blocks 0-2 at seed 9, inputs 00 01 10 11
PINNED_WRONG_TRIALS = {
    (3, 3): ((88, 92, 119), (17, 15, 22), (2, 1, 1), (35, 25, 21)),
    (2, 1): ((301, 246, 280), (339, 328, 354), (328, 280, 277), (483, 525, 501)),
}


@pytest.mark.parametrize(
    "width, k, restore_errors",
    [
        (3, 3, (0.0, 0.05, 0.1, 0.2, 0.05, 1.0, 0.3, 0.02)),
        (2, 1, (0.25, 0.0)),
    ],
)
def test_sampled_bits_are_pinned_with_input_dependent_errors(width, k, restore_errors):
    # the flip tables select different masks on different inputs, so a lane
    # that picked the wrong mask would move these counts
    kmaj = gates.NoisyGate(make_named("maj", k), restore_errors)
    xnand = gates.NoisyGate(
        make_named("xnand"), (0.1, 0.0, 0.3, 1.0, 0.05, 0.2, 0.0, 0.05)
    )
    circ = build(parse_formula("(nand a b)"), width, k, 1, xnand=xnand, kmaj=kmaj, seed=3)
    got = tuple(
        tuple(int(np.count_nonzero(m)) for m in wrong_blocks(circ, np.array([table_index(x)]), 9, 3))
        for x in itertools.product((0, 1), repeat=2)
    )
    assert got == PINNED_WRONG_TRIALS[width, k]


def test_flip_words_hit_the_exact_probability():
    # p = 1/2 is decided by the first bit: a lane flips iff its first
    # random bit is set, which stands for u_1 = 0
    n = 2048
    first = np.random.SFC64(np.random.SeedSequence([1, 2, 3])).random_raw(n)
    half = reliability._flip_words(np.random.SFC64(np.random.SeedSequence([1, 2, 3])), 0.5, n)
    assert np.array_equal(half, first)
    lanes = 64 * n
    for key, p in enumerate((1 / 3, 0.14644660940672627, 0.75, 1 - 2**-9, 2**-12)):
        words = reliability._flip_words(np.random.SFC64(np.random.SeedSequence([key])), p, n)
        hits = int(np.unpackbits(words.view(np.uint8)).sum())
        assert abs(hits / lanes - p) < 5 * math.sqrt(p * (1 - p) / lanes)


def reference_flip_words(bitgen, p, n):
    """Scalar replay of ``_flip_words``: each pass draws its rounds for the
    words still in play, round after round, and every lane is decided by
    comparing its random bits, a set bit standing for u_i = 0, with p's
    binary expansion. Returns the words and the number of words that entered
    each pass."""
    q = Fraction(p)
    length = q.denominator.bit_length() - 1
    expansion = [q.numerator >> (length - 1 - i) & 1 for i in range(length)]
    flips = [0] * n
    undecided = [set(range(64)) for _ in range(n)]
    live, entered = list(range(n)), []
    for start in range(0, length, reliability.ROUNDS_PER_PASS):
        if not live:
            break
        entered.append(len(live))
        rounds = expansion[start : start + reliability.ROUNDS_PER_PASS]
        draws = [int(u) for u in bitgen.random_raw(len(rounds) * len(live))]
        for j, word in enumerate(live):
            for lane in sorted(undecided[word]):
                for i, p_bit in enumerate(rounds):
                    u_bit = 1 - (draws[i * len(live) + j] >> lane & 1)
                    if u_bit != p_bit:  # decided: U < p iff u = 0 < p here
                        undecided[word].discard(lane)
                        flips[word] |= p_bit << lane
                        break
        live = [word for word in live if undecided[word]]
    return np.array(flips, dtype=np.uint64), entered


@pytest.mark.parametrize(
    "p", [0.5, 5 / 16, 1 / 3, 0.14644660940672627, 2**-12, 1 - 2**-9]
)
def test_flip_words_equal_the_scalar_reference(p):
    # at n = 64 some words still have an undecided lane after the first pass
    # of ROUNDS_PER_PASS rounds, so every expansion longer than that runs a
    # second pass over fewer words
    length = Fraction(p).denominator.bit_length() - 1
    for n in (1, 64):
        key = np.random.SeedSequence([n, length])
        want, entered = reference_flip_words(np.random.SFC64(key), p, n)
        got = reliability._flip_words(np.random.SFC64(key), p, n)
        assert np.array_equal(got, want)
        if n == 64 and length > reliability.ROUNDS_PER_PASS:
            assert len(entered) >= 2 and entered[1] < n


def test_flip_words_peak_memory():
    # one mask of 37 stages x 729 wires x 16 words, all of TREE3's at W=729
    # r=2 in one call; the result itself is 8n bytes of the peak
    n = 37 * 729 * 16
    reliability._flip_words(np.random.SFC64(0), SIN2_PI8, 64)  # warm numpy's lazy set-up
    tracemalloc.start()
    try:
        reliability._flip_words(np.random.SFC64(np.random.SeedSequence([1])), SIN2_PI8, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 8 * n


def loop_flip_words(bitgen, p, n):
    """The loop form of ``_flip_words`` the sampler ran before each mask's
    dense pass started from its first draws: every word starts undecided and
    unflipped in full buffers, and every round updates them."""
    num, den = float(p).as_integer_ratio()
    bits = [(num >> shift) & 1 for shift in reversed(range(den.bit_length() - 1))]
    out = np.zeros(n, dtype=np.uint64)
    live = None
    undecided = np.full(n, reliability._ONES)
    for start in range(0, len(bits), reliability.ROUNDS_PER_PASS):
        if start:
            keep = np.flatnonzero(undecided)
            if not keep.size:
                break
            live = keep if live is None else live[keep]
            undecided = undecided[keep]
        flips = out if live is None else np.zeros(live.size, dtype=np.uint64)
        for bit in bits[start : start + reliability.ROUNDS_PER_PASS]:
            r = bitgen.random_raw(undecided.size)
            if bit:
                r &= undecided
                flips |= r
                undecided ^= r
            else:
                undecided &= r
        if live is not None:
            out[live] |= flips
    return out


#: the two error values of ``kmaj_from_noisy_ghz(5, 0.05)``, 0.05 give or take rounding
GHZ5_ERROR_VALUES = sorted(set(gates.kmaj_from_noisy_ghz(5, 0.05).errors))


@pytest.mark.parametrize("p", [SIN2_PI8, 1 / 4, 1 / 2, 1 / 3, *GHZ5_ERROR_VALUES, 2.0**-1074])
def test_flip_words_equal_the_loop_reference_and_draw_as_many_words(p):
    # 9 072, 38 880 and 58 320 words are TREE3's compute and restore masks at
    # W=81 and its restore groups at W=729
    assert len(GHZ5_ERROR_VALUES) == 2
    for n in (1, 5, 9072, 38880, 58320):
        key = np.random.SeedSequence([n, 17])
        want_bitgen, got_bitgen = np.random.SFC64(key), np.random.SFC64(key)
        want = loop_flip_words(want_bitgen, p, n)
        got = reliability._flip_words(got_bitgen, p, n)
        assert got.dtype == np.uint64 and np.array_equal(got, want)
        # SFC64's state ends in a counter of the raw words drawn
        assert got_bitgen.state["state"]["state"].tolist() == want_bitgen.state["state"]["state"].tolist()


def lane_bits(words):
    """Every lane's bit of a word array, lane 64 i + b being bit b of word i."""
    return [int(word) >> b & 1 for word in np.ravel(words) for b in range(64)]


def lookup(tables, operands, leaves):
    """Per lane, the XOR over ``tables`` of the key that the lane's operand
    bits index: key 0 or 1 itself, key 2 + j the lane's bit of leaf j."""
    operand_bits = [lane_bits(x) for x in operands]
    leaf_bits = [lane_bits(leaf) for leaf in leaves]
    out = []
    for lane in range(len(operand_bits[0])):
        index = sum(bits[lane] << j for j, bits in enumerate(operand_bits))
        keys = [table[index] for table in tables]
        out.append(functools.reduce(int.__xor__, (key if key < 2 else leaf_bits[key - 2][lane] for key in keys)))
    return out


def run_plan(tables, operands, leaves):
    """A ``_plan`` run on the words, whose result has the operands' shape,
    a constant one included."""
    got = reliability._run(reliability._plan(*tables), leaves, operands)
    assert got.shape == operands[0].shape
    return got


@st.composite
def key_tables(draw):
    """One or two key tables of one arity <= 5, over 0, 1 and up to 3 leaves."""
    arity, top = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    table = st.lists(st.integers(0, top), min_size=1 << arity, max_size=1 << arity).map(tuple)
    return tuple(draw(st.lists(table, min_size=1, max_size=2)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tables=key_tables(), seed=st.integers(0, 2**32 - 1))
def test_plan_equals_a_lane_lookup_property(tables, seed):
    # the leaves are keys 2 .. the largest key, as the sampler passes them
    arity = len(tables[0]).bit_length() - 1
    words = np.random.SFC64(seed).random_raw((arity + max(1, *map(max, tables)) - 1, 2))
    operands, leaves = words[:arity], words[arity:]
    assert lane_bits(run_plan(tables, operands, leaves)) == lookup(tables, operands, leaves)


@pytest.mark.parametrize("tables", [
    ((0,) * 8,), ((1,) * 4,), ((2,) * 8,), ((0, 1, 1, 0), (0, 1, 1, 0)), ((0, 1, 1, 0), (1, 0, 0, 1)),
    ((0, 0, 0, 1, 0, 1, 1, 1), (1,) * 8),
])
def test_plan_folds_constants(tables):
    # constant results, a leaf alone and a complement, on every lane
    words = np.random.SFC64(3).random_raw((4, 2))
    arity = len(tables[0]).bit_length() - 1
    operands, leaves = words[:arity], words[arity:][: max(1, *map(max, tables)) - 1]
    assert lane_bits(run_plan(tables, operands, leaves)) == lookup(tables, operands, leaves)


def package_gates():
    """Every gate the package builds for a circuit, by role: the majority
    and XNAND from the CHSH and non-contextual ANDs, the noisy-GHZ 5- and
    7-input majorities and uniform noisy gates."""
    yield from (("restore", gates.maj3_from_and(base)) for base in (chsh_and_gate(), noncontextual_and_gate()))
    yield from (("compute", gates.xnand_from_and(base)) for base in (chsh_and_gate(), noncontextual_and_gate()))
    yield from (("restore", gates.kmaj_from_noisy_ghz(k, 0.05)) for k in (5, 7))
    yield from (("restore", uniform_noisy_gate(make_named("maj", k), e)) for k, e in ((3, 0.0), (5, 0.1)))
    yield "compute", uniform_noisy_gate(make_named("xnand"), 0.2)


@pytest.mark.parametrize("kind, gate", list(package_gates()))
def test_each_stage_plan_equals_its_gate_tables_lane_by_lane(kind, gate):
    # a stage's output is its value table XOR its flip table, whose key 2 + j
    # selects the mask of the j-th smallest error value strictly inside (0, 1)
    kmaj, xnand = perfect_gates(gate.k if kind == "restore" else 3)
    kmaj, xnand = (gate, xnand) if kind == "restore" else (kmaj, gate)
    circ = build(parse_formula("(nand a b)"), 9, kmaj.k, 1, xnand=xnand, kmaj=kmaj, seed=1)
    kinds, layout = circ._sampler
    values = kinds[kind][0]
    assert values == tuple(sorted({e for e in gate.errors if 0.0 < e < 1.0}))
    words = np.random.SFC64(gate.k).random_raw((gate.k + len(values), 2))
    operands, masks = words[: gate.k], words[gate.k :]
    [plan] = {plan for stage_kind, plan, _ in layout if stage_kind == kind}
    got = lane_bits(reliability._run(plan, masks, operands))
    mask_bits = [lane_bits(mask) for mask in masks]
    operand_bits = [lane_bits(x) for x in operands]
    for lane, bit in enumerate(got):
        index = sum(bits[lane] << j for j, bits in enumerate(operand_bits))
        e = gate.errors[index]
        flip = int(e) if e in (0.0, 1.0) else mask_bits[values.index(e)][lane]
        assert bit == gate.target.table[index] ^ flip


def test_plans_are_built_once_per_circuit(monkeypatch):
    built = []
    plan = reliability._plan
    monkeypatch.setattr(reliability, "_plan", lambda *tables: built.append(tables) or plan(*tables))
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=7)
    for seed in range(20):
        simulate_monte_carlo(circ, (1, 0, 1, 1, 0, 0, 1, 0), trials=64, seed=seed)
    assert len(built) == 2  # one per gate kind, on the first call
    assert built[0][0] == tuple(kmaj.target.table) and built[1][0] == tuple(xnand.target.table)


def stuck_at_zero(target):
    """A gate of ``target`` whose every output is 0: it errs exactly where
    its table is 1, so its value and flip tables are equal."""
    return gates.NoisyGate(target, tuple(float(b) for b in target.table))


@pytest.mark.parametrize("text, width, k, stuck", [
    ("(nand a b)", 1, 1, "restore"),
    ("(nand a (nand a b))", 1, 1, "restore"),
    ("(nand (nand a b) (nand a c))", 9, 3, "restore"),
    ("(nand (nand a b) (nand a c))", 9, 3, "compute"),
])
def test_a_stuck_at_zero_gate_reads_out_zero_on_every_trial(text, width, k, stuck):
    # a stage whose value and flip tables are equal outputs the constant 0
    # words; the stages after it and the readout take them like any state,
    # so every trial reads out 0 and is wrong exactly where the formula is 1
    kmaj = uniform_noisy_gate(make_named("maj", k), 0.05)
    xnand = uniform_noisy_gate(make_named("xnand"), 0.1)
    if stuck == "restore":
        kmaj = stuck_at_zero(kmaj.target)
    else:
        xnand = stuck_at_zero(xnand.target)
    circ = build(parse_formula(text), width, k, 1, xnand=xnand, kmaj=kmaj, seed=2)
    n_in = circ.formula.n_inputs
    xs = [tuple(i >> j & 1 for j in range(n_in)) for i in range(1 << n_in)]
    values = [circ.formula.evaluate_all(x)[-1] for x in xs]
    for block in wrong_blocks(circ, np.arange(len(xs)), 4, 2):  # all inputs in one walk
        assert block.tolist() == [[bool(v)] * reliability.BLOCK for v in values]
    for x, v in zip(xs, values):  # and each input alone
        assert simulate_monte_carlo(circ, x, trials=100, seed=4).empirical_error == v


def test_degenerate_single_wire_gate():
    # width-1 circuit: the logical error is exactly the compute gate's error
    _, xnand = chsh_gates()
    kmaj = uniform_noisy_gate(make_named("maj", 1), 0.0)
    circ = build(parse_formula("(nand a b)"), 1, 1, 0, xnand=xnand, kmaj=kmaj, seed=4)
    assert analytic_error(circ, (1, 1)) == pytest.approx(SIN2_PI8, abs=1e-12)
    mc = simulate_monte_carlo(circ, (1, 1), trials=100000, seed=21)
    sigma = math.sqrt(SIN2_PI8 * (1 - SIN2_PI8) / 100000)
    assert abs(mc.empirical_error - SIN2_PI8) < 3 * sigma


def test_seed_determinism_bit_for_bit():
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE2), 27, 3, 1, xnand=xnand, kmaj=kmaj, seed=6)
    a = simulate_monte_carlo(circ, (1, 0, 1, 1), trials=2000, seed=42)
    b = simulate_monte_carlo(circ, (1, 0, 1, 1), trials=2000, seed=42)
    assert a == b
    c = simulate_monte_carlo(circ, (1, 0, 1, 1), trials=2000, seed=43)
    assert c.empirical_error != a.empirical_error


def test_trial_streams_are_keyed_per_trial():
    # each block of BLOCK trials draws from its own (seed, block) stream, so
    # repeated runs are identical and longer runs stay statistically
    # consistent
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula("(nand a b)"), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=6)
    short = simulate_monte_carlo(circ, (1, 1), trials=500, seed=11)
    again = simulate_monte_carlo(circ, (1, 1), trials=500, seed=11)
    assert short == again
    longer = simulate_monte_carlo(circ, (1, 1), trials=4000, seed=11)
    assert abs(longer.empirical_error - short.empirical_error) < 0.06


def test_shorter_runs_are_prefixes_of_longer_ones():
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula("(nand a b)"), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=6)
    x = (1, 1)
    blocks = wrong_blocks(circ, np.array([table_index(x)]), 11, 3)
    assert all(b.shape == (1, reliability.BLOCK) for b in blocks)
    wrong = np.concatenate(blocks, axis=1)[0]
    for n in (1, 700, reliability.BLOCK, 1500, 3 * reliability.BLOCK):
        mc = simulate_monte_carlo(circ, x, trials=n, seed=11)
        assert round(mc.empirical_error * n) == int(wrong[:n].sum())


@pytest.mark.parametrize("group_words", [reliability.GROUP_WORDS, 27 * reliability._WORDS])
def test_inputs_meet_the_same_masks_in_a_block(monkeypatch, group_words):
    # block b's stream is seeded with (seed, b) alone, so every input of a
    # circuit draws the same flip masks: common random numbers; the smaller
    # group holds one W=27 stage
    monkeypatch.setattr(reliability, "GROUP_WORDS", group_words)
    flip_words = reliability._flip_words
    drawn = []

    def recording(bitgen, p, n):
        words = flip_words(bitgen, p, n)
        drawn[-1].append(words)
        return words

    monkeypatch.setattr(reliability, "_flip_words", recording)
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE2), 27, 3, 1, xnand=xnand, kmaj=kmaj, seed=6)
    for x in ((1, 0, 1, 1), (0, 1, 0, 0)):
        drawn.append([])
        simulate_monte_carlo(circ, x, trials=2 * reliability.BLOCK, seed=42)
    first, second = drawn
    per_block = 2 if group_words > 27 * reliability._WORDS else len(circ.stages)  # one draw per group
    assert len(first) == len(second) == 2 * per_block
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert not np.array_equal(first[0], first[per_block])  # blocks draw apart


def test_sampled_value_is_pinned_on_the_three_level_tree():
    # frozen under MC_STREAM = "bitsliced-sfc64-v3": a change to the stage
    # walk or the draws would move it
    assert reliability.MC_STREAM == "bitsliced-sfc64-v3"
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 81, 3, 2, xnand=xnand, kmaj=kmaj, seed=7)
    mc = simulate_monte_carlo(circ, (1, 1, 1, 1, 1, 0, 1, 0), trials=1024, seed=5)
    assert mc.empirical_error == 497 / 1024


#: sha256 of the repr of the 256 per-input wrong counts, in table order, of
#: TREE3 at W=81, r=2 (wiring seed 7), 1024 trials at seed 5, from one
#: ``simulate_monte_carlo`` per input before inputs shared a sampler walk
PINNED_ALL_INPUT_COUNTS = "fb804c0a57b9e17785fa62b50e463fc3f82050cc0e5b82505d3450d0344d308e"


#: sha256 of the repr of the list of 256 per-input wrong counts, in table
#: order, of TREE3 at W=9, r=2 (wiring seed 7) with the CHSH XNAND and
#: ``kmaj_from_noisy_ghz(k, 0.05)`` restores, 1024 trials at seed 5, taken
#: when each compute stage and its restore chain were still two steps
PINNED_WIDE_RESTORE_COUNTS = {
    5: (45420, "f6e11a87f7947107a302736258ebfba73c2d3454c81e012b5f8c465cc4d0242a"),
    7: (31760, "d7c37da2882b915e6ef3e72f4f11a7e4d78d1b9e6152c8b4a0ecfdd84f70b66f"),
}


@pytest.mark.parametrize("k", sorted(PINNED_WIDE_RESTORE_COUNTS))
def test_sampled_counts_with_wide_restores_after_a_compute_are_pinned(k):
    # a restore after a 3-read compute reads its source k times: the sampler
    # sizes each stage's reads by that stage's own sources
    circ = build(parse_formula(TREE3), 9, k, 2, xnand=chsh_gates()[1], kmaj=ghz_majority(k, 0.05), seed=7)
    counts = reliability._wrong_counts(circ, np.arange(256), 1024, 5).tolist()
    total, digest = PINNED_WIDE_RESTORE_COUNTS[k]
    assert sum(counts) == total
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest


def test_all_input_report_reproduces_the_per_input_runs():
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 81, 3, 2, xnand=xnand, kmaj=kmaj, seed=7)
    report = build_report(circ, trials=1024, seed=5)
    wrong = {table_index(row.x): row.empirical_error * 1024 for row in report.rows}
    counts = tuple(round(wrong[i]) for i in range(256))
    assert counts[table_index((1, 1, 1, 1, 1, 0, 1, 0))] == 497  # the one-input pin above
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == PINNED_ALL_INPUT_COUNTS
    assert all(
        row.upper == gates.clopper_pearson_upper(round(row.empirical_error * 1024), 1024, 0.05 / 256)
        for row in report.rows
    )


def test_all_input_report_draws_each_mask_once_per_chunk(monkeypatch):
    # the inputs share one sampler walk per chunk of inputs, so a block draws
    # each group's masks once per chunk, not once per input
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 81, 3, 8, xnand=xnand, kmaj=kmaj, seed=7)
    flip_words = reliability._flip_words
    calls = []

    def counting(bitgen, p, n):
        calls.append(p)
        return flip_words(bitgen, p, n)

    monkeypatch.setattr(reliability, "_flip_words", counting)
    build_report(circ, trials=1024, seed=7)
    group = reliability.GROUP_WORDS // (81 * reliability._WORDS)  # stages per group, inputs per chunk
    kinds = collections.Counter(stage.kind for stage in circ.stages)
    groups = sum(-(-count // group) for count in kinds.values())  # one error value per gate
    assert sorted(kinds.values()) == [7, 120] and group == 50
    assert len(calls) == -(-256 // group) * groups == 24


def test_all_input_report_memory_is_bounded_by_the_chunk(monkeypatch):
    # a chunk's bundle states hold at most GROUP_WORDS words, as one group of
    # masks does, and the readout unpacks one class at a time. The bounds are
    # scalar bisections that hold no arrays but run slowly under tracemalloc,
    # so a stand-in gives them here
    monkeypatch.setattr(reliability, "clopper_pearson_upper", lambda k, n, level: k / n)
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 81, 3, 8, xnand=xnand, kmaj=kmaj, seed=7)
    x = (1, 1, 1, 1, 1, 0, 1, 0)
    simulate_monte_carlo(circ, x, trials=64, seed=1)  # warm the wiring and numpy's lazy set-up
    build_report(circ)
    peaks = []
    for run in (lambda: simulate_monte_carlo(circ, x, 1024, 7), lambda: build_report(circ, trials=1024, seed=7)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one, every = peaks
    assert every <= 3 * one


#: tracemalloc peak of one sampled call at the width cap: one NAND at r = 1
#: peaked at 6.0 MiB (numpy 2.4, x86-64), 4 MiB of it the readout's bytes
PEAK_AT_THE_WIDTH_CAP = 7 * 2**20


def test_sampling_at_the_width_cap_draws_within_one_group(monkeypatch):
    # at W = GROUP_WORDS // _WORDS one stage fills a mask group, and the
    # readout unpacks a byte per trial bit of one class, 4 MiB
    flip_words = reliability._flip_words
    sizes = []

    def recording(bitgen, p, n):
        sizes.append(n)
        return flip_words(bitgen, p, n)

    monkeypatch.setattr(reliability, "_flip_words", recording)
    _, xnand = chsh_gates()
    kmaj = uniform_noisy_gate(make_named("maj", 3), 0.01)
    width = reliability.GROUP_WORDS // reliability._WORDS
    assert width == 4096
    circ = build(parse_formula("(nand a b)"), width, 3, 1, xnand=xnand, kmaj=kmaj, seed=1)
    simulate_monte_carlo(circ, (1, 1), 1, 3)  # warm the wiring and numpy's lazy set-up
    tracemalloc.start()
    try:
        simulate_monte_carlo(circ, (1, 1), 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and max(sizes) <= reliability.GROUP_WORDS
    assert peak <= PEAK_AT_THE_WIDTH_CAP


def test_a_sampled_width_above_the_cap_is_refused_before_any_work(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew a flip mask")

    monkeypatch.setattr(reliability, "_flip_words", no_draws)
    kmaj, xnand = chsh_gates()
    width = reliability.GROUP_WORDS // reliability._WORDS + 1
    circ = build(parse_formula("(nand a b)"), width, 3, 0, xnand=xnand, kmaj=kmaj, seed=1)
    message = f"sampled width {width} above cap {width - 1}"
    with pytest.raises(ValueError, match=message):
        simulate_monte_carlo(circ, (1, 1), 1, 3)
    with pytest.raises(ValueError, match=message):
        build_report(circ, trials=1, seed=3)
    assert not build_report(circ).reliable  # unsampled, the sweep still runs
    assert "wiring" not in circ.__dict__  # never drawn


#: a NAND chain over 14 inputs: at W=3 r=0 its 16 384 inputs take 13 chunks
CHAIN14 = functools.reduce(lambda acc, name: f"(nand {acc} {name})", "bcdefghijklmn", "a")


def test_all_input_counts_hold_one_chunk_of_rows_at_a_time():
    # each chunk's wrong-trial rows are counted as the chunk finishes, so no
    # block's rows are ever joined: 2.1 chunks here, 24 when they were
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(CHAIN14), 3, 3, 0, xnand=xnand, kmaj=kmaj, seed=1)
    xs = np.arange(1 << 14)
    group = reliability.GROUP_WORDS // (3 * reliability._WORDS)
    assert -(-len(xs) // group) == 13
    reliability._wrong_counts(circ, xs[:8], 64, 1)  # warm numpy's lazy set-up
    tracemalloc.start()
    try:
        reliability._wrong_counts(circ, xs, 1024, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * group * reliability.BLOCK  # three chunks' bool rows


def test_report_bounds_each_distinct_count_once(monkeypatch):
    bound = gates.clopper_pearson_upper
    calls = []

    def counting(k, n, level):
        calls.append(k)
        return bound(k, n, level)

    monkeypatch.setattr(reliability, "clopper_pearson_upper", counting)
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(CHAIN14), 3, 3, 0, xnand=xnand, kmaj=kmaj, seed=1)
    report = build_report(circ, trials=1024, seed=1)
    counts = [round(row.empirical_error * 1024) for row in report.rows]
    assert sorted(calls) == sorted(set(counts)) and len(calls) == 13
    uppers = {k: bound(k, 1024, 0.05 / (1 << 14)) for k in calls}
    assert all(row.upper == uppers[k] for row, k in zip(report.rows, counts))


def test_monte_carlo_memory_does_not_grow_with_trials():
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 81, 3, 2, xnand=xnand, kmaj=kmaj, seed=7)
    x = (1, 1, 1, 1, 1, 0, 1, 0)
    simulate_monte_carlo(circ, x, trials=64, seed=1)  # warm numpy's lazy set-up
    peaks = {}
    for trials in (1024, 32768):
        tracemalloc.start()
        try:
            simulate_monte_carlo(circ, x, trials=trials, seed=1)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32768] <= 1.1 * peaks[1024]


def test_monte_carlo_memory_does_not_grow_with_stages():
    # masks are drawn a group of stages at a time when the walk reaches the
    # group, so a block holds one group and a few live bundles however many
    # stages the circuit has
    kmaj, xnand = chsh_gates()
    x = (1, 1, 1, 1, 1, 0, 1, 0)
    peaks = {}
    for rounds in (2, 8):
        circ = build(parse_formula(TREE3), 729, 3, rounds, xnand=xnand, kmaj=kmaj, seed=7)
        # warm the wiring, drawn once per circuit and kept, and numpy's lazy set-up
        simulate_monte_carlo(circ, x, trials=64, seed=1)
        tracemalloc.start()
        try:
            simulate_monte_carlo(circ, x, trials=64, seed=1)
            peaks[len(circ.stages)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sorted(peaks) == [37, 127]
    assert peaks[127] <= 1.25 * peaks[37]


# ---------------------------------------------------------------------------
# end-to-end reports and certification

def test_certify_thresholds():
    # a zero independence figure is no evidence; 0 wrong of 1024 trials on
    # every input is, with upper bound 1 - (0.05/4)^(1/1024) each
    kmaj, xnand = perfect_gates()
    circ = build(parse_formula("(nand a b)"), 9, 3, 0, xnand=xnand, kmaj=kmaj, seed=1)
    report = build_report(circ, margin=0.2)
    assert report.delta == 0.0 and not report.reliable and not certify(report, 0.2)
    report = build_report(circ, margin=0.2, trials=1024, seed=1)
    assert report.reliable and certify(report, 0.2)
    for row in report.rows:
        assert row.upper == pytest.approx(-math.expm1(math.log(0.05 / 4) / 1024), abs=1e-12)
    with pytest.raises(ValueError):
        certify(report, 0.6)


def test_certify_arithmetic_on_frozen_rows():
    xs = list(itertools.product((0, 1), repeat=2))

    def report(uppers, margin):
        rows = tuple(reliability.InputRow(x, 0.0, u, u) for x, u in zip(xs, uppers))
        return reliability.SimulationReport(
            rows=rows, delta=0.0, worst_input=xs[0], margin=margin, warnings=(), evidence={},
        )

    assert certify(report([0.25, 0.31, 0.31, 0.0], 0.15), 0.15)  # each below 0.35
    assert not certify(report([0.25, 0.31, 0.31, 0.36], 0.15), 0.15)
    assert not certify(report([0.25, 0.31, 0.31, 0.375], 0.125), 0.125)  # the line itself fails
    assert not certify(report([0.25, 0.31, 0.31, None], 0.15), 0.15)  # one input unsampled
    assert certify(report([0.31] * 4, 0.4), 0.15)  # certify reads its own margin
    assert not certify(report([0.31] * 4, 0.15), 0.4)


def test_three_level_tree_certifies_with_enough_restoration():
    # with Bell-derived gates and eight restores per stage, the independence
    # figure of TREE3 at W=81 sits below the line, but it is optimistic and
    # no evidence: the verdict is false. The sampler refutes it (0.525 +-
    # 0.010 on its worst input from 10 000 trials, README). The analytic
    # delta is deterministic, frozen here as a regression value.
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 81, 3, 8, xnand=xnand, kmaj=kmaj, seed=7)
    report = build_report(circ, margin=0.05)
    assert report.delta == pytest.approx(0.42513818426249167, abs=1e-9)
    assert report.delta < 0.45 and not report.reliable
    assert report.evidence == {"kind": "none", "note": "independence figure only, optimistic"}


def test_noncontextual_compute_stage_suffices():
    # quarter-noisy XNAND from non-contextual correlations, Bell restores:
    # the independence figure is far below the line, the sampled error of
    # the worst input is 0.483 +- 0.015 (4096 trials, ROADMAP Baseline), and
    # without sampling the verdict is false
    kmaj, _ = chsh_gates()
    xnand = xnand_from_and(noncontextual_and_gate())
    circ = build(parse_formula(TREE3), 81, 3, 24, xnand=xnand, kmaj=kmaj, seed=7)
    report = build_report(circ, margin=0.05)
    assert report.delta == pytest.approx(0.032443451488605245, abs=1e-9)
    assert not report.reliable


def test_tree4_certifies_with_every_input_sampled():
    # the independence figure's worst input (1110) is not the sampled worst
    # (0011), so only sampling every input can certify
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE2), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=5)
    report = build_report(circ, margin=0.05, trials=2000, seed=5)
    assert report.reliable
    assert report.evidence == {
        "kind": "sampled", "sampled_inputs": 16, "inputs": 16, "trials": 2000,
        "bound": "exact one-sided Clopper-Pearson", "family_level": 0.05,
    }
    assert all(row.empirical_error is not None for row in report.rows)
    top = max(report.rows, key=lambda row: row.upper)
    assert report.worst_input == (1, 1, 1, 0) and top.x == (0, 0, 1, 1)
    assert top.upper == pytest.approx(0.426400325, abs=1e-9)
    wrong = round(top.empirical_error * 2000)
    assert top.upper == gates.clopper_pearson_upper(wrong, 2000, 0.05 / 16)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: the noiseless W-wire majority readout is not affine, so it "
    "lies outside the mod-2 model and certifies a circuit of non-contextual gates",
)
def test_noncontextual_circuit_stays_above_the_nonlinearity_floor():
    # with only non-contextual boxes every branch of the computation is affine
    # in x, so the average error is at least nu(f)/2^n (the paper's first
    # result), and with it the mean of the per-input upper bounds
    formula = parse_formula((Path(__file__).parent / "golden" / "tree4.nand").read_text())
    f = BooleanFunction.from_callable(formula.n_inputs, lambda *x: formula.evaluate_all(x)[-1])
    floor = Fraction(nonlinearity(f), 1 << f.arity)
    assert floor == Fraction(5, 16)
    kmaj, _ = chsh_gates()  # no restore stage runs at r = 0
    xnand = xnand_from_and(noncontextual_and_gate())
    circ = build(formula, 729, 3, 0, xnand=xnand, kmaj=kmaj, seed=3)
    report = build_report(circ, trials=1024, seed=3)
    uppers = [row.upper for row in report.rows]
    assert len(uppers) == 16
    assert math.fsum(uppers) / 16 >= floor


@pytest.mark.parametrize("margin", [0.05, 0.3])
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"trials": 2000, "seed": 5, "mc_inputs": "worst"}, {"trials": 2000, "seed": 5}],
    ids=["unsampled", "worst", "all"],
)
def test_certify_is_the_report_verdict(kwargs, margin):
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE2), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=5)
    report = build_report(circ, margin=margin, **kwargs)
    assert certify(report, margin) == report.reliable
    sampled = [row.x for row in report.rows if row.upper is not None]
    assert len(sampled) == report.evidence.get("sampled_inputs", 0)
    if kwargs.get("mc_inputs") == "worst":
        assert sampled == [report.worst_input]
    # a sampled worst input alone, or none, never certifies
    assert report.reliable == (len(sampled) == 16 and margin == 0.05)


def test_degraded_restores_fail_certification():
    _, xnand = chsh_gates()
    degraded = uniform_noisy_gate(make_named("maj", 3), 0.2)
    circ = build(parse_formula(TREE3), 81, 3, 2, xnand=xnand, kmaj=degraded, seed=7)
    report = build_report(circ, margin=0.05)
    assert report.delta == pytest.approx(0.5562543978106564, abs=1e-9)
    assert not report.reliable


def test_monte_carlo_tracks_analytic_loosely():
    # The independence assumption is systematically optimistic: restore
    # voting correlates wires within a bundle, so the sampled logical error
    # runs above the analytic one. Guard the direction and the scale.
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE2), 81, 3, 2, xnand=xnand, kmaj=kmaj, seed=11)
    report = build_report(circ, margin=0.05, trials=2000, seed=5, mc_inputs="all")
    for row in report.rows:
        assert row.empirical_error is not None
        assert row.empirical_error >= row.analytic_error - 3 * halfwidth(row.empirical_error, 2000)
        assert abs(row.empirical_error - row.analytic_error) < 0.2


def test_build_report_requires_seed_for_trials():
    kmaj, xnand = perfect_gates()
    circ = build(parse_formula("(nand a b)"), 9, 3, 0, xnand=xnand, kmaj=kmaj, seed=1)
    with pytest.raises(ValueError):
        build_report(circ, trials=10)


#: a NAND chain over 17 inputs, one more than the analytic sweep allows
WIDE_FORMULA = functools.reduce(lambda acc, name: f"(nand {acc} {name})", "bcdefghijklmnopq", "a")
#: a NAND chain over 16 inputs: one trial each still draws 2^16 whole blocks
CHAIN16 = functools.reduce(lambda acc, name: f"(nand {acc} {name})", "bcdefghijklmnop", "a")


@pytest.mark.parametrize("text", [TREE3, "(nand a (nand a b))", "(nand (nand v v) v)"])
def test_size_cap_counts_every_stage(monkeypatch, text):
    kmaj, xnand = perfect_gates()
    formula = parse_formula(text)
    size = 9 * len(build(formula, 9, 3, 2, xnand=xnand, kmaj=kmaj, seed=1).stages)
    monkeypatch.setattr(reliability, "CIRCUIT_SIZE_CAP", size)
    build(formula, 9, 3, 2, xnand=xnand, kmaj=kmaj, seed=1)
    monkeypatch.setattr(reliability, "CIRCUIT_SIZE_CAP", size - 1)
    with pytest.raises(ValueError, match=f"stages x width 9, above cap {size - 1}"):
        build(formula, 9, 3, 2, xnand=xnand, kmaj=kmaj, seed=1)


@pytest.mark.parametrize("x", [(1,), (0, 1, 1)])
def test_entry_points_reject_a_wrong_length_input(x):
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula("(nand a b)"), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=1)
    with pytest.raises(ValueError, match=f"expected 2 bits, got {len(x)}"):
        simulate_monte_carlo(circ, x, 10, seed=1)


@pytest.mark.parametrize("x", [(2, 3), (3, 3), (1, -1), (1.0, 0), (np.int64(2), 0)])
def test_simulations_reject_entries_that_are_not_bits(x):
    # each entry used to be reduced mod 2: (3, 3) was sampled as (1, 1)
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula("(nand a b)"), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=1)
    with pytest.raises(ValueError, match="is not a bit"):
        simulate_monte_carlo(circ, x, 64, seed=1)


@pytest.mark.parametrize("x", [(2, 0), (0, -1), (0.0, 1), (np.int64(3), 1)])
def test_formula_evaluation_rejects_entries_that_are_not_bits(x):
    f = parse_formula("(nand a b)")
    with pytest.raises(ValueError, match="is not a bit"):
        f.evaluate_all(x)


def test_bools_and_numpy_bits_are_inputs():
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula("(nand a b)"), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=1)
    x = (True, np.int64(0))
    assert circ.formula.evaluate_all(x)[-1] == 1
    assert simulate_monte_carlo(circ, x, 64, seed=1) == simulate_monte_carlo(circ, (1, 0), 64, seed=1)


def _bit_vector_entry_points():
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula("(nand a b)"), 9, 3, 1, xnand=xnand, kmaj=kmaj, seed=1)
    return {
        "call": lambda x: make_named("and")(*x),
        "outcome": corrbox.distribution(chsh_and_box(), (0, 0)).__getitem__,
        "evaluate_all": circ.formula.evaluate_all,
        "monte_carlo": lambda x: simulate_monte_carlo(circ, x, 64, seed=1),
    }


@pytest.mark.parametrize("entry", ["call", "outcome", "evaluate_all", "monte_carlo"])
@pytest.mark.parametrize("x", [(1.0, 0), (np.float64(1), 0), ("1", 0), (2, 0), (0,), (0, 0, 0)])
def test_every_bit_vector_entry_point_keeps_one_contract(entry, x):
    # one rule, boolfn.index_of, checks them all; a float outcome used to
    # pass the distribution's own check and fail later with TypeError
    call = _bit_vector_entry_points()[entry]
    with pytest.raises(ValueError, match="is not a bit|expected 2 bits"):
        call(x)
    assert call((True, 0)) == call((1, 0))


def test_entry_points_reject_a_negative_seed():
    # numpy would reject it only when the wiring or a trial stream is drawn
    kmaj, xnand = perfect_gates()
    f = parse_formula("(nand a b)")
    with pytest.raises(ValueError, match="seed -1 is negative"):
        build(f, 9, 3, 0, xnand=xnand, kmaj=kmaj, seed=-1)
    circ = build(f, 9, 3, 0, xnand=xnand, kmaj=kmaj, seed=1)
    with pytest.raises(ValueError, match="seed -2 is negative"):
        simulate_monte_carlo(circ, (0, 0), 10, seed=-2)


def test_sampler_rejects_trials_above_cap():
    kmaj, xnand = perfect_gates()
    circ = build(parse_formula("(nand a b)"), 9, 3, 0, xnand=xnand, kmaj=kmaj, seed=1)
    with pytest.raises(ValueError, match="above cap 16777216"):
        simulate_monte_carlo(circ, (0, 0), reliability.TRIALS_CAP + 1, seed=1)


@pytest.mark.parametrize(
    "text, kwargs, message",
    [
        ("(nand a b)", {"margin": 0.7}, r"margin 0.7 outside \(0, 1/2\)"),
        ("(nand a b)", {"mc_inputs": ["00"]}, "mc_inputs must be 'worst' or 'all'"),
        ("(nand a b)", {"trials": 0, "seed": 1}, "need at least one trial"),
        ("(nand a b)", {"trials": 10}, "a seed is mandatory"),
        ("(nand a b)", {"mc_inputs": "worst"}, "mc_inputs 'worst' applies only with trials"),
        (WIDE_FORMULA, {}, "formula has 17 inputs, above cap 16"),
        ("(nand a b)", {"trials": (1 << 24) + 1, "seed": 1}, "trials above cap 16777216"),
        ("(nand a b)", {"trials": (1 << 22) + 1, "seed": 1}, r"4 input\(s\) x 4194305 trials above cap 16777216"),
        ("(nand a b)", {"trials": 10, "seed": -5}, "seed -5 is negative"),
        (CHAIN16, {"trials": 1, "seed": 1},
         r"65536 input\(s\) x 1 trials above cap 16777216: the sampler draws whole blocks of 1024 trials, "
         "67108864 in all"),
    ],
    ids=[
        "margin", "mc-inputs", "zero-trials", "no-seed", "worst-without-trials", "inputs-above-cap",
        "trials-above-cap", "inputs-x-trials-above-cap", "negative-seed", "whole-blocks-above-cap",
    ],
)
def test_build_report_checks_arguments_before_the_sweep(monkeypatch, text, kwargs, message):
    kmaj, xnand = perfect_gates()
    circ = build(parse_formula(text), 9, 3, 0, xnand=xnand, kmaj=kmaj, seed=1)

    def no_sweep(*args):
        raise AssertionError("analytic sweep ran before the argument check")

    monkeypatch.setattr(reliability, "_walk", no_sweep)
    with pytest.raises(ValueError, match=message):
        build_report(circ, **kwargs)


# ---------------------------------------------------------------------------
# the batch sweep against per-input walks

def per_input_report(circ):
    """What ``build_report`` must give, from one walk per input: rows, delta
    and worst input."""
    n = circ.formula.n_inputs
    errors = {}
    for i in range(1 << n):
        x = tuple((i >> j) & 1 for j in range(n))
        errors[x] = analytic_error(circ, x)
    worst = max(errors, key=errors.get)
    return sorted(errors.items()), errors[worst], worst


def assert_report_matches_per_input(circ):
    report = build_report(circ, margin=0.05)
    rows, delta, worst = per_input_report(circ)
    assert [(r.x, r.analytic_error) for r in report.rows] == rows
    assert report.delta == delta
    assert report.worst_input == worst
    assert report.warnings == tuple(sorted(circ.warnings))


def fanout_formula(integers, choice, max_inputs=6):
    """A random NAND formula over at most ``max_inputs`` inputs in which
    inputs may fan out, with at least one ``(nand v v)``; ``integers(lo,
    hi)`` draws an int in [lo, hi] and ``choice(seq)`` an item of seq."""
    names = "abcdef"[: integers(1, max_inputs)]
    leaves = [choice(names) for _ in range(integers(1, 6))]
    twin = integers(0, len(leaves) - 1)
    leaves[twin] = f"(nand {leaves[twin]} {leaves[twin]})"
    while len(leaves) > 1:
        i = integers(0, len(leaves) - 2)
        leaves[i:i + 2] = [f"(nand {leaves[i]} {leaves[i + 1]})"]
    return leaves[0]


@st.composite
def fanout_formulas(draw, max_inputs=6):
    return fanout_formula(lambda lo, hi: draw(st.integers(lo, hi)),
                          lambda seq: draw(st.sampled_from(seq)), max_inputs)


def seeded_fanout_formula(seed):
    rng = random.Random(seed)
    return fanout_formula(rng.randint, rng.choice)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=fanout_formulas())
def test_formula_text_roundtrip_property(text):
    f = parse_formula(text)
    assert formula_to_text(f) == text
    assert parse_formula(formula_to_text(f)) == f


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    text=fanout_formulas(),
    rounds=st.integers(0, 2),
    k=st.sampled_from([1, 3, 5]),
    width=st.sampled_from([5, 8]),
)
def test_build_lays_out_two_stage_shapes_property(text, rounds, k, width):
    # the stage walk's rows (``_pairs``) and error tables (``_error_table``)
    # exist for these two shapes only: a restore reads one bundle k times, a
    # compute (a, b, b) with a != b, even for the (nand v v) every formula has
    kmaj, xnand = perfect_gates(k)
    circ = build(parse_formula(text), width, k, rounds, xnand=xnand, kmaj=kmaj, seed=1)
    identity = list(range(width))
    for stage, row in zip(circ.stages, circ.wiring, strict=True):
        if stage.kind == "restore":
            assert stage.sources == (stage.sources[0],) * k
            assert len(row) == k and all(sorted(perm) == identity for perm in row)
        else:
            assert stage.kind == "compute"
            a, b, b_again = stage.sources
            assert a != b == b_again
            none, sigma, rolled = row
            assert none is None and sorted(sigma) == identity
            assert np.array_equal(rolled, np.roll(sigma, -(width // 2)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    text=fanout_formulas(max_inputs=4),
    width=st.sampled_from([1, 3, 9]),
    x_index=st.integers(0, 15),
    trials=st.integers(1, 3 * reliability.BLOCK),
    seed=st.integers(0, 2**64),
)
def test_monte_carlo_runs_are_prefixes_property(text, width, x_index, trials, seed):
    # a run of n trials counts the first n lanes of the three-block run
    k = 1 if width == 1 else 3
    kmaj, xnand = chsh_gates()
    if k == 1:
        kmaj = uniform_noisy_gate(make_named("maj", 1), 0.1)
    circ = build(parse_formula(text), width, k, 1, xnand=xnand, kmaj=kmaj, seed=0)
    x = tuple(x_index >> i & 1 for i in range(circ.formula.n_inputs))
    wrong = np.concatenate(wrong_blocks(circ, np.array([table_index(x)]), seed, 3), axis=1)[0]
    mc = simulate_monte_carlo(circ, x, trials, seed)
    assert round(mc.empirical_error * trials) == int(np.count_nonzero(wrong[:trials]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    text=fanout_formulas(max_inputs=4),
    width=st.sampled_from([1, 3, 9]),
    restore_errors=st.tuples(*[st.sampled_from([0.0, 0.05, 0.3, 1.0])] * 8),
    compute_errors=st.tuples(*[st.sampled_from([0.0, 0.1, 0.2, 1.0])] * 8),
    chunk=st.sampled_from([1, 2, "all"]),
    seed=st.integers(0, 2**64),
)
def test_all_input_walk_rows_equal_one_input_walks_property(
    text, width, restore_errors, compute_errors, chunk, seed
):
    # inputs that share a sampler walk, a chunk of them at a time, see the
    # masks and wires that each one sees alone, bit for bit
    k = 1 if width == 1 else 3
    kmaj = gates.NoisyGate(make_named("maj", k), restore_errors[: 1 << k])
    xnand = gates.NoisyGate(make_named("xnand"), compute_errors)
    circ = build(parse_formula(text), width, k, 1, xnand=xnand, kmaj=kmaj, seed=0)
    n = 1 << circ.formula.n_inputs
    per_chunk = n if chunk == "all" else chunk
    with mock.patch.object(reliability, "GROUP_WORDS", per_chunk * width * reliability._WORDS):
        every = wrong_blocks(circ, np.arange(n), seed, 3)
        for i in range(n):
            alone = wrong_blocks(circ, np.array([i]), seed, 3)
            assert all(np.array_equal(a[i], b[0]) for a, b in zip(every, alone))


@functools.lru_cache(maxsize=None)
def ghz_majority(k, eps):
    return gates.kmaj_from_noisy_ghz(k, eps)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    text=fanout_formulas(),
    width=st.sampled_from([1, 3, 9]),
    rounds=st.integers(0, 2),
    restore=st.sampled_from(["ghz", "chsh", "drawn"]),
    eps=st.sampled_from([0.0, 0.05, 0.12]),
    restore_errors=st.tuples(*[st.sampled_from([0.0, 0.02, 0.1, 0.3])] * 8),
    seed=st.integers(0, 3),
)
def test_batch_sweep_equals_per_input_walks(
    text, width, rounds, restore, eps, restore_errors, seed
):
    # the sweep walks every input at once and merges equal bundle states;
    # the per-input walks must agree with it exactly.
    # "chsh" is uniform (sin^2(pi/8) on every input); "drawn" is not, so its
    # restores run the gate-error enumeration
    k = 1 if width == 1 else 3
    if restore == "ghz":
        kmaj = ghz_majority(k, eps)
    elif restore == "chsh" and k == 3:
        kmaj = maj3_from_and(chsh_and_gate())
    else:
        kmaj = gates.NoisyGate(make_named("maj", k), restore_errors[: 1 << k])
    xnand = xnand_from_and(chsh_and_gate())
    circ = build(parse_formula(text), width, k, rounds, xnand=xnand, kmaj=kmaj, seed=seed)
    assert_report_matches_per_input(circ)


def test_readme_report_equals_per_input_walks():
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 81, 3, 8, xnand=xnand, kmaj=kmaj, seed=7)
    assert_report_matches_per_input(circ)


#: (formula seed, width, k, rounds, gates) of each report the sweep pin
#: hashes, on ``seeded_fanout_formula(formula seed)``: "chsh" restores with
#: ``maj3_from_and`` of the CHSH AND and "uniform" with error 0.02 on every
#: entry, both beside the CHSH XNAND; "perfect" gates never err, so bundles
#: that a constant subformula feeds merge into one class
SWEEP_CASES = (
    (0, 1, 1, 0, "uniform"), (1, 1, 1, 2, "uniform"), (2, 1, 1, 8, "uniform"),
    (3, 9, 3, 0, "chsh"), (4, 9, 3, 2, "chsh"), (5, 9, 3, 8, "uniform"), (6, 9, 5, 2, "uniform"),
    (7, 81, 1, 2, "uniform"), (8, 81, 3, 0, "uniform"), (9, 81, 3, 2, "chsh"), (10, 81, 3, 8, "chsh"),
    (11, 81, 5, 8, "uniform"), (14, 9, 3, 2, "perfect"), (28, 81, 5, 0, "perfect"),
)
#: sha256 of every SWEEP_CASES report's stage count, delta, worst input,
#: warnings and row errors, floats as hex, before the walk kept a class array
#: for a batch of many inputs in one class
PINNED_SWEEP = "04350d15ef76b81747a92577f4a65d8ea427f7497a25cb9bffb0222e5fd8149c"


def test_independence_sweep_is_pinned():
    digest = hashlib.sha256()
    for seed, width, k, rounds, kind in SWEEP_CASES:
        kmaj, xnand = perfect_gates(k) if kind == "perfect" else chsh_gates()
        if kind == "uniform":
            kmaj = uniform_noisy_gate(make_named("maj", k), 0.02)
        circ = build(parse_formula(seeded_fanout_formula(seed)), width, k, rounds, xnand=xnand, kmaj=kmaj, seed=seed)
        report = build_report(circ)
        digest.update(repr((len(circ.stages), report.delta.hex(), report.worst_input, report.warnings,
                            [row.analytic_error.hex() for row in report.rows])).encode())
    assert digest.hexdigest() == PINNED_SWEEP


def per_stage_rows(circ):
    """``build_report``'s rows, from one walk per input that steps through
    ``circ.stages`` one stage at a time: each stage's error polynomial at its
    own gate input index (``gates.error_polynomial``), evaluated at its
    sources' errors, and a majority readout over the output bundle."""
    gate = {"restore": circ.kmaj, "compute": circ.xnand}
    # per read bundle, the gate inputs each of its wires feeds: k wires of
    # one bundle for a restore, one wire of a and two of b for a compute
    sources = {"restore": [tuple(1 << i for i in range(circ.kmaj.k))], "compute": [(1,), (2, 4)]}
    if circ.width == 1:  # one wire per bundle
        sources = {kind: [(sum(masks),) for masks in wires] for kind, wires in sources.items()}

    @functools.cache
    def coefficients(kind, index):
        return gates.error_polynomial(gate[kind], sources[kind], [index])

    rows = []
    for x in itertools.product((0, 1), repeat=circ.formula.n_inputs):
        values = dict(zip(circ.input_bundles, x))
        errors = dict.fromkeys(circ.input_bundles, 0.0)
        for stage in circ.stages:
            index = sum(values[src] << i for i, src in enumerate(stage.sources))
            reads = [errors[src] for src in dict.fromkeys(stage.sources)]  # one read per bundle
            row = coefficients(stage.kind, index)
            [errors[stage.target]] = gates.polynomial_error(row, np.array([reads])).tolist()
            values[stage.target] = gate[stage.kind].target.table[index]
        rows.append(reliability.InputRow(x, gates.majority_error(circ.width, errors[circ.output_bundle])))
    return rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    text=fanout_formulas(),
    width=st.sampled_from([1, 3, 9]),
    rounds=st.integers(0, 3),
    restore_errors=st.tuples(*[st.sampled_from([0.0, 0.05, 0.3, 1.0])] * 8),
    compute_errors=st.tuples(*[st.sampled_from([0.0, 0.1, 0.2, 1.0])] * 8),
)
def test_report_rows_equal_per_stage_walks_property(text, width, rounds, restore_errors, compute_errors):
    # the sweep steps once per restore chain and merges equal states; a walk
    # of one input through one stage at a time must give the same rows
    k = 1 if width == 1 else 3
    kmaj = gates.NoisyGate(make_named("maj", k), restore_errors[: 1 << k])
    xnand = gates.NoisyGate(make_named("xnand"), compute_errors)
    circ = build(parse_formula(text), width, k, rounds, xnand=xnand, kmaj=kmaj, seed=0)
    assert list(build_report(circ, margin=0.05).rows) == per_stage_rows(circ)


def test_sweep_runs_each_step_once_per_distinct_state(monkeypatch):
    # TREE3 at W=81, r=2 has 256 inputs and 37 stages; the sweep makes one
    # row per distinct (first stage, chain length, true index, read states)
    # that the 256 per-input walks meet, and its step calls' ranges tile
    # the stages once
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 81, 3, 2, xnand=xnand, kmaj=kmaj, seed=7)
    calls, rows = [], []
    walk = reliability._walk

    def recording_walk(circuit, xs, start, step):
        def recorded(stages, idx, reads):
            assert all(len(r) == len(idx) for r in reads)
            calls.append(stages)
            rows.extend(step_row(stages, idx, reads, i) for i in range(len(idx)))
            return step(stages, idx, reads)

        return walk(circuit, xs, start, recorded)

    monkeypatch.setattr(reliability, "_walk", recording_walk)
    build_report(circ, margin=0.05)
    monkeypatch.undo()
    per_input = set().union(*(step_rows(circ, np.array([i]))[1] for i in range(256)))
    assert len(rows) == len(set(rows))
    assert set(rows) == per_input
    assert [s for stages in calls for s in stages] == list(range(len(circ.stages)))


@pytest.mark.parametrize("rounds, n_stages, n_calls", [(8, 127, 15), (0, 7, 7)])
def test_walk_steps_once_per_compute_and_restore_chain(rounds, n_stages, n_calls):
    # TREE3 has 8 inputs and 7 NANDs: one step per formula node. At r=8, 8
    # chains of 8 restores (one per input) and 7 computes, each with its 8
    # restores; at r=0 the computes alone
    kmaj, xnand = chsh_gates()
    circ = build(parse_formula(TREE3), 81, 3, rounds, xnand=xnand, kmaj=kmaj, seed=7)
    calls, _ = step_rows(circ, np.arange(256))
    assert len(circ.stages) == n_stages
    assert len(calls) == n_calls
    assert sorted(map(len, calls)) == [rounds] * (n_calls - 7) + [rounds + 1] * 7


def reference_chains(circuit):
    """The walk's steps inferred from the stages alone: every bundle's last
    reader, then maximal runs of stages in which each stage after the first
    is a restore and the last reader of the previous target (a compute with
    the restores after it, or a chain of restores), each paired with the
    bundles its first stage reads for the last time."""
    last_read = {src: s for s, stage in enumerate(circuit.stages) for src in stage.sources}
    dead_after: list[list[int]] = [[] for _ in circuit.stages]
    for src, s in last_read.items():
        dead_after[s].append(src)
    dead_after = tuple(map(tuple, dead_after))
    chains: list[range] = []
    stages = circuit.stages
    for s, stage in enumerate(stages):
        if s and stage.kind == "restore" and dead_after[s] == (stages[s - 1].target,):
            chains[-1] = range(chains[-1].start, s + 1)
        else:
            chains.append(range(s, s + 1))
    return [(chain, dead_after[chain[0]]) for chain in chains]


def assert_steps_are_the_walk_plan(circ):
    stages, steps = circ.stages, circ.steps
    # the ranges tile the stages once, in order
    assert all(run for run, _ in steps)
    assert [s for run, _ in steps for s in run] == list(range(len(stages)))
    # a step's head, a compute or a restore, is followed by restores, each reading only the one before
    for run, _ in steps:
        assert all(stages[s].kind == "restore" for s in run[1:])
        assert all(set(stages[s].sources) == {stages[s - 1].target} for s in run[1:])
    assert list(steps) == reference_chains(circ)
    # every bundle a step reads is dropped once, by the last step that reads it
    last_step = {src: i for i, (run, _) in enumerate(steps) for src in stages[run.start].sources}
    dropped = [(src, i) for i, (_, dead) in enumerate(steps) for src in dead]
    assert sorted(dropped) == sorted(last_step.items())
    inner = {stages[s].target for run, _ in steps for s in run[:-1]}
    assert circ.output_bundle not in last_step and inner.isdisjoint(last_step)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    text=fanout_formulas(),
    rounds=st.integers(0, 3),
    k=st.sampled_from([1, 3, 5]),
    width=st.sampled_from([1, 5, 8]),
)
def test_build_records_the_walk_steps_property(text, rounds, k, width):
    assume(width >= k)
    kmaj, xnand = perfect_gates(k)
    circ = build(parse_formula(text), width, k, rounds, xnand=xnand, kmaj=kmaj, seed=1)
    assert_steps_are_the_walk_plan(circ)


def test_build_records_the_walk_steps_of_a_shared_node():
    # node 0 feeds both later gates, so its copies are restored once per
    # consumer, as an input read twice is
    formula = reliability.FormulaDag(("a", "b", "c"), ((0, 1), (3, 2), (3, 4)))
    for rounds, k, width in itertools.product(range(4), (1, 3, 5), (1, 5, 8)):
        if width >= k:
            kmaj, xnand = perfect_gates(k)
            circ = build(formula, width, k, rounds, xnand=xnand, kmaj=kmaj, seed=1)
            assert_steps_are_the_walk_plan(circ)


def step_row(stages, idx, reads, i):
    """Row i of a step call over the range ``stages``, as (first stage,
    chain length, row code, read states)."""
    return stages[0], len(stages), int(idx[i]), tuple(float(r[i]) for r in reads)


def step_rows(circ, xs):
    """The stage ranges of the independence walk's step calls on the batch
    ``xs`` of input table indices, and every (first stage, chain length, row
    code, read states) row, in call order."""
    calls, rows = [], []
    walk = reliability._walk

    def recording_walk(circuit, xs, start, step):
        def recorded(stages, idx, reads):
            calls.append(stages)
            rows.extend(step_row(stages, idx, reads, i) for i in range(len(idx)))
            return step(stages, idx, reads)

        return walk(circuit, xs, start, recorded)

    with mock.patch.object(reliability, "_walk", recording_walk):
        reliability._independence_walk(circ, xs)
    return calls, rows


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    text=fanout_formulas(max_inputs=4),
    width=st.sampled_from([1, 3, 9]),
    rounds=st.integers(0, 2),
    restore_errors=st.tuples(*[st.sampled_from([0.0, 0.1, 0.3])] * 8),
    compute_errors=st.tuples(*[st.sampled_from([0.0, 0.1])] * 8),
    data=st.data(),
)
def test_batch_step_rows_are_the_union_of_per_input_rows(
    text, width, rounds, restore_errors, compute_errors, data
):
    # whether a compute takes its pairs from marked codes or from np.unique,
    # and however equal states merge (zero errors make them likely), the
    # batch's step rows are the rows the batch's inputs make in their own
    # walks, each once
    k = 1 if width == 1 else 3
    kmaj = gates.NoisyGate(make_named("maj", k), restore_errors[: 1 << k])
    xnand = gates.NoisyGate(make_named("xnand"), compute_errors)
    circ = build(parse_formula(text), width, k, rounds, xnand=xnand, kmaj=kmaj, seed=0)
    n = 1 << circ.formula.n_inputs
    xs = np.array(data.draw(st.one_of(
        st.just(list(range(n))), st.lists(st.integers(0, n - 1), min_size=1, unique=True)
    )))
    _, batch = step_rows(circ, xs)
    assert len(batch) == len(set(batch))
    assert set(batch) == set().union(*(step_rows(circ, xs[i:i + 1])[1] for i in range(len(xs))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    text=fanout_formulas(),
    width=st.sampled_from([1, 3, 9]),
    rounds=st.integers(0, 2),
    x_index=st.integers(0, 63),
)
def test_row_codes_are_the_true_values_read_property(text, width, rounds, x_index):
    # a step's row code is its restore chain's source's true value, or a + 2b
    # for a compute that reads (a, b, b); the values are tracked here stage by
    # stage from the input bits, and both models' walks are checked
    k = 1 if width == 1 else 3
    kmaj = uniform_noisy_gate(make_named("maj", k), 0.1)
    xnand = uniform_noisy_gate(make_named("xnand"), 0.1)
    circ = build(parse_formula(text), width, k, rounds, xnand=xnand, kmaj=kmaj, seed=0)
    x = [x_index >> j & 1 for j in range(circ.formula.n_inputs)]
    values = dict(zip(circ.input_bundles, x))
    for stage in circ.stages:
        a, b = stage.sources[0], stage.sources[-1]
        values[stage.target] = values[a] if stage.kind == "restore" else 1 - (values[a] & values[b])
    heads = []
    walk = reliability._walk

    def recording_walk(circuit, xs, start, step):
        def recorded(stages, idx, reads):
            head = circ.stages[stages[0]]
            a, b = head.sources[0], head.sources[-1]
            assert idx.tolist() == [values[a] if head.kind == "restore" else values[a] + 2 * values[b]]
            heads.append(stages[0])
            return step(stages, idx, reads)

        return walk(circuit, xs, start, recorded)

    with mock.patch.object(reliability, "_walk", recording_walk):
        reliability._independence_walk(circ, np.array([table_index(x)]))
        list(reliability._wrong_trials(circ, np.array([table_index(x)]), 0, 1))
    assert heads == [run.start for run, _ in circ.steps] * 2


def test_only_a_batch_of_one_has_no_class_array(monkeypatch):
    # a batch of many inputs in one class, from a constant input bit or a
    # merge, keeps an array of class ids; None means the batch holds one input
    seen = []
    pairs = reliability._pairs

    def recording(live, a, b, n):
        seen.append((n, live[a][0], live[b][0]))
        return pairs(live, a, b, n)

    monkeypatch.setattr(reliability, "_pairs", recording)
    kmaj, xnand = perfect_gates()  # equal states: a constant subformula merges into one class
    circ = build(parse_formula("(nand (nand a (nand a a)) b)"), 3, 3, 1, xnand=xnand, kmaj=kmaj, seed=0)
    for xs in ([0, 1, 2, 3], [1, 3], [2]):  # bit 0 constant over [1, 3]
        reliability._independence_walk(circ, np.array(xs))
    assert all((n == 1) == (ca is None) == (cb is None) for n, ca, cb in seen)
    assert {1, 2, 4} == {n for n, _, _ in seen}
    assert any(n > 1 and not ca.any() for n, ca, _ in seen)  # the batch of many in one class
    assert any(n > 1 and not cb.any() for n, _, cb in seen)


# ---------------------------------------------------------------------------
# the circuit as an l2 program: boxes under mod-2 control

def cone_program(circ, box):
    """Wire 0 of the output bundle as one ``mbqc.L2Program``: each gate
    instance in its backward cone is a fresh copy of the two-party AND box
    ``box``, and its gadget's XORs are affine maps over x and earlier box
    outputs (``maj3_from_and``: parties read a^b and a^c, the output is XORed
    with a; ``xnand_from_and``: a^b1 and a^b1^b2, then a^1). A wire's form is
    (x mask, box-output mask, constant); a wire read twice is one box."""
    producer = {stage.target: s for s, stage in enumerate(circ.stages)}
    boxes, maps, forms = [], [], {}

    def xor(*fs):
        return tuple(functools.reduce(lambda u, v: u ^ v, parts) for parts in zip(*fs))

    def form(bundle, wire):
        if bundle in circ.input_bundles:
            return 1 << circ.input_bundles.index(bundle), 0, 0
        if (bundle, wire) not in forms:
            s = producer[bundle]
            a, b, c = (form(src, wire if perm is None else int(perm[wire]))
                       for src, perm in zip(circ.stages[s].sources, circ.wiring[s]))
            restore = circ.stages[s].kind == "restore"
            parties = (xor(a, b), xor(a, c) if restore else xor(a, b, c))
            maps.append(tuple(mbqc.AffineBitMap(*f) for f in parties))
            boxes.append(box)
            forms[bundle, wire] = xor(a, (0, 3 << 2 * (len(boxes) - 1), 0 if restore else 1))
        return forms[bundle, wire]

    out = mbqc.AffineBitMap(*form(circ.output_bundle, 0))
    return mbqc.L2Program(circ.formula.n_inputs, tuple(boxes), tuple(maps), out)


def cone_is_tree(circ):
    """Whether no noisy wire (a stage's output) in wire 0's backward cone is
    read twice."""
    producer = {stage.target: s for s, stage in enumerate(circ.stages)}
    reads = collections.Counter()
    pending = [(circ.output_bundle, 0)]
    while pending:
        bundle, wire = pending.pop()
        if bundle in producer:
            reads[bundle, wire] += 1
            if reads[bundle, wire] == 1:
                s = producer[bundle]
                pending.extend((src, wire if perm is None else int(perm[wire]))
                               for src, perm in zip(circ.stages[s].sources, circ.wiring[s]))
    return max(reads.values()) == 1


def box_circuit(text, box, width, seed, rounds=0):
    """The circuit of ``text`` with ``rounds`` restores per stage, whose gates
    are the gadgets on the AND that ``box`` makes, and the formula's function."""
    and_gate = gates.gate_from_report(mbqc.run_exact(
        mbqc._parity_program(2, box, [0b01, 0b10]), make_named("and")))
    formula = parse_formula(text)
    circ = build(formula, width, 3, rounds, xnand=xnand_from_and(and_gate), kmaj=maj3_from_and(and_gate), seed=seed)
    return circ, BooleanFunction.from_callable(formula.n_inputs, lambda *x: formula.evaluate_all(x)[-1])


def exact_minus_independence(circ, f, box):
    """Per input, the box program's exact wire-0 error minus the independence
    walk's per-wire p."""
    n = f.arity
    report = mbqc.run_exact(cone_program(circ, box), f)
    classes, _, states = reliability._independence_walk(circ, np.arange(1 << n))
    exact = np.array([1.0 - report.success[x] for x in input_keys(n)])
    return exact - states[classes]


SKEWED_BOX = GhzBox(((0.0, math.pi / 2 + 0.3), (-math.pi / 4, math.pi / 4 - 0.1)))


@pytest.mark.parametrize("box", [chsh_and_box(), SKEWED_BOX], ids=["chsh", "skewed"])
@pytest.mark.parametrize("text", [
    TREE2, "(nand a (nand b c))", "(nand (nand a b) (nand a c))", "(nand (nand (nand a b) c) d)",
])
def test_tree_cone_box_program_equals_the_independence_figure(text, box):
    # where no noisy wire in the cone is read twice, the wires a gate reads
    # are independent, so the independence per-wire p is exact in the model
    for width, seed in ((3, 3), (9, 7)):
        circ, f = box_circuit(text, box, width, seed)
        assert cone_is_tree(circ)
        assert np.abs(exact_minus_independence(circ, f, box)).max() < 1e-12


def test_generated_tree_cones_equal_the_independence_figure():
    # the fixed formulas above, over fan-out formulas: every tree cone, each
    # with both boxes
    compared = 0
    for seed in range(60):
        rng = random.Random(seed)
        text = fanout_formula(rng.randint, rng.choice, max_inputs=4)
        for width in (3, 9):
            for box in (chsh_and_box(), SKEWED_BOX):
                circ, f = box_circuit(text, box, width, seed)
                if cone_is_tree(circ):
                    assert np.abs(exact_minus_independence(circ, f, box)).max() < 1e-12
                    compared += 1
    assert compared == 112


def test_a_shared_wire_breaks_the_independence_figure():
    text = "(nand (nand a b) (nand (nand c d) a))"
    circ, f = box_circuit(text, chsh_and_box(), 9, 3)
    assert cone_is_tree(circ) and len(cone_program(circ, chsh_and_box()).boxes) == 11
    assert np.abs(exact_minus_independence(circ, f, chsh_and_box())).max() < 1e-12
    circ, f = box_circuit(text, chsh_and_box(), 3, 3)
    assert not cone_is_tree(circ)
    assert np.abs(exact_minus_independence(circ, f, chsh_and_box())).max() == pytest.approx(0.0267, abs=1e-4)


def test_box_program_certifies_the_contextual_tree():
    # the whole circuit's wire 0, exactly, against the paper's first result:
    # every non-contextual program errs on average at least nu(f)/2^n = 5/16
    circ, f = box_circuit(TREE2, chsh_and_box(), 81, 3)
    report = mbqc.run_exact(cone_program(circ, chsh_and_box()), f)
    cert = mbqc.contextuality_certificate(report, f)
    assert cert.bound == Fraction(5, 16)
    assert (report.average_error, report.worst_error) == (0.2774587392637613, 0.32322330470336336)
    assert cert.delta == 0.0350412607362387 and cert.contextual
    circ, f = box_circuit(TREE2, noncontextual_and_box(), 81, 3)
    cert = mbqc.contextuality_certificate(mbqc.run_exact(cone_program(circ, noncontextual_and_box()), f), f)
    assert cert.average_error == 51 / 128 and cert.delta == -0.0859375 and not cert.contextual


def test_restored_cone_is_exact_past_the_outcome_strings():
    # one restore round per stage: 19 boxes, 2^19 outcome strings, but the
    # maps after any box read at most 5 parities of the outputs so far; the
    # restores cost the certificate, as the average is above 5/16
    circ, f = box_circuit(TREE2, chsh_and_box(), 3, 3, rounds=1)
    program = cone_program(circ, chsh_and_box())
    assert len(program.boxes) == 19
    report = mbqc.run_exact(program, f)
    assert report.average_error == pytest.approx(0.442775410404, abs=1e-12)
    assert report.worst_error == pytest.approx(0.469812804448, abs=1e-12)
    assert not mbqc.contextuality_certificate(report, f).contextual


def test_wide_restored_cone_is_pinned_with_one_box_call_per_distinct_forms(monkeypatch):
    # tree4's CHSH wire-0 cone at W=81 r=1, wiring seed 3: 107 boxes. A
    # two-party box sees at most 4 tuples of party forms, and run_exact
    # evaluates it once per tuple, not once per state
    circ, f = box_circuit(TREE2, chsh_and_box(), 81, 3, rounds=1)
    program = cone_program(circ, chsh_and_box())
    assert len(program.boxes) == 107
    calls = []
    parity_probability = corrbox.parity_probability

    def counted(box, forms, n):
        calls.append(forms)
        return parity_probability(box, forms, n)

    monkeypatch.setattr(corrbox, "parity_probability", counted)
    report = mbqc.run_exact(program, f)
    assert report.average_error == pytest.approx(0.374987804886, abs=1e-12)
    assert report.worst_error == pytest.approx(0.420606406607, abs=1e-12)
    assert 0 < len(calls) <= 4 * len(program.boxes)

def exact_readout_error(width, p):
    """P(X >= ceil(W/2)) for X ~ Bin(W, p), summed in exact integer
    arithmetic and rounded once.

    With p = a / 2^k and b = 2^k - a the tail is the sum over j >= ceil(W/2)
    of C(W, j) a^j b^(W-j), over 2^(kW). Horner's rule in b makes each step
    a shift, small multiplications and an exact small division, so W = 4097
    stays cheap even at p = 5e-324 (k = 1074). At even W the tie X = W/2 is
    included, so W=2 and W=4 check the tie rule.
    """
    q = Fraction(p)
    a, k = q.numerator, q.denominator.bit_length() - 1
    m = (width + 1) // 2
    term, total = math.comb(width, m) * a**m, 0  # term is C(W, j) a^j
    for j in range(m, width + 1):
        total = (total << k) - total * a + term  # total * b + term
        term = term * a * (width - j) // (j + 1)
    return total / (1 << k * width)


READOUT_PROBABILITIES = (0.0, 1e-9, 0.3, 0.5 - 1e-6, 0.6, 1.0)
#: the extremes of the float range and the mirror point; within the first
#: term's relative error of each other, so not ordered by their tails
READOUT_EDGES = (5e-324, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 1 - 2**-53)


def assert_batched_readout_is_the_scalar(width, ps):
    """``majority_errors`` gives ``majority_error`` at every p, bit for bit,
    on ``ps`` and on ``ps`` repeated; returns the scalar values."""
    want = [gates.majority_error(width, p) for p in ps]
    for k in (1, 3):
        got = gates.majority_errors(width, list(ps) * k).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in want * k]
    return want


@pytest.mark.parametrize("width", [1, 2, 3, 4, 80, 81, 243, 4097])
def test_readout_tail_matches_exact_tail(width):
    # the lgamma first term's relative error grows with W: 1.8e-12 at W=4097
    rel = 2e-12 if width > 243 else 1e-12
    ps = READOUT_PROBABILITIES + READOUT_EDGES
    values = assert_batched_readout_is_the_scalar(width, ps)
    for p, value in zip(ps, values):
        # below the normal float range only an absolute comparison is meaningful
        assert value == pytest.approx(exact_readout_error(width, p), rel=rel, abs=sys.float_info.min)
    # at odd W a vote over fair coins errs exactly half the time
    assert width % 2 == 0 or values[ps.index(0.5)] == 0.5


@pytest.mark.parametrize("width", [2187, 10001])
def test_readout_tail_is_stable_at_large_width(width):
    # C(2187, 1093) alone overflows a float
    values = assert_batched_readout_is_the_scalar(width, READOUT_PROBABILITIES)
    assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)
    # more classes than one row chunk holds, on both sides of 1/2, some with
    # tails that outlast the pass
    classes = [i / 1024 for i in range(513)] + [0.5 + d / width**0.5 for d in np.linspace(-3, 3, 61)]
    assert len(classes) > gates.TAIL_TERMS // (gates.PASS_TERMS + 1)
    assert_batched_readout_is_the_scalar(width, classes)


def test_readout_rows_that_outlast_the_pass_take_the_scalar(monkeypatch):
    # p over [0.05, 0.55], several within 0.02 of 1/2, where the tail is long
    ps = np.linspace(0.05, 0.55, 26).tolist() + [0.5 + d for d in (-0.02, -0.009, -0.001, 0.003, 0.014)]
    want = {width: [gates.majority_error(width, p).hex() for p in ps] for width in (81, 129, 729)}
    scalar, calls = gates._binomial_upper_tail, []

    def counted(n, p, m):
        calls.append(p)
        return scalar(n, p, m)

    monkeypatch.setattr(gates, "_binomial_upper_tail", counted)
    for width, values in want.items():
        calls.clear()
        assert [v.hex() for v in gates.majority_errors(width, ps).tolist()] == values
        # at W=81 and W=129 one pass holds every term of every tail
        assert 0 < len(calls) < len(ps) if width == 729 else not calls


#: tracemalloc peak of one report's readout at the largest analytic widths of
#: TREE3: at most 0.36 MiB (numpy 2.4, x86-64); all W/2 terms of every class
#: at once took 5.5-19 MiB
READOUT_PEAK = 1 << 20


@pytest.mark.parametrize("rounds", [0, 2, 8])
def test_readout_at_the_largest_width_is_the_scalar_and_bounded(monkeypatch, rounds):
    kmaj, xnand = chsh_gates()
    stages = len(build(parse_formula(TREE3), 3, 3, rounds, xnand=xnand, kmaj=kmaj, seed=7).stages)
    width = reliability.CIRCUIT_SIZE_CAP // stages
    circ = build(parse_formula(TREE3), width, 3, rounds, xnand=xnand, kmaj=kmaj, seed=7)
    classes, _, states = reliability._independence_walk(circ, np.arange(256))
    want = [gates.majority_error(width, p) for p in states.tolist()]
    peaks = []

    def traced(n, ps):
        tracemalloc.start()
        try:
            errors = gates.majority_errors(n, ps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return errors

    monkeypatch.setattr(reliability, "majority_errors", traced)
    report = build_report(circ)
    assert [row.analytic_error for row in report.rows] == [want[classes[table_index(row.x)]] for row in report.rows]
    assert len(peaks) == 1 and peaks[0] <= READOUT_PEAK


@pytest.mark.parametrize(
    "nodes, message",
    [((), "at least one NAND node"), (((0, 1),), "node 0 references an unavailable operand")],
    ids=["no-nodes", "operand-ahead"],
)
def test_malformed_formula_dag_raises(nodes, message):
    with pytest.raises(ValueError, match=message):
        reliability.FormulaDag(("a",), nodes)
