import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from l2mbqc import corrbox, gates, ghzc, mbqc
from l2mbqc.boolfn import BooleanFunction, all_affine_forms, make_named, nonlinearity
from l2mbqc.corrbox import GhzBox, NoncontextualBox
from l2mbqc.mbqc import (
    AffineBitMap,
    L2Program,
    best_noncontextual_error,
    chsh_and_program,
    constant_program,
    contextuality_certificate,
    noncontextual_and_program,
    run_exact,
)

SIN2_PI8 = math.sin(math.pi / 8) ** 2


def test_chsh_and_program_success():
    report = run_exact(chsh_and_program(), make_named("and"))
    for x, p in report.success.items():
        assert p == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)
    assert report.average_error == pytest.approx(SIN2_PI8, abs=1e-12)


def test_compiled_ghz_nand_is_deterministic():
    nand = make_named("nand")
    program = ghzc.run_as_l2program(ghzc.compile_function(nand))
    report = run_exact(program, nand)
    assert all(p == pytest.approx(1.0, abs=1e-10) for p in report.success.values())


def test_boxless_zero_output_vs_and():
    report = run_exact(constant_program(2, 0), make_named("and"))
    assert report.average_error == 0.25
    assert report.worst_error == 1.0


def test_noncontextual_quarter_and():
    report = run_exact(noncontextual_and_program(), make_named("and"))
    assert all(p == 0.75 for p in report.success.values())


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        run_exact(chsh_and_program(), make_named("xnand"))


def _one_output_of_a_pair():
    """A two-party GHZ box whose output map reads one of its outputs."""
    box = GhzBox(angles=((0.0, 0.3), (0.0, 0.7)), epsilon=0.0)
    return L2Program(
        n=1,
        boxes=(box,),
        input_maps=((AffineBitMap(x_mask=1), AffineBitMap(x_mask=1)),),
        output_map=AffineBitMap(out_mask=0b01),
    )


def _two_ands_read_as_one_parity():
    """Two non-contextual AND boxes; z is the parity of all four outputs, so
    the maps after the first box read one parity of its outputs."""
    maps = (AffineBitMap(x_mask=0b01), AffineBitMap(x_mask=0b10))
    return L2Program(
        n=2,
        boxes=(corrbox.noncontextual_and_box(),) * 2,
        input_maps=(maps, maps),
        output_map=AffineBitMap(out_mask=0b1111),
    )


@pytest.mark.parametrize(
    "program, target, cells, error",
    [
        (chsh_and_program(), make_named("and"), 2 * 4, SIN2_PI8),
        (_one_output_of_a_pair(), BooleanFunction(1, (0, 0)), 4 * 2, 0.5),
        (noncontextual_and_program(), make_named("and"), 4 * 4, 0.25),
        # each AND errs w.p. 1/4 independently: z = 1 w.p. 2 * 1/4 * 3/4
        (_two_ands_read_as_one_parity(), BooleanFunction(2, (0,) * 4), 2 * 4 * 4, 0.375),
    ],
    ids=["parity-only-ghz", "partly-read-ghz", "noncontextual", "merged-pair"],
)
def test_path_cap_bounds_paths_times_inputs(monkeypatch, program, target, cells, error):
    # 2^(cut rank before a box) x columns x inputs at the box that holds the
    # most: a parity-only GHZ box answers with 2 columns, any other box with
    # one per outcome; the merged pair's second box extends 2 states, not 4
    monkeypatch.setattr(mbqc, "PATH_CAP", cells - 1)
    with pytest.raises(ValueError, match=f"more than {cells - 1} paths x inputs"):
        run_exact(program, target)
    monkeypatch.setattr(mbqc, "PATH_CAP", cells)
    assert run_exact(program, target).average_error == pytest.approx(error, abs=1e-12)


# ---------------------------------------------------------------------------
# structure: causality, audit, collapse

def test_input_map_cannot_reference_later_outputs():
    box = GhzBox(angles=((0.0, math.pi),), epsilon=0.0)
    with pytest.raises(ValueError):
        L2Program(
            n=1,
            boxes=(box,),
            input_maps=((AffineBitMap(out_mask=0b1),),),  # its own output
            output_map=AffineBitMap(out_mask=0b1),
        )
    with pytest.raises(ValueError):
        L2Program(
            n=1,
            boxes=(box,),
            input_maps=((AffineBitMap(x_mask=0b1),),),
            output_map=AffineBitMap(out_mask=0b10),  # beyond available outputs
        )


def test_adaptive_program_uses_earlier_outputs():
    # each one-party box deterministically outputs its input bit
    # (equatorial angle pi flips the parity outcome exactly when the input is 1)
    relay = GhzBox(angles=((0.0, math.pi),), epsilon=0.0)
    program = L2Program(
        n=1,
        boxes=(relay, relay),
        input_maps=(
            (AffineBitMap(x_mask=0b1),),
            (AffineBitMap(out_mask=0b1),),  # second box reads the first output
        ),
        output_map=AffineBitMap(out_mask=0b10),
    )
    report = run_exact(program, make_named("maj", 1))
    assert all(p == pytest.approx(1.0, abs=1e-10) for p in report.success.values())


def test_proper_subset_of_box_outputs_is_uniform():
    # using one output of a two-party GHZ box alone carries no signal
    box = GhzBox(angles=((0.0, 0.3), (0.0, 0.7)), epsilon=0.0)
    program = L2Program(
        n=1,
        boxes=(box,),
        input_maps=((AffineBitMap(x_mask=1), AffineBitMap(x_mask=1)),),
        output_map=AffineBitMap(out_mask=0b01),
    )
    report = run_exact(program, BooleanFunction(1, (0, 0)))
    assert all(p == pytest.approx(0.5, abs=1e-12) for p in report.success.values())


def test_collapsed_box_streams_its_parties():
    # 1023 qubits at n = 10 (every parity coefficient of the 10-input AND is
    # nonzero): the party bits are consumed one party at a time; a
    # parties x inputs uint8 array alone would take about 1 MiB
    f = BooleanFunction(10, (0,) * 1023 + (1,))
    program = ghzc.run_as_l2program(ghzc.compile_function(f), 0.05)
    assert program.boxes[0].n_parties == 1023
    tracemalloc.start()
    try:
        report = run_exact(program, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
    assert report.average_error == pytest.approx(0.05, abs=1e-12)


def _affine_bit(m, x_idx, flat_outputs):
    bit = (m.x_mask & x_idx).bit_count() + m.const
    bit += sum(b for j, b in enumerate(flat_outputs) if (m.out_mask >> j) & 1)
    return bit & 1


def reference_success(program, target):
    """Per input, walk tuple histories through full box distributions (no collapse)."""
    success = {}
    for x_idx in range(1 << program.n):
        paths = {(): 1.0}
        for box, maps in zip(program.boxes, program.input_maps):
            new_paths = {}
            for history, prob in paths.items():
                inputs = tuple(_affine_bit(m, x_idx, history) for m in maps)
                dist = corrbox.distribution(box, inputs)
                for outcome in itertools.product((0, 1), repeat=box.n_parties):
                    new_paths[history + outcome] = prob * dist[outcome]
            paths = new_paths
        want = target.table[x_idx]
        success[x_idx] = sum(
            prob for history, prob in paths.items()
            if _affine_bit(program.output_map, x_idx, history) == want
        )
    return success


def assert_matches_reference(program, target):
    report = run_exact(program, target)
    for x_idx, p in reference_success(program, target).items():
        x = tuple((x_idx >> j) & 1 for j in range(program.n))
        assert abs(report.success[x] - p) <= 1e-12


def test_parity_collapse_matches_full_enumeration():
    # the collapsed single-box program against its closed form and against
    # enumeration of every outcome string
    f = make_named("maj", 3)
    program = ghzc.run_as_l2program(ghzc.compile_function(f), 0.3)
    collapsed = run_exact(program, f)
    for x, p in collapsed.success.items():
        assert p == pytest.approx(0.7, abs=1e-12)
    assert_matches_reference(program, f)


def _random_box(rng):
    kind = rng.integers(3)
    if kind == 0:  # a noiseless Bell pair
        return GhzBox(angles=tuple(tuple(rng.uniform(0, 2 * math.pi, 2)) for _ in range(2)))
    if kind == 1:
        k = int(rng.integers(1, 5))
        return GhzBox(
            angles=tuple(tuple(rng.uniform(0, 2 * math.pi, 2)) for _ in range(k)),
            epsilon=float(rng.uniform(0, 0.5)),
        )
    return _random_mixture(rng, int(rng.integers(0, 4)))  # zero parties: one empty outcome


def _random_mixture(rng, k):
    """A non-contextual box of k parties: 1-3 random responses, Fraction weights."""
    weights = [Fraction(int(w)) for w in rng.integers(1, 5, int(rng.integers(1, 4)))]
    mixture = []
    for w in weights:
        responses = tuple(tuple(int(b) for b in rng.integers(0, 2, 2)) for _ in range(k))
        mixture.append((w / sum(weights), responses))
    return NoncontextualBox(mixture=tuple(mixture))


def _random_out_mask(rng, boxes, whole_boxes):
    """Each earlier box is read not at all, whole, or (unless whole_boxes) in part."""
    mask, start = 0, 0
    for box in boxes:
        segment = (1 << box.n_parties) - 1
        choice = int(rng.integers(2 if whole_boxes else 3))
        part = (0, segment, int(rng.integers(1 << box.n_parties)))[choice]
        mask |= part << start
        start += box.n_parties
    return mask


def _random_map(rng, n, boxes, whole_boxes):
    return AffineBitMap(
        x_mask=int(rng.integers(1 << n)),
        out_mask=_random_out_mask(rng, boxes, whole_boxes),
        const=int(rng.integers(2)),
    )


def _random_program(rng, n, boxes, whole_boxes):
    """The boxes wired adaptively: every party and the output read random maps."""
    input_maps = tuple(
        tuple(_random_map(rng, n, boxes[:i], whole_boxes) for _ in range(box.n_parties))
        for i, box in enumerate(boxes)
    )
    return L2Program(n, tuple(boxes), input_maps, _random_map(rng, n, boxes, whole_boxes))


def _random_function(rng, n):
    return BooleanFunction(n, tuple(int(b) for b in rng.integers(0, 2, 1 << n)))


@pytest.mark.parametrize("seed", range(40))
def test_adaptive_programs_match_full_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    whole_boxes = seed % 2 == 0  # even seeds keep every GHZ box collapsible
    boxes = [_random_box(rng) for _ in range(int(rng.integers(1, 4)))]
    program = _random_program(rng, n, boxes, whole_boxes)
    assert_matches_reference(program, _random_function(rng, n))


# ---------------------------------------------------------------------------
# certificates

def test_certificate_chsh():
    report = run_exact(chsh_and_program(), make_named("and"))
    cert = contextuality_certificate(report, make_named("and"))
    assert cert.nu == 1 and cert.bound == Fraction(1, 4)
    assert cert.delta == pytest.approx(0.25 - SIN2_PI8, abs=1e-12)
    assert cert.contextual


def test_certificate_noncontextual_is_exactly_zero():
    report = run_exact(noncontextual_and_program(), make_named("and"))
    cert = contextuality_certificate(report, make_named("and"))
    assert cert.delta == 0.0
    assert not cert.contextual


def test_certificate_deterministic_nand():
    nand = make_named("nand")
    report = run_exact(ghzc.run_as_l2program(ghzc.compile_function(nand)), nand)
    cert = contextuality_certificate(report, nand)
    assert cert.delta == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("other", [make_named("nand"), make_named("maj", 3)], ids=["nand", "maj3"])
def test_certificate_refuses_a_report_scored_on_another_target(other):
    # the AND report would give delta > 0 against either, though the
    # program's NAND error is 0.854
    report = run_exact(chsh_and_program(), make_named("and"))
    with pytest.raises(ValueError, match="scored against another target"):
        contextuality_certificate(report, other)


def test_deterministic_nonaffine_certificate_positive():
    # any exact evaluation of a non-affine function certifies contextuality
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = BooleanFunction(3, tuple(int(b) for b in rng.integers(0, 2, 8)))
        if nonlinearity(f) == 0:
            continue
        report = run_exact(ghzc.run_as_l2program(ghzc.compile_function(f)), f)
        cert = contextuality_certificate(report, f)
        assert cert.contextual
        assert cert.delta == pytest.approx(float(cert.bound), abs=1e-10)


# ---------------------------------------------------------------------------
# the non-contextual optimum

@pytest.mark.parametrize(
    "name,k,expected",
    [("and", None, Fraction(1, 4)), ("xor", None, Fraction(0)), ("maj", 3, Fraction(1, 4))],
)
def test_best_noncontextual_error_examples(name, k, expected):
    assert best_noncontextual_error(make_named(name, k)) == expected


def test_search_matches_nonlinearity_bound_exhaustively():
    # Theorem-style consistency at desk scale: the explicit strategy search
    # can never beat nu(f)/2^n, and in fact attains it
    for bits in range(256):
        f = BooleanFunction(3, tuple((bits >> i) & 1 for i in range(8)))
        assert best_noncontextual_error(f) == Fraction(nonlinearity(f), 8)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_deterministic_local_strategies_reach_exactly_the_affine_functions(n):
    # the model behind the search over affine forms: one party with an affine
    # input wire, an affine one-bit response and an affine output map, every
    # 7-tuple of choices tabulated, reaches the 2^(n+1) affine tables and no other
    size = 1 << n
    parity = [i.bit_count() & 1 for i in range(size)]
    tables = set()
    for in_mask, in_const, slope, intercept, use_out, post_mask, post_const in itertools.product(
        range(size), (0, 1), (0, 1), (0, 1), (0, 1), range(size), (0, 1)
    ):
        tables.add(sum(
            (use_out & (slope & (parity[in_mask & x] ^ in_const) ^ intercept) ^ parity[post_mask & x] ^ post_const) << x
            for x in range(size)
        ))
    affine = {sum(b << x for x, b in enumerate(l.truth_table().table)) for l in all_affine_forms(n)}
    assert tables == affine and len(affine) == 2 * size


def _local_program(rng, n, epsilon):
    """1-4 boxes wired adaptively, each with a local model when epsilon = sin^2(pi/8).

    A box is the non-contextual AND box, a random non-contextual mixture of
    1-3 parties, or a two-party GHZ box with random equatorial angles at
    noise epsilon: at visibility 1 - 2 epsilon = 1/sqrt(2), measurements in
    one plane have a local model (Acin, Gisin and Toner, PRA 73, 062105, 2006).
    """
    boxes = []
    for _ in range(int(rng.integers(1, 5))):
        kind = rng.integers(3)
        if kind == 0:
            boxes.append(corrbox.noncontextual_and_box())
        elif kind == 1:
            boxes.append(_random_mixture(rng, int(rng.integers(1, 4))))
        else:
            angles = tuple(tuple(rng.uniform(0, 2 * math.pi, 2)) for _ in range(2))
            boxes.append(GhzBox(angles=angles, epsilon=epsilon))
    return _random_program(rng, n, boxes, whole_boxes=False)


def test_no_adaptive_program_of_local_boxes_beats_the_floor():
    # the paper's first result: without contextuality the average error is
    # at least nu(f)/2^n, however the boxes are wired
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        program = _local_program(rng, n, SIN2_PI8)
        f = _random_function(rng, n)
        floor = nonlinearity(f) / 2**n
        assert run_exact(program, f).average_error >= floor - 1e-12, seed


def chsh_report(epsilon):
    """The CHSH AND program's report, its box at white noise epsilon."""
    box = replace(corrbox.chsh_and_box(), epsilon=epsilon)
    return run_exact(replace(chsh_and_program(), boxes=(box,)), make_named("and"))


def test_the_floor_property_has_teeth():
    # just below the local threshold the CHSH angles certify AND; at it the
    # error is exactly the floor
    and2 = make_named("and")
    assert contextuality_certificate(chsh_report(SIN2_PI8 - 1e-3), and2).delta > 0
    assert chsh_report(SIN2_PI8).average_error == pytest.approx(0.25, abs=1e-12)
    # with noiseless GHZ boxes the same generator draws a program that beats
    # it (seed 318 is the first of seeds 0-2999 to, by 0.081)
    program = _local_program(np.random.default_rng(318), 2, 0.0)
    assert run_exact(program, and2).average_error < 0.25 - 0.08


def _two_party_ghz_program(seed, epsilon):
    """1-2 two-party GHZ boxes with uniform random angles at noise epsilon,
    wired at random over n = 2 inputs; the draws do not depend on epsilon."""
    rng = np.random.default_rng(seed)
    boxes = [
        GhzBox(angles=tuple(tuple(rng.uniform(0, 2 * math.pi, 2)) for _ in range(2)), epsilon=epsilon)
        for _ in range(int(rng.integers(1, 3)))
    ]
    return _random_program(rng, 2, boxes, whole_boxes=False)


def test_ghz_programs_beat_the_floor_only_when_their_boxes_are_contextual():
    # the same 300 draws at two noise levels: at sin^2(pi/8) the boxes have
    # a local model and none beats nu(AND)/4 = 1/4; noiseless, 4 do, the
    # first at seed 24 by 0.008 and the most at seed 72 by 0.102
    and2 = make_named("and")
    local = [run_exact(_two_party_ghz_program(seed, SIN2_PI8), and2).average_error for seed in range(300)]
    assert min(local) >= 0.25 - 1e-12
    noiseless = [run_exact(_two_party_ghz_program(seed, 0.0), and2).average_error for seed in range(300)]
    beats = [seed for seed, error in enumerate(noiseless) if error < 0.25 - 1e-12]
    assert beats[0] == 24 and len(beats) == 4 and int(np.argmin(noiseless)) == 72
    assert noiseless[72] == pytest.approx(0.25 - 0.10211, abs=1e-5)


def test_the_chsh_construction_tolerates_white_noise_below_the_maj3_threshold():
    # ROADMAP Baseline 9: at box noise eps the CHSH AND, and the maj3 and
    # XNAND gadgets built from it, err 1/2 - (1 - 2 eps) sqrt(2)/4 on every
    # input, so the maj3 restore works only below eps* = (1 - 2 sqrt(2)/3)/2,
    # where its error reaches beta_3 = 1/6
    edge = (1 - 2 * math.sqrt(2) / 3) / 2
    for epsilon in (0.0, 0.01, edge, 0.1, SIN2_PI8):
        noisy_and = gates.gate_from_report(chsh_report(epsilon))
        error = 0.5 - (1 - 2 * epsilon) * math.sqrt(2) / 4
        for gadget in (gates.maj3_from_and, gates.xnand_from_and):
            assert all(abs(e - error) < 1e-12 for e in gadget(noisy_and).errors), (gadget, epsilon)

    def maj3_error(epsilon):
        return gates.maj3_from_and(gates.gate_from_report(chsh_report(epsilon))).epsilon

    assert abs(maj3_error(edge) - 1 / 6) < 1e-12 and gates.beta(3).beta == Fraction(1, 6)
    assert gates.analyze_recursion(3, maj3_error(edge - 1e-6)).eta == pytest.approx(0.49874, abs=1e-5)
    assert gates.analyze_recursion(3, maj3_error(edge + 1e-6)).eta is None


def test_ghz_kmaj_reliable_and_contextual_windows():
    # ROADMAP Baseline 9: compiled k-MAJ on a GHZ state at white noise eps errs
    # eps on every input, so it restores below beta_k and is contextual below
    # nu(maj_k)/2^k; the share of the contextual region it uses grows with k
    ratios = []
    for k in (3, 5, 7, 9):
        f = make_named("maj", k)
        program = ghzc.compile_function(f)
        floor = Fraction(nonlinearity(f), 1 << k)
        for epsilon, contextual in ((float(floor) - 1e-9, True), (float(floor) + 1e-9, False)):
            report = run_exact(ghzc.run_as_l2program(program, epsilon), f)
            assert all(abs(1 - p - epsilon) < 1e-12 for p in report.success.values())
            assert contextuality_certificate(report, f).contextual == contextual
        beta = gates.beta(k).beta
        assert gates.analyze_recursion(k, float(beta) - 1e-9).eta is not None
        assert gates.analyze_recursion(k, float(beta) + 1e-9).eta is None
        ratios.append(float(beta / floor))
    assert ratios == pytest.approx([0.667, 0.747, 0.790, 0.817], abs=5e-4)


IP2 = BooleanFunction.from_callable(4, lambda a, b, c, d: (a & b) ^ (c & d))
AND4 = BooleanFunction.from_callable(4, lambda a, b, c, d: a & b & c & d)


def _and_box_program(box, target):
    """IP_2 from two AND boxes on (x1, x2) and (x3, x4), read as one parity;
    AND4 adds a third box whose parties read those two ANDs (adaptive)."""
    pairs = ((AffineBitMap(x_mask=0b0001), AffineBitMap(x_mask=0b0010)),
             (AffineBitMap(x_mask=0b0100), AffineBitMap(x_mask=0b1000)))
    if target == IP2:
        return L2Program(4, (box,) * 2, pairs, AffineBitMap(out_mask=0b1111))
    third = (AffineBitMap(out_mask=0b11), AffineBitMap(out_mask=0b1100))
    return L2Program(4, (box,) * 3, (*pairs, third), AffineBitMap(out_mask=0b110000))


def test_a_bent_function_and_and4_from_and_boxes_at_no_restore():
    # ROADMAP Baseline 10's IP_2 and AND4 rows: no bundle, no restore
    chsh, noncontextual = corrbox.chsh_and_box(), corrbox.noncontextual_and_box()
    for box, target in itertools.product((chsh, noncontextual), (IP2, AND4)):
        assert_matches_reference(_and_box_program(box, target), target)

    ip2 = run_exact(_and_box_program(chsh, IP2), IP2)
    assert ip2.average_error == ip2.worst_error == 0.25
    cert = contextuality_certificate(ip2, IP2)
    assert cert.bound == Fraction(3, 8) and cert.delta == 0.125 and cert.contextual
    and4 = run_exact(_and_box_program(chsh, AND4), AND4)
    assert and4.average_error == pytest.approx(0.20011893507148265, abs=1e-12)
    assert and4.worst_error == pytest.approx(0.3383883476483185, abs=1e-12)
    # under 0.45 on every input, yet above the floor nu/16 = 1/16: not contextual
    assert not contextuality_certificate(and4, AND4).contextual

    ip2 = run_exact(_and_box_program(noncontextual, IP2), IP2)
    assert ip2.average_error == ip2.worst_error == 0.375 == best_noncontextual_error(IP2)
    assert contextuality_certificate(ip2, IP2).delta == 0.0
    and4 = run_exact(_and_box_program(noncontextual, AND4), AND4)
    assert and4.average_error == 0.31640625 >= best_noncontextual_error(AND4)


def test_search_arity_cap():
    with pytest.raises(ValueError):
        best_noncontextual_error(make_named("maj", 5))


# ---------------------------------------------------------------------------
# mixtures

def test_mixture_error_is_convex_combination():
    rng = np.random.default_rng(17)
    and2 = make_named("and")
    programs = [
        chsh_and_program(),
        noncontextual_and_program(),
        constant_program(2, 0),
        constant_program(2, 1),
    ]
    errors = [run_exact(p, and2).average_error for p in programs]
    for _ in range(25):
        w = rng.dirichlet(np.ones(len(programs)))
        mixed = float(np.dot(w, errors))
        assert mixed >= min(errors) - 1e-12
        assert mixed <= max(errors) + 1e-12


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AffineBitMap(const=2), "const must be a bit"),
        (lambda: AffineBitMap(x_mask=-1), "masks must be nonnegative"),
        (
            lambda: L2Program(
                n=2, boxes=(corrbox.chsh_and_box(),), input_maps=(), output_map=AffineBitMap()
            ),
            "one input-map group per box",
        ),
        (
            lambda: L2Program(
                n=2,
                boxes=(corrbox.chsh_and_box(),),
                input_maps=((AffineBitMap(x_mask=1),),),
                output_map=AffineBitMap(),
            ),
            "one input map per box party",
        ),
        (
            lambda: L2Program(
                n=1,
                boxes=(corrbox.chsh_and_box(),),
                input_maps=((AffineBitMap(x_mask=1), AffineBitMap(x_mask=2)),),
                output_map=AffineBitMap(),
            ),
            "bits beyond the arity",
        ),
        (
            lambda: L2Program(n=-1, boxes=(), input_maps=(), output_map=AffineBitMap()),
            "arity -1 is negative",
        ),
    ],
    ids=[
        "const-not-a-bit", "negative-mask", "missing-map-group", "wrong-party-count",
        "x-mask-beyond-n", "negative-arity",
    ],
)
def test_malformed_maps_and_programs_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
