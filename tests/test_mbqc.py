import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from l2mbqc import corrbox, ghzc
from l2mbqc.boolfn import BooleanFunction, make_named, nonlinearity
from l2mbqc.corrbox import BipartiteBox, GhzBox, NoncontextualBox
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


def test_path_cap_bounds_paths_times_inputs():
    # the collapsed Bell box leaves 2 paths, each holding 4 inputs
    with pytest.raises(ValueError, match="more than 7 paths x inputs"):
        run_exact(chsh_and_program(), make_named("and"), path_cap=7)
    report = run_exact(chsh_and_program(), make_named("and"), path_cap=8)
    assert report.average_error == pytest.approx(SIN2_PI8, abs=1e-12)


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
    report = run_exact(program, make_named("const0", 1))
    assert all(p == pytest.approx(0.5, abs=1e-12) for p in report.success.values())


def test_collapsed_box_streams_its_parties():
    # 1023 qubits at n = 10: the party bits are consumed one party at a time;
    # a parties x inputs uint8 array alone would take about 1 MiB
    rng = np.random.default_rng(10)
    f = BooleanFunction(10, tuple(int(b) for b in rng.integers(0, 2, 1024)))
    program = ghzc.run_as_l2program(ghzc.compile_function(f, pad=True), 0.05)
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
    if kind == 0:
        return BipartiteBox(
            alice=tuple(rng.uniform(0, 2 * math.pi, 2)),
            bob=tuple(rng.uniform(0, 2 * math.pi, 2)),
        )
    if kind == 1:
        k = int(rng.integers(1, 5))
        return GhzBox(
            angles=tuple(tuple(rng.uniform(0, 2 * math.pi, 2)) for _ in range(k)),
            epsilon=float(rng.uniform(0, 0.5)),
        )
    k = int(rng.integers(0, 4))  # zero parties: a box with one empty outcome
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


@pytest.mark.parametrize("seed", range(40))
def test_adaptive_programs_match_full_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    whole_boxes = seed % 2 == 0  # even seeds keep every Bell/GHZ box collapsible
    boxes = [_random_box(rng) for _ in range(int(rng.integers(1, 4)))]
    input_maps = tuple(
        tuple(_random_map(rng, n, boxes[:i], whole_boxes) for _ in range(box.n_parties))
        for i, box in enumerate(boxes)
    )
    program = L2Program(
        n=n,
        boxes=tuple(boxes),
        input_maps=input_maps,
        output_map=_random_map(rng, n, boxes, whole_boxes),
    )
    target = BooleanFunction(n, tuple(int(b) for b in rng.integers(0, 2, 1 << n)))
    assert_matches_reference(program, target)


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
