"""Batch command-line front-end.

Subcommands: ``gate`` (per-input success tables for gates built from
correlation resources), ``thresholds`` (beta_k / nonlinearity / gap sweeps),
``compile`` / ``verify`` (GHZ measurement programs), ``inequality``
(contextuality certificates), and ``reliable`` (multiplexed-circuit
experiments). ``gate``, ``thresholds`` and ``reliable`` write a table as
CSV or, with ``--format json``, as JSON; the others always write JSON.
Exit codes: 0 success, 1 verification or certification failure, 2 usage
or file-format error. Identical invocations produce byte-identical output;
every stochastic run requires an explicit seed.

Relative ``--output`` paths are resolved against ``L2MBQC_OUTPUT_DIR``
when that variable is set. Each handler imports the modules it runs, so a
child loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator

OUTPUT_DIR_ENV = "L2MBQC_OUTPUT_DIR"


def _cells(values: Iterable) -> list[str]:
    """CSV cells, such as a column's: empty for None, 9 significant digits
    for a float."""
    return ["" if v is None else f"{v:.9g}" if isinstance(v, float) else str(v) for v in values]


def _fmt(value) -> str:
    """One CSV cell, as ``_cells`` writes it."""
    return _cells((value,))[0]


#: bytes 0 and 1 to the digits "0" and "1"
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits(xs: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """Each input's bits as a string of 0s and 1s, first bit first."""
    return map(bytes.decode, map(bytes.translate, map(bytes, xs), itertools.repeat(_DIGITS)))


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _resolve_output(path: str | None) -> str | None:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if path is not None and base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json(args: argparse.Namespace, payload: dict):
    _write(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _table(args: argparse.Namespace, payload: dict, rows: list[dict], comments: list[str]):
    """Write rows as JSON (the payload plus ``rows``) or as CSV: ``#`` comment
    lines, a header from the first row's keys, then one line per row."""
    if args.format == "json":
        _json(args, {**payload, "rows": rows})
        return
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(rows[0]))
    columns = zip(*(row.values() for row in rows))
    lines.extend(map(",".join, zip(*map(_cells, columns))))
    _write(args.output, "\n".join(lines) + "\n")


def _read_function(path: str) -> boolfn.BooleanFunction:
    from . import boolfn
    with open(path, "r", encoding="utf-8") as fh:
        return boolfn.from_text(fh.read())


def _read_program(path: str) -> ghzc.GhzProgram:
    from . import ghzc
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    return ghzc.program_from_config(config)


# ---------------------------------------------------------------------------
# subcommands

_NAMED_TARGETS = ("and", "nand", "xor", "maj", "xnand")


def _build_gate(name: str, resource: str, k: int, epsilon: float) -> gates.NoisyGate:
    from . import boolfn, gates
    if resource == "ghz":
        return gates.gate_from_noisy_ghz(boolfn.make_named(name, k), epsilon)
    # argparse admits only the three resources
    base = gates.chsh_and_gate() if resource == "chsh" else gates.noncontextual_and_gate()
    if name == "and":
        return base
    if name == "maj" and k == 3:
        return gates.maj3_from_and(base)
    if name == "xnand":
        return gates.xnand_from_and(base)
    arity = f" at k = {k} (only k = 3)" if name == "maj" else ""
    raise ValueError(f"gate {name!r} cannot be built from resource {resource!r}{arity}")


def cmd_gate(args: argparse.Namespace) -> int:
    from . import boolfn
    if args.epsilon is not None and args.resource != "ghz":
        raise ValueError("--epsilon applies only to --resource ghz")
    if args.k is not None and args.name != "maj":
        raise ValueError("--k applies only to gate maj")
    k = 3 if args.k is None else args.k
    gate = _build_gate(args.name, args.resource, k, 0.0 if args.epsilon is None else args.epsilon)
    eps = gate.epsilon
    classification = (
        f"epsilon-noisy (epsilon={_fmt(eps)})" if eps is not None else "not epsilon-noisy"
    )
    payload = {
        "gate": args.name,
        "resource": args.resource,
        "classification": classification,
        "epsilon": eps,
    }
    rows = [
        {"input": x, "success": 1.0 - e, "error": e}
        for x, e in zip(_bits(boolfn.input_keys(gate.k)), gate.errors)
    ]
    _table(args, payload, rows, [f"classification: {classification}"])
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    from . import gates
    if args.kmax % 2 == 0:
        raise ValueError(f"kmax must be odd, got {args.kmax}")
    sweep = gates.threshold_sweep(args.kmax)
    betas = [r["beta"] for r in sweep]
    gaps = [r["gap"] for r in sweep]
    payload = {
        "beta_strictly_increasing": all(b1 < b2 for b1, b2 in zip(betas, betas[1:])),
        "gap_strictly_decreasing": all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])),
    }
    rows = []
    for r in sweep:
        row = {"k": r["k"]}
        for key in ("beta", "nu_over_2k", "gap"):
            row[key] = _frac(r[key])
            row[f"{key}_float"] = float(r[key])
        rows.append(row)
    _table(args, payload, rows, [f"{key}: {str(value).lower()}" for key, value in payload.items()])
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from . import ghzc
    f = _read_function(args.fn)
    program = ghzc.compile_function(f)
    _json(args, ghzc.program_to_config(program))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import ghzc
    f = _read_function(args.fn)
    program = _read_program(args.program)
    result = ghzc.verify(program, f)
    payload = {
        "deterministic": result.deterministic,
        "qubits": program.n_qubits,
        "failing_inputs": list(_bits(result.failing_inputs)),
        "min_success": min(result.success.values()),
    }
    _json(args, payload)
    return 0 if result.deterministic else 1


def cmd_inequality(args: argparse.Namespace) -> int:
    from . import ghzc, mbqc
    f = _read_function(args.fn)
    name = args.program
    builtin = {
        "chsh-and": mbqc.chsh_and_program,
        "noncontextual-and": mbqc.noncontextual_and_program,
    }
    if name not in builtin:
        epsilon = 0.0 if args.epsilon is None else args.epsilon
        program = ghzc.run_as_l2program(_read_program(name), epsilon)
    elif args.epsilon is not None:
        raise ValueError(f"--epsilon applies only to a program file, not {name}")
    else:
        program = builtin[name]()
    report = mbqc.run_exact(program, f)
    cert = mbqc.contextuality_certificate(report, f)
    payload = {
        "nu": cert.nu,
        "bound": _frac(cert.bound),
        "average_error": cert.average_error,
        "delta": cert.delta,
        "verdict": "contextual" if cert.contextual else "inconclusive",
    }
    _json(args, payload)
    return 0


def cmd_reliable(args: argparse.Namespace) -> int:
    from . import boolfn, gates, reliability
    if args.mc_inputs is not None and args.trials is None:
        raise ValueError("--mc-inputs applies only with --trials")
    with open(args.formula, "r", encoding="utf-8") as fh:
        formula = reliability.parse_formula(fh.read())

    k = args.k
    if args.restore_epsilon is not None:
        kmaj = gates.uniform_noisy_gate(boolfn.make_named("maj", k), args.restore_epsilon)
    elif k == 3:
        kmaj = _build_gate("maj", "chsh", k, 0.0)
    else:
        raise ValueError("k != 3 requires --restore-epsilon (gate from a noisy GHZ majority)")
    xnand = _build_gate("xnand", args.xnand, 3, 0.0)

    circuit = reliability.build(
        formula, args.width, k, args.rounds, xnand=xnand, kmaj=kmaj, seed=args.seed
    )
    report = reliability.build_report(
        circuit, margin=args.margin, trials=args.trials, seed=args.seed,
        mc_inputs=args.mc_inputs or "all",
    )
    payload = {
        "delta": report.delta,
        "worst_input": next(_bits([report.worst_input])),
        "margin": report.margin,
        "reliable": report.reliable,
        "warnings": list(report.warnings),
        "evidence": report.evidence,
    }
    if args.trials is not None:
        payload["mc_stream"] = reliability.MC_STREAM
    rows = [
        {
            "input": x,
            "analytic_error": row.analytic_error,
            "empirical_error": row.empirical_error,
            "upper": row.upper,
        }
        for x, row in zip(_bits(row.x for row in report.rows), report.rows)
    ]
    e = report.evidence
    evidence = f"none ({e['note']})" if e["kind"] == "none" else (
        f"sampled {e['sampled_inputs']}/{e['inputs']} inputs, {e['trials']} trials, "
        f"exact CP {100 * (1 - e['family_level']):g} % family-wise"
    )
    comments = [
        f"delta: {_fmt(report.delta)}",
        f"worst_input: {payload['worst_input']}",
        f"reliable: {str(report.reliable).lower()} (margin {_fmt(report.margin)})",
        f"evidence: {evidence}",
    ]
    comments.extend(f"warning: {w}" for w in report.warnings)
    _table(args, payload, rows, comments)
    return 0 if report.reliable else 1


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l2mbqc",
        description="Computation from correlations under mod-2 linear control",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, handler, table=False):
        sp.add_argument("--output", default=None, help="output path (default stdout)")
        if table:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.set_defaults(handler=handler)

    g = sub.add_parser("gate", help="per-input success table of a noisy gate")
    g.add_argument("name", choices=_NAMED_TARGETS)
    g.add_argument("--resource", required=True, choices=("chsh", "noncontextual-quarter", "ghz"))
    g.add_argument("--k", type=int, default=None, help="majority arity (odd)")
    g.add_argument("--epsilon", type=float, default=None, help="GHZ noise weight")
    add_common(g, cmd_gate, table=True)

    t = sub.add_parser("thresholds", help="beta_k / nu / gap sweep")
    t.add_argument("--kmax", type=int, required=True)
    add_common(t, cmd_thresholds, table=True)

    c = sub.add_parser("compile", help="Boolean function -> GHZ program")
    c.add_argument("--fn", required=True, help="truth-table file")
    add_common(c, cmd_compile)

    v = sub.add_parser("verify", help="check a GHZ program against a function")
    v.add_argument("--program", required=True, help="program file")
    v.add_argument("--fn", required=True, help="truth-table file")
    add_common(v, cmd_verify)

    i = sub.add_parser("inequality", help="contextuality certificate for a run")
    i.add_argument("--fn", required=True, help="truth-table file")
    i.add_argument(
        "--program",
        required=True,
        help="chsh-and, noncontextual-and, or a compiled program file",
    )
    i.add_argument("--epsilon", type=float, default=None, help="GHZ noise weight")
    add_common(i, cmd_inequality)

    r = sub.add_parser("reliable", help="multiplexed-circuit reliability experiment")
    r.add_argument("--formula", required=True, help="NAND formula file")
    r.add_argument("--width", type=int, required=True)
    r.add_argument("--k", type=int, default=3)
    r.add_argument("--rounds", type=int, required=True, help="restore rounds per stage")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    r.add_argument("--margin", type=float, default=0.05)
    r.add_argument("--restore-epsilon", type=float, default=None)
    r.add_argument("--xnand", choices=("chsh", "noncontextual-quarter"), default="chsh")
    r.add_argument("--mc-inputs", choices=("worst", "all"), help="needs --trials (default all)")
    add_common(r, cmd_reliable, table=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.output = _resolve_output(args.output)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
