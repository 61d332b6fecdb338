"""The benchmark's four workloads: seeded inputs, one op per call, an oracle per op.

A workload is built once per worker process (its set-up), then hands out
blocks of ops. Block ``b`` of a run is generated from ``(workload, seed, b)``
alone, so a seed names the same inputs however the run is split across
workers. Every op calls the package only through ``Tracer.call`` and raises
``WrongOutput`` when its result disagrees with the oracle; the worker counts
either that or any other exception as a failed op.

Each block has a fixed composition (input sizes); only the contents are
random. A run is a whole number of blocks, so the mix of sizes in a run does
not depend on how fast the machine is.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from l2mbqc import boolfn, corrbox, gates, ghzc, mbqc, reliability
from l2mbqc.boolfn import BooleanFunction

HERE = Path(__file__).resolve().parent

TREE3 = "(nand (nand (nand a b) (nand c d)) (nand (nand e f) (nand g h)))"

#: the sampler's chunk size at the commit this benchmark was written against
#: (``reliability.MC_CHUNK``); used only to compute the draws-array size
DRAW_CHUNK = 2048
#: bytes per uniform draw in that sampler (float64)
DRAW_BYTES = 8

#: half-width of every statistical band, in standard errors
BAND_SIGMAS = 5.0
#: tolerance for comparing float results that are equal in exact arithmetic
FLOAT_TOL = 1e-10
CERTIFY_MARGIN = 0.05


class WrongOutput(Exception):
    """An op's result disagreed with its oracle."""


def require(ok: bool, message: str):
    if not ok:
        raise WrongOutput(message)


@dataclass
class Op:
    """One timed call: ``run`` takes the tracer; ``kind`` names its input size
    and ``inputs`` describes the generated input."""

    kind: str
    inputs: object
    run: Callable


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    # str seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{block}")


def parity_transform(table) -> list[int]:
    """Integer transform sum_x f(x) (-1)^(T.x) for every mask T (oracle copy)."""
    w = list(table)
    h = 1
    while h < len(w):
        for i in range(0, len(w), 2 * h):
            for j in range(i, i + h):
                w[j], w[j + h] = w[j] + w[j + h], w[j] - w[j + h]
        h *= 2
    return w


def parity(v: int) -> int:
    return bin(v).count("1") & 1


# ---------------------------------------------------------------------------
# mc_sampler

#: (width, trials) slots of one block. The W=729 full chunk puts the
#: 2048 x 37 x 729 x 8 B draws array into peak RSS; with five of them beyond
#: it, the tail lands inside the W=81 group, whose latency is the steadiest.
MC_BLOCK = ((81, 1024),) * 10 + ((729, 2048),)
MC_REFERENCE_FILE = HERE / "mc_reference.json"


def tree3_circuit(width: int, tracer) -> reliability.ReliableCircuit:
    """TREE3 from the acceptance suite: Bell-derived gates, k=3, r=2, seed 7."""
    formula = tracer.call("reliability.build", reliability.parse_formula, TREE3)
    and_gate = tracer.call("gates", gates.chsh_and_gate)
    kmaj = tracer.call("gates", gates.maj3_from_and, and_gate)
    xnand = tracer.call("gates", gates.xnand_from_and, and_gate)
    return tracer.call(
        "reliability.build", reliability.build, formula, width, 3, 2,
        xnand=xnand, kmaj=kmaj, seed=7,
    )


def band(p_ref: float, n: int, n_ref: int) -> float:
    """BAND_SIGMAS binomial standard errors of (estimate - reference)."""
    var = p_ref * (1.0 - p_ref)
    return BAND_SIGMAS * math.sqrt(var / n + var / n_ref)


class McSampler:
    """Monte Carlo on the worst input of TREE3 at W=81 and W=729.

    The input is the one the reference was taken at (the analytic worst case
    at the benchmark's first commit), so a change to the analytic model does
    not change what is sampled.
    """

    name = "mc_sampler"

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed
        reference = json.loads(MC_REFERENCE_FILE.read_text())
        self.reference = {int(w): r for w, r in reference["widths"].items()}
        self.circuits = {w: tree3_circuit(w, tracer) for w in sorted({w for w, _ in MC_BLOCK})}
        self.inputs = {w: tuple(int(b) for b in self.reference[w]["input"]) for w in self.circuits}
        # pooled (wrong, trials) per width over the whole run
        self.pooled = {w: [0, 0] for w in self.circuits}

    def warmup(self) -> Op:
        return self._op(81, 256, self.seed)

    def block(self, index: int) -> list[Op]:
        rng = block_rng(self.name, self.seed, index)
        slots = list(MC_BLOCK)
        rng.shuffle(slots)
        return [self._op(w, trials, rng.getrandbits(63)) for w, trials in slots]

    def _op(self, width: int, trials: int, mc_seed: int) -> Op:
        def run(t):
            circuit = self.circuits[width]
            res = t.call(
                "reliability.mc", reliability.simulate_monte_carlo,
                circuit, self.inputs[width], trials, mc_seed,
            )
            wrong = round(res.empirical_error * trials)
            require(res.trials == trials, f"trials {res.trials} != {trials}")
            require(abs(wrong - res.empirical_error * trials) < 1e-6, "estimate is not a count/trials")
            ref = self.reference[width]
            require(
                abs(res.empirical_error - ref["p"]) <= band(ref["p"], trials, ref["trials"]),
                f"W={width}: estimate {res.empirical_error:.4f} outside the band around {ref['p']:.4f}",
            )
            self.pooled[width][0] += wrong
            self.pooled[width][1] += trials
            stages = len(circuit.stages)
            t.add("reliability.mc.trials", trials)
            t.add("reliability.mc.wire_stage_updates", trials * stages * width)
            t.peak("reliability.mc.draw_bytes_computed",
                   min(trials, DRAW_CHUNK) * stages * width * DRAW_BYTES)

        return Op(f"W{width}x{trials}", (width, trials, mc_seed), run)

    def finish(self) -> list[str]:
        """Pooled check per width; a miss fails every op of that width."""
        failed_kinds = []
        for width, (wrong, trials) in self.pooled.items():
            if not trials:
                continue
            ref = self.reference[width]
            p_hat = wrong / trials
            if abs(p_hat - ref["p"]) > band(ref["p"], trials, ref["trials"]):
                failed_kinds.append(f"W{width}x")
        return failed_kinds


# ---------------------------------------------------------------------------
# ghz_compile

#: arities of one block; mostly small, with three n=9 and one n=10 so that
#: the tail percentile lands inside the n=9 group and the median inside n=7
GHZ_BLOCK = (4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 9, 10)
#: qubit counts accepted per arity. The state-vector oracle costs 2^qubits
#: per input, so n=4 is held at 10 qubits and n=5 above the 16-qubit oracle
#: cap; uniform tables are redrawn until they fall in range.
GHZ_QUBITS = {4: (10, 10), 5: (17, 31)}
GHZ_MAX_EPSILON = 0.1


@dataclass(frozen=True)
class GhzInput:
    f: BooleanFunction
    qubits: int  # expected from the benchmark's own transform
    nu: int  # expected nonlinearity, likewise
    x_idx: int  # input for the benchmark's own state-vector cross-check
    epsilon: float


def ghz_input(rng: random.Random, n: int) -> GhzInput:
    lo, hi = GHZ_QUBITS.get(n, (1, (1 << n) - 1))
    while True:
        table = tuple(rng.getrandbits(1) for _ in range(1 << n))
        w = parity_transform(table)
        qubits = sum(1 for c in w[1:] if c)
        if lo <= qubits <= hi:
            break
    size = 1 << n
    # signed spectrum: S(0) = 2^n - 2 w(0), S(T) = -2 w(T) for T != 0
    best = max(abs(size - 2 * w[0]), max(abs(2 * c) for c in w[1:]))
    return GhzInput(
        f=BooleanFunction(n, table),
        qubits=qubits,
        nu=(size - best) // 2,
        x_idx=rng.randrange(size),
        epsilon=rng.uniform(0.0, GHZ_MAX_EPSILON),
    )


def ghz_op(inp: GhzInput) -> Op:
    def run(t):
        f = inp.f
        n = f.arity
        nu = t.call("boolfn", boolfn.nonlinearity, f)
        require(nu == inp.nu, f"nonlinearity {nu} != {inp.nu}")
        program = t.call("ghzc.compile", ghzc.compile_function, f)
        require(program.n_qubits == inp.qubits, f"{program.n_qubits} qubits, expected {inp.qubits}")
        result = t.call("ghzc.verify", ghzc.verify, program, f)
        require(result.deterministic, "compiled program is not deterministic")
        small = program.n_qubits <= corrbox.STATEVECTOR_QUBIT_CAP
        require((result.statevector_success is not None) == small,
                "state-vector cross-check ran iff the program has at most 16 qubits")
        if small:
            for x, p in result.success.items():
                require(abs(p - result.statevector_success[x]) <= FLOAT_TOL,
                        f"state-vector success differs at {x}")
            box = corrbox.GhzBox(
                angles=tuple((0.0, float(q.delta) * math.pi) for q in program.qubits)
            )
            box_inputs = tuple(parity(q.mask & inp.x_idx) for q in program.qubits)
            sv = t.call("corrbox.oracle", corrbox.statevector_oracle, box, box_inputs)
            closed = t.call("corrbox.oracle", corrbox.ghz_parity_probability, box, box_inputs)
            require(abs(sv.parity_probability(1) - closed) <= FLOAT_TOL,
                    "state vector and closed-form parity disagree")
            want = f.table[inp.x_idx] ^ program.constant
            require(abs(closed - want) <= FLOAT_TOL, "parity is not the function value")
        l2 = t.call("ghzc.run_as_l2program", ghzc.run_as_l2program, program, inp.epsilon)
        report = t.call("mbqc.run_exact", mbqc.run_exact, l2, f)
        # white noise of weight 2 eps on a deterministic program errs with eps everywhere
        require(abs(report.average_error - inp.epsilon) <= 1e-9, "average error is not epsilon")
        require(abs(report.worst_error - inp.epsilon) <= 1e-9, "worst error is not epsilon")
        cert = t.call("mbqc.certificate", mbqc.contextuality_certificate, report, f)
        want_delta = inp.nu / (1 << n) - report.average_error
        require(cert.nu == inp.nu and abs(cert.delta - want_delta) <= 1e-12,
                f"certificate delta {cert.delta} != {want_delta}")
        t.add("ghzc.compile.qubits", program.n_qubits)
        t.add("ghzc.verify.qubit_inputs", program.n_qubits << n)
        t.add("mbqc.run_exact.inputs", 1 << n)

    return Op(f"n{inp.f.arity}", inp, run)


class GhzCompile:
    """nonlinearity -> compile -> verify -> (oracle) -> run_exact -> certificate."""

    name = "ghz_compile"

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed

    def warmup(self) -> Op:
        return ghz_op(ghz_input(block_rng(self.name, self.seed, -1), 4))

    def block(self, index: int) -> list[Op]:
        rng = block_rng(self.name, self.seed, index)
        arities = list(GHZ_BLOCK)
        rng.shuffle(arities)
        return [ghz_op(ghz_input(rng, n)) for n in arities]

    def finish(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# certify_sweep

@dataclass(frozen=True)
class Shape:
    """Input size of one certify op: the sweep visits 2^inputs assignments."""

    inputs: int
    fanout: int  # inputs read twice
    rounds: int
    width: int
    restore: str  # "maj3" or "kmaj5" / "kmaj7"


#: one block, listed fastest first; every level of inputs, fan-out, r, W
#: and restore gate appears. Seven shapes put the median inside one shape.
CERTIFY_BLOCK = (
    Shape(6, 0, 2, 81, "maj3"),
    Shape(7, 0, 2, 81, "kmaj7"),
    Shape(6, 2, 8, 729, "kmaj7"),
    Shape(9, 1, 2, 81, "maj3"),
    Shape(7, 1, 8, 729, "kmaj5"),
    Shape(10, 0, 2, 81, "kmaj5"),
    Shape(8, 0, 8, 81, "kmaj7"),
)


def nand_formula_text(rng: random.Random, shape: Shape) -> str:
    """Random NAND tree; ``fanout`` distinct inputs appear as two leaves."""
    names = [f"x{i}" for i in range(shape.inputs)]
    leaves = names + rng.sample(names, shape.fanout)
    rng.shuffle(leaves)
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        leaves[i:i + 2] = [f"(nand {leaves[i]} {leaves[i + 1]})"]
    return leaves[0]


class CertifySweep:
    """Build one configuration with its restore gate; analytic sweep, no trials."""

    name = "certify_sweep"

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed
        self.tracer = tracer
        and_gate = tracer.call("gates", gates.chsh_and_gate)
        self.xnand = tracer.call("gates", gates.xnand_from_and, and_gate)

    def warmup(self) -> Op:
        return self._op(block_rng(self.name, self.seed, -1), CERTIFY_BLOCK[0])

    def block(self, index: int) -> list[Op]:
        rng = block_rng(self.name, self.seed, index)
        shapes = list(CERTIFY_BLOCK)
        rng.shuffle(shapes)
        return [self._op(rng, s) for s in shapes]

    def _op(self, rng: random.Random, shape: Shape) -> Op:
        text = nand_formula_text(rng, shape)
        formula = self.tracer.call("reliability.build", reliability.parse_formula, text)
        k = 3 if shape.restore == "maj3" else int(shape.restore[-1])
        epsilon = rng.uniform(0.0, 0.9) * float(gates.beta(k).beta) if k > 3 else None
        circuit_seed = rng.getrandbits(31)

        def run(t):
            if epsilon is None:
                and_gate = t.call("gates", gates.chsh_and_gate)
                kmaj = t.call("gates", gates.maj3_from_and, and_gate)
            else:
                kmaj = t.call("gates", gates.kmaj_from_noisy_ghz, k, epsilon)
                require(all(abs(e - epsilon) <= 1e-12 for e in kmaj.errors),
                        "noisy GHZ majority error is not epsilon")
            circuit = t.call(
                "reliability.build", reliability.build, formula, shape.width, k,
                shape.rounds, xnand=self.xnand, kmaj=kmaj, seed=circuit_seed,
            )
            report = t.call("reliability.analytic", reliability.build_report,
                            circuit, margin=CERTIFY_MARGIN)
            require(len(report.rows) == 1 << shape.inputs, "one row per input")
            require(report.delta == max(r.analytic_error for r in report.rows),
                    "delta is not the maximum row error")
            verdict = t.call("reliability.analytic", reliability.certify, report, CERTIFY_MARGIN)
            require(report.reliable == verdict, "reliable disagrees with certify")
            stages = len(circuit.stages)
            t.add("reliability.build.stages", stages)
            t.add("reliability.analytic.stage_inputs", stages << shape.inputs)

        return Op(f"i{shape.inputs}r{shape.rounds}w{shape.width}{shape.restore}",
                  (shape, text, epsilon, circuit_seed), run)

    def finish(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# cli_readme

AND_TABLE = "n=2\n8\n"
COS2_PI8 = math.cos(math.pi / 8) ** 2
SIN2_PI8 = math.sin(math.pi / 8) ** 2
#: CSV floats carry 9 significant digits
CSV_TOL = 1e-8


def csv_rows(text: str) -> tuple[dict[str, str], list[list[str]]]:
    """(comment key -> value, data rows without the header)."""
    comments, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            comments.setdefault(key, value)
        elif line:
            rows.append(line.split(","))
    return comments, rows[1:]


def check_gate_chsh(out: str, code: int):
    comments, rows = csv_rows(out)
    require(code == 0 and len(rows) == 4, "gate table has four rows")
    require(all(abs(float(r[1]) - COS2_PI8) <= CSV_TOL for r in rows), "success is not cos^2(pi/8)")
    require(comments["classification"].startswith("epsilon-noisy"), "chsh AND is epsilon-noisy")


def check_gate_quarter(out: str, code: int):
    _, rows = csv_rows(out)
    require(code == 0 and len(rows) == 4, "gate table has four rows")
    require(abs(sum(float(r[2]) for r in rows) / 4 - 0.25) <= CSV_TOL, "average error is not 1/4")


def check_gate_maj(out: str, code: int):
    _, rows = csv_rows(out)
    require(code == 0 and len(rows) == 8, "3-MAJ table has eight rows")
    require(all(float(r[2]) <= CSV_TOL for r in rows), "noiseless GHZ majority is not exact")


def check_thresholds(out: str, code: int):
    comments, rows = csv_rows(out)
    require(code == 0 and len(rows) == 20, "odd k from 3 to 41")
    require(rows[0][0] == "3" and rows[0][1] == "1/6", "beta_3 is not 1/6")
    require(comments["beta_strictly_increasing"] == "true", "beta is not increasing")


def and_program_ok(config: dict) -> bool:
    """Phase congruence of a GHZ program for 2-bit AND, in exact arithmetic."""
    for x in range(4):
        phase = sum(
            Fraction(q["num"], q["den"]) for q in config["qubits"] if parity(q["mask"] & x)
        )
        if (phase - ((x == 3) ^ config["constant"])) % 2 != 0:
            return False
    return config["n"] == 2


def check_verify(out: str, code: int):
    payload = json.loads(out)
    require(code == (0 if payload["deterministic"] else 1), "exit code disagrees with the verdict")
    require(payload["deterministic"] and not payload["failing_inputs"], "AND program is not deterministic")


def check_inequality(out: str, code: int):
    payload = json.loads(out)
    require(code == 0 and payload["verdict"] == "contextual", "chsh-and is not contextual")
    require(payload["bound"] == "1/4" and abs(payload["delta"] - (0.25 - SIN2_PI8)) <= 1e-12,
            "chsh-and delta is not 1/4 - sin^2(pi/8)")


def check_reliable(out: str, code: int):
    comments, rows = csv_rows(out)
    require(len(rows) == 256, "TREE3 has 256 inputs")
    verdict = comments["reliable"].split()[0]
    require(code == {"true": 0, "false": 1}[verdict], "exit code disagrees with the verdict")
    require(abs(float(comments["delta"]) - max(float(r[1]) for r in rows)) <= CSV_TOL,
            "delta is not the maximum row error")


#: the README's examples, run in this order round-robin
CLI_COMMANDS = (
    ("gate", ["gate", "and", "--resource", "chsh"], check_gate_chsh),
    ("gate", ["gate", "and", "--resource", "noncontextual-quarter"], check_gate_quarter),
    ("gate", ["gate", "maj", "--k", "3", "--resource", "ghz", "--epsilon", "0"], check_gate_maj),
    ("thresholds", ["thresholds", "--kmax", "41"], check_thresholds),
    ("compile", ["compile", "--fn", "and.tt", "--output", "and.ghz"], None),
    ("verify", ["verify", "--program", "and.ghz", "--fn", "and.tt"], check_verify),
    ("inequality", ["inequality", "--fn", "and.tt", "--program", "chsh-and"], check_inequality),
    ("reliable", ["reliable", "--formula", "tree.nand", "--width", "81", "--rounds", "8",
                  "--seed", "7"], check_reliable),
)
CLI_TIMEOUT_S = 120


class CliReadme:
    """One fresh ``python -m l2mbqc.cli`` child per op.

    The README inputs are fixed, so the seed does not change them; the
    round-robin position comes from the block index.
    """

    name = "cli_readme"

    def __init__(self, seed: int, tracer, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "and.tt").write_text(AND_TABLE)
        (workdir / "tree.nand").write_text(TREE3 + "\n")

    def warmup(self) -> Op:
        # compile writes and.ghz, which verify reads
        return self._op([c[0] for c in CLI_COMMANDS].index("compile"))

    def block(self, index: int) -> list[Op]:
        return [self._op(index % len(CLI_COMMANDS))]

    def _op(self, i: int) -> Op:
        sub, args, check = CLI_COMMANDS[i]

        def run(t):
            proc = t.call(
                f"cli.{sub}", subprocess.run, [sys.executable, "-m", "l2mbqc.cli", *args],
                cwd=self.workdir, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            require(proc.returncode in (0, 1, 2), f"undocumented exit code {proc.returncode}")
            if sub == "compile":
                config = json.loads((self.workdir / "and.ghz").read_text())
                require(proc.returncode == 0 and and_program_ok(config),
                        "compiled AND program fails the phase congruence")
            else:
                check(proc.stdout, proc.returncode)

        return Op(sub, tuple(args), run)

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (McSampler, GhzCompile, CertifySweep, CliReadme)}
