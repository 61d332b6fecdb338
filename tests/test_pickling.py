import pickle

import pytest

from l2mbqc import ghzc, mbqc, reliability
from l2mbqc.boolfn import make_named
from l2mbqc.gates import chsh_and_gate, maj3_from_and, xnand_from_and

AND = make_named("and")
TREE2 = "(nand (nand a b) (nand c d))"


def program():
    return ghzc.compile_function(AND)


def circuit():
    and_gate = chsh_and_gate()
    circ = reliability.build(reliability.parse_formula(TREE2), 9, 3, 1,
                             xnand=xnand_from_and(and_gate), kmaj=maj3_from_and(and_gate), seed=7)
    circ.wiring  # drawn, not yet sampled
    return circ


def circuit_results(circ):
    counts = reliability.simulate_monte_carlo(circ, (1, 0, 1, 1), 2048, 3)
    return circ, [perms.tolist() for perms in circ.wiring], counts


#: each result type, as (build one, what an equal copy must give)
CASES = {
    "BooleanFunction": (lambda: AND, None),
    "GhzProgram": (program, None),
    "GhzVerification": (lambda: ghzc.verify(program(), AND), lambda v: (v, v.statevector_success)),
    "StrategyReport": (lambda: mbqc.run_exact(ghzc.run_as_l2program(program(), 0.1), AND),
                       lambda r: (r, r.worst_error)),
    "NoisyGate": (chsh_and_gate, None),
    "L2Program": (lambda: ghzc.run_as_l2program(program(), 0.1), None),
    "SimulationReport": (lambda: reliability.build_report(circuit(), trials=1024, seed=5), None),
    "ReliableCircuit": (circuit, circuit_results),
}


@pytest.mark.parametrize("name", CASES)
def test_results_survive_a_pickle_round_trip(name):
    make, results = CASES[name]
    results = results or (lambda obj: obj)
    obj = make()
    twin = pickle.loads(pickle.dumps(obj))
    assert type(twin) is type(obj)
    assert results(twin) == results(obj)
