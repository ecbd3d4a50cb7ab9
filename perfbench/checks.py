"""Output checks that do not rely on the code under test.

* :func:`equivalent` evaluates two circuits on seeded random patterns
  with its own topological order and the cells' truth tables, sharing
  nothing with ``repro.netlist.simulator``.
* :func:`reconfirm_detected` re-proves a seeded sample of DETECTED
  verdicts with the naive reference simulator in
  ``repro.faults.reference`` on the ATPG's own test pairs.
* :func:`illegal_placement` returns ``Layout.check_legal()`` problems.

Each returns a list of problem strings; empty means the check passed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Sequence

# Detected verdicts re-proved per analyzed design.
DETECTED_SAMPLE = 12
# Random patterns per equivalence check, evaluated bit-parallel.
EQUIV_PATTERNS = 256


def _topo(circuit) -> List[object]:
    """Kahn order over the gates, computed here rather than borrowed."""
    driver = {g.output: g for g in circuit.gates.values()}
    indeg: Dict[str, int] = {}
    users: Dict[str, List[str]] = {}
    for g in circuit.gates.values():
        preds = {driver[n].name for n in g.pins.values() if n in driver}
        indeg[g.name] = len(preds)
        for p in preds:
            users.setdefault(p, []).append(g.name)
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order = []
    while ready:
        name = ready.pop()
        order.append(circuit.gates[name])
        for u in users.get(name, ()):
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(order) != len(circuit.gates):
        raise ValueError(f"{circuit.name}: combinational loop")
    return order


def _simulate(circuit, cells: Mapping[str, object],
              stimulus: Mapping[str, int], width: int) -> Dict[str, int]:
    """Bit-parallel evaluation: bit i of each word is pattern i."""
    from repro.netlist.circuit import CONST0, CONST1

    mask = (1 << width) - 1
    values = {CONST0: 0, CONST1: mask}
    values.update(stimulus)
    for gate in _topo(circuit):
        cell = cells[gate.cell]
        ins = [values[gate.pins[p]] for p in cell.input_pins]
        out = 0
        for minterm in range(1 << len(ins)):
            if not (cell.tt >> minterm) & 1:
                continue
            term = mask
            for i, word in enumerate(ins):
                term &= word if (minterm >> i) & 1 else ~word & mask
            out |= term
        values[gate.output] = out
    return values


def equivalent(original, revised, cells: Mapping[str, object],
               seed: int) -> List[str]:
    """*revised* computes *original*'s outputs on random patterns."""
    if list(original.inputs) != list(revised.inputs):
        return [f"{revised.name}: primary inputs changed"]
    if list(original.outputs) != list(revised.outputs):
        return [f"{revised.name}: primary outputs changed"]
    rng = random.Random(seed)
    stimulus = {pi: rng.getrandbits(EQUIV_PATTERNS) for pi in original.inputs}
    a = _simulate(original, cells, stimulus, EQUIV_PATTERNS)
    b = _simulate(revised, cells, stimulus, EQUIV_PATTERNS)
    return [
        f"{revised.name}: output {po} differs on random patterns"
        for po in original.outputs if a[po] != b[po]
    ]


def _detects_any(circuit, cells, fault, tests: Sequence) -> bool:
    from repro.faults.reference import reference_detect_words

    return any(
        reference_detect_words(circuit, cells, [fault], tests[i:i + 8])[0]
        for i in range(0, len(tests), 8)
    )


def reconfirm_detected(circuit, cells: Mapping[str, object], fault_set,
                       atpg, seed: int, earlier_tests: Sequence = (),
                       sample: int = DETECTED_SAMPLE):
    """Re-prove a seeded sample of DETECTED verdicts on the ATPG tests.

    An incremental analysis inherits DETECTED verdicts from an earlier,
    functionally equivalent design without simulating them again, and
    compacts its tests for the faults it proved itself; such a verdict
    is re-proved on *earlier_tests*, the tests of the analyses it came
    from.  Returns the problems and how many sampled verdicts only the
    earlier tests detect (the state's own test set misses them).
    """
    by_id = {f.fault_id: f for f in fault_set}
    detected = sorted(fid for fid in atpg.detected if fid in by_id)
    rng = random.Random(seed)
    picked = rng.sample(detected, min(sample, len(detected)))
    problems, missed_by_own = [], 0
    for fid in picked:
        fault = by_id[fid]
        if _detects_any(circuit, cells, fault, atpg.tests):
            continue
        if earlier_tests and _detects_any(circuit, cells, fault,
                                          earlier_tests):
            missed_by_own += 1
            continue
        problems.append(
            f"{circuit.name}: DETECTED fault {fid} is detected by none of "
            f"the {len(atpg.tests) + len(earlier_tests)} ATPG tests under "
            "the reference simulator"
        )
    return problems, missed_by_own


def illegal_placement(layout) -> List[str]:
    return [f"illegal placement: {p}" for p in layout.check_legal()[:5]]


def state_checks(state, cells, seed: int, earlier_tests: Sequence = ()):
    """Every independent check that applies to one analyzed design.

    Returns the problems and the count from :func:`reconfirm_detected`
    of sampled DETECTED verdicts the state's own tests miss.
    """
    problems = illegal_placement(state.physical.layout)
    if state.n_aborted:
        problems.append(
            f"{state.circuit.name}: {state.n_aborted} ATPG verdicts aborted")
    found, missed = reconfirm_detected(
        state.circuit, cells, state.fault_set, state.atpg, seed,
        earlier_tests)
    return problems + found, missed
