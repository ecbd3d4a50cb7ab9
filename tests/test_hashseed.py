"""Outputs must not depend on the interpreter's string-hash salt.

Set and dict iteration over salted string hashes once reordered gate
insertion in techmap, which diverged placement annealing and the Table I
rows between interpreters.  Each run below is a fresh interpreter under
a different ``PYTHONHASHSEED``; both must reproduce the recorded
physical digests and emit the same Table I row and test count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro
from tests.test_physical import GOLDEN_DIGESTS

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
REPO_ROOT = os.path.dirname(SRC_ROOT)

_SCRIPT = """
import json
from repro.bench import build_benchmark
from repro.core.flow import analyze_design
from repro.core.metrics import table1_row
from repro.library import osu018_library
from tests.test_physical import physical_digest

library = osu018_library()
# wb_conmax renames nets with several loads during technology mapping,
# the step whose salted set order once leaked into gate order.
digests = {
    name: physical_digest(build_benchmark(name, library), library, 0)
    for name in ("sparc_tlu", "wb_conmax")
}
state = analyze_design(
    build_benchmark("sparc_tlu", library), library,
    workers=1, exec_mode="serial",
)
row = table1_row("sparc_tlu", state)
print(json.dumps({"digests": digests, "row": row,
                  "T": len(state.atpg.tests)}, sort_keys=True))
"""


def _run_under(hash_seed: str) -> dict:
    # Inherited REPRO_* knobs (chaos injection, backend, budgets) would
    # change what the child computes, so neither run sees them.
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_ROOT, REPO_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_outputs_independent_of_hash_seed():
    runs = [_run_under(seed) for seed in ("0", "4242")]
    for run in runs:
        for name, digest in run["digests"].items():
            assert digest == GOLDEN_DIGESTS[(name, 0)], name
        assert run["T"] > 0
    assert runs[0] == runs[1]
