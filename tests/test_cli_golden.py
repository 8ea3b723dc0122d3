"""Byte-exact stdout of a fixed set of CLI verbs.

The pinned outputs in tests/golden/ are the correctness gate for kernel
refactors: a change that keeps the algebra intact leaves every byte alone.
kv-solve is pinned only below degree 4; its output from degree 4 on is
known to be wrong and will change when the KV solver is fixed.
``assoc_element_d3.json`` is the ``element`` of ``assoc-solve --degree 3``,
the input of the two ``check`` cases.  ``taut_input_d6.json`` is a
two-generator derivation at truncation 6, the input of the transport
cases ``exp`` and ``jcocycle``; ``compose`` composes the ``exp`` output
with itself.
"""
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "bch_d7": ["bch", "--degree", "7"],
    "duflo_d8": ["duflo", "--degree", "8"],
    "kv_solve_d3_symmetric": ["kv-solve", "--degree", "3", "--gauge", "symmetric"],
    "kv_solve_d3_minimal_norm": ["kv-solve", "--degree", "3", "--gauge", "minimal-norm"],
    "assoc_solve_d4_even": ["assoc-solve", "--degree", "4", "--parity", "even"],
    "assoc_solve_d5_unconstrained_minus": ["assoc-solve", "--degree", "5", "--parity",
                                           "unconstrained", "--hexagon-sign", "-1"],
    "graphs_wheel_5": ["graphs", "--type", "wheel", "--count", "5"],
    "braid_12_of_3": ["braid", "--i", "1", "--j", "2", "--strands", "3"],
    "membership_d3": ["membership", "--input", str(GOLDEN / "membership_input.json")],
    "check_all_d3": ["check", "all", "--input", str(GOLDEN / "assoc_element_d3.json")],
    "check_pentagon_d3": ["check", "pentagon", "--input",
                          str(GOLDEN / "assoc_element_d3.json")],
    "exp_taut_d6": ["exp", "--input", str(GOLDEN / "taut_input_d6.json")],
    "jcocycle_taut_d6": ["jcocycle", "--input", str(GOLDEN / "taut_input_d6.json")],
    "compose_exp_taut_d6": ["compose", "--input", str(GOLDEN / "exp_taut_d6.json"),
                            "--input", str(GOLDEN / "exp_taut_d6.json")],
}


def run_verb(argv):
    return subprocess.run([sys.executable, "-m", "kvlie.cli"] + argv,
                          capture_output=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_is_pinned(name):
    res = run_verb(CASES[name])
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == (GOLDEN / f"{name}.json").read_bytes()
