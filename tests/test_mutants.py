"""The command line of the standing mutation check, tests/mutants.py."""

import subprocess
import sys
from pathlib import Path

MUTANTS = Path(__file__).resolve().parent / "mutants.py"


def test_mutation_check_refuses_an_empty_selection():
    # a -k that selects no mutant must stop at once with exit 2, not run
    # pytest with no node ids (the whole suite) and report 0 of 0 caught
    proc = subprocess.run([sys.executable, str(MUTANTS), "-k", "no-such-mutant"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "'no-such-mutant'" in proc.stdout
