"""The standing mutation check, tests/mutants.py: its command line and its list."""

import os
import re
import subprocess
import sys

from mutants import MUTANTS, ROOT

SCRIPT = ROOT / "tests" / "mutants.py"


def test_mutation_check_refuses_an_empty_selection():
    # a -k that selects no mutant must stop at once with exit 2, not run
    # pytest with no node ids (the whole suite) and report 0 of 0 caught
    proc = subprocess.run([sys.executable, str(SCRIPT), "-k", "no-such-mutant"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "'no-such-mutant'" in proc.stdout


def test_every_fragment_occurs_once_in_its_file():
    counts = {m.name: (ROOT / m.path).read_text().count(m.fragment) for m in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_every_node_id_that_must_fail_is_collected():
    # a renamed test or parameter would make the mutation check stop with
    # an error; this finds it in the suite's own run
    ids = {i for m in MUTANTS for i in m.must_fail}
    files = sorted({i.split("::")[0] for i in ids})
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *files],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ids - set(proc.stdout.splitlines()) == set()


def test_ci_runs_the_mutants_of_every_file_once():
    # the mutation check runs in one CI step per source file
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    paths = re.findall(r"python tests/mutants\.py --path (\S+)", workflow)
    assert sorted(paths) == sorted({m.path for m in MUTANTS})
