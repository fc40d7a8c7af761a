"""Byte-identity pins: the exit code and the sha256 of stdout of fixed commands.

Each pin runs ``python <args>`` from the checkout root against that
checkout's ``src``, never an installed copy.  Stderr, which holds argparse's
usage text on a usage error, is not hashed.  Output from a set is printed
sorted, so no pin depends on ``PYTHONHASHSEED``.  A hash changes only by an
edit to ``PINS`` that CHANGES.md names; ``PYTHONPATH=src python <args> |
sha256sum`` shows a command's hash.  Every script in ``demos/`` is a pin,
and the docstring examples of every ``wordeq`` module and of README.md's
library quick start run here too.
"""

import doctest
import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import wordeq as package

ROOT = Path(__file__).resolve().parent.parent


class Pin(NamedTuple):
    name: str
    args: tuple[str, ...]
    exit: int
    timeout: float
    sha256: str


def wordeq(command: str) -> tuple[str, ...]:
    return ("-m", "wordeq", *command.split())


ORACLES = "import json; from wordeq import oracles as o; print(json.dumps([r.to_json_obj() for r in ({})], indent=2))"

# 14 triples x alphabets 2 and 3 x distinct_only x allow_empty: 112 reports
SOLVER_SWEEP = """
import wordeq
for e in [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 2, 2), (2, 2, 1), (1, 3, 1), (2, 3, 1),
          (3, 2, 1), (0, 1, 1), (0, 2, 1), (1, 1, 0), (2, 1, 2), (2, 2, 2), (1, 4, 1)]:
    for a in (2, 3):
        for d in (True, False):
            for ae in (False, True):
                print(wordeq.enumerate_solutions(e, a, 7 if ae or a == 3 else 10,
                      distinct_only=d, allow_empty=ae).to_json(), end="")
"""

# every transfer relation u z = z v with |u|, |z| <= 4 over "ab", the power
# factors of short roots, and the imprimitive set, expansions and power
# shapes of every code of words up to 3 letters
PRIMITIVES_SWEEP = """
import json
from wordeq import (BinaryCode, all_words, classify_x_power, commutes, exponent,
                    power_factors, transfer_decomposition, x_primitive_imprimitive_set)
ws = [""] + list(all_words(4, "ab"))
out = [[u, z, *transfer_decomposition(u, z, (u + z)[len(z):])._asdict().values()]
       for u in ws[1:] for z in ws if u + z == z + (u + z)[len(z):]]
out += [[p, n, sorted(power_factors(p, n))] for p in ws[:15] for n in range(7)]
for x in ws[1:15]:
    for y in ws[1:15]:
        if not commutes(x, y):
            code = BinaryCode(x, y)
            s = x_primitive_imprimitive_set(code, 6)
            out.append([x, y, s.to_json_obj(), [code.expand(c) for c in all_words(3, "xy")],
                        [classify_x_power(c, exponent(c.expansion))._asdict() for c in s.members]])
print(json.dumps(out))
"""

PINS = [
    # the lemma suite; knob 8 reaches code bounds at |x|+|y| <= 10 and code length 6
    Pin("lemmas-7", wordeq("lemmas --max-len 7 --format json"), 0, 120,
        "886c459bba7de068ba69851a93d150cb1c414217ee33a3a837f6fb2d4f555007"),
    Pin("lemmas-8", wordeq("lemmas --max-len 8 --format json"), 0, 120,
        "cfcb3dd8c994dffa9c1ea7a9fa95a2d57e69db91471a12204a28f7bf918b2139"),
    Pin("lemmas-9", wordeq("lemmas --max-len 9 --format json"), 0, 120,
        "af1831ad8551ae85f59fed0a134698a570b94653ffe402ed753d24305a57ad55"),
    Pin("lemmas-10", wordeq("lemmas --max-len 10 --format json"), 0, 120,
        "20fbaf7464f42b14b94f1c6912475834d7a7ef5bc0ef93b9ece7c2ec901ee398"),
    # oracles beyond the suite's ranges
    Pin("oracles-wide", ("-c", ORACLES.format(
        "o.check_overlap_commutation(20), o.check_periodicity_lemma(10), "
        "o.check_prefix_power_absorption(6, 5), o.check_short_prefix_absorption(6, 5)")), 0, 60,
        "c7f7ce7872f45be59a77315eb0a72a1cb21009112e19adb10e07f708b43359e1"),
    Pin("absorption-wide", ("-c", ORACLES.format(
        "o.check_prefix_power_absorption(9, 4), o.check_short_prefix_absorption(9, 4)")), 0, 60,
        "3d534462373c14292cf3da260b457eb5dbefa36206cd24d1c3ff2481d51bd9a3"),
    Pin("factor-pairs-wide", ("-c", ORACLES.format(
        "o.check_straddling_factor_commutation(7, 6), o.check_aligned_prefix_difference(7, 6), "
        "o.check_aligned_suffix_difference(7, 6)")), 0, 60,
        "9dc3722df9962a512d8088898da591f16d2fe44946154a38cb4da393da942641"),
    # the families
    Pin("family-grid-12", wordeq("family --family grid --max-len 12 --alphabet 3 --param-k 3 "
                                 "--param-j 7 --format json"), 0, 20,
        "ee80e81327d9ca0fcfb6c0b4ae4da42a8920afc0f2111f235b7335f3157199f5"),
    Pin("family-j2", wordeq("family --family j2 --alpha ab --beta b --param-k 3 --format json"), 0, 20,
        "32e3498608e3a4e6f6c6f5adf778c7c17169202cb762c72600e66b2f96f8b303"),
    # the solver: witnesses found (exit 2) and the forced (3,2,1) scan (exit 0)
    Pin("solve-121-26", wordeq("solve --i 1 --j 2 --k 1 --alphabet 26 --max-len 16 --format json"), 2, 60,
        "37cf41e69a919ef2ab06e873b0d210fe407e0cd50651db414f87e8e687ccda34"),
    Pin("solve-121-40", wordeq("solve --i 1 --j 2 --k 1 --max-len 40 --format json"), 2, 60,
        "dad5b516bb2307bc0894ce9ec6ecc1dbcd8f90a033321bd5eecf4b8d52d13f26"),
    Pin("solve-321-160", wordeq("solve --i 3 --j 2 --k 1 --max-len 160 --format json"), 0, 60,
        "0aa7c8d9442e4be1f5bfd9a1664603fa86973681e7336a447b74e091f7b10d07"),
    Pin("solve-131-21", wordeq("solve --i 1 --j 3 --k 1 --max-len 21 --no-distinct-only --format json"), 2, 60,
        "6e620c00ee7e2af89e6dd4400ab1c5ab5852b528814d77593b5c7c4c3658d85c"),
    Pin("verify-131-17", wordeq("verify --i 1 --j 3 --k 1 --max-len 17 --format json"), 2, 60,
        "37e33f67ed0644eba35289b19bd50466f628695bcea0d2aa7850395ed40634fd"),
    # empty words with mirrors, i = 0 side swaps
    Pin("solve-edge-cases", ("-c", "import json, wordeq; print(json.dumps([wordeq.enumerate_solutions("
        "e, a, b, allow_empty=ae).to_json_obj() for e, a, b, ae in [((1, 1, 1), 3, 9, True), "
        "((0, 2, 1), 3, 10, False), ((0, 1, 1), 2, 8, True), ((2, 1, 2), 2, 15, True)]], indent=2))"), 0, 60,
        "9f9da6038ad5e8b46d07bb0786d610d887f532c9f686e39add62ad8167a5093b"),
    # every tuple of words up to 2 letters over abc, i = 0 and i == k included
    Pin("canonical-instance", ("-c", 'import itertools, json; from wordeq.equations import EquationInstance, '
        'Exponents, canonical_instance; ws = [""] + ["".join(p) for n in (1, 2) for p in itertools.product('
        '"abc", repeat=n)]; print(json.dumps([canonical_instance(EquationInstance(Exponents(*e), *t), 3)'
        '.words() for e in [(1, 1, 1), (0, 1, 1), (1, 2, 2), (2, 1, 2)] for t in itertools.product(ws, '
        'repeat=4)]))'), 0, 60,
        "26c069a332547ef11fb485065272bdea93c925ef58b92f1c62c1618a41563ba0"),
    # exit codes of a real process: 64 usage error, 65 commuting family words
    Pin("verify-j0", wordeq("verify --i 1 --j 0 --k 1 --max-len 5"), 64, 20,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    Pin("grid-param-k-501", wordeq("family --family grid --param-k 501"), 64, 20,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    Pin("grid-max-len-1520", wordeq("family --family grid --max-len 1520 --alphabet 26"), 64, 20,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    Pin("j2-commuting", wordeq("family --family j2 --alpha a --beta aa"), 65, 20,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    Pin("solver-sweep", ("-c", SOLVER_SWEEP), 0, 60,
        "e3bbd5f7272c0bdf195ec99219acbb7d61524b72b766f0e30438d272b00771dc"),
    Pin("primitives-sweep", ("-c", PRIMITIVES_SWEEP), 0, 60,
        "2f5f005cc7f55f1b8b254ac5f7a71fcbb6117decc12cf342486be4864446cca9"),
    # the walk-throughs in demos/, one pin per script
    Pin("demo-binary_code_imprimitivity", ("demos/binary_code_imprimitivity.py",), 0, 60,
        "cfb2e024cc3858a525e9e686e2c429cb3b604659b54c5c4934e0b2e8ecfa23a0"),
    Pin("demo-boundary_families", ("demos/boundary_families.py",), 0, 60,
        "5e76982001471a0d1e0296b10cb906b3d1e23afc759ace317bf8b68a28f18ece"),
    Pin("demo-conjecture_scan", ("demos/conjecture_scan.py",), 0, 60,
        "a82279d1d3bb3e31d9b4cb897b5a4ce079a9187525f952f546b5f05ebefbc373"),
    Pin("demo-forcing_verification", ("demos/forcing_verification.py",), 0, 60,
        "2c030a89998d9e736053b31c881aec3aab57f6816f5b719ee62bc772ffbbcb23"),
    Pin("demo-roots_and_conjugacy", ("demos/roots_and_conjugacy.py",), 0, 60,
        "110d9260b01c6aa34acb6da788fea7e9c737bb69250c7e4233ba6c71e273e5ac"),
]

MODULES = [package.__name__, *(m.name for m in pkgutil.iter_modules(package.__path__, "wordeq."))]


@pytest.mark.parametrize("pin", PINS, ids=[pin.name for pin in PINS])
def test_output_is_pinned(pin):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *pin.args], cwd=ROOT, env=env,
                          capture_output=True, timeout=pin.timeout)
    assert proc.returncode == pin.exit, proc.stderr.decode()[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == pin.sha256


def test_every_demo_is_pinned():
    demos = {f"demos/{path.name}" for path in (ROOT / "demos").glob("*.py")}
    assert demos == {pin.args[0] for pin in PINS if pin.name.startswith("demo-")}


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_readme_examples():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
