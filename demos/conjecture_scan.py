#!/usr/bin/env python3
"""Scan the open case: j = 2 with |i - k| >= 2.

The only known non-periodic solutions with j = 2 have i = k + 1.  The
conjecture is that |i - k| >= 2 forces periodicity; the scan looks for
counterexamples within a length budget and reports whatever it finds.

Run: python demos/conjecture_scan.py
"""

from wordeq import conjecture_scan, split_even_j, enumerate_solutions

print("== conjecture scan at bound 160 ==")
for exps in [(3, 2, 1), (4, 2, 2), (5, 2, 1), (5, 2, 3)]:
    report = conjecture_scan(exps, alphabet_size=2, max_total_len=160)
    i, j, k = exps
    if report.periodic_only:
        print(f"  a^{i} b^{j} a^{k}: consistent with the conjecture "
              f"({report.total_solutions} solutions, all periodic)")
    else:
        print(f"  a^{i} b^{j} a^{k}: COUNTEREXAMPLE FOUND")
        for inst in report.nonperiodic:
            print(f"    x={inst.x!r} y={inst.y!r} u={inst.u!r} v={inst.v!r}")

print()
print("== why i = k with even j behaves differently: the equation splits ==")
report = enumerate_solutions((1, 2, 1), alphabet_size=2, max_total_len=12)
inst = next(i for i in report.solutions if i.words() == ("babab", "a", "bab", "aba"))
halves = split_even_j(inst)
print(f"  x={inst.x!r} y={inst.y!r} u={inst.u!r} v={inst.v!r}")
print(f"  splits into x y = u v ({halves[0][0]!r}) and y x = v u ({halves[1][0]!r});")
print("  each half is an independent equation, which is where the i = k")
print("  non-periodic solutions come from")
