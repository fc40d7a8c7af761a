"""Confirm the pinned references without wordeq.

The references in refs.json were recorded from the program.  This module
re-derives what it can by its own means, so that a reference cannot
carry a wrong answer into the benchmark unnoticed:

- every witness is re-checked by plain string equality of both sides and
  by a primitive-root test written here;
- solver counts and orbit lists are re-derived by an own exhaustive
  search, with an own canonical form (first-occurrence relabelling, the
  side swap and, when i == k, the mirror);
- the two closed-form family witnesses are rebuilt from their formulas
  and must lie in the orbits of their items;
- the family-grid counts are recounted, and every oracle must pass.
"""

from __future__ import annotations

import json
from itertools import product

from workloads import FAMILY_ITEMS, ORACLES, Item


def prim_root(w: str) -> str:
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d]
    raise ValueError("empty word has no primitive root")


def sides(exps, x, y, u, v) -> tuple[str, str]:
    i, j, k = exps
    return x * i + y * j + x * k, u * i + v * j + u * k


def nonperiodic(x, y, u, v) -> bool:
    return len({prim_root(w) for w in (x, y, u, v) if w}) > 1


def _relabel(words: tuple[str, ...]) -> tuple[str, ...]:
    # Naming letters in order of first occurrence gives the least image
    # under every injective relabelling, because word lengths are fixed.
    names: dict[str, str] = {}
    for c in "".join(words):
        if c not in names:
            names[c] = chr(ord("a") + len(names))
    return tuple("".join(names[c] for c in w) for w in words)


def canonical(exps, quad: tuple[str, str, str, str]) -> tuple[str, str, str, str]:
    x, y, u, v = quad
    bases = [(x, y, u, v), (u, v, x, y)]
    if exps[0] == exps[2]:
        bases += [tuple(w[::-1] for w in t) for t in bases]
    return min(_relabel(t) for t in bases)


def search(exps, alphabet: int, bound: int) -> tuple[int, list[tuple[str, str, str, str]]]:
    """Distinct solutions with non-empty words: total count and sorted canonical orbits."""
    i, j, k = exps
    letters = "abcdefghijklmnopqrstuvwxyz"[:alphabet]
    total = 0
    orbits = set()
    for lx in range(1, bound // (i + k) + 1):
        for ly in range(1, (bound - (i + k) * lx) // j + 1):
            n = (i + k) * lx + j * ly
            for xt in product(letters, repeat=lx):
                x = "".join(xt)
                for yt in product(letters, repeat=ly):
                    y = "".join(yt)
                    w = x * i + y * j + x * k
                    for lu in range(1, (n - j) // (i + k) + 1):
                        rest = n - (i + k) * lu
                        if rest % j:
                            continue
                        u = w[:lu]
                        v = w[i * lu:i * lu + rest // j]
                        if (u, v) == (x, y) or u * i + v * j + u * k != w:
                            continue
                        total += 1
                        if nonperiodic(x, y, u, v):
                            orbits.add(canonical(exps, (x, y, u, v)))
    return total, sorted(orbits)


def family_j2(alpha: str, beta: str, k: int):
    ak = alpha * k
    x = alpha * (2 * k + 1) + (beta + ak) * 2
    v = (ak + beta) * 2 + (alpha * (3 * k + 1) + beta + ak + beta) * k
    return (k + 1, 2, k), (x, beta + ak, alpha, v)


def family_i1k1(alpha: str, gamma: str, j: int):
    v = alpha + gamma * j + alpha
    return (1, j, 1), (alpha + v * ((j - 1) // 2) + alpha, gamma, alpha, v)


FAMILIES = {"j2": family_j2("a", "b", 1), "i1k1": family_i1k1("a", "b", 3)}


def _quads(objs: list[dict]) -> list[tuple[str, str, str, str]]:
    return [(o["x"], o["y"], o["u"], o["v"]) for o in objs]


def check_solver_ref(item: Item, ref: dict) -> list[str]:
    """Problems with a solver reference (a verdict or report JSON object)."""
    exps, alphabet, bound = item.solver
    problems = []
    head = (ref.get("i"), ref.get("j"), ref.get("k"), ref.get("alphabet"), ref.get("bound"))
    if head != (*exps, alphabet, bound):
        problems.append(f"{item.id}: parameters {head} do not match the item")
    orbits = _quads(ref["witnesses"] if "witnesses" in ref else ref["nonperiodic"])
    forced = ref["forced_up_to_bound"] if "witnesses" in ref else ref["periodic_only"]
    if forced != (not orbits):
        problems.append(f"{item.id}: verdict disagrees with the witness list")
    for quad in orbits:
        lhs, rhs = sides(exps, *quad)
        if lhs != rhs or len(lhs) > bound:
            problems.append(f"{item.id}: {quad} is not a solution within the bound")
        elif not nonperiodic(*quad):
            problems.append(f"{item.id}: {quad} is periodic")
        elif canonical(exps, quad) != quad or set("".join(quad)) - set("abcdefghijklmnopqrstuvwxyz"[:alphabet]):
            problems.append(f"{item.id}: {quad} is not a canonical representative")
    if orbits != sorted(set(orbits)):
        problems.append(f"{item.id}: orbit list is not sorted and distinct")
    family = FAMILY_ITEMS.get(item.id)
    if family:
        fexps, fquad = FAMILIES[family]
        if tuple(fexps) != tuple(exps) or canonical(exps, fquad) not in orbits:
            problems.append(f"{item.id}: family {family} witness is missing")
    total, found = search(exps, alphabet, bound)
    if total != ref["total_solutions"]:
        problems.append(f"{item.id}: own search finds {total} solutions, reference has {ref['total_solutions']}")
    if found != orbits:
        problems.append(f"{item.id}: own search finds {len(found)} orbits, reference has {len(orbits)}")
    return problems


def check_suite_ref(item: Item, ref: list) -> list[str]:
    names = [r["name"] for r in ref]
    problems = []
    if names != [name for name, _ in ORACLES]:
        problems.append(f"{item.id}: oracle list {names} differs from the fourteen oracles")
    problems += [f"{item.id}: oracle {r['name']} fails" for r in ref
                 if not r["passed"] or r["failures"] or r["cases"] < 1]
    return problems


def check_grid_ref(item: Item, ref: dict) -> list[str]:
    max_len, max_k, max_j = item.args
    words = ["".join(t) for n in range(1, max_len + 1) for t in product("ab", repeat=n)]
    pairs = sum(1 for p in words for q in words if p + q != q + p)
    expected = {"pairs": pairs, "j2_instances": pairs * max_k,
                "i1k1_instances": pairs * len(range(3, max_j + 1, 2))}
    return [] if ref == expected else [f"{item.id}: grid counts {ref} differ from {expected}"]


def check_cli_ref(item: Item, ref: dict) -> list[str]:
    report = json.loads(ref["stdout"])
    problems = check_solver_ref(item, report)
    forced = report["forced_up_to_bound"] if "witnesses" in report else report["periodic_only"]
    if ref["exit"] != (0 if forced else 2):
        problems.append(f"{item.id}: exit code {ref['exit']} does not match the verdict")
    return problems


def check_refs(items: list[Item], refs: dict) -> list[str]:
    """Every problem found in the references of the given items."""
    problems = []
    for item in items:
        ref = refs.get(item.id)
        if ref is None:
            problems.append(f"{item.id}: no reference")
        elif item.kind == "suite":
            problems += check_suite_ref(item, ref)
        elif item.kind == "grid":
            problems += check_grid_ref(item, ref)
        elif item.kind == "cli":
            problems += check_cli_ref(item, ref)
        else:
            problems += check_solver_ref(item, ref)
    return problems
