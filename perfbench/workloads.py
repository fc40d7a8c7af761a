"""Fixed item lists of the wordeq benchmark.

An item is one call a user makes: a forcing verdict, a conjecture scan,
an enumeration, the lemma suite, a family-grid sweep or a CLI command.
Every input is exhaustive at its bound, so the workload seed can only
change the order of the items in a pass, never the amount of work.

This module does not import wordeq: the orchestrator and the reference
checker use it too, and they must run without the program.
"""

from __future__ import annotations

from dataclasses import dataclass

# Shards used by the sharded stage of the traced run.  It is passed
# explicitly; the benchmark never reads WORDEQ_SHARDS or the processor
# count to pick it.
SHARDS = 2

THEOREM_TRIPLES = ((2, 3, 1), (1, 3, 2), (2, 3, 2), (3, 3, 1), (2, 4, 1), (1, 4, 2))

# Oracle names in run_lemma_suite order, with the bounds it derives from
# its size knob.  The traced run calls each check_* with these bounds and
# compares the list of results with the suite's pinned reference, so a
# drift between this table and run_lemma_suite shows as a failure.
ORACLES = (
    ("periodicity-lemma", "check_periodicity_lemma"),
    ("code-prefix-bound", "check_code_prefix_bound"),
    ("code-suffix-bound", "check_code_suffix_bound"),
    ("overlap-commutation", "check_overlap_commutation"),
    ("conjugacy-transfer", "check_conjugacy_transfer"),
    ("cross-set-imprimitivity", "check_cross_set"),
    ("imprimitive-conjugacy", "check_imprimitive_conjugacy"),
    ("imprimitive-set-shape", "check_imprimitive_set_shape"),
    ("power-shape", "check_power_shape"),
    ("prefix-power-absorption", "check_prefix_power_absorption"),
    ("short-prefix-absorption", "check_short_prefix_absorption"),
    ("straddling-factor-commutation", "check_straddling_factor_commutation"),
    ("aligned-prefix-difference", "check_aligned_prefix_difference"),
    ("aligned-suffix-difference", "check_aligned_suffix_difference"),
)


def oracle_bounds(knob: int) -> list[dict]:
    """Keyword arguments run_lemma_suite(knob) passes to each check_*, in ORACLES order."""
    word_cap = max(1, knob - 2)
    code_cap = max(2, knob - 1)
    code_bound = {"max_xy_total": knob + 2, "max_code_len": max(1, knob - 2)}
    code_set = {"max_word_len": word_cap, "max_code_len": code_cap}
    absorb = {"max_word_len": word_cap, "max_exp": 3}
    aligned = {"max_v_len": word_cap, "max_exp": 3}
    return [
        {"max_root_len": max(2, knob - 1)},
        code_bound,
        code_bound,
        {"max_word_len": max(2, 2 * (knob - 1))},
        {"max_u_len": max(1, knob - 1), "max_z_len": knob + 1},
        {"max_word_len": word_cap, "max_exp": max(1, knob)},
        code_set,
        code_set,
        code_set,
        absorb,
        absorb,
        aligned,
        aligned,
        aligned,
    ]


def candidate_pairs(exps: tuple[int, int, int], alphabet: int, bound: int) -> int:
    """Number of (x, y) candidates with non-empty words and |x^i y^j x^k| <= bound.

    This is the work unit of a solver item.  It is computed from the
    input alone, so it stays fixed when a later solver visits fewer pairs.
    """
    i, j, k = exps
    total = 0
    for lx in range(1, bound // (i + k) + 1):
        for ly in range(1, (bound - (i + k) * lx) // j + 1):
            total += alphabet ** (lx + ly)
    return total


@dataclass(frozen=True)
class Item:
    """One call of a workload.

    kind is one of "verdict", "scan", "solve" (library solver calls),
    "suite", "grid" and "cli" (a CLI verify command).  args holds the
    call's parameters: for solver kinds and "cli" (exps, alphabet,
    bound); for "suite" the size knob; for "grid" (max_param_len, max_k,
    max_j).
    """

    id: str
    kind: str
    args: tuple

    @property
    def solver(self) -> tuple[tuple[int, int, int], int, int] | None:
        """(exps, alphabet, bound) of the solver search this item runs, if any."""
        if self.kind in ("verdict", "scan", "solve", "cli"):
            return self.args
        return None

    @property
    def work_units(self) -> int:
        """Candidate pairs for solver items; oracle cases are added from the references."""
        s = self.solver
        return candidate_pairs(*s) if s else 0


def _verdict(exps, bound):
    return Item(f"verdict-{''.join(map(str, exps))}-a2-b{bound}", "verdict", (exps, 2, bound))


def _scan(exps, bound):
    return Item(f"scan-{''.join(map(str, exps))}-a2-b{bound}", "scan", (exps, 2, bound))


def _solve(exps, alphabet, bound):
    return Item(f"solve-{''.join(map(str, exps))}-a{alphabet}-b{bound}", "solve", (exps, alphabet, bound))


def _cli_verify(exps, bound):
    return Item(f"cli-verify-{''.join(map(str, exps))}-b{bound}", "cli", (exps, 2, bound))


def cli_argv(item: Item) -> list[str]:
    """The wordeq.cli.main arguments of a cli item: verify, JSON output, one shard."""
    (i, j, k), alphabet, bound = item.args
    return ["verify", "--i", str(i), "--j", str(j), "--k", str(k), "--alphabet", str(alphabet),
            "--max-len", str(bound), "--format", "json", "--shards", "1"]


# The full sizes keep one pass under about a second on a 2-CPU host, so a
# run of BENCHMARK.json's run_seconds holds enough passes for a tail
# percentile with ten passes beyond it.  The first theorem triple goes
# through wordeq.cli.main, so the cli layer is on a measured path; it
# runs with --shards 1 because sharded wall time on a shared 2-CPU host
# depends on what else holds the second CPU.
FULL = {
    "forcing": [_cli_verify(THEOREM_TRIPLES[0], 30)]
    + [_verdict(t, 30) for t in THEOREM_TRIPLES[1:]]
    + [_scan((3, 2, 1), 30), _scan((4, 2, 2), 30)],
    "witnesses": [
        _solve((1, 2, 1), 4, 12),
        _solve((1, 2, 1), 2, 20),
        _solve((2, 2, 1), 2, 25),
        _solve((1, 3, 1), 2, 21),
        Item("grid-l2-k2-j5", "grid", (2, 2, 5)),
    ],
    "lemmas": [Item("suite-5", "suite", (5,))],
}

# Tiny sizes for the benchmark's self-test.  The family witnesses need
# (2,2,1) at bound 25 and (1,3,1) at bound 17, so those stay.
TINY = {
    "forcing": [_cli_verify((2, 3, 1), 14), _scan((3, 2, 1), 14)],
    "witnesses": [
        _solve((1, 2, 1), 3, 8),
        _solve((2, 2, 1), 2, 25),
        _solve((1, 3, 1), 2, 17),
        Item("grid-l1-k1-j3", "grid", (1, 1, 3)),
    ],
    "lemmas": [Item("suite-4", "suite", (4,))],
}

WORKLOADS = tuple(FULL)

# Items whose orbits must contain a closed-form family witness, by family.
FAMILY_ITEMS = {
    "solve-221-a2-b25": "j2",
    "solve-131-a2-b21": "i1k1",
    "solve-131-a2-b17": "i1k1",
}


def items(workload: str, tiny: bool = False) -> list[Item]:
    table = TINY if tiny else FULL
    if workload not in table:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(table)}")
    return list(table[workload])


def all_items() -> list[Item]:
    return [it for table in (FULL, TINY) for its in table.values() for it in its]
