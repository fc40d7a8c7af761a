"""Command line frontend: verify, solve, family, and lemmas subcommands.

Exit codes: 0 success (or pattern forced), 2 non-periodic witnesses
found, 3 lemma oracle violation, 64 usage error, 65 invalid parameter
words.  The library decides which parameter values are in range: a
``ParameterError`` it raises becomes a usage error (64) carrying its
message, while any other exception stays a traceback.  JSON output is
the stable machine interface; text output is for humans and may change.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterable, Iterator, Sequence

from .equations import (
    EquationInstance,
    Exponents,
    SolutionReport,
    enumerate_solutions,
    forcing_verdict,
    theorem_applies,
)
from .families import CommutingParametersError, family_i1k1, family_j2, validate_family_grid
from .oracles import run_lemma_suite
from .words import ParameterError, check_letters

EX_OK = 0
EX_WITNESS = 2
EX_LEMMA = 3
EX_USAGE = 64
EX_DATA = 65

# what each command returns: its JSON object, its text lines and its exit code
Output = tuple[object, Iterable[str], int]

# each instance family: its builder, its second parameter word and its exponent
FAMILIES = {"j2": (family_j2, "beta", "k"), "i1k1": (family_i1k1, "gamma", "j")}
# the flags each family reads, with their defaults (None: required); argparse
# leaves them None, so that a flag the chosen family does not read can be refused
FAMILY_FLAGS = {"j2": {"alpha": None, "beta": None, "param_k": 1},
                "i1k1": {"alpha": None, "gamma": None, "param_j": 3},
                "grid": {"max_len": 2, "param_k": 1, "param_j": 3}}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--i", type=int, required=True, help="left exponent")
    p.add_argument("--j", type=int, required=True, help="middle exponent")
    p.add_argument("--k", type=int, required=True, help="right exponent")
    p.add_argument("--alphabet", type=int, default=2, help="alphabet size (default 2)")
    p.add_argument("--max-len", type=int, required=True,
                   help="bound on the length of the common value x^i y^j x^k")
    p.add_argument("--shards", type=int, default=1,
                   help="shard count, >= 1 (default 1); "
                        "accepted for compatibility, the search runs in one process")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(prog="wordeq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_verify = sub.add_parser("verify",
                              help="check that a^i b^j a^k forces periodicity up to the bound")
    _add_search_flags(p_verify)
    _add_format_flag(p_verify)
    p_verify.set_defaults(subparser=p_verify, run=cmd_verify)

    p_solve = sub.add_parser("solve",
                             help="enumerate and classify all solutions up to the bound")
    _add_search_flags(p_solve)
    _add_format_flag(p_solve)
    p_solve.add_argument("--distinct-only", action=argparse.BooleanOptionalAction, default=True,
                         help="skip the trivial solutions (x, y) == (u, v)")
    p_solve.set_defaults(subparser=p_solve, run=cmd_solve)

    p_family = sub.add_parser("family",
                              help="build a boundary family instance, or validate a grid of them")
    p_family.add_argument("--family", choices=(*FAMILIES, "grid"), required=True)
    p_family.add_argument("--alpha", default=None, help="first parameter word")
    p_family.add_argument("--beta", default=None, help="second parameter word (family j2)")
    p_family.add_argument("--gamma", default=None, help="second parameter word (family i1k1)")
    p_family.add_argument("--param-k", type=int, help="k for family j2, or grid maximum")
    p_family.add_argument("--param-j", type=int, help="j for family i1k1, or grid maximum")
    p_family.add_argument("--alphabet", type=int, default=2)
    p_family.add_argument("--max-len", type=int, help="grid mode: maximum parameter word length")
    _add_format_flag(p_family)
    p_family.set_defaults(subparser=p_family, run=cmd_family)

    p_lemmas = sub.add_parser("lemmas",
                              help="run the bounded oracles for the classical lemmas")
    p_lemmas.add_argument("--max-len", type=int, default=6,
                          help="size knob for the oracle ranges (default 6)")
    _add_format_flag(p_lemmas)
    p_lemmas.set_defaults(subparser=p_lemmas, run=cmd_lemmas)

    return parser


def _report_lines(report: SolutionReport, *tail: str) -> Iterator[str]:
    i, j, k = report.exps
    yield f"pattern a^{i} b^{j} a^{k}, alphabet {report.alphabet_size}, bound {report.bound}"
    yield f"total solutions: {report.total_solutions}"
    if report.periodic_only:
        yield "non-periodic solutions: none"
    else:
        yield f"non-periodic orbits: {len(report.nonperiodic)}"
        for inst in report.nonperiodic:
            yield f"witness: x={inst.x!r} y={inst.y!r} u={inst.u!r} v={inst.v!r}"
    yield from tail


def _instance_lines(family: str, inst: EquationInstance) -> Iterator[str]:
    i, j, k = inst.exps
    yield f"family {family}: solution of x^{i} y^{j} x^{k} = u^{i} v^{j} u^{k}"
    for name, word in zip("xyuv", inst.words()):
        yield f"{name} = {word}"
    common = inst.lhs()
    yield f"common value ({len(common)} letters): {common}"


def cmd_verify(args: argparse.Namespace) -> Output:
    exps = Exponents(args.i, args.j, args.k)
    verdict = forcing_verdict(exps, args.alphabet, args.max_len, shards=args.shards)
    if not theorem_applies(exps):
        print(
            f"note: exponents ({exps.i},{exps.j},{exps.k}) are outside the proven "
            "forcing range (j >= 3, i + k >= 3, i k != 0); running anyway",
            file=sys.stderr,
        )
    forced = verdict.forced_up_to_bound
    lines = _report_lines(verdict.report, f"forced up to bound: {'yes' if forced else 'no'}")
    return verdict.to_json_obj(), lines, EX_OK if forced else EX_WITNESS


def cmd_solve(args: argparse.Namespace) -> Output:
    report = enumerate_solutions(
        (args.i, args.j, args.k), args.alphabet, args.max_len,
        distinct_only=args.distinct_only, shards=args.shards,
    )
    return report.to_json_obj(), _report_lines(report), EX_OK if report.periodic_only else EX_WITNESS


def cmd_family(args: argparse.Namespace) -> Output:
    reads = FAMILY_FLAGS[args.family]
    for name in (name for flags in FAMILY_FLAGS.values() for name in flags if name not in reads):
        if getattr(args, name) is not None:
            args.subparser.error(f"family {args.family} does not read --{name.replace('_', '-')}")
    flag = {}
    for name, default in reads.items():
        flag[name] = default if getattr(args, name) is None else getattr(args, name)
        if flag[name] is None:
            required = f"--{name.replace('_', '-')} is required"
            args.subparser.error(required if name == "alpha" else f"{required} for family {args.family}")

    if args.family == "grid":
        summary = validate_family_grid(flag["max_len"], flag["param_k"], flag["param_j"], args.alphabet)
        obj = {**summary._asdict(), "total": summary.total, "all_valid": True}
        lines = [f"parameter pairs: {summary.pairs}",
                 f"instances checked: {summary.total} "
                 f"({summary.j2_instances} with j=2, {summary.i1k1_instances} with i=k=1)",
                 "all valid and non-periodic"]
        return obj, lines, EX_OK

    build, second_name, exp_name = FAMILIES[args.family]
    alpha, second, exp = flag["alpha"], flag[second_name], flag[f"param_{exp_name}"]
    check_letters(alpha, args.alphabet)
    check_letters(second, args.alphabet)
    inst = build(alpha, second, exp)
    obj = inst.to_json_obj()
    obj["family"] = args.family
    obj["params"] = {"alpha": alpha, second_name: second, exp_name: exp}
    return obj, _instance_lines(args.family, inst), EX_OK


def cmd_lemmas(args: argparse.Namespace) -> Output:
    results = run_lemma_suite(args.max_len)
    obj = [r.to_json_obj() for r in results]
    lines = (f"PASS {r.name} ({r.cases} cases)" if r.passed else f"FAIL {r.name}: {r.failures[0]}"
             for r in results)
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"wordeq lemmas: {failed[0].name} violated: {failed[0].failures[0]}", file=sys.stderr)
    return obj, lines, EX_LEMMA if failed else EX_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj, lines, code = args.run(args)
    except ParameterError as err:
        args.subparser.error(str(err))
    except CommutingParametersError as err:
        print(f"{args.subparser.prog}: {err}", file=sys.stderr)
        return EX_DATA
    print(json.dumps(obj, indent=2) if args.format == "json" else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
