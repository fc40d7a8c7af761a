import json
import subprocess
import sys

import pytest

from wordeq import cli
from wordeq.cli import main
from wordeq.equations import (EquationInstance, Exponents, canonical_instance, enumerate_solutions,
                              forcing_verdict)
from wordeq.families import family_i1k1, family_j2, validate_family_grid
from wordeq.oracles import OracleResult, run_lemma_suite
from wordeq.words import ParameterError, alphabet, check_letters


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_forced(capsys):
    code, out, _ = run_cli(capsys, "verify", "--i", "2", "--j", "3", "--k", "1",
                           "--max-len", "18", "--shards", "1")
    assert code == 0
    assert "forced up to bound: yes" in out


def test_verify_witness_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--i", "1", "--j", "3", "--k", "1",
                             "--max-len", "17", "--shards", "1")
    assert code == 2
    assert "witness:" in out
    assert "outside the proven forcing range" in err


NOTE = ("note: exponents (1,3,1) are outside the proven forcing range "
        "(j >= 3, i + k >= 3, i k != 0); running anyway\n")


@pytest.mark.parametrize("exps, code, note", [(("1", "3", "1"), 2, NOTE), (("2", "3", "1"), 0, "")])
def test_verify_note_comes_once_after_the_search(capsys, monkeypatch, exps, code, note):
    real = cli.forcing_verdict

    def spy(*args, **kwargs):
        print("searched", file=sys.stderr)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "forcing_verdict", spy)
    i, j, k = exps
    got, out, err = run_cli(capsys, "verify", "--i", i, "--j", j, "--k", k, "--max-len", "18")
    assert got == code
    assert out.startswith(f"pattern a^{i} b^{j} a^{k}")
    assert err == "searched\n" + note


def test_verify_bound_too_small_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--i", "2", "--j", "3", "--k", "1", "--max-len", "3"])
    assert exc.value.code == 64


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--i", "2", "--nonsense"])
    assert exc.value.code == 64


def test_solve_json_contains_known_witness(capsys):
    code, out, _ = run_cli(capsys, "solve", "--i", "1", "--j", "2", "--k", "1",
                           "--max-len", "12", "--format", "json", "--shards", "1")
    assert code == 2  # witnesses found
    obj = json.loads(out)
    assert obj["periodic_only"] is False
    rep = canonical_instance(
        EquationInstance(Exponents(1, 2, 1), "babab", "a", "bab", "aba"), 2
    )
    assert rep.to_json_obj() in obj["nonperiodic"]


def test_solve_forced_case_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "solve", "--i", "2", "--j", "4", "--k", "2",
                           "--max-len", "16", "--format", "json", "--shards", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["periodic_only"] is True
    assert obj["nonperiodic"] == []


def test_solve_text_lists_each_witness(capsys):
    code, out, _ = run_cli(capsys, "solve", "--i", "1", "--j", "2", "--k", "1", "--max-len", "12")
    assert code == 2
    report = enumerate_solutions((1, 2, 1), 2, 12)
    witnesses = [f"witness: x={w.x!r} y={w.y!r} u={w.u!r} v={w.v!r}" for w in report.nonperiodic]
    assert len(witnesses) > 1
    assert out.splitlines() == [
        "pattern a^1 b^2 a^1, alphabet 2, bound 12",
        f"total solutions: {report.total_solutions}",
        f"non-periodic orbits: {len(witnesses)}",
        *witnesses,
    ]


def test_solve_text_forced_case(capsys):
    code, out, _ = run_cli(capsys, "solve", "--i", "2", "--j", "4", "--k", "2", "--max-len", "16")
    assert code == 0
    assert out.splitlines() == [
        "pattern a^2 b^4 a^2, alphabet 2, bound 16",
        "total solutions: 16",
        "non-periodic solutions: none",
    ]


def test_solve_no_distinct_only(capsys):
    code, out, _ = run_cli(capsys, "solve", "--i", "2", "--j", "4", "--k", "2",
                           "--max-len", "16", "--format", "json", "--shards", "1",
                           "--no-distinct-only")
    assert code == 2  # trivial non-commuting pairs are non-periodic solutions
    obj = json.loads(out)
    assert obj["periodic_only"] is False


def test_family_j2_json(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "j2", "--alpha", "a",
                           "--beta", "b", "--param-k", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "x": "aaababa",
        "y": "ba",
        "u": "a",
        "v": "ababaaaabab",
        "family": "j2",
        "params": {"alpha": "a", "beta": "b", "k": 1},
    }


def test_family_i1k1_text(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "i1k1", "--alpha", "a",
                           "--gamma", "b", "--param-j", "3")
    assert code == 0
    assert "aabbbaabbbaabbbaa" in out


def test_family_i1k1_json(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "i1k1", "--alpha", "a",
                           "--gamma", "b", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "x": "aabbbaa",
        "y": "b",
        "u": "a",
        "v": "abbba",
        "family": "i1k1",
        "params": {"alpha": "a", "gamma": "b", "j": 3},
    }


def test_family_choices_are_the_table_and_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--help"])
    assert exc.value.code == 0
    assert "--family {j2,i1k1,grid}" in capsys.readouterr().out
    assert [*cli.FAMILIES, "grid"] == ["j2", "i1k1", "grid"]


def test_family_commuting_parameters_exit_65(capsys):
    code, _, err = run_cli(capsys, "family", "--family", "j2", "--alpha", "a", "--beta", "aa")
    assert code == 65
    assert "commute" in err


def test_family_bad_letters_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["family", "--family", "j2", "--alpha", "a", "--beta", "c", "--alphabet", "2"])
    assert exc.value.code == 64


def test_family_grid(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "grid", "--max-len", "1",
                           "--param-k", "1", "--param-j", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pairs"] == 2 and obj["total"] == 4 and obj["all_valid"] is True


def test_family_grid_text(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "grid", "--max-len", "2",
                           "--param-k", "2", "--param-j", "5")
    assert code == 0
    summary = validate_family_grid(2, 2, 5)
    assert out.splitlines() == [
        f"parameter pairs: {summary.pairs}",
        f"instances checked: {summary.total} "
        f"({summary.j2_instances} with j=2, {summary.i1k1_instances} with i=k=1)",
        "all valid and non-periodic",
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_family_grid_prints_counts_up_to_4300_digits(capsys, fmt):
    # the longest grid at alphabet 26 that prints; --max-len 1520 exits 64
    code, out, _ = run_cli(capsys, "family", "--family", "grid", "--max-len", "1519",
                           "--alphabet", "26", "--format", fmt)
    assert code == 0
    total = validate_family_grid(1519, 1, 3, 26).total
    assert len(str(total)) == 4300
    assert str(total) in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, defaults", [
    ("family --family j2 --alpha a --beta b", "--param-k 1"),
    ("family --family i1k1 --alpha a --gamma b", "--param-j 3"),
    ("family --family grid", "--max-len 2 --param-k 1 --param-j 3"),
], ids=["j2", "i1k1", "grid"])
def test_family_flags_left_out_take_their_defaults(capsys, argv, defaults, fmt):
    left_out = run_cli(capsys, *argv.split(), "--format", fmt)
    given = run_cli(capsys, *argv.split(), *defaults.split(), "--format", fmt)
    assert left_out == given
    assert left_out[0] == 0 and left_out[1]


@pytest.mark.parametrize("argv, flag", [
    (["family", "--family", "j2", "--beta", "b"], "--alpha"),
    (["family", "--family", "i1k1", "--alpha", "a"], "--gamma"),
])
def test_family_missing_word_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 64
    assert out == ""
    assert f"error: {flag} is required" in err


@pytest.mark.parametrize("argv, flag", [
    ("family --family j2 --alpha a --beta b --param-j 5", "--param-j"),
    ("family --family j2 --alpha a --beta b --gamma b", "--gamma"),
    ("family --family i1k1 --alpha ab --gamma b --param-k 4", "--param-k"),
    ("family --family i1k1 --alpha a --gamma b --max-len 3", "--max-len"),
    ("family --family grid --alpha zz", "--alpha"),
    ("family --family grid --beta b --param-k 2", "--beta"),
])
def test_family_refuses_a_flag_it_does_not_read(capsys, argv, flag):
    family = argv.split()[2]
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    assert exc.value.code == 64
    assert out == ""
    assert err.endswith(f"error: family {family} does not read {flag}\n")


def test_solve_short_pattern_not_forcing(capsys):
    code, out, _ = run_cli(capsys, "solve", "--i", "1", "--j", "1", "--k", "1",
                           "--max-len", "6", "--format", "json", "--shards", "1")
    assert code == 2
    obj = json.loads(out)
    assert obj["nonperiodic"]


def test_lemma_failure_exits_3(capsys, monkeypatch):
    fake = [OracleResult("overlap-commutation", 5, ("s='ab' cut=1",))]
    monkeypatch.setattr(cli, "run_lemma_suite", lambda max_len: fake)
    code, out, err = run_cli(capsys, "lemmas")
    assert code == 3
    assert "FAIL overlap-commutation" in out
    assert "overlap-commutation" in err and "cut=1" in err


def test_lemma_failure_in_json_exits_3(capsys, monkeypatch):
    fake = [OracleResult("overlap-commutation", 5, ("s='ab' cut=1",)),
            OracleResult("power-shape", 3, ())]
    monkeypatch.setattr(cli, "run_lemma_suite", lambda max_len: fake)
    code, out, err = run_cli(capsys, "lemmas", "--format", "json")
    assert code == 3
    assert out == json.dumps([r.to_json_obj() for r in fake], indent=2) + "\n"
    assert [r["passed"] for r in json.loads(out)] == [False, True]
    assert err == "wordeq lemmas: overlap-commutation violated: s='ab' cut=1\n"


def test_lemmas_small(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--max-len", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 14


@pytest.mark.parametrize("argv, library, code", [
    ("verify --i 1 --j 3 --k 1 --max-len 17", lambda: forcing_verdict((1, 3, 1), 2, 17), 2),
    ("verify --i 2 --j 3 --k 1 --max-len 18", lambda: forcing_verdict((2, 3, 1), 2, 18), 0),
    ("solve --i 1 --j 2 --k 1 --max-len 12", lambda: enumerate_solutions((1, 2, 1), 2, 12), 2),
    ("solve --i 2 --j 4 --k 2 --max-len 16", lambda: enumerate_solutions((2, 4, 2), 2, 16), 0),
], ids=["verify-131-17", "verify-231-18", "solve-121-12", "solve-242-16"])
def test_json_stdout_is_the_librarys_to_json(capsys, argv, library, code):
    # perfbench's cli references were recorded from this stdout and are
    # checked against the library's to_json(), so the two must not drift
    assert run_cli(capsys, *argv.split(), "--format", "json")[:2] == (code, library().to_json())


def test_lemmas_json(capsys):
    # the lemmas half of test_json_stdout_is_the_librarys_to_json
    code, out, _ = run_cli(capsys, "lemmas", "--max-len", "3", "--format", "json")
    assert code == 0
    assert out == json.dumps([r.to_json_obj() for r in run_lemma_suite(3)], indent=2) + "\n"


def test_lemmas_zero_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--max-len", "0"])
    assert exc.value.code == 64


@pytest.mark.parametrize("argv, code", [
    ("family --family j2 --alpha a --beta aa --param-k 0", 64),
    ("family --family i1k1 --alpha a --gamma a --param-j 4", 64),
    ("family --family j2 --alpha a --beta aa", 65),
    ("family --family j2 --alpha c --beta aa --alphabet 2", 64),
    ("family --family j2 --alpha a --beta b --param-k 1118", 64),
    ("family --family i1k1 --alpha a --gamma aa --param-j 2237", 64),
    ("family --family grid --max-len 0 --alphabet 27", 64),
    ("family --family grid --param-k 501", 64),
    ("family --family grid --param-j 1002", 64),
    ("family --family grid --max-len 1520 --alphabet 26", 64),
    ("family --family grid --max-len 1520 --alphabet 26 --format json", 64),
    ("family --family grid --max-len 1000000000 --format json", 64),
    ("family --family j2 --alpha a --beta b --param-j 5", 64),
    ("family --family i1k1 --alpha ab --gamma b --param-k 4", 64),
    ("family --family j2 --alpha a --beta b --max-len 9", 64),
    ("family --family grid --gamma q", 64),
    ("family --family grid --alpha zz", 64),
    ("verify --i 1 --j 0 --k 1 --alphabet 1 --max-len 1 --shards 0", 64),
    ("solve --i 2 --j 3 --k 1 --alphabet 27 --max-len 18", 64),
    ("lemmas --max-len -3", 64),
])
def test_exit_code_with_several_invalid_arguments(capsys, argv, code):
    # a range error is a usage error even where the words are also invalid
    try:
        got = main(argv.split())
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert out == ""
    assert "outside the proven forcing range" not in err


def test_parameter_errors_come_from_the_library():
    assert issubclass(ParameterError, ValueError)
    checks = [
        lambda: alphabet(1),
        lambda: check_letters("c", 2),
        lambda: enumerate_solutions((2, 3, 1), 2, 5),
        lambda: enumerate_solutions((2, 3, 1), 2, 18, shards=0),
        lambda: enumerate_solutions((2, 3, 1), 27, 18),
        lambda: family_j2("a", "b", 0),
        lambda: family_i1k1("a", "b", 4),
        lambda: family_j2("a", "b", 1118),
        lambda: family_i1k1("a", "b", 3163),
        lambda: validate_family_grid(0, 1, 3),
        lambda: validate_family_grid(1, 501, 3),
        lambda: validate_family_grid(1, 1, 1002),
        lambda: validate_family_grid(1520, 1, 3, 26),
        lambda: validate_family_grid(10**9, 1, 3),
        lambda: run_lemma_suite(0),
    ]
    for call in checks:
        with pytest.raises(ParameterError):
            call()


def test_only_parameter_errors_become_usage_errors(monkeypatch):
    def broken(max_len):
        raise ValueError("a fault inside the command")

    monkeypatch.setattr(cli, "run_lemma_suite", broken)
    with pytest.raises(ValueError, match="a fault inside the command"):
        main(["lemmas", "--max-len", "2"])


def test_cli_output_identical_across_shards(capsys):
    outs = []
    for shards in ("1", "2"):
        code, out, _ = run_cli(capsys, "solve", "--i", "1", "--j", "3", "--k", "1",
                               "--max-len", "17", "--format", "json", "--shards", shards)
        assert code == 2
        outs.append(out)
    assert outs[0] == outs[1]


def test_shared_parser_gives_the_output_of_fresh_parsers(capsys, monkeypatch):
    # main builds its parser once per process; a fresh parser per call must not differ
    verify = ["verify", "--i", "2", "--j", "3", "--k", "1", "--max-len", "18", "--format", "json"]
    calls = [verify, ["solve", "--i", "2", "--j", "3", "--k", "1", "--max-len", "3"],
             ["lemmas", "--max-len", "2"], verify]

    def run_all():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    assert cli.build_parser() is cli.build_parser()
    shared = run_all()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = run_all()
    assert [code for code, _, _ in shared] == [0, 64, 0, 0]
    assert shared == fresh


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wordeq", "verify", "--i", "2", "--j", "3", "--k", "1",
         "--max-len", "14", "--shards", "1", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["forced_up_to_bound"] is True


def test_shards_env_var_leaves_output_unchanged(capsys, monkeypatch):
    # WORDEQ_SHARDS has no effect: --shards defaults to 1 and starts no processes
    argv = ("solve", "--i", "1", "--j", "3", "--k", "1", "--max-len", "12", "--format", "json")
    monkeypatch.delenv("WORDEQ_SHARDS", raising=False)
    plain = run_cli(capsys, *argv)
    monkeypatch.setenv("WORDEQ_SHARDS", "2")
    assert run_cli(capsys, *argv) == plain
    json.loads(plain[1])
