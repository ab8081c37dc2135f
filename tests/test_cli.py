import json
import re
import subprocess
import sys

import pytest

from lcmsum import cli
from lcmsum.cli import COMMANDS, build_parser, fraction_decimal, main
from lcmsum.oracle import fast_recip_lcm_sum2
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_fraction_decimal():
    assert fraction_decimal(Fraction(1, 3), 5) == "0.33333"
    assert fraction_decimal(Fraction(2, 3), 5) == "0.66667"
    assert fraction_decimal(Fraction(-1, 8), 3) == "-0.125"
    assert fraction_decimal(Fraction(5), 0) == "5"
    assert fraction_decimal(Fraction(11, 480), 10) == "0.0229166667"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_volume_command(capsys):
    code, out = run_cli(capsys, "volume", "--kind", "D_star", "--k", "3")
    assert code == 0 and out == "11/480\n"


def test_graph_command_deterministic(capsys):
    code, first = run_cli(capsys, "graph", "--k", "3")
    assert code == 0
    code, second = run_cli(capsys, "graph", "--k", "3")
    assert first == second
    assert first.splitlines()[0] == "k=3"


def test_qpoly_command(capsys):
    code, out = run_cli(capsys, "qpoly", "--k", "3")
    assert code == 0
    assert out == "coeffs=1,0,-9,16,-9,0,1,0\n"


def test_ism_command(capsys):
    code, out = run_cli(capsys, "ism", "--k", "4")
    assert code == 0
    assert "agree=yes" in out


def test_export_ieqs_matches_library(capsys):
    from lcmsum.polytope import build_polytope, export_ieqs

    code, out = run_cli(capsys, "export-ieqs", "--kind", "D_star3", "--k", "3")
    assert code == 0
    assert out == export_ieqs(build_polytope("D_star3", 3))
    assert "[1, -1, -1, 0]" in out


def test_rho_command_fields(capsys):
    code, out = run_cli(capsys, "rho", "--k", "2", "--digits", "12")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert set(fields) == {"value", "abs_error", "primes_used",
                           "acceleration_order"}
    assert fields["value"].startswith("0.607927101854")
    assert int(fields["primes_used"]) > 0


def test_constants_command(capsys):
    code, out = run_cli(capsys, "constants", "--k", "3", "--digits", "8")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert fields["c"].startswith("0.00016147")
    assert fields["vol_D"] == "11/3360"
    assert fields["theta1"] == "1/14"
    assert fields["theta2"] == "3/40"


def test_theta_command_k2_nota(capsys):
    code, out = run_cli(capsys, "theta", "--k", "2")
    assert code == 0
    assert "no power-saving exponent" in out


def test_brute_and_gwise_commands(capsys, monkeypatch):
    from lcmsum import oracle

    searches = []
    build = oracle._brute_range
    monkeypatch.setattr(oracle, "_RANGES", {})
    monkeypatch.setattr(oracle, "_brute_range",
                        lambda k, top: searches.append((k, top)) or build(k, top))
    code, bout = run_cli(capsys, "brute", "--k", "2", "--x", "6")
    assert code == 0
    assert searches == [(2, 6)]  # one search, three sums
    code, gout = run_cli(capsys, "gwise", "--k", "2", "--x", "6")
    assert code == 0
    brute = dict(line.split("=", 1) for line in bout.splitlines()
                 if "=" in line and " " not in line.split("=")[0])
    gw = dict(line.split("=", 1) for line in gout.splitlines()
              if "=" in line and " " not in line.split("=")[0])
    assert gw["constrained_sum"] == brute["recip_lcm_sum"]
    assert gw["constrained_sum_gcd1"] == brute["recip_lcm_sum_coprime"]
    assert "tuples=36" in bout  # 6**2 raw pairs
    assert bout.split("coprime_tuples=")[1].strip() == \
        gout.split("gcd1_tuples=")[1].strip()


def test_alpha_command(capsys):
    code, out = run_cli(capsys, "alpha", "--k", "2", "--x", "4")
    assert code == 0
    assert "alpha(2,4)=5" in out
    assert "alpha_sum=19/4" in out
    # 1 + 3 + 3 + 5 tuples with lcm <= 4
    assert out.strip().endswith("tuples_with_lcm_le_x=12")


def test_alpha_command_builds_one_sieve(capsys):
    # every n <= 200 is factored over the one table whose limit**2 covers 200
    from lcmsum.exactmath import shared_sieve

    shared_sieve.cache_clear()
    code, _ = run_cli(capsys, "alpha", "--k", "2", "--x", "200")
    assert code == 0
    assert shared_sieve.cache_info().misses <= 1


def test_alpha_command_evaluates_each_alpha_once(monkeypatch, capsys):
    from lcmsum import oracle

    calls = []
    original = oracle.lcm_multiplicity

    def counted(k, n):
        calls.append(n)
        return original(k, n)

    monkeypatch.setattr(oracle, "lcm_multiplicity", counted)
    code, out = run_cli(capsys, "alpha", "--k", "2", "--x", "200")
    assert code == 0 and "alpha(2,200)=" in out
    assert sorted(calls) == list(range(1, 201))


def test_identity_command(capsys):
    code, out = run_cli(capsys, "identity", "--k", "2", "--x", "12")
    assert code == 0 and "pass" in out


def test_report_text_and_csv(capsys):
    code, text = run_cli(capsys, "report", "--k", "2", "--x", "1,10,100")
    assert code == 0
    assert text.splitlines()[0].startswith("x")
    code, csv_text = run_cli(capsys, "report", "--k", "2", "--x", "1,10,100",
                             "--format", "csv")
    assert code == 0
    rows = csv_text.strip().splitlines()
    assert rows[0] == "x,sum,sum_over_logpow,c,ratio_to_c,flagged"
    assert rows[1].startswith("1,1/1,")
    assert rows[1].endswith("yes")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_report_prints_exact_sums_past_the_digit_limit(capsys):
    # S2(10**4) has more digits than Python's default int-to-str limit
    limit = sys.get_int_max_str_digits()
    code, csv_text = run_cli(capsys, "report", "--k", "2", "--x", "100,10000",
                             "--format", "csv")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # restored for the library
    row = csv_text.strip().splitlines()[2]
    x, sum_cell = row.split(",")[:2]
    assert x == "10000"
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(sum_cell) == fast_recip_lcm_sum2(10_000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "vol.txt"
    code, out = run_cli(capsys, "volume", "--kind", "T", "--k", "2",
                        "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == "1/6\n"


@pytest.mark.parametrize("target", ["dir", "missing/vol.txt"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, target):
    path = tmp_path / target
    if target == "dir":
        path.mkdir()
    assert main(["volume", "--kind", "T", "--k", "2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out")


@pytest.mark.parametrize("target", ["dir", "missing/x.txt"])
def test_unwritable_out_is_refused_before_computing(tmp_path, capsys,
                                                    monkeypatch, target):
    def never(args):
        raise AssertionError("the command ran")
    monkeypatch.setitem(COMMANDS, "constants", (never, COMMANDS["constants"][1]))
    path = tmp_path / target
    if target == "dir":
        path.mkdir()
    assert main(["constants", "--k", "4", "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write --out")
    # the check creates nothing
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        (["dir"] if target == "dir" else [])


def test_brute_budget_zero_is_a_budget(capsys):
    # zero must reach the command, not fall back to the default budget
    assert main(["brute", "--k", "2", "--x", "6", "--budget", "0"]) == 3


def test_brute_k_zero_is_a_usage_error(capsys):
    # the empty tuple is not a k-tuple; exit 2, not the sum 1/1 and exit 0
    assert main(["brute", "--k", "0", "--x", "5"]) == 2
    assert capsys.readouterr().out == ""


def test_brute_x1_answers_past_the_recursion_depth(capsys):
    code, out = run_cli(capsys, "brute", "--k", "1100", "--x", "1")
    assert code == 0
    assert out == ("recip_lcm_sum=1/1\nrecip_lcm_sum_coprime=1/1\n"
                   "prod_over_lcm_sum=1/1\ntuples=1 coprime_tuples=1\n")


def test_identity_past_its_cap_exits_3(capsys):
    from lcmsum.eulerprod import IDENTITY_MAX_DEGREE

    argv = ["identity", "--k", "4", "--x", str(IDENTITY_MAX_DEGREE + 1)]
    assert main(argv) == 3
    assert "identity cap" in capsys.readouterr().err


def test_alpha_past_its_caps_exits_3(capsys):
    from lcmsum.oracle import ALPHA_MAX_KX, ALPHA_MAX_X

    assert main(["alpha", "--k", "2", "--x", str(ALPHA_MAX_X + 1)]) == 3
    assert main(["alpha", "--k", str(ALPHA_MAX_KX // 2 + 1), "--x", "2"]) == 3
    assert capsys.readouterr().err.count("exceeds the caps") == 2


def test_identity_x_zero_is_a_usage_error(capsys):
    # zero must reach the command, not fall back to the default degree
    assert main(["identity", "--k", "2", "--x", "0"]) == 2


def test_brute_budget_counts_tuples(capsys):
    assert main(["brute", "--k", "2", "--x", "6", "--budget", "35"]) == 3
    code, out = run_cli(capsys, "brute", "--k", "2", "--x", "6",
                        "--budget", "36")
    assert code == 0 and "tuples=36" in out


def test_gwise_budget_counts_nodes(capsys):
    assert main(["gwise", "--k", "3", "--x", "10", "--budget", "10"]) == 3
    assert main(["gwise", "--k", "3", "--x", "10"]) == 0


def test_gwise_command_reads_one_range_build(capsys, monkeypatch):
    # both variants come from one build at x
    from lcmsum import oracle

    builds = []
    build = oracle._gwise_range
    monkeypatch.setattr(oracle, "_RANGES", {})
    monkeypatch.setattr(oracle, "_gwise_range",
                        lambda *a: builds.append(a) or build(*a))
    code, out = run_cli(capsys, "gwise", "--k", "3", "--x", "20")
    assert code == 0 and "tuples=8000 " in out
    assert builds == [(3, 20, oracle.GWISE_NODE_BUDGET)]


@pytest.mark.parametrize("argv", [["rho", "--digits", "-1"],
                                  ["constants", "--digits", "-2"]])
def test_negative_digits_rejected_at_parse_time(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["rho", "constants"])
def test_digits_past_the_cap_rejected_before_computing(command, monkeypatch, capsys):
    # the cap itself parses; one more exits 2 before any Euler product
    def refuse(*args):
        raise AssertionError("computed")

    monkeypatch.setattr(cli, "euler_product", refuse)
    monkeypatch.setattr(cli, "leading_constants", refuse)
    args = build_parser().parse_args([command, "--digits", str(cli.MAX_DIGITS)])
    assert args.digits == cli.MAX_DIGITS
    with pytest.raises(SystemExit) as exc:
        main([command, "--digits", str(cli.MAX_DIGITS + 1)])
    assert exc.value.code == 2
    assert f"must be at most {cli.MAX_DIGITS}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["brute", "gwise", "verify"])
def test_negative_budget_rejected_at_parse_time(command, capsys):
    # a negative budget is a usage error, not a budget already spent (exit 3)
    with pytest.raises(SystemExit) as exc:
        main([command, "--budget", "-1"])
    assert exc.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_verify_suite_all_runs_the_whole_table(capsys):
    from lcmsum.checks import CHECKS

    code, out = run_cli(capsys, "verify", "--suite", "all", "--budget", "0",
                        "--format", "json")
    assert code == 3
    assert [r["check_name"] for r in json.loads(out)] == [n for n, _ in CHECKS]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "cheap"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# every (subcommand, flag) pair is honoured or rejected with exit 2
# ---------------------------------------------------------------------------

FLAGS = ("--k", "--x", "--kind", "--digits", "--format", "--out", "--budget",
         "--suite")
#: a value each flag would accept where it is declared
ACCEPTED = {"--k": "2", "--x": "5", "--kind": "T", "--digits": "3",
            "--format": "csv", "--budget": "5",
            "--suite": "all"}
#: cheap flags every invocation below starts from; a subcommand missing
#: here fails the test until its flags are covered
BASE = {"graph": ["--k", "2"], "qpoly": ["--k", "2"], "ism": ["--k", "2"],
        "volume": ["--k", "2"], "export-ieqs": ["--k", "3"],
        "rho": ["--k", "2"], "constants": ["--k", "2"], "theta": [],
        "brute": ["--k", "2", "--x", "6"], "gwise": ["--k", "2", "--x", "6"],
        "alpha": ["--k", "2", "--x", "4"],
        "identity": ["--k", "2", "--x", "12"], "verify": [],
        "report": ["--k", "2", "--x", "1,10"]}
#: honoured pairs: two values of the flag that must change code or stdout
VARY = {
    ("graph", "--k"): ("2", "3"), ("qpoly", "--k"): ("2", "3"),
    ("ism", "--k"): ("2", "3"), ("volume", "--k"): ("2", "3"),
    ("export-ieqs", "--k"): ("3", "4"), ("rho", "--k"): ("2", "3"),
    ("constants", "--k"): ("2", "3"), ("theta", "--k"): ("3", "4"),
    ("brute", "--k"): ("2", "3"), ("gwise", "--k"): ("2", "3"),
    ("alpha", "--k"): ("2", "3"), ("identity", "--k"): ("2", "3"),
    ("report", "--k"): ("2", "3"),
    ("brute", "--x"): ("5", "6"), ("gwise", "--x"): ("5", "6"),
    ("alpha", "--x"): ("4", "5"), ("identity", "--x"): ("12", "13"),
    ("report", "--x"): ("1,10", "1,100"),
    ("volume", "--kind"): ("D", "T"), ("export-ieqs", "--kind"): ("D_star", "D_star3"),
    ("rho", "--digits"): ("3", "5"), ("constants", "--digits"): ("3", "5"),
    ("report", "--format"): ("text", "csv"), ("verify", "--format"): ("text", "json"),
    ("brute", "--budget"): ("35", "36"), ("gwise", "--budget"): ("10", "50000000"),
    ("verify", "--budget"): ("0", "1000"),
}
HONOURED = set(VARY) | {(c, "--out") for c in COMMANDS} | {("verify", "--suite")}


def _mask_ms(text):
    return re.sub(r"\(\d+ ms\)", "(# ms)", text)


@pytest.mark.parametrize("flag", FLAGS)
@pytest.mark.parametrize("command", COMMANDS)
def test_every_flag_is_honoured_or_rejected(command, flag, tmp_path,
                                            monkeypatch, capsys):
    import lcmsum.checks as checks

    # two cheap checks stand in for the battery so verify runs in ms
    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[:2])
    argv = [command, *BASE[command]]
    if (command, flag) not in HONOURED:
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, ACCEPTED[flag]])
        assert exc.value.code == 2
        return
    if flag in ("--out", "--suite"):
        plain = run_cli(capsys, *argv)
    if flag == "--out":
        path = tmp_path / "out.txt"
        code, out = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out) == (plain[0], "")
        assert _mask_ms(path.read_text()) == _mask_ms(plain[1])
    elif flag == "--suite":
        code, out = run_cli(capsys, *argv, "--suite", "all")
        assert (code, _mask_ms(out)) == (plain[0], _mask_ms(plain[1]))
    else:
        a, b = VARY[(command, flag)]
        assert run_cli(capsys, *argv, flag, a) != run_cli(capsys, *argv, flag, b)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--kind", "NOT_A_KIND"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    assert main(["graph", "--k", "9"]) == 2


def test_resource_error_exit_code(capsys):
    assert main(["brute", "--k", "3", "--x", "10000"]) == 3
    # inside the tuple budget, but its tally would take about 500 GiB
    assert main(["brute", "--k", "1", "--x", "1000000"]) == 3


def test_out_in_an_unwritable_directory_is_refused_before_computing(
        tmp_path, monkeypatch, capsys):
    # os.access is patched because root passes any permission-bit check,
    # so a chmod-based test would check nothing when run as root
    import lcmsum.cli as cli

    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    monkeypatch.setattr(cli, "volume_of", pytest.fail)
    assert main(["volume", "--out", str(tmp_path / "v.txt")]) == 2
    assert "is not writable" in capsys.readouterr().err
    assert not (tmp_path / "v.txt").exists()


def test_out_write_error_exits_2(tmp_path, monkeypatch, capsys):
    # what the check before computing cannot see, such as a full disk
    import lcmsum.cli as cli

    def failing_open(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main(["volume", "--out", str(tmp_path / "v.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write --out" in captured.err and "No space left" in captured.err


def test_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "lcmsum.cli", "volume", "--kind", "D", "--k", "2"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == "1/3\n"


# ---------------------------------------------------------------------------
# verify battery (budgeted here; the full run is the acceptance suite)
# ---------------------------------------------------------------------------

def test_verify_budget_skips_and_exit_3(capsys):
    code, out = run_cli(capsys, "verify", "--budget", "0", "--format", "json")
    assert code == 3
    rows = json.loads(out)
    assert all(r["status"] == "skip" for r in rows[1:])
    required = {"check_name", "status", "expected", "actual", "tolerance",
                "runtime_ms"}
    assert all(set(r) == required for r in rows)


def test_verify_battery_globals_resolve():
    # budget runs may skip expensive checks, so broken references inside
    # them would otherwise surface only in full runs
    import builtins
    import dis

    from lcmsum.checks import CHECKS

    for name, thunk in CHECKS:
        for ins in dis.get_instructions(thunk):
            if ins.opname == "LOAD_GLOBAL":
                g = ins.argval
                assert g in thunk.__globals__ or hasattr(builtins, g), \
                    f"check {name!r} references undefined global {g!r}"


def test_volume_relations_row_passes_with_its_pinned_text():
    from lcmsum.checks import volume_relations

    assert volume_relations() == (True, "cone relations for k=2,3,4",
                                  "k=2:ok; k=3:ok; k=4:ok", "exact")


def test_volume_relations_row_names_the_failing_relation(monkeypatch):
    from lcmsum import polytope
    from lcmsum.checks import volume_relations

    exact = polytope.volume_of
    monkeypatch.setattr(polytope, "volume_of", lambda kind, k: exact(kind, k)
                        + (1 if (kind, k) == ("D_star3", 3) else 0))
    ok, _, actual, _ = volume_relations()
    assert not ok
    # vol(D_star3) at k = 3 is 1/4, so the skewed one is 5/4 and 5/4 / 4 = 5/16
    assert actual == ("k=2:ok; k=3:vol(D_star2) == vol(D_star3)/(2**k-k-1) "
                      "fails: 1/16 != 5/16; k=4:ok")


def test_verify_csv_rows_are_the_json_rows(capsys):
    # the same rows in either format; runtime_ms is wall time, so it is
    # left out of the comparison
    import csv
    import io

    from lcmsum.checks import FIELDS

    code, out = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    want = [[str(r[f]) for f in FIELDS[:-1]] for r in json.loads(out)]
    code, out = run_cli(capsys, "verify", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == list(FIELDS)
    assert [r[:-1] for r in rows] == want


def test_verify_json_schema_and_order(capsys):
    code, out = run_cli(capsys, "verify", "--budget", "20", "--format", "json")
    rows = json.loads(out)
    names = [r["check_name"] for r in rows]
    assert names[0] == "edge-count-formula"
    assert names == sorted(names, key=names.index)  # declaration order kept
    passed = [r for r in rows if r["status"] == "pass"]
    assert passed, "at least the cheap graph checks must run inside budget"
    assert all(r["status"] in ("pass", "skip") for r in rows)
