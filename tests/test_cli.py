import argparse
import json
import subprocess
import sys
from math import comb

import pytest

from schubert_git import case_studies, cli, straightening
from schubert_git.cli import main
from schubert_git.straightening import StraighteningLimit


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_minimal_json(capsys):
    code, out = run_cli(capsys, "minimal", "--n", "8", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 8, "w_ss_min": [4, 8], "w_s_min": [5, 8]}


def test_minimal_text(capsys):
    code, out = run_cli(capsys, "minimal", "--n", "6")
    assert code == 0
    assert "w_ss_min = (3, 6)" in out and "w_s_min = (4, 6)" in out


def test_minimal_rejects_odd_n(capsys):
    assert main(["minimal", "--n", "7"]) == 2


def test_stability(capsys):
    code, out = run_cli(capsys, "stability", "--n", "6", "--w", "4,6", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "STABLE" and record["d"] == 3


def test_basis_invariant(capsys):
    code, out = run_cli(
        capsys, "basis", "--n", "6", "--degree", "1", "--kind", "invariant", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 5
    assert record["elements"][0]["label"] == "X_1"


def test_straighten(capsys):
    code, out = run_cli(capsys, "straighten", "p[2,5]*p[3,4]", "--n", "6")
    assert code == 0
    assert out.strip() == "-p[2,3]*p[4,5] + p[2,4]*p[3,5]"


def test_straighten_window(capsys):
    code, out = run_cli(
        capsys, "straighten", "p[1,4]*p[2,3]", "--n", "6", "--v", "1,3", "--w", "5,6"
    )
    assert code == 0
    assert out.strip() == "p[1,3]*p[2,4]"


def test_verify_pass_and_fail(capsys):
    code, _ = run_cli(
        capsys,
        "verify",
        "--n", "6",
        "--lhs", "p[2,5]*p[3,4]",
        "--rhs", "p[2,4]*p[3,5] - p[2,3]*p[4,5]",
    )
    assert code == 0
    code, _ = run_cli(
        capsys, "verify", "--n", "6", "--lhs", "p[1,2]", "--rhs", "p[1,3]"
    )
    assert code == 1


def test_leading_minus_expression_needs_equals_or_double_dash(capsys):
    # argparse takes a separate "-p[1,2]" for an option, not a value.
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--n", "4", "--lhs", "-p[1,2]", "--rhs", "0 - p[1,2]"])
    assert exit_.value.code == 2
    assert "argument --lhs: expected one argument" in capsys.readouterr().err
    code, out = run_cli(
        capsys, "verify", "--n", "4", "--lhs=-p[1,2]", "--rhs", "0 - p[1,2]"
    )
    assert (code, out) == (0, "pass\n")
    code, out = run_cli(capsys, "straighten", "--n", "4", "--", "-p[1,3]*p[2,4]")
    assert (code, out) == (0, "-p[1,3]*p[2,4]\n")


def test_reproduce_g26(capsys):
    code, out = run_cli(capsys, "reproduce", "--case", "g26", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["passed"] == record["total"] == 8
    assert {r["status"] for r in record["records"]} == {"pass"}
    expected_fields = {"case", "relation_label", "status", "lhs_normal_form", "rhs_normal_form"}
    assert all(set(r) == expected_fields for r in record["records"])


def test_reproduce_richardson(capsys):
    code, out = run_cli(
        capsys, "reproduce", "--case", "richardson", "--n", "10", "--k", "3", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["passed"] == record["total"] == 2


def test_reproduce_richardson_needs_params(capsys):
    assert main(["reproduce", "--case", "richardson"]) == 2


def test_relations_case(capsys):
    code, out = run_cli(capsys, "relations", "--case", "g26", "--degree", "2", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_named_case_refuses_window_flags(capsys):
    # A named case fixes its own window, so a window flag beside it would be
    # ignored: it is refused as a usage error, with the flags named.
    refused = [
        (["relations", "--case", "g26", "--n", "8"], "--n"),
        (["relations", "--case", "x68", "--v", "1,3", "--w", "5,8"], "--v, --w"),
        (["reproduce", "--case", "g26", "--n", "10", "--k", "3"], "--n, --k"),
        (["reproduce", "--case", "x710", "--k", "2"], "--k"),
    ]
    for argv, flags in refused:
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"takes its window from the case; drop {flags}" in captured.err


def test_jacobian(capsys):
    code, out = run_cli(
        capsys, "jacobian", "--case", "g26", "--point", "1,0,0,0,0", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["singular"] is True and record["rank"] == 0


def test_confluence(capsys):
    code, out = run_cli(capsys, "confluence", "--symbols", "6", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["confluent"] is True and record["probes"] == 15


def test_singular_count(capsys):
    code, out = run_cli(capsys, "singular-count", "--n", "6")
    assert code == 0
    assert out.strip() == "10"


@pytest.mark.parametrize(
    "n,message",
    [
        ("2", "error: need even n >= 4, got 2\n"),
        ("3", "error: weight 1*omega_2 is not in the root lattice for n=3\n"),
        ("5", "error: weight 2*omega_2 is not in the root lattice for n=5\n"),
    ],
)
def test_singular_count_refuses_small_and_odd_n(capsys, n, message):
    assert main(["singular-count", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_singular_count_prints_the_closed_form_at_any_size(capsys):
    # The scan behind `candidates` stops above 10^6 cosets; the count does not.
    for n, expected in [(22, 352716), (24, 1352078), (26, 5200300)]:
        code, out = run_cli(capsys, "singular-count", "--n", str(n), "--json")
        assert code == 0
        assert json.loads(out) == {"n": n, "count": expected}
        assert expected == comb(n, n // 2) // 2
    assert main(["candidates", "--n", "24"]) == 2
    assert "above the cap of 1000000" in capsys.readouterr().err
    # C(19999, 10000) has 6,019 digits, over the interpreter's default
    # limit of 4,300 for converting an int to text, which stays in force.
    code, out = run_cli(capsys, "singular-count", "--n", "20000")
    count = comb(19999, 10000)
    assert code == 0
    assert len(out) == 6020 and int(out[-10:]) == count % 10**9
    with pytest.raises(ValueError):
        str(count)


def test_candidates(capsys):
    code, out = run_cli(capsys, "candidates", "--n", "6", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["l_size"] == 10 and len(record["members"]) == 20


def test_parameter_error_exit_code(capsys):
    assert main(["straighten", "p[1,9]", "--n", "6"]) == 2
    assert main(["candidates", "--n", "6", "--w", "2,6"]) == 2
    assert main(["stability", "--n", "6", "--w", "4,6", "--d", "-3"]) == 2
    assert main(["stability", "--n", "6", "--w", "4,6", "--d", "0"]) == 2
    deep = "(" * 1200 + "p[1,2]" + ")" * 1200
    assert main(["straighten", deep, "--n", "4"]) == 2
    # 11!! = 10395 matchings are over the 10,000-state cap: refused before
    # any rewriting, with the count and the cap in the message.
    capsys.readouterr()
    assert main(["confluence", "--symbols", "12"]) == 2
    err = capsys.readouterr().err
    assert "(12-1)!! = 10395" in err and "10000" in err


def test_internal_fault_exit_code(capsys, monkeypatch):
    def exhausted(poly, support):
        raise StraighteningLimit("exceeded the rewrite step ceiling")

    monkeypatch.setattr(straightening, "straighten", exhausted)
    assert main(["straighten", "p[2,5]*p[3,4]", "--n", "6"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_case_choices_match_case_studies():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, extra in [("relations", []), ("reproduce", ["richardson"]), ("jacobian", [])]:
        (case,) = [a for a in commands.choices[name]._actions if a.dest == "case"]
        assert list(case.choices) == sorted(case_studies.CASES) + extra


def test_json_schema_stability(capsys):
    # Field sets are part of the interface; freeze them.
    _, out = run_cli(capsys, "minimal", "--n", "6", "--json")
    assert set(json.loads(out)) == {"n", "w_ss_min", "w_s_min"}
    _, out = run_cli(capsys, "singular-count", "--n", "6", "--json")
    assert set(json.loads(out)) == {"n", "count"}
    _, out = run_cli(capsys, "straighten", "p[1,2]", "--n", "4", "--json")
    assert set(json.loads(out)) == {"n", "v", "w", "input", "normal_form"}
    _, out = run_cli(capsys, "relations", "--case", "x68", "--json")
    assert set(json.loads(out)) == {"n", "v", "w", "degree", "dimension", "relations"}


def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "schubert_git.cli", "minimal", "--n", "10", "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "n": 10,
        "w_ss_min": [5, 10],
        "w_s_min": [6, 10],
    }
