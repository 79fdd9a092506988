"""Serialization round trips, parse errors, and CLI behavior."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from turan_matroids import cli, extremal, lagrangian
from turan_matroids.acceptance import random_linear_matroid
from turan_matroids.bounds import prime_band
from turan_matroids.cli import main
from turan_matroids.formats import (
    ParseError,
    parse_matroid,
    serialize_matroid,
    serialize_matroid_json,
)
from turan_matroids.geometry import projective_geometry, two_disjoint_lines, uniform
from turan_matroids.matroid import MatroidError, direct_sum


def test_text_round_trip_random(rng):
    for _ in range(100):
        M = random_linear_matroid(rng, min_n=2, max_n=7)
        assert parse_matroid(serialize_matroid(M)) == M


def test_json_round_trip_random(rng):
    for _ in range(100):
        M = random_linear_matroid(rng, min_n=2, max_n=7)
        assert parse_matroid(serialize_matroid_json(M)) == M


@pytest.mark.parametrize(
    "M", [uniform(0, t) for t in range(4)] + [direct_sum(uniform(0, 2), uniform(0, 1))]
)
def test_text_round_trip_rank_0(M):
    # the one basis is empty, so its row is blank
    text = serialize_matroid(M)
    assert text.endswith("bases 1\n\n")
    assert parse_matroid(text) == M


def test_serialization_is_bit_exact():
    pg = projective_geometry(3, 2)
    text = serialize_matroid(pg)
    assert text.startswith("MATROID v1\nn 7 r 3\nbases 28\n")
    assert text == serialize_matroid(parse_matroid(text))
    assert "\r" not in text


def test_comments_are_ignored():
    M = uniform(2, 3)
    text = serialize_matroid(M, comments=("element 0: (0, 1)",))
    assert "# element 0" in text
    assert parse_matroid(text) == M


def test_malformed_header():
    with pytest.raises(ParseError) as err:
        parse_matroid("MATROID v2\nn 3 r 2\nbases 1\n0 1\n")
    assert "malformed header" in str(err.value)


def test_index_out_of_range_names_line():
    with pytest.raises(ParseError) as err:
        parse_matroid("MATROID v1\nn 3 r 2\nbases 1\n0 7\n")
    assert "line 4" in str(err.value) and "out of range" in str(err.value)


def test_wrong_arity_rejected():
    with pytest.raises(ParseError) as err:
        parse_matroid("MATROID v1\nn 4 r 2\nbases 2\n0 1\n0 1 2\n")
    assert "expected" in str(err.value)


def test_exchange_failure_names_pair():
    text = "MATROID v1\nn 4 r 2\nbases 2\n0 1\n2 3\n"
    with pytest.raises(MatroidError) as err:
        parse_matroid(text)
    assert "[0, 1]" in str(err.value) and "[2, 3]" in str(err.value)


def test_empty_bases_rejected():
    for sizes in ("n 3 r 2", "n 2 r 0"):
        with pytest.raises(MatroidError) as err:
            parse_matroid(f"MATROID v1\n{sizes}\nbases 0\n")
        assert "nonempty" in str(err.value)


def run_cli(argv, stdin_text=""):
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def test_cli_construct_and_count():
    code, text = run_cli(["construct", "pg", "--r", "3", "--q", "2"])
    assert code == 0
    code, out = run_cli(["bases"], stdin_text=text)
    assert code == 0 and out.strip() == "28"


def test_cli_minor_absent_on_fano():
    _, fano = run_cli(["construct", "pg", "--r", "3", "--q", "2"])
    code, out = run_cli(["minor", "--s", "2", "--t", "4"], stdin_text=fano)
    assert code == 0 and out.strip() == "absent"
    code, out = run_cli(["minor", "--s", "2", "--t", "3", "--json"], stdin_text=fano)
    assert code == 0 and json.loads(out)["present"] is True


def test_cli_restriction():
    _, m = run_cli(["construct", "uniform", "--s", "3", "--t", "5"])
    code, out = run_cli(["restriction", "--s", "3", "--t", "4"], stdin_text=m)
    assert code == 0 and out.splitlines()[0] == "present"


def test_cli_bounds_selectors():
    code, out = run_cli(["bounds", "b", "--r", "3", "--t", "3", "--json"])
    assert code == 0 and json.loads(out)["value"] == "234"
    code, out = run_cli(["bounds", "pi_u34", "--r", "3"])
    assert code == 0 and out.startswith("4/9")
    code, out = run_cli(["bounds", "ex_upper_u2", "--n", "14", "--r", "3", "--t", "2"])
    assert code == 0 and out.startswith("224")
    # --c sets the heuristic constant of the prime band
    _, hi, _ = prime_band(3, 6, Fraction(2))
    code, out = run_cli(["bounds", "prime_band", "--r", "3", "--t", "6", "--c", "2", "--json"])
    assert code == 0 and json.loads(out)["upper"] == f"{hi.numerator}/{hi.denominator}"


def test_cli_bounds_bad_parameters_exit_1(capsys):
    # a missing or unused parameter is an error naming the selector's parameters
    cases = {
        ("ex_u1", "--n", "5"): "takes n, r, t",
        ("pi_u35", "--r", "3"): "takes no parameters",
        ("b", "--r", "3"): "takes r, t",
        ("prime_band", "--r", "3", "--t", "6", "--q", "5"): "takes r, t, [c]",
    }
    for argv, message in cases.items():
        code, out = run_cli(["bounds", *argv])
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err


def test_cli_binary_search_size_out_of_range(capsys):
    code, out = run_cli(["binary-search", "--r", "3", "--size", "2"])
    assert code == 1 and out == ""
    assert "size must be in 3..7" in capsys.readouterr().err


def test_cli_lagrangian_certified():
    _, fano = run_cli(["construct", "pg", "--r", "3", "--q", "2"])
    code, out = run_cli(
        ["lagrangian", "--bound-t", "2", "--exact-bound", "--json"], stdin_text=fano
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["exact_bound"] == "4/49"


# exact stdout of ``lagrangian --bound-t 3 --json --precision 17``, so that
# a change to the order in which p and its gradient are evaluated cannot
# silently move a last digit; PG(3,3) wins from the uniform start in one
# step, and the two lines of 5 and 4 points need 11
PG33_ARGMAX = ", ".join(["0.07692307692307694"] * 13)
LINES54_ARGMAX = ", ".join(["0.10161169858929098"] * 5 + ["0.12298537676338628"] * 4)
LAGRANGIAN_PINNED = [
    (
        projective_geometry(3, 3),
        f'{{"argmax": [{PG33_ARGMAX}], "bound": 0.10650887573964497, "certified": true,'
        ' "converged": true, "gap": -6e-17, "iterations": 1, "restarts": 17,'
        ' "value": 0.10650887573964503}\n',
    ),
    (
        two_disjoint_lines(5, 4),
        f'{{"argmax": [{LINES54_ARGMAX}], "bound": 0.10650887573964497, "certified": false,'
        ' "converged": true, "gap": 0.00960868722362376, "iterations": 11, "restarts": 17,'
        ' "value": 0.09690018851602121}\n',
    ),
]


def test_cli_lagrangian_last_digits_pinned():
    argv = ["lagrangian", "--bound-t", "3", "--json", "--precision", "17"]
    for M, expected in LAGRANGIAN_PINNED:
        assert run_cli(argv, stdin_text=serialize_matroid(M)) == (0, expected)


def test_cli_lagrangian_bound_not_applicable():
    # U(2,5) is its own U(2,4)-minor, so the t = 2 bound does not apply to it
    _, u25 = run_cli(["construct", "uniform", "--s", "2", "--t", "5"])
    code, out = run_cli(["lagrangian", "--bound-t", "2"], stdin_text=u25)
    assert code == 0
    assert "bound-not-applicable" in out.splitlines()
    assert "lower-bound-only" not in out
    code, out = run_cli(["lagrangian", "--bound-t", "2", "--json"], stdin_text=u25)
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_applies"] is False and doc["certified"] is False


def test_cli_lagrangian_broken_bound_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(lagrangian, "u2_lagrangian_bound", lambda r, t: Fraction(1, 100))
    _, fano = run_cli(["construct", "pg", "--r", "3", "--q", "2"])
    code, out = run_cli(["lagrangian", "--bound-t", "2"], stdin_text=fano)
    assert code == 2 and out == ""
    assert "THEOREM CHECK FAILED" in capsys.readouterr().err


def lagrangian_error(capsys, *flags):
    """stderr of ``lagrangian`` on the Fano plane with budget ``flags`` it
    must reject with exit 1."""
    _, fano = run_cli(["construct", "pg", "--r", "3", "--q", "2"])
    code, out = run_cli(["lagrangian", *flags], stdin_text=fano)
    assert code == 1 and out == ""
    return capsys.readouterr().err


def test_cli_lagrangian_negative_or_nan_tol_exits_1(capsys):
    # --tol -1 used to run 17 restarts of 100,000 iterations each
    assert lagrangian_error(capsys, "--tol", "-1") == "error: tolerance -1.0 is negative or NaN\n"
    assert lagrangian_error(capsys, "--tol", "nan") == "error: tolerance nan is negative or NaN\n"


def test_cli_lagrangian_negative_max_iter_exits_1(capsys):
    assert lagrangian_error(capsys, "--max-iter", "-5") == "error: iteration budget -5 is negative\n"


def test_cli_lagrangian_negative_restarts_exits_1(capsys):
    assert lagrangian_error(capsys, "--restarts", "-3") == "error: restart count -3 is negative\n"


def test_cli_lagrangian_bad_bound_t_or_precision_exits_1_before_optimizing(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("restart run for an invalid flag")

    monkeypatch.setattr(lagrangian, "_fixed_point_run", fail)
    assert lagrangian_error(capsys, "--bound-t", "1") == "error: need r >= 1 and t >= 2\n"
    assert lagrangian_error(capsys, "--precision", "-1") == "error: precision -1 is negative\n"


def test_cli_lagrangian_zero_budgets_are_valid():
    _, fano = run_cli(["construct", "pg", "--r", "3", "--q", "2"])
    for flags in (["--max-iter", "0"], ["--tol", "0"], ["--restarts", "0"], ["--precision", "0"]):
        code, out = run_cli(["lagrangian", *flags], stdin_text=fano)
        assert code == 0 and out.startswith("value "), flags


def test_cli_search_json_schema():
    code, out = run_cli(["search", "--n", "4", "--r", "2", "--forbid", "2,3", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["max_bases"] == 4
    assert set(doc) == {
        "n", "r", "s", "t", "max_bases", "witness_count", "nodes_explored",
        "pruned_daisy", "pruned_bound", "exhaustive",
    }


def test_cli_emit_witnesses(tmp_path):
    out_dir = tmp_path / "wit"
    code, _ = run_cli(
        ["search", "--n", "4", "--r", "2", "--forbid", "2,3",
         "--emit-witnesses", str(out_dir)]
    )
    assert code == 0
    files = sorted(out_dir.glob("witness_*.matroid"))
    assert files
    w = parse_matroid(files[0].read_text())
    assert w.basis_count == 4


@pytest.mark.parametrize("argv, search", [
    (["search", "--n", "4", "--r", "2", "--forbid", "2,3"], "search_ex"),
    (["search", "--n", "4", "--r", "3", "--forbid", "3,4", "--backend", "rank3"],
     "search_ex_rank3"),
    (["binary-search", "--r", "3", "--size", "4"], "search_binary_max_bases"),
])
def test_cli_bad_witness_dir_exits_1_before_searching(argv, search, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("searched before checking --emit-witnesses")

    monkeypatch.setattr(cli, search, refuse)
    taken = tmp_path / "taken"
    taken.write_text("")
    for path in (taken, taken / "below"):
        code, out = run_cli(argv + ["--emit-witnesses", str(path)])
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--emit-witnesses" in err


def test_cli_binary_search():
    code, out = run_cli(["binary-search", "--r", "3", "--size", "4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["max_bases"] == 4 and doc["bose_burton_attains"] is True


def test_cli_decompose_and_classify_and_cover():
    _, lines2 = run_cli(["construct", "lines", "--a", "5", "--b", "5"])
    code, out = run_cli(["decompose", "--m", "2", "--parity", "odd", "--json"],
                        stdin_text=lines2)
    assert code == 0 and json.loads(out)["k"] == 2
    code, out = run_cli(["classify", "--json"], stdin_text=lines2)
    assert code == 0 and json.loads(out)["outcome"] == "two-lines"
    code, out = run_cli(["cover"], stdin_text=lines2)
    assert code == 0 and out.strip() == "2"


def test_cli_truncation_probe():
    code, out = run_cli(["truncation-probe", "--r", "2", "--m", "1", "--q", "2", "--s", "2"])
    assert code == 0 and out.strip() == "7"


def test_cli_tables_density():
    code, out = run_cli(["tables", "--kind", "density-u2", "--max-r", "3", "--q-list", "2,3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,q,density,decimal"
    assert len(lines) == 5


def test_cli_tables_ex():
    code, out = run_cli(
        ["tables", "--kind", "ex", "--r", "2", "--forbid", "2,3", "--n-range", "2:5"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,r,s,t,max_bases")
    assert len(lines) == 5


def test_cli_usage_errors_exit_1():
    code, _ = run_cli(["bounds", "nosuch", "--r", "3"])
    assert code == 1
    code, _ = run_cli(["nonexistent-command"])
    assert code == 1
    code, _ = run_cli(["search", "--n", "4"])  # missing required flags
    assert code == 1


def bases_error(capsys, stdin_text):
    """stderr of ``bases`` on an input it must reject with exit 1."""
    code, out = run_cli(["bases"], stdin_text=stdin_text)
    assert code == 1 and out == ""
    return capsys.readouterr().err


def test_cli_json_bases_not_a_list_exits_1(capsys):
    err = bases_error(capsys, '{"n": 3, "r": 2, "bases": 5}')
    assert err == "error: JSON matroid needs a list of bases\n"


def test_cli_json_basis_not_a_list_exits_1(capsys):
    err = bases_error(capsys, '{"n": 3, "r": 2, "bases": [5]}')
    assert err == "error: basis 5 is not a list of integer indices\n"


def test_cli_json_bool_index_exits_1(capsys):
    err = bases_error(capsys, '{"n": 3, "r": 1, "bases": [[true]]}')
    assert err == "error: basis [True] is not a list of integer indices\n"


def test_cli_json_non_integer_size_exits_1(capsys):
    for text in ('{"n": 3.9, "r": 2, "bases": [[0, 1]]}', '{"n": 3, "r": true, "bases": [[2]]}'):
        assert bases_error(capsys, text) == "error: JSON matroid needs integer n and r\n"


def test_cli_text_repeated_basis_exits_1(capsys):
    err = bases_error(capsys, "MATROID v1\nn 3 r 2\nbases 2\n0 1\n0 1\n")
    assert err == "error: line 5: repeated basis '0 1'\n"


def test_cli_json_repeated_basis_exits_1(capsys):
    err = bases_error(capsys, '{"n": 3, "r": 2, "bases": [[0,1],[1,0]]}')
    assert err == "error: repeated basis [1, 0]\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["search", "--n", "4", "--r", "2", "--forbid", "2,3"], "witnesses 0"),
        (["search", "--backend", "rank3", "--n", "6", "--r", "3", "--forbid", "2,4"], "witnesses 0"),
        (["binary-search", "--r", "3", "--size", "6", "--json"], '"witness_count": 0'),
    ],
)
def test_cli_witness_cap_zero_keeps_no_witness(argv, line):
    code, out = run_cli(argv + ["--witness-cap", "0"])
    assert code == 0 and line in out


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "4", "--r", "2", "--forbid", "2,3"],
        ["search", "--backend", "rank3", "--n", "6", "--r", "3", "--forbid", "2,4"],
        ["binary-search", "--r", "3", "--size", "6"],
    ],
)
def test_cli_negative_witness_cap_exits_1(argv, capsys):
    code, out = run_cli(argv + ["--witness-cap", "-1"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: witness cap -1 is negative\n"


@pytest.mark.parametrize("forbid", ["2", "2,3,4", "a,b"])
@pytest.mark.parametrize("argv", [["search", "--n", "4", "--r", "2"], ["tables", "--kind", "ex"]])
def test_cli_malformed_forbid_exits_1(argv, forbid, capsys):
    code, out = run_cli(argv + ["--forbid", forbid])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--forbid" in err


@pytest.mark.parametrize("n_range", ["2", "a:b", "5:3"])
def test_cli_malformed_n_range_exits_1(n_range, capsys):
    code, out = run_cli(["tables", "--kind", "ex", "--n-range", n_range])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--n-range" in err


def test_cli_n_range_past_the_ground_set_limit_exits_1_before_searching(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("searched before checking --n-range")

    monkeypatch.setattr(extremal, "search_ex", refuse)
    code, out = run_cli(["tables", "--kind", "ex", "--r", "2", "--forbid", "2,3", "--n-range", "2:65"])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--n-range" in err


@pytest.mark.parametrize(
    "flags", [["--max-r", "1"], ["--q-list", ","], ["--q-list", "7,1"]]
)
def test_cli_density_table_without_rows_exits_1(flags, capsys):
    code, out = run_cli(["tables", "--kind", "density-u2"] + flags)
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and flags[0] in err


def test_cli_malformed_q_list_exits_1(capsys):
    code, out = run_cli(["tables", "--kind", "density-u2", "--q-list", "2,x"])
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--q-list" in err


@pytest.mark.parametrize(
    "argv, piped_from",
    [
        (["construct", "multiline", "--lines", "3,a,4"], None),
        (["construct", "blowup", "--mult", "2,x"], ["construct", "pg", "--r", "3", "--q", "2"]),
        (["tables", "--kind", "density-u2", "--q-list", "2,x"], None),
    ],
)
def test_cli_malformed_comma_list_names_its_flag(argv, piped_from, capsys):
    stdin_text = run_cli(piped_from)[1] if piped_from else ""
    capsys.readouterr()
    code, out = run_cli(argv, stdin_text=stdin_text)
    flag, value = argv[-2:]
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"error: {flag} expects comma-separated integers, got {value!r}\n"
    )


@pytest.mark.parametrize(
    "argv, err",
    [
        (["search", "--n", "4", "--r", "2", "--max-nodes", "-5"], "node budget -5 is negative"),
        (["tables", "--kind", "ex", "--max-nodes", "-5"], "node budget -5 is negative"),
        (
            ["search", "--backend", "rank3", "--n", "6", "--r", "3", "--rank3-point-cap", "-1"],
            "rank-3 point cap -1 is below 3",
        ),
    ],
)
def test_cli_bad_search_budget_exits_1(argv, err, capsys):
    code, out = run_cli(argv + ["--forbid", "2,3"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {err}\n"


def test_cli_zero_node_budget_is_partial():
    code, out = run_cli(["search", "--n", "4", "--r", "2", "--forbid", "2,3", "--max-nodes", "0"])
    assert code == 0
    assert "nodes 0 " in out and "exhaustive no" in out


def test_cli_search_deeper_than_the_recursion_limit_is_partial():
    # 1,716 edges: the include/exclude tree is deeper than Python's default
    # recursion limit, and the walk must still stop at the budget
    argv = ["search", "--n", "13", "--r", "6", "--forbid", "3,4", "--max-nodes", "20000"]
    code, out = run_cli(argv)
    assert code == 0
    assert "exhaustive no" in out


@pytest.mark.parametrize("r, forbid", [("2", "1,1"), ("2", "2,2"), ("3", "3,3")])
def test_cli_forbid_s_equals_t_finds_nothing(r, forbid):
    # a matroid of rank r >= s has a U(s, s)-minor, so no family survives;
    # with s = 1 the catalog used to fail building a class of size 0
    code, out = run_cli(["search", "--n", "6", "--r", r, "--forbid", forbid])
    assert code == 0
    assert out.startswith("max_bases 0\nwitnesses 0\n") and out.endswith("exhaustive yes\n")


def test_cli_blowup_pipeline():
    _, fano = run_cli(["construct", "pg", "--r", "3", "--q", "2"])
    code, out = run_cli(
        ["construct", "blowup", "--mult", "2,2,2,2,2,2,2"], stdin_text=fano
    )
    assert code == 0
    code, counted = run_cli(["bases"], stdin_text=out)
    assert counted.strip() == "224"


def test_cli_label_map_round_trips():
    code, text = run_cli(["construct", "pg", "--r", "3", "--q", "2", "--label-map"])
    assert code == 0 and "# element 0" in text
    assert parse_matroid(text).basis_count == 28


def test_cli_verify_theorems_suite():
    code, out = run_cli(["verify-theorems", "--suite", "minors"])
    assert code == 0
    assert out.count("[PASS]") == 2 and "[FAIL]" not in out


def test_cli_verify_theorems_failure_exits_2(monkeypatch):
    from turan_matroids import acceptance

    def fake_run_suite(suite="all"):
        return [acceptance.AcceptanceResult("synthetic", False, "forced failure")]

    monkeypatch.setattr(acceptance, "run_suite", fake_run_suite)
    code, out = run_cli(["verify-theorems"])
    assert code == 2 and "[FAIL]" in out


def test_cli_theorem_violation_exits_2(monkeypatch):
    import turan_matroids
    import turan_matroids.cli as cli_mod
    from turan_matroids.matroid import TheoremViolation

    assert turan_matroids.TheoremViolation is TheoremViolation

    def boom(args):
        raise TheoremViolation("synthetic escalation")

    monkeypatch.setattr(cli_mod, "cmd_cover", boom)
    code, _ = run_cli(["cover"], stdin_text=serialize_matroid(uniform(3, 5)))
    assert code == 2


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "turan_matroids", "bounds", "kung", "--r", "3", "--t", "2"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("7")
