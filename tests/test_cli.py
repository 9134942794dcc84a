"""Command-line interface: subcommand behavior, run configuration
resolution, output formats, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import osculant.cli as cli
from osculant import CSV_COLUMNS, CriterionResult
from osculant.cli import RunConfig, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_intersect(capsys):
    payload = run_json(capsys, "intersect",
                       "e*(4*Co + 3*So) - s0 - 3*r0 - 2*r1 - 2*r2 - 2*r3",
                       "e*(So) - s0 - r0")
    assert payload["value"] == 0


def test_genus(capsys):
    payload = run_json(capsys, "genus", "K")
    assert payload["value"] == -7
    assert payload["self_intersection"] == -8


def test_lambda(capsys):
    payload = run_json(capsys, "lambda", "4", "2", "1", "3,2,2,2")
    assert payload["self_intersection"] == 1
    assert payload["k_degree"] == -3
    assert payload["genus"] == 0
    assert payload["pullback"]["expr"] == \
        "e*(4*Co + 3*So) - s0 - 3*r0 - 2*r1 - 2*r2 - 2*r3"


def test_decompose(capsys):
    payload = run_json(capsys, "decompose", "3,2,2,2", "2")
    assert payload["mu"] == [1, 0, 0, 0]
    assert payload["eps"] == [0, 1, 1, 1]
    assert payload["nat_mu"] == [2, 1, 1, 1]


def test_nef_verdicts(capsys):
    payload = run_json(capsys, "nef", "4", "2", "3,2,2,2", "--mode", "both")
    assert payload["verdict"] == "nef"
    assert payload["agreement"] is True
    assert len(payload["conditions"]) == 3

    payload = run_json(capsys, "nef", "6", "3", "7,2,0,0")
    assert payload["verdict"] == "not_nef"
    assert payload["witness"] == [1, 0, 0, 0]
    assert payload["failing_constraint"] == "eps-norm"


# `osculant nef 4 2 3,2,2,2` output, recorded before NefReport carried
# its decomposition and scan; the JSON must not change with them
NEF_REF_JSON = {
    "agreement": True,
    "boundary_contacts": [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 1, 1],
                          [1, 1, 0, 1], [1, 1, 1, 0], [2, 1, 1, 1]],
    "conditions": [
        {"id": "eps-norm", "lhs": 3, "pass": True, "rhs": 3},
        {"id": "eps-sum", "lhs": 9, "pass": True, "rhs": 9},
        {"id": "eps-pair", "lhs": 6, "note": "factored reading",
         "pass": True, "rhs": 6},
    ],
    "failing_constraint": None,
    "mode": "both",
    "verdict": "nef",
    "witness": None,
}
NEF_REF_SHA256 = \
    "34b463c24451ceeaecb048448914293b0e9bcff525a75f9bca1bbdce11db94c0"


def test_nef_json_is_unchanged(capsys):
    code, out, err = run_cli(capsys, "nef", "4", "2", "3,2,2,2")
    assert code == 0, err
    assert json.loads(out) == NEF_REF_JSON
    assert hashlib.sha256(out.encode()).hexdigest() == NEF_REF_SHA256


def test_minimizer(capsys):
    payload = run_json(capsys, "minimizer", "4", "2", "3,2,2,2")
    assert payload["holds"] is True
    assert payload["min_value"] == 0


def test_zdiv(capsys):
    payload = run_json(capsys, "zdiv", "4", "2", "3,2,2,2")
    assert [c["k"] for c in payload["components"]] == [1, 2, 3]
    assert payload["anomalies"] == []


def test_dims(capsys):
    payload = run_json(capsys, "dims", "4", "2", "3,2,2,2")
    assert payload == {"dim_lambda": 2, "dim_lambda_minus_co": 0,
                       "dim_moduli": 1}


def test_exceptional(capsys):
    rows = run_json(capsys, "exceptional", "--max-sq", "1")
    assert [r["alpha"] for r in rows] == \
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    assert all(r["pullback"]["f"] == 1 for r in rows)


def test_catalog(capsys):
    rows = run_json(capsys, "catalog")
    assert [r["name"] for r in rows] == \
        ["C~o", "s~0", "s~1", "s~2", "s~3", "r~0", "r~1", "r~2", "r~3"]
    assert all(r["self"] == -2 for r in rows)
    rows_p = run_json(capsys, "catalog", "--char-p", "3")
    assert rows_p[-1]["name"] == "C~3"


def test_family_commands(capsys):
    rows = run_json(capsys, "family-nef", "2", "0", "1,0,0,0")
    assert rows == [{"n": 4, "gamma": [3, 2, 2, 2], "eps": [0, 1, 1, 1]}]
    rows = run_json(capsys, "family-nonnef", "3", "1,0,0,0", "--bound", "2")
    assert len(rows) == 9
    assert rows[-1] == {"n": 6, "gamma": [7, 2, 0, 0], "eps": [1, 1, 0, 0]}


def test_kit(capsys):
    payload = run_json(capsys, "kit", "2", "1,0,0,0")
    assert payload["gamma"] == [3, 2, 2, 2]
    assert payload["n"] == 4 and payload["genus"] == 4
    assert all(payload["identities"].values())
    by_name = {row["name"]: row["class"]["expr"]
               for row in payload["divisors"]}
    assert by_name["G"] == by_name["pullback(Lambda)"]
    assert by_name["D0"] == by_name["D1"] == \
        "e*(4*Co + 2*So) - 2*r0 - 2*r1 - 2*r2 - 2*r3"


def test_census_csv_default(capsys):
    code, out, err = run_cli(capsys, "census", "--n-max", "4", "--d-max", "2",
                             "--gamma-max", "9", "--output", "csv")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == CSV_COLUMNS
    assert any(line.startswith("4,2,3,2,2,2,") for line in lines)


def test_census_partition_flag(capsys):
    args = ("census", "--n-max", "4", "--d-max", "2", "--gamma-max", "9",
            "--output", "csv")
    _, out1, _ = run_cli(capsys, *args)
    _, out8, _ = run_cli(capsys, *args, "--partitions", "8")
    assert out1 == out8


def test_census_json(capsys):
    rows = run_json(capsys, "census", "--n-max", "4", "--d-max", "2",
                    "--gamma-max", "9")
    ref = next(r for r in rows if r["gamma"] == [3, 2, 2, 2])
    assert ref["nef_brute"] is True and ref["dim_moduli"] == 1


def test_exit_code_domain_error(capsys):
    code, out, err = run_cli(capsys, "lambda", "4", "2", "1", "2,2,2,2")
    assert code == 1
    assert "error:" in err and "[type-parity]" in err


def test_exit_code_usage(capsys):
    assert run_cli(capsys, "nosuchcommand")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "decompose", "1,2,3", "2")[0] == 2
    assert run_cli(capsys, "nef", "4", "2", "3,2,2,2", "--mode", "x")[0] == 2


def test_expression_errors_exit_one(capsys):
    code, out, err = run_cli(capsys, "genus", "e*(Co")
    assert code == 1
    assert "position" in err


def test_bad_integer_literals_exit_one(capsys):
    # a non-decimal digit, and a literal over the int-string limit
    for text in ("²*s0", "1" * 4301 + "*s0"):
        code, out, err = run_cli(capsys, "genus", text)
        assert code == 1 and out == ""
        assert "[expr-syntax]" in err and "position 0" in err
        assert "Traceback" not in err


def test_global_flags_before_or_after_subcommand(capsys):
    a = run_json(capsys, "--char-p", "3", "catalog")
    b = run_json(capsys, "catalog", "--char-p", "3")
    assert a == b


def test_env_fallback_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("OSCULANT_OUTPUT", "text")
    code, out, _ = run_cli(capsys, "genus", "K")
    assert code == 0 and out.startswith("class:")
    code, out, _ = run_cli(capsys, "genus", "K", "--output", "json")
    assert json.loads(out)["value"] == -7


def test_env_char_p(capsys, monkeypatch):
    monkeypatch.setenv("OSCULANT_CHAR_P", "3")
    rows = run_json(capsys, "catalog")
    assert rows[-1]["name"] == "C~3"


def test_bad_env_value_is_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("OSCULANT_SEED", "wide")
    code, _, err = run_cli(capsys, "genus", "K")
    assert code == 1 and "run-config" in err


def test_run_config_validation():
    class Args:
        pass

    args = Args()
    args.pair_reading = "sloppy"
    with pytest.raises(Exception):
        RunConfig.resolve(args)
    args = Args()
    args.char_p = 4
    with pytest.raises(Exception):
        RunConfig.resolve(args)
    assert RunConfig.resolve(Args()) == RunConfig()


def test_output_csv_of_mapping(capsys):
    code, out, _ = run_cli(capsys, "genus", "K", "--output", "csv")
    assert code == 0
    assert "value,-7" in out


def test_verify_paper_exit_codes(capsys, monkeypatch):
    def fake_pass(seed=0, pair_reading="factored"):
        return [CriterionResult("a", True, "ok"),
                CriterionResult("b", True, "ok")]

    def fake_fail(seed=0, pair_reading="factored"):
        return [CriterionResult("a", True, "ok"),
                CriterionResult("b", False, "broken")]

    monkeypatch.setattr(cli, "run_all", fake_pass)
    code, out, _ = run_cli(capsys, "verify-paper", "--output", "text")
    assert code == 0
    assert "2/2 criteria passed" in out

    monkeypatch.setattr(cli, "run_all", fake_fail)
    code, out, _ = run_cli(capsys, "verify-paper", "--output", "text")
    assert code == 3
    assert "FAIL" in out and "1/2 criteria passed" in out

    code, out, _ = run_cli(capsys, "verify-paper", "--output", "json")
    assert code == 3
    assert json.loads(out)[1]["passed"] is False


def test_internal_failure_exit_three(capsys, monkeypatch):
    def boom(args, cfg):
        raise cli.InternalCheckFailure("wired for the test")

    monkeypatch.setattr(cli, "_cmd_catalog", boom)
    code, _, err = run_cli(capsys, "catalog")
    assert code == 3
    assert "internal check failed" in err


def test_seed_flag_accepted(capsys):
    payload = run_json(capsys, "--seed", "7", "genus", "K")
    assert payload["value"] == -7


# runs in a fresh interpreter: the test process may have numpy loaded
_NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
from osculant.cli import main

runs = []
for argv in (["nef", "4", "2", "3,2,2,2", "--char-p", "7"],
             ["census", "--n-max", "6", "--d-max", "3", "--gamma-max", "15",
              "--output", "csv"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"runs": runs, "numpy": "numpy" in sys.modules}))
"""


def test_runs_without_numpy():
    src = str(Path(cli.__file__).resolve().parents[1])
    # the old search radius variable is not read: an invalid value is fine
    env = dict(os.environ, PYTHONPATH=src, OSCULANT_SEARCH_RADIUS="wide")
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["numpy"] is False
    nef, census_out = result["runs"]
    assert nef[0] == census_out[0] == 0
    assert json.loads(nef[1])["verdict"] == "nef"
    assert census_out[1].startswith(CSV_COLUMNS)


def test_search_radius_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "nef", "4", "2", "3,2,2,2",
                             "--search-radius", "9")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --search-radius 9" in err
