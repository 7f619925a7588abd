import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from projsum import cli
from projsum.cli import main
from projsum.serialize import (
    family_from_dict,
    family_to_dict,
    load_json,
    save_json,
    strategy_to_dict,
)
from projsum.families import four_family
from projsum.strategies import canonical_strategy
from projsum.sweep import CSV_HEADER


def test_family_gen_and_verify(tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert main(["family", "gen", "--n", "4", "--k", "2", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["family", "verify", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_family_gen_rejects_bad_parameters(tmp_path, capsys):
    out = tmp_path / "fam.json"
    assert main(["family", "gen", "--n", "2", "--out", str(out)]) == 2
    assert main(["family", "gen", "--n", "3", "--k", "2", "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["family", "gen", "--n", "5", "--k", "2", "--out", str(out)]) == 0
    assert family_from_dict(load_json(out)).d == 11


def one_error_line(err: str) -> bool:
    return err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family", "verify", "--tol", "zzz", "f.json"], "argument --tol: invalid float value: 'zzz'"),
        (["selftest", "s.json", "--n", "4", "--k", "abc", "--cert", "c.json"],
         "argument --k: invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
        (["sweep", "--config", "c.json", "--out", "r.csv", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
        (["selftest", "s.json", "--n", "4"], "the following arguments are required: --cert"),
    ],
)
def test_a_bad_command_line_reports_one_error_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert one_error_line(captured.err) and message in captured.err, captured.err
    assert captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: projsum")


def test_family_gen_refuses_an_over_budget_ladder(tmp_path, capsys):
    # n = 8 rungs have d = 7, 41, 239, 1393, 8119: level 5 alone is 8 d^2 > 4096^2;
    # the n = 1200 simplex used to end in a RecursionError traceback
    out = tmp_path / "fam.json"
    for n, k in (("8", "6"), ("8", "10000000"), ("1200", "1")):
        assert main(["family", "gen", "--n", n, "--k", k, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert one_error_line(captured.err) and "budget" in captured.err
        assert captured.out == ""
        assert not out.exists()


def test_general_ladder_gen_verify_and_selftest(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    assert main(["family", "gen", "--n", "5", "--k", "3", "--out", str(fam)]) == 0
    assert "d=29" in capsys.readouterr().out
    assert main(["family", "verify", str(fam)]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    strat = tmp_path / "strategy.json"
    cert = tmp_path / "certificate.json"
    assert main(["strategy", "canonical", "--n", "5", "--k", "2", "--out", str(strat)]) == 0
    assert main(["selftest", str(strat), "--n", "5", "--k", "2", "--cert", str(cert)]) == 0
    assert load_json(cert)["epsilon"] < 1e-9
    capsys.readouterr()


def test_path_and_encoding_errors_report_one_error_line(tmp_path, capsys):
    binary = tmp_path / "fam.bin"
    binary.write_bytes(bytes(range(128, 256)))
    runs = (
        ["family", "gen", "--n", "4", "--out", str(tmp_path)],
        ["family", "verify", str(tmp_path)],
        ["family", "verify", str(binary)],
        ["correlate", str(binary), "--out", str(tmp_path / "c.json")],
    )
    for argv in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert one_error_line(captured.err), captured.err
        assert captured.out == ""


def test_family_verify_fails_on_corruption(tmp_path, capsys):
    out = tmp_path / "fam.json"
    main(["family", "gen", "--n", "4", "--k", "1", "--out", str(out)])
    doc = load_json(out)
    doc["projections"][0][0][0] = [1.0001, 0.0]
    save_json(doc, out)
    assert main(["family", "verify", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_family_verify_tol_flag_and_env(tmp_path, monkeypatch, capsys):
    out = tmp_path / "fam.json"
    main(["family", "gen", "--n", "4", "--k", "1", "--out", str(out)])
    doc = load_json(out)
    doc["projections"][0][0][0] = [1.0 + 2e-6, 0.0]
    save_json(doc, out)
    assert main(["family", "verify", str(out)]) == 1
    assert main(["family", "verify", str(out), "--tol", "1e-3"]) == 0
    monkeypatch.setenv("PROJSUM_TOL", "1e-3")
    assert main(["family", "verify", str(out)]) == 0
    monkeypatch.setenv("PROJSUM_TOL", "zzz")
    assert main(["family", "verify", str(out)]) == 2
    capsys.readouterr()


def test_strategy_correlate_selftest_chain(tmp_path, capsys):
    strat = tmp_path / "strategy.json"
    corr = tmp_path / "correlation.json"
    cert = tmp_path / "certificate.json"
    assert main(["strategy", "canonical", "--n", "4", "--k", "1", "--out", str(strat)]) == 0
    assert main(["correlate", str(strat), "--out", str(corr)]) == 0
    assert main(
        ["selftest", str(strat), "--n", "4", "--k", "1", "--cert", str(cert)]
    ) == 0
    text = capsys.readouterr().out
    assert "epsilon" in text
    doc = load_json(cert)
    assert doc["epsilon"] < 1e-9
    table = load_json(corr)["table"]
    assert abs(table[0][0][0][0] - 1.0 / 3) < 1e-12


def test_selftest_refuses_a_degenerate_fit(tmp_path, capsys):
    # the k=1 canonical strategy against the k=2 family: the fit form's lowest
    # eigenvalue is triply degenerate, so any isometry would be roundoff's pick
    strat = tmp_path / "strategy.json"
    cert = tmp_path / "certificate.json"
    assert main(["strategy", "canonical", "--n", "4", "--k", "1", "--out", str(strat)]) == 0
    capsys.readouterr()
    assert main(["selftest", str(strat), "--n", "4", "--k", "2", "--cert", str(cert)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the fit form's eigenvalues 1 and 2 are not separated "
        "(8.888889e-02 vs 8.888889e-02)\n"
    )
    assert not cert.exists()


def test_selftest_refuses_a_question_count_mismatch(tmp_path, capsys):
    strat = tmp_path / "strategy.json"
    cert = tmp_path / "certificate.json"
    assert main(["strategy", "canonical", "--n", "4", "--k", "1", "--out", str(strat)]) == 0
    capsys.readouterr()
    assert main(["selftest", str(strat), "--n", "5", "--k", "1", "--cert", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: strategy has 4 questions, family has 5\n"
    assert not cert.exists()


def test_correlate_rejects_malformed_strategy(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["correlate", str(bad), "--out", str(tmp_path / "c.json")]) == 2
    missing = tmp_path / "nope.json"
    assert main(["correlate", str(missing), "--out", str(tmp_path / "c.json")]) == 2
    fam_file = tmp_path / "fam.json"
    save_json(family_to_dict(four_family(1)), fam_file)
    assert main(["correlate", str(fam_file), "--out", str(tmp_path / "c.json")]) == 2
    capsys.readouterr()


def test_invalid_strategy_file_reports_one_error_line(tmp_path, capsys):
    strat = tmp_path / "strategy.json"
    main(["strategy", "canonical", "--n", "4", "--k", "1", "--out", str(strat)])
    capsys.readouterr()
    good = load_json(strat)
    cases = (
        (("alice", 0, 0, 1, 1), float("nan"), "alice[0][0][1][1]: non-finite entry"),
        (("bob", 3, 1, 2, 2), float("inf"), "bob[3][1][2][2]: non-finite entry"),
        (("state", 0), float("nan"), "state[0]: non-finite entry"),
        (("alice", 0, 0, 0, 0), 1.5, "alice question 0: POVM does not sum to identity"),
    )
    for path, value, message in cases:
        doc = json.loads(json.dumps(good))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = [value, 0.0]
        bad = tmp_path / "bad.json"
        save_json(doc, bad)
        assert main(["correlate", str(bad), "--out", str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c.json").exists()
        cert = tmp_path / "cert.json"
        assert main(["selftest", str(bad), "--n", "4", "--k", "1", "--cert", str(cert)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not cert.exists()


def test_non_finite_family_file_reports_one_error_line(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    main(["family", "gen", "--n", "4", "--k", "1", "--out", str(fam)])
    capsys.readouterr()
    for value in (float("nan"), float("inf")):
        doc = load_json(fam)
        doc["projections"][2][1][0] = [0.0, value]
        bad = tmp_path / "bad.json"
        save_json(doc, bad)
        assert main(["family", "verify", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: family: projection 2[1][0]: non-finite entry\n"
        assert captured.out == ""


def test_family_scalar_outside_zero_to_n_reports_one_error_line(tmp_path, capsys):
    fam, bad = tmp_path / "fam.json", tmp_path / "bad.json"
    main(["family", "gen", "--n", "4", "--k", "1", "--out", str(fam)])
    capsys.readouterr()
    for x in ([10**400, 1], [-1, 3], [9, 1]):
        save_json(dict(load_json(fam), x=x), bad)
        assert main(["family", "verify", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: family: scalar x must lie in [0, n] = [0, 4]\n"
        assert captured.out == ""


def test_sweep_command_csv_and_json(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "n": 4,
                "k": 1,
                "noise_model": "outcome-noise",
                "levels": [0.0, 0.01],
                "trials_per_level": 2,
                "seed": 7,
            }
        )
    )
    out_csv = tmp_path / "report.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    out_json = tmp_path / "report.json"
    assert main(
        ["sweep", "--config", str(cfg), "--out", str(out_json), "--format", "json"]
    ) == 0
    rows = json.loads(out_json.read_text())
    assert len(rows) == 4
    capsys.readouterr()


def test_sweep_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    for doc in ({"n": 4, "k": 1}, 5, ["n"]):
        cfg.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert one_error_line(capsys.readouterr().err)


def test_sweep_refuses_an_over_budget_config(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    out = tmp_path / "r.csv"
    cfg.write_text(json.dumps({"n": 4, "k": 1, "noise_model": "state-mixing",
                               "levels": [0.0], "trials_per_level": 1e18, "seed": 7}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert one_error_line(captured.err) and "budget" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("degree", [5, 20000, 10**6])
def test_sweep_refuses_an_over_budget_monomial_degree_before_any_trial(tmp_path, capsys, degree):
    cfg = tmp_path / "config.json"
    out = tmp_path / "r.csv"
    cfg.write_text(json.dumps({"n": 4, "k": 1, "noise_model": "state-mixing", "levels": [0.0],
                               "trials_per_level": 1, "seed": 7, "monomial_degree": degree}))
    start = time.perf_counter()
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert one_error_line(captured.err) and "word-pair budget" in captured.err, captured.err
    assert captured.out == ""
    assert not out.exists()


SWEEP_CONFIG = {
    "n": 4,
    "k": 1,
    "noise_model": "state-mixing",
    "levels": [0.0, 0.01],
    "trials_per_level": 1,
    "seed": 7,
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", None),
        ("n", "x"),
        ("n", True),
        ("k", 1.5),
        ("k", float("nan")),
        ("trials_per_level", [2]),
        ("seed", "7"),
        ("monomial_degree", 2.5),
        ("levels", "ab"),
        ("levels", None),
        ("levels", [0.0, "0.1"]),
        ("levels", [0, 10**400]),
    ],
)
def test_sweep_rejects_a_non_numeric_config_field(tmp_path, capsys, field, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, field: value}))
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert one_error_line(captured.err) and repr(field) in captured.err, captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_accepts_integral_floats(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    integral = {"n": 4.0, "k": 1.0, "seed": 7.0, "levels": [0, 0.01]}
    cfg.write_text(json.dumps({**SWEEP_CONFIG, **integral}))
    out = tmp_path / "r.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3
    capsys.readouterr()


def test_huge_json_integers_report_one_error_line(tmp_path, capsys):
    fam, strat = tmp_path / "fam.json", tmp_path / "strategy.json"
    main(["family", "gen", "--n", "4", "--k", "1", "--out", str(fam)])
    main(["strategy", "canonical", "--n", "4", "--k", "1", "--out", str(strat)])
    capsys.readouterr()
    doc = load_json(fam)
    doc["projections"][0][1][2] = [10**400, 0]
    save_json(doc, fam)
    doc = load_json(strat)
    doc["state"][4] = [0, -(10**400)]
    save_json(doc, strat)
    digits = tmp_path / "digits.json"
    digits.write_text("[" + "7" * 5000 + "]")
    cert = tmp_path / "cert.json"
    runs = (
        (["family", "verify", str(fam)], "family.projections[0][1]"),
        (["correlate", str(strat), "--out", str(tmp_path / "c.json")], "strategy.state[4]"),
        (["selftest", str(strat), "--n", "4", "--cert", str(cert)], "strategy.state[4]"),
        (["family", "verify", str(digits)], "digits.json"),
    )
    for argv, where in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert one_error_line(captured.err) and where in captured.err, captured.err
        assert captured.out == ""
    assert not (tmp_path / "c.json").exists() and not cert.exists()


DROP = object()  # deletes the entry at the path, leaving its list one short
COMMANDS = {
    "family verify": lambda doc, out: ["family", "verify", str(doc)],
    "correlate": lambda doc, out: ["correlate", str(doc), "--out", str(out)],
    "selftest": lambda doc, out: ["selftest", str(doc), "--n", "4", "--cert", str(out)],
    "sweep": lambda doc, out: ["sweep", "--config", str(doc), "--out", str(out)],
}
FAMILY_CASES = [
    (("d",), 3.9, "family.d: not an integer: 3.9"),
    (("n",), "4", "family.n: not an integer: '4'"),
    (("n",), True, "family.n: not an integer: True"),
    (("x", 1), 3.5, "family.x[1]: not an integer: 3.5"),
    (("projections", 1, 0, 2, 0), "0.5", "family.projections[1][0][2]: not a number: '0.5'"),
    (("projections", 1, 0, 2, 1), False, "family.projections[1][0][2]: not a number: False"),
    (("projections", 1, 2, 2), DROP, "family.projections[1][2]: length 2, expected 3"),
    (
        ("projections", 0, 1, 2, 0),
        10**400,
        "family.projections[0][1][2]: int too large to convert to float",
    ),
]
STRATEGY_CASES = [
    (("dimA",), 3.7, "strategy.dimA: not an integer: 3.7"),
    (("dimB",), "3", "strategy.dimB: not an integer: '3'"),
    (("dimA",), True, "strategy.dimA: not an integer: True"),
    (("alice", 0, 1, 2, 0, 0), "0.5", "strategy.alice[0][1][2][0]: not a number: '0.5'"),
    (("state", 4, 1), True, "strategy.state[4]: not a number: True"),
    (("bob", 3, 1, 0, 2), DROP, "strategy.bob[3][1][0]: length 2, expected 3"),
    (("state", 4, 1), -(10**400), "strategy.state[4]: int too large to convert to float"),
]
SWEEP_CASES = [
    (("k",), "1", "sweep config field 'k': not an integer: '1'"),
    (("seed",), True, "sweep config field 'seed': not an integer: True"),
    (("trials_per_level",), 2.5, "sweep config field 'trials_per_level': not an integer: 2.5"),
    (("levels", 1), "0.01", "sweep config field 'levels'[1]: not a number: '0.01'"),
    (("levels", 1), False, "sweep config field 'levels'[1]: not a number: False"),
    (("levels", 1), [0.01], "sweep config field 'levels'[1]: not a number: [0.01]"),
    (("levels", 1), 10**400, "sweep config field 'levels'[1]: int too large to convert to float"),
]


def good_document(command):
    if command == "family verify":
        return family_to_dict(four_family(1))
    if command == "sweep":
        return json.loads(json.dumps(SWEEP_CONFIG))
    return strategy_to_dict(canonical_strategy(four_family(1)))


BAD_INPUTS = (
    [("family verify", *case) for case in FAMILY_CASES]
    + [(command, *case) for command in ("correlate", "selftest") for case in STRATEGY_CASES]
    + [("sweep", *case) for case in SWEEP_CASES]
)


@pytest.mark.parametrize(
    "command, path, value, message",
    BAD_INPUTS,
    ids=[f"{c}-{'.'.join(map(str, p))}-{type(v).__name__}" for c, p, v, _ in BAD_INPUTS],
)
def test_a_mistyped_field_or_entry_reports_one_error_line(
    tmp_path, capsys, command, path, value, message
):
    doc = good_document(command)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    save_json(doc, bad)
    assert main(COMMANDS[command](bad, out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, env, message",
    [
        ("inf", None, "--tol=inf"),
        ("nan", None, "--tol=nan"),
        ("-1", None, "--tol=-1.0"),
        (None, "inf", "PROJSUM_TOL='inf'"),
        (None, "nan", "PROJSUM_TOL='nan'"),
        (None, "-1e-3", "PROJSUM_TOL='-1e-3'"),
    ],
)
def test_family_verify_refuses_a_non_finite_or_negative_tolerance(
    tmp_path, monkeypatch, capsys, flag, env, message
):
    fam = tmp_path / "fam.json"
    doc = family_to_dict(four_family(1))
    doc["projections"][0][0][0] = [0.9, 0.0]
    save_json(doc, fam)
    if env is not None:
        monkeypatch.setenv("PROJSUM_TOL", env)
    argv = ["family", "verify", str(fam)] + ([] if flag is None else ["--tol", flag])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message} is not a finite number >= 0\n"
    assert captured.out == ""


def test_unexpected_exception_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    strat = tmp_path / "strategy.json"
    main(["strategy", "canonical", "--n", "4", "--k", "1", "--out", str(strat)])
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "extract_dilation", broken)
    cert = tmp_path / "cert.json"
    assert main(["selftest", str(strat), "--n", "4", "--k", "1", "--cert", str(cert)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: internal error: ZeroDivisionError: division by zero\n"
    assert captured.out == ""
    assert not cert.exists()


def test_a_closed_stdout_exits_quietly(tmp_path):
    # the pipe's only reader is gone before the command writes anything
    fam = tmp_path / "fam.json"
    assert main(["family", "gen", "--n", "4", "--k", "1", "--out", str(fam)]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        run = subprocess.run(
            [sys.executable, "-m", "projsum.cli", "family", "verify", str(fam)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert run.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert run.stderr == ""


def test_outputs_are_idempotent(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["family", "gen", "--n", "3", "--out", str(a)])
    main(["family", "gen", "--n", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_demo_chsh(capsys):
    assert main(["demo", "chsh"]) == 0
    out = capsys.readouterr().out
    assert "0.853553391" in out


def test_generated_family_files_load_back(tmp_path):
    out = tmp_path / "fam.json"
    main(["family", "gen", "--n", "6", "--out", str(out)])
    fam = family_from_dict(load_json(out))
    assert fam.n == 6 and fam.d == 5
    total = sum(np.asarray(p) for p in fam.projections)
    assert np.allclose(total, (6.0 / 5) * np.eye(5), atol=1e-12)
