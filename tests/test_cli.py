"""End-to-end CLI tests: exit codes, envelopes, and both output modes."""

import argparse
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csu21.repfinder
from csu21 import sigma_2_3_11_fixture
from csu21.cli import build_parser, main
from csu21.jsonio import encode_angles, encode_matrix

CASE5_DATA = {
    "p0": "0/1",
    "q0": "0/1",
    "r0": "0/1",
    "p": ["1/2", "1/3", "-1/11"],
    "q": ["-1/2", "-1/3", "1/11"],
    "r": ["0/1", "0/1", "0/1"],
    "s": [1, 1, -1],
}

CASE5_TARGET = {
    "generators": [
        ["1/2", "1/2", "0/1"],
        ["1/3", "2/3", "0/1"],
        ["10/11", "1/11", "0/1"],
    ],
    "central": {"fraction": "0/1", "lifts": [0, 0]},
}


@pytest.fixture
def run(monkeypatch, capsys):
    def _run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        return code, capsys.readouterr().out

    return _run


def _envelope(out):
    doc = json.loads(out)
    assert set(doc) == {"command", "status", "payload", "diagnostics"}
    return doc


# ---------------------------------------------------------------------------
# verify-table


def test_verify_table_human_output(run):
    code, out = run(["verify-table"])
    assert code == 0
    assert "status: 5/5 match" in out
    for value in ("13/66", "7/66", "25/66"):
        assert value in out
    assert "burns-epstein" in out
    assert "41/66" in out


def test_verify_table_json_envelope(run):
    code, out = run(["verify-table", "--json"])
    assert code == 0
    doc = _envelope(out)
    assert doc["command"] == "verify-table"
    assert doc["status"] == "ok"
    payload = doc["payload"]
    assert payload["all_match"] is True
    assert [r["expected"] for r in payload["cases"]] == ["13/66", "13/66", "7/66", "7/66", "25/66"]
    assert all(r["closed"] == r["expected"] == r["pipeline"] for r in payload["cases"])


def test_verify_table_single_case(run):
    code, out = run(["verify-table", "--case", "3", "--json"])
    assert code == 0
    cases = _envelope(out)["payload"]["cases"]
    assert len(cases) == 1
    assert cases[0]["expected"] == "7/66"
    assert cases[0]["burns_epstein"] == "59/66"


# ---------------------------------------------------------------------------
# cs-seifert


def test_cs_seifert_from_rep_data(run):
    doc = {"a": [2, 3, 11], "data": CASE5_DATA}
    code, out = run(["cs-seifert", "--json"], stdin_text=json.dumps(doc))
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["cs"] == "25/66"
    assert payload["burns_epstein"] == "41/66"
    assert payload["pipeline_agrees"] is True
    assert payload["presentation"] == {"a": [2, 3, 11], "b": [-1, 1, 2]}


def test_cs_seifert_from_angle_data(run):
    case = sigma_2_3_11_fixture()[0]
    doc = {"a": [2, 3, 11], "angles": encode_angles(case.generators, case.central)}
    code, out = run(["cs-seifert", "--json"], stdin_text=json.dumps(doc))
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["cs"] == "13/66"
    assert payload["burns_epstein"] == "53/66"


def test_cs_seifert_round_trips_its_own_payload(run):
    doc = {"a": [2, 3, 11], "data": CASE5_DATA}
    code, out = run(["cs-seifert", "--json"], stdin_text=json.dumps(doc))
    payload = _envelope(out)["payload"]
    again = {"a": payload["presentation"]["a"], "data": payload["data"]}
    code2, out2 = run(["cs-seifert", "--json"], stdin_text=json.dumps(again))
    assert code2 == 0
    assert _envelope(out2)["payload"]["cs"] == payload["cs"]


def test_cs_seifert_reports_broken_constraint(run):
    bad = dict(CASE5_DATA, r=["1/2", "0/1", "0/1"])
    doc = {"a": [2, 3, 11], "data": bad}
    code, out = run(["cs-seifert", "--json"], stdin_text=json.dumps(doc))
    assert code == 2
    env = _envelope(out)
    assert env["status"] == "fail"
    assert any("a_ir_i+b_ir_0=0" in d for d in env["diagnostics"])


def test_cs_seifert_rejects_malformed_input(run):
    code, _ = run(["cs-seifert"], stdin_text="{not json")
    assert code == 1
    code, _ = run(["cs-seifert"], stdin_text=json.dumps({"a": [2, 3, 11]}))
    assert code == 1  # neither 'data' nor 'angles'
    code, _ = run(["cs-seifert"], stdin_text=json.dumps({"a": [2, 4, 6], "data": CASE5_DATA}))
    assert code == 1  # moduli share factors


def test_cs_seifert_rejects_boolean_presentation_entries(run):
    zeros = {"p0": 0, "q0": 0, "r0": 0, "p": [0] * 3, "q": [0] * 3, "r": [0] * 3, "s": [0] * 3}
    doc = {"a": [2, 3, 5], "b": [-1, True, True], "data": zeros}
    code, out = run(["cs-seifert", "--json"], stdin_text=json.dumps(doc))
    assert code == 1
    assert _envelope(out)["diagnostics"][0].startswith("malformed input")


def test_cs_seifert_reads_from_file(run, tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"a": [2, 3, 11], "data": CASE5_DATA}))
    code, out = run(["cs-seifert", str(path)])
    assert code == 0
    assert "cs: 25/66" in out
    assert "status: ok" in out


# ---------------------------------------------------------------------------
# classify / check-u21


def _phase_diag(*turns):
    return np.diag([np.exp(2j * np.pi * t) for t in turns])


def test_classify_elliptic_matrix(run):
    doc = {"matrix": encode_matrix(_phase_diag(0.21, 0.52, 0.11))}
    code, out = run(["classify", "--json"], stdin_text=json.dumps(doc))
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["type"] == "elliptic"
    assert payload["residual"] <= 1e-12


def test_classify_accepts_bare_matrix(run):
    code, out = run(["classify", "--json"], stdin_text=json.dumps(encode_matrix(np.eye(3))))
    assert code == 0
    assert _envelope(out)["payload"]["type"] == "elliptic"


def test_classify_rejects_non_member(run):
    code, out = run(["classify", "--json"], stdin_text=json.dumps(encode_matrix(2 * np.eye(3))))
    assert code == 2
    env = _envelope(out)
    assert env["status"] == "fail"
    assert any("not in U(2,1)" in d for d in env["diagnostics"])


def test_classify_rejects_nan_matrix(run):
    m = encode_matrix(np.eye(3))
    m[0][0][0] = float("nan")
    code, out = run(["classify", "--json"], stdin_text=json.dumps({"matrix": m}))
    assert code == 1
    assert _envelope(out)["diagnostics"][0].startswith("malformed input")


def test_check_u21_matrix_and_g_element(run):
    code, out = run(["check-u21", "--json"], stdin_text=json.dumps(encode_matrix(np.eye(3))))
    assert code == 0
    assert _envelope(out)["payload"] == {"kind": "matrix", "residual": 0.0, "valid": True}

    g_doc = {"matrix": encode_matrix(np.eye(3)), "theta1": 0.0, "theta2": 0.0}
    code, out = run(["check-u21", "--json"], stdin_text=json.dumps(g_doc))
    assert code == 0
    assert _envelope(out)["payload"]["kind"] == "g_element"

    code, _ = run(["check-u21"], stdin_text=json.dumps(encode_matrix(3 * np.eye(3))))
    assert code == 2
    code, _ = run(["check-u21"], stdin_text="[[1,2],[3,4]]")
    assert code == 1


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


_OVERFLOWING = encode_matrix(np.eye(3))
_OVERFLOWING[0][0][0] = 1e308
_OVERFLOWING_G = {"matrix": _OVERFLOWING, "theta1": 0.0, "theta2": 0.0}

# J m^H J m overflows to inf - inf here, so the raw residual is NaN.  The
# angles are the matrix's own, so mul has only the residual to reject it.
_NAN_RESIDUAL_M = np.array(
    [
        [0.24868988716485496 + 0.9685831611286311j, 2 + 1e308j, 0.0],
        [0.0, -0.9921147013144779 - 0.12533323356430429j, 0.0],
        [0.0, 0.0, 0.7705132427757893 + 0.6374239897486896j],
    ]
)
_NAN_RESIDUAL = encode_matrix(_NAN_RESIDUAL_M)
_NAN_RESIDUAL_G = {
    "matrix": _NAN_RESIDUAL,
    "theta1": float(np.angle(np.linalg.det(_NAN_RESIDUAL_M))),
    "theta2": float(np.angle(_NAN_RESIDUAL_M[2, 2])),
}


@pytest.mark.parametrize(
    "command, doc, payload",
    [
        ("classify", {"matrix": _OVERFLOWING}, {"residual": None}),
        ("check-u21", {"matrix": _OVERFLOWING}, {"kind": "matrix", "residual": None, "valid": False}),
        ("mul", {"g": _OVERFLOWING_G, "h": _OVERFLOWING_G}, {}),
        ("classify", {"matrix": _NAN_RESIDUAL}, {"residual": None}),
        ("check-u21", {"matrix": _NAN_RESIDUAL}, {"kind": "matrix", "residual": None, "valid": False}),
        ("mul", {"g": _NAN_RESIDUAL_G, "h": _NAN_RESIDUAL_G}, {}),
    ],
    ids=["classify", "check-u21", "mul", "classify-nan", "check-u21-nan", "mul-nan"],
)
def test_overflowing_matrix_gives_strict_json_and_no_warnings(monkeypatch, capsys, command, doc, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main([command, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    env = json.loads(captured.out, parse_constant=_reject_constant)
    assert env["status"] == "fail"
    assert env["payload"] == payload


# The options each command reads, beside -h/--help and --json.
_OPTIONS = {
    "cs-seifert": set(),
    "verify-table": {"--case"},
    "classify": {"--tol-group"},
    "variation": set(),
    "find-reps": {"--seed", "--budget"},
    "mul": {"--tol-group", "--tol-angle"},
    "check-u21": {"--tol-group", "--tol-angle"},
}


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_each_command_takes_only_the_options_it_reads(command):
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(_OPTIONS)
    parser = subparsers.choices[command]
    options = {s for action in parser._actions for s in action.option_strings}
    assert options == {"-h", "--help", "--json"} | _OPTIONS[command]


@pytest.mark.parametrize(
    "argv",
    [["verify-table", "--pipeline-only"], ["find-reps", "--tol-group", "1e-9"]],
    ids=["verify-table", "find-reps"],
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[1]}" in captured.err


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize(
    "command, option", [(c, o) for c in sorted(_OPTIONS) for o in sorted(_OPTIONS[c]) if o.startswith("--tol-")]
)
def test_tolerances_must_be_finite_and_positive(capsys, command, option, value):
    # Rejected by argparse before any input is read: a usage error, exit 2.
    with pytest.raises(SystemExit) as exc:
        main([command, option, value, "--json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "usage:" in captured.err
    assert f"argument {option}: must be a finite number > 0" in captured.err


@pytest.mark.parametrize(
    "option, value, low",
    [("--budget", "0", 1), ("--budget", "-3", 1), ("--budget", "2.5", 1), ("--seed", "-1", 0), ("--seed", "x", 0)],
)
def test_budget_and_seed_must_be_usable_integers(capsys, option, value, low):
    # Rejected by argparse before any input is read: a usage error, exit 2.
    with pytest.raises(SystemExit) as exc:
        main(["find-reps", option, value, "--json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "usage:" in captured.err
    assert f"argument {option}: must be an integer >= {low}" in captured.err


def test_check_u21_rejects_inconsistent_lift(run):
    g_doc = {"matrix": encode_matrix(np.eye(3)), "theta1": 0.5, "theta2": 0.0}
    code, out = run(["check-u21", "--json"], stdin_text=json.dumps(g_doc))
    assert code == 2


# ---------------------------------------------------------------------------
# variation


def test_variation_closed_and_quadrature(run):
    doc = {
        "family": "elliptic",
        "params": {
            "alpha1": {"kind": "linear", "from": 0.0, "to": 1.0},
            "beta1": {"kind": "linear", "from": 1.0, "to": 1.0},
        },
    }
    code, out = run(["variation", "--json"], stdin_text=json.dumps(doc))
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["family"] == "elliptic"
    assert payload["closed"] == -0.5
    assert abs(payload["quadrature"] - (-0.5)) <= 1e-10
    assert payload["n"] == 256


def test_variation_accepts_poly_and_samples(run):
    doc = {
        "family": "parabolic_c1",
        "params": {
            "alpha": {"kind": "poly", "coeffs": [0.0, 1.0]},
            "beta": {"kind": "samples", "values": [1.0] * 65},
        },
        "n": 128,
    }
    code, out = run(["variation", "--json"], stdin_text=json.dumps(doc))
    assert code == 0
    payload = _envelope(out)["payload"]
    assert abs(payload["closed"] - (-1.5)) <= 1e-9
    assert payload["difference"] <= 1e-9


def test_variation_of_long_polynomials_stays_fast(run):
    # Coefficient lists have no length cap: the closed route must not
    # loop over coefficient pairs in Python.
    rng = np.random.default_rng(6000)
    doc = {
        "family": "elliptic",
        "params": {name: {"kind": "poly", "coeffs": list(rng.uniform(-1.0, 1.0, 6000))} for name in ("alpha1", "beta1")},
    }
    text = json.dumps(doc)
    start = time.perf_counter()
    code, out = run(["variation", "--json"], stdin_text=text)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert _envelope(out)["status"] == "ok"
    assert elapsed < 1.0


def test_variation_rejects_stray_parameter(run):
    doc = {"family": "elliptic", "params": {"u": {"kind": "linear", "from": 0.0, "to": 1.0}}}
    code, _ = run(["variation"], stdin_text=json.dumps(doc))
    assert code == 1  # rejected while decoding the path


def test_variation_rejects_empty_poly(run):
    doc = {"family": "elliptic", "params": {"alpha1": {"kind": "poly", "coeffs": []}}}
    code, out = run(["variation", "--json"], stdin_text=json.dumps(doc))
    assert code == 1
    assert _envelope(out)["diagnostics"][0].startswith("malformed input")


def test_variation_rejects_odd_panel_count(run):
    doc = {
        "family": "elliptic",
        "params": {"alpha1": {"kind": "linear", "from": 0.0, "to": 1.0}},
        "n": 15,
    }
    code, _ = run(["variation"], stdin_text=json.dumps(doc))
    assert code == 2  # quadrature rejects the panel count


def test_variation_caps_the_panel_count(run):
    doc = {"family": "elliptic", "params": {"alpha1": {"kind": "linear", "from": 0.0, "to": 1.0}}}
    code, out = run(["variation", "--json"], stdin_text=json.dumps({**doc, "n": 2**16}))
    assert code == 0
    assert _envelope(out)["payload"]["n"] == 2**16
    code, out = run(["variation", "--json"], stdin_text=json.dumps({**doc, "n": 2**16 + 2}))
    assert code == 1
    assert _envelope(out)["diagnostics"][0].startswith("malformed input: panel count")


@pytest.mark.parametrize(
    "endpoint", [float("nan"), float("inf"), -float("inf"), 10**400], ids=["nan", "inf", "-inf", "10**400"]
)
def test_variation_rejects_non_finite_endpoint(run, endpoint):
    doc = {"family": "elliptic", "params": {"alpha1": {"kind": "linear", "from": endpoint, "to": 1.0}}}
    code, out = run(["variation", "--json"], stdin_text=json.dumps(doc))
    assert code == 1
    assert _envelope(out)["status"] == "fail"


def test_variation_fails_when_the_result_overflows(monkeypatch, capsys):
    # Finite endpoints whose variation is not a finite number: exit 2,
    # with nothing on stderr (no numpy overflow warnings).
    doc = {
        "family": "elliptic",
        "params": {
            "alpha1": {"kind": "linear", "from": -1e308, "to": 1e308},
            "beta1": {"kind": "linear", "from": -1e308, "to": 1e308},
        },
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["variation", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    env = _envelope(captured.out)
    assert env["status"] == "fail"
    assert env["payload"] == {"family": "elliptic"}


# ---------------------------------------------------------------------------
# mul


def test_mul_adds_angles_of_commuting_lifts(run):
    g = {"matrix": encode_matrix(_phase_diag(0.1, 0.2, 0.05)), "theta1": 2 * np.pi * 0.35, "theta2": 2 * np.pi * 0.05}
    h = {"matrix": encode_matrix(_phase_diag(0.3, 0.1, 0.15)), "theta1": 2 * np.pi * 0.55, "theta2": 2 * np.pi * 0.15}
    code, out = run(["mul", "--json"], stdin_text=json.dumps({"g": g, "h": h}))
    assert code == 0
    prod = _envelope(out)["payload"]["product"]
    assert prod["theta1"] == pytest.approx(2 * np.pi * 0.9, abs=1e-12)
    assert prod["theta2"] == pytest.approx(2 * np.pi * 0.2, abs=1e-12)


def test_mul_rejects_invalid_elements(run):
    g = {"matrix": encode_matrix(2 * np.eye(3)), "theta1": 0.0, "theta2": 0.0}
    code, _ = run(["mul"], stdin_text=json.dumps({"g": g, "h": g}))
    assert code == 2
    code, _ = run(["mul"], stdin_text=json.dumps({"g": g}))
    assert code == 1


# ---------------------------------------------------------------------------
# find-reps


def test_find_reps_trivial_target(run):
    doc = {
        "a": [2, 3, 11],
        "target": {
            "generators": [["0/1"] * 3, ["0/1"] * 3, ["0/1"] * 3],
            "central": {"fraction": "0/1", "lifts": [0, 0]},
        },
    }
    code, out = run(["find-reps", "--budget", "1", "--json"], stdin_text=json.dumps(doc))
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["cs"] == "0/1"
    assert payload["search"]["converged"] is True
    assert payload["irreducible"] is False  # the trivial representation is reducible


def test_find_reps_solves_case_five(run):
    doc = {"a": [2, 3, 11], "target": CASE5_TARGET}
    code, out = run(["find-reps", "--seed", "1", "--budget", "16", "--json"], stdin_text=json.dumps(doc))
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["cs"] == "25/66"
    assert payload["burns_epstein"] == "41/66"
    assert payload["irreducible"] is True
    assert payload["search"]["residual"] <= 1e-8


def test_find_reps_matches_eigenphases_once_per_generator(run, monkeypatch):
    # The search scores the eigenphase match into its residual, and a
    # converged residual already bounds it: one match per generator and job.
    calls = []
    penalty = csu21.repfinder._spectral_penalty

    def counting(m, tri):
        calls.append(tri)
        return penalty(m, tri)

    monkeypatch.setattr("csu21.repfinder._spectral_penalty", counting)
    doc = {"a": [2, 3, 11], "target": CASE5_TARGET}
    code, _ = run(["find-reps", "--seed", "1", "--budget", "16", "--json"], stdin_text=json.dumps(doc))
    assert code == 0
    assert len(calls) == 3


def test_find_reps_rejects_unliftable_target(run):
    doc = {
        "a": [2, 3, 11],
        "target": {
            "generators": [["1/3", "0/1", "0/1"], ["0/1"] * 3, ["0/1"] * 3],
            "central": {"fraction": "0/1", "lifts": [0, 0]},
        },
    }
    code, out = run(["find-reps", "--json"], stdin_text=json.dumps(doc))
    assert code == 2
    env = _envelope(out)
    assert env["status"] == "fail"
    assert any("not congruent" in d for d in env["diagnostics"])


def test_find_reps_exhausted_budget_reports_best(run):
    # the zero start alone cannot close the long relation of case 1
    case1 = {
        "generators": [
            ["0/1", "1/2", "1/2"],
            ["0/1", "2/3", "1/3"],
            ["6/11", "3/11", "2/11"],
        ],
        "central": {"fraction": "0/1", "lifts": [0, -1]},
    }
    doc = {"a": [2, 3, 11], "target": case1}
    code, out = run(["find-reps", "--budget", "1", "--json"], stdin_text=json.dumps(doc))
    assert code == 3
    env = _envelope(out)
    assert env["status"] == "fail"
    assert env["payload"]["search"]["converged"] is False
    assert env["payload"]["search"]["residual"] > 1e-6
    assert any("did not converge" in d for d in env["diagnostics"])


def test_find_reps_rejects_a_near_miss(run):
    # Every start stalls with the long relation off by about 1e-4: a
    # near-miss, not a representation, however small its residual.
    target = {
        "generators": [["0/1", "1/2", "1/2"], ["0/1", "2/3", "1/3"], ["0/1", "9/11", "2/11"]],
        "central": {"fraction": "0/1", "lifts": [0, -1]},
    }
    doc = {"a": [2, 3, 11], "target": target}
    code, out = run(["find-reps", "--seed", "1", "--budget", "3", "--json"], stdin_text=json.dumps(doc))
    assert code == 3
    env = _envelope(out)
    assert env["status"] == "fail"
    assert env["payload"]["search"]["converged"] is False
    assert any("did not converge" in d and "> 1e-12" in d for d in env["diagnostics"])


def test_find_reps_rejects_malformed_target(run):
    code, _ = run(["find-reps"], stdin_text=json.dumps({"a": [2, 3, 11]}))
    assert code == 1


# ---------------------------------------------------------------------------
# top level


def test_no_subcommand_prints_help(run):
    code, out = run([])
    assert code == 0
    assert "cs-seifert" in out
    assert "verify-table" in out


# ---------------------------------------------------------------------------
# fuzzed documents: every command keeps the exit-code and envelope contract

_CASE1 = sigma_2_3_11_fixture()[0]
_G_DOC = {"matrix": encode_matrix(_phase_diag(0.1, 0.2, 0.05)), "theta1": 2 * np.pi * 0.35, "theta2": 2 * np.pi * 0.05}

# (argv, seed documents); verify-table reads no document, so its options vary instead.
_FUZZ_SEEDS = {
    "cs-seifert": (
        [],
        [
            {"a": [2, 3, 11], "data": CASE5_DATA},
            {"a": [2, 3, 11], "angles": encode_angles(_CASE1.generators, _CASE1.central)},
        ],
    ),
    "verify-table": ([], [None]),
    "classify": ([], [{"matrix": encode_matrix(_phase_diag(0.21, 0.52, 0.11))}]),
    "variation": (
        [],
        [
            {
                "family": "elliptic",
                "params": {
                    "alpha1": {"kind": "linear", "from": 0.0, "to": 1.0},
                    "beta1": {"kind": "poly", "coeffs": [1.0, 0.5]},
                },
                "n": 16,
            },
            {"family": "parabolic_c1", "params": {"beta": {"kind": "samples", "values": [1.0] * 33}}},
        ],
    ),
    "find-reps": (["--seed", "1", "--budget", "1"], [{"a": [2, 3, 11], "target": CASE5_TARGET}]),
    "mul": ([], [{"g": _G_DOC, "h": _G_DOC}]),
    "check-u21": ([], [_G_DOC, encode_matrix(np.eye(3))]),
}

# Integers stay small: a panel count is an allocation size.
_INTS = st.integers(-20, 20) | st.sampled_from([10**400, -(10**400)])
_FLOATS = st.floats(-4.0, 4.0) | st.sampled_from([math.nan, math.inf, 1e308, -1e308, 1e-308])
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=12).map(lambda f: f"{f.numerator}/{f.denominator}")
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | _FLOATS | _RATIONALS | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=8,
)
# Most mutations keep the kind of value they replace, so that documents
# get past the decoders and reach the checks after them.
_LIKE = {bool: st.booleans(), int: _INTS | _FLOATS, float: _INTS | _FLOATS, str: _RATIONALS}


def _locations(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated(draw, seeds):
    doc = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["like"] * 4 + ["any", "delete"]))
        paths = [p for p in _locations(doc) if how != "like" or type(_at(doc, p)) in _LIKE]
        path = draw(st.sampled_from(paths or [()]))
        new = draw(_LIKE[type(_at(doc, path))] if how == "like" and paths else _JSON)
        if not path:
            doc = new
        elif how == "delete" and isinstance(_at(doc, path[:-1]), dict):
            del _at(doc, path[:-1])[path[-1]]
        else:
            _at(doc, path[:-1])[path[-1]] = new
    return doc


def _assert_finite(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            _assert_finite(v)
    elif not isinstance(value, (str, bool, int)):
        assert isinstance(value, float) and math.isfinite(value), value


@pytest.mark.parametrize("command", sorted(_FUZZ_SEEDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_documents_keep_the_cli_contract(command, data):
    argv, seeds = _FUZZ_SEEDS[command]
    if command == "verify-table":
        argv = data.draw(st.sampled_from([[], *(["--case", str(c)] for c in range(1, 6))]))
    doc = data.draw(_mutated(seeds))
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--json", *argv])
    finally:
        sys.stdin = stdin
    assert code in {0, 1, 2, 3}
    assert err.getvalue() == ""
    env = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert env["status"] == ("ok" if code == 0 else "fail")
    if code == 0:
        _assert_finite(env["payload"])


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a one-shot command pays for
    # every module it imports.
    code = "import sys, csu21, csu21.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(csu21.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
