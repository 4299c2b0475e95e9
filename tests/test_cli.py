"""End-to-end CLI tests: exit codes, envelopes, and both output modes."""

import io
import json

import numpy as np
import pytest

from csu21 import sigma_2_3_11_fixture
from csu21.cli import main
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


def test_verify_table_pipeline_only(run):
    code, out = run(["verify-table", "--pipeline-only", "--json"])
    assert code == 0
    payload = _envelope(out)["payload"]
    assert payload["all_match"] is True
    assert all("closed" not in r for r in payload["cases"])


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


def test_variation_rejects_stray_parameter(run):
    doc = {"family": "elliptic", "params": {"u": {"kind": "linear", "from": 0.0, "to": 1.0}}}
    code, _ = run(["variation"], stdin_text=json.dumps(doc))
    assert code == 1  # rejected while decoding the path


def test_variation_rejects_odd_panel_count(run):
    doc = {
        "family": "elliptic",
        "params": {"alpha1": {"kind": "linear", "from": 0.0, "to": 1.0}},
        "n": 15,
    }
    code, _ = run(["variation"], stdin_text=json.dumps(doc))
    assert code == 2  # quadrature rejects the panel count


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
