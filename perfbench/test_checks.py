"""The benchmark's checks pass the program's real outputs and reject wrong ones.

    python3 -m pytest perfbench/test_checks.py -q

Each test runs one job as the benchmark does, confirms that its check
accepts the output, then breaks the output in one named way and confirms
that the check rejects it.
"""

import copy
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as C  # noqa: E402
import workloads as W  # noqa: E402


def run(job):
    return W.envelope(job.call())


def test_cs_off_by_one_66th_is_rejected(tmp_path):
    a = [2, 3, 11]
    d = C.decode_data({"p0": "0", "q0": "0", "r0": "0", "p": ["1/2", "1/3", "-1/11"],
                       "q": ["-1/2", "-1/3", "1/11"], "r": ["0", "0", "0"], "s": [1, 1, -1]})
    path = W.write(tmp_path / "rep.json", {"a": a, "data": C.encode_data(d)})
    code, env = run(W.command("cs-seifert", ["cs-seifert", path]))
    C.check_cs_seifert(code, env, a, Fraction(25, 66))
    wrong = copy.deepcopy(env)
    cs = Fraction(env["payload"]["cs"]) + Fraction(1, 66)
    wrong["payload"]["cs"] = str(cs)
    wrong["payload"]["burns_epstein"] = str(C.mod1(-cs))
    with pytest.raises(C.CheckFailed, match="cs"):
        C.check_cs_seifert(code, wrong, a, Fraction(25, 66))


def test_perturbed_product_of_found_matrices_is_rejected(tmp_path):
    case, seed = 4, 1
    path = W.write(tmp_path / "target.json", W.table_target(case))
    code, env = run(W.command("find-reps", ["find-reps", path, "--seed", str(seed)]))
    C.check_find_reps(code, env, case, seed)
    # x_3 -> x_3 exp(1e-3 X) stays in U(2,1) but moves x_1 x_2 x_3 off I by ~1e-3.
    x = np.array([[1j, 1, 1], [-1, 1j, 1], [1, 1, 1j]])
    matrices = env["payload"]["search"]["matrices"]
    m3 = C.decode_matrix(matrices[2]) @ scipy.linalg.expm(1e-3 * x)
    assert C.u21_residual(m3) < C.MEMBERSHIP_TOL
    wrong = copy.deepcopy(env)
    wrong["payload"]["search"]["matrices"][2] = W.encode_matrix(m3)
    with pytest.raises(C.CheckFailed, match="relations"):
        C.check_find_reps(code, wrong, case, seed)


def test_swapped_classify_answer_is_rejected(tmp_path):
    rng = np.random.default_rng(5)
    for kind, other in (("elliptic", "loxodromic"), ("loxodromic", "parabolic"), ("parabolic", "elliptic")):
        path = W.write(tmp_path / f"{kind}.json", {"matrix": W.encode_matrix(W.built_matrix(rng, kind))})
        code, env = run(W.command("classify", ["classify", path]))
        C.check_classify(code, env, kind)
        env["payload"]["type"] = other
        with pytest.raises(C.CheckFailed, match="classified"):
            C.check_classify(code, env, kind)


@pytest.mark.parametrize("family", ["elliptic", "loxodromic", "parabolic_c1", "parabolic_c2"])
@pytest.mark.parametrize("kind", W.PATH_KINDS)
def test_quadrature_off_by_ten_error_bounds_is_rejected(tmp_path, family, kind):
    rng = np.random.default_rng(7)
    doc, value, closed_bound, quad_bound = W.path_doc(rng, family, kind, 32)
    path = W.write(tmp_path / "path.json", doc)
    code, env = run(W.command("variation", ["variation", path]))
    C.check_variation(code, env, value, closed_bound, quad_bound)
    env["payload"]["quadrature"] += 10 * quad_bound
    with pytest.raises(C.CheckFailed, match="quadrature"):
        C.check_variation(code, env, value, closed_bound, quad_bound)
