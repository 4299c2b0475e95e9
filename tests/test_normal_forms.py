"""Normal-form families: coefficients, developing maps, holonomy."""

import math

import numpy as np
import pytest

from conftest import random_normal_form
from csu21 import (
    EllipticNF,
    IsometryType,
    LoxodromicNF,
    NormalForm,
    ParabolicC1NF,
    ParabolicC2NF,
    check_u21,
    classify,
    connection_coeffs,
    developing_map,
    g_multiply,
    holonomy,
    u21_algebra_residual,
)
from csu21.normal_forms import FAMILIES, FAMILY_PARAMS, direction_matrix

TWO_PI = 2.0 * math.pi


def test_family_tags():
    assert EllipticNF((0, 0, 0), (0, 0, 0)).family == "elliptic"
    assert LoxodromicNF((0, 0), (0, 0), 0, 0).family == "loxodromic"
    assert ParabolicC1NF(0, 0, 0, 0, 0, 0).family == "parabolic_c1"
    assert ParabolicC2NF((0, 0), (0, 0), 0, 0).family == "parabolic_c2"
    with pytest.raises(ValueError):
        NormalForm("nope", (0, 0, 0), (0, 0, 0))


@pytest.mark.parametrize(
    "make", [lambda f: NormalForm(f, (0, 0, 0), (0, 0, 0)), lambda f: direction_matrix(f, np.zeros(3))],
    ids=["NormalForm", "direction_matrix"],
)
def test_an_unknown_family_is_echoed_cut_short(make):
    with pytest.raises(ValueError) as err:
        make("x" * 100000)
    assert "unknown family 'xxx" in str(err.value) and len(str(err.value)) < 1024


def test_coeffs_zero_connection():
    cx, cy = connection_coeffs(EllipticNF((0, 0, 0), (0, 0, 0)))
    assert np.array_equal(cx, np.zeros((3, 3))) and np.array_equal(cy, np.zeros((3, 3)))


def test_coeffs_elliptic_diagonal():
    cx, cy = connection_coeffs(EllipticNF((1.0, 2.0, 3.0), (0.5, 0.0, -0.5)))
    assert np.max(np.abs(cx - np.diag([TWO_PI * 1j, 2 * TWO_PI * 1j, 3 * TWO_PI * 1j]))) <= 1e-15
    assert np.max(np.abs(cy - np.diag([0.5 * TWO_PI * 1j, 0.0, -0.5 * TWO_PI * 1j]))) <= 1e-15


def test_coeffs_loxodromic_block():
    cx, _ = connection_coeffs(LoxodromicNF((0.0, 0.0), (0.0, 0.0), 1.0, 0.0))
    want = np.zeros((3, 3), dtype=complex)
    want[1, 2] = want[2, 1] = 1.0
    assert np.array_equal(cx, want)


def test_coeffs_parabolic_c2_nilpotent():
    cx, _ = connection_coeffs(ParabolicC2NF((0.0, 0.0), (0.0, 0.0), 1.0, 0.0))
    want = np.array([[-1j, 0, 1j], [0, 0, 0], [-1j, 0, 1j]])
    assert np.array_equal(cx, want)
    assert np.max(np.abs(cx @ cx)) <= 1e-15  # square-zero


def test_coeffs_live_in_algebra(rng):
    for family in FAMILIES:
        for _ in range(40):
            cx, cy = connection_coeffs(random_normal_form(rng, family))
            assert u21_algebra_residual(cx) <= 1e-12
            assert u21_algebra_residual(cy) <= 1e-12


def test_connections_are_flat(rng):
    for family in FAMILIES:
        for _ in range(40):
            cx, cy = connection_coeffs(random_normal_form(rng, family))
            assert np.max(np.abs(cx @ cy - cy @ cx)) <= 1e-12


def test_developing_map_at_origin(rng):
    for family in FAMILIES:
        g = developing_map(random_normal_form(rng, family), 0.0, 0.0)
        assert np.array_equal(g.a, np.eye(3))
        assert g.theta1 == 0.0 and g.theta2 == 0.0


def test_developing_map_lands_in_cover(rng):
    for family in FAMILIES:
        for _ in range(25):
            nf = random_normal_form(rng, family)
            x, y = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
            developing_map(nf, x, y).validate(tol_group=1e-9)


def test_developing_map_is_homomorphism(rng):
    worst = 0.0
    for family in FAMILIES:
        for _ in range(40):
            nf = random_normal_form(rng, family)
            x1, y1, x2, y2 = (float(v) for v in rng.uniform(-0.8, 0.8, 4))
            joint = developing_map(nf, x1 + x2, y1 + y2)
            split = g_multiply(developing_map(nf, x1, y1), developing_map(nf, x2, y2))
            worst = max(
                worst,
                float(np.max(np.abs(joint.a - split.a))),
                abs(joint.theta1 - split.theta1),
                abs(joint.theta2 - split.theta2),
            )
    assert worst <= 1e-9


def test_elliptic_holonomy_values():
    nf = EllipticNF((0.25, 0.5, -0.25), (0.0, 1.0, 0.5))
    mu, lam = holonomy(nf)
    assert np.max(np.abs(mu.a - np.diag(np.exp(TWO_PI * 1j * np.array([0.25, 0.5, -0.25]))))) <= 1e-14
    assert mu.theta1 == pytest.approx(TWO_PI * 0.5)
    assert mu.theta2 == pytest.approx(-TWO_PI * 0.25)
    assert lam.theta1 == pytest.approx(TWO_PI * 1.5)
    assert lam.theta2 == pytest.approx(TWO_PI * 0.5)


def test_loxodromic_holonomy_matrix():
    mu, lam = holonomy(LoxodromicNF((0.0, 0.0), (0.0, 0.0), 1.0, 0.0))
    want = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cosh(1.0), math.sinh(1.0)],
            [0.0, math.sinh(1.0), math.cosh(1.0)],
        ]
    )
    assert np.max(np.abs(mu.a - want)) <= 1e-15
    assert mu.theta1 == 0.0 and mu.theta2 == 0.0
    assert np.array_equal(lam.a, np.eye(3))


def test_parabolic_c2_holonomy_picks_up_arctan():
    mu, _ = holonomy(ParabolicC2NF((0.0, 0.0), (0.0, 0.0), 1.0, 0.0))
    want = np.array([[1.0 - 1j, 0.0, 1j], [0.0, 1.0, 0.0], [-1j, 0.0, 1.0 + 1j]])
    assert np.max(np.abs(mu.a - want)) <= 1e-15
    assert mu.theta1 == 0.0
    assert mu.theta2 == pytest.approx(math.atan(1.0))


def test_parabolic_c1_holonomy_values():
    mu, _ = holonomy(ParabolicC1NF(0.0, 0.0, 1.0, 0.0, 1.0, 0.0))
    want = np.array(
        [
            [0.5 - 1j, 1.0, 0.5 + 1j],
            [-1.0, 1.0, 1.0],
            [-0.5 - 1j, 1.0, 1.5 + 1j],
        ]
    )
    assert np.max(np.abs(mu.a - want)) <= 1e-15
    assert check_u21(mu.a) <= 1e-12
    assert mu.theta1 == 0.0
    assert mu.theta2 == pytest.approx(math.atan(1.0 / 1.5))


def test_holonomies_commute_in_cover(rng):
    worst = 0.0
    for family in FAMILIES:
        for _ in range(40):
            mu, lam = holonomy(random_normal_form(rng, family))
            ml = g_multiply(mu, lam)
            lm = g_multiply(lam, mu)
            worst = max(
                worst,
                float(np.max(np.abs(ml.a - lm.a))),
                abs(ml.theta1 - lm.theta1),
                abs(ml.theta2 - lm.theta2),
            )
    assert worst <= 1e-9


def _fd_error(nf, step, x0, y0):
    cx, cy = connection_coeffs(nf)
    d0 = developing_map(nf, x0, y0).a
    inv = np.linalg.inv(d0)
    ddx = (developing_map(nf, x0 + step, y0).a - developing_map(nf, x0 - step, y0).a) / (2 * step)
    ddy = (developing_map(nf, x0, y0 + step).a - developing_map(nf, x0, y0 - step).a) / (2 * step)
    return max(float(np.max(np.abs(inv @ ddx - cx))), float(np.max(np.abs(inv @ ddy - cy))))


def test_fd_derivative_matches_coefficients(rng):
    for family in FAMILIES:
        for _ in range(25):
            nf = random_normal_form(rng, family)
            x0, y0 = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
            assert _fd_error(nf, 1e-5, x0, y0) <= 1e-6


def test_fd_error_shrinks_with_step(rng):
    for family in FAMILIES:
        nf = random_normal_form(rng, family)
        x0, y0 = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
        coarse = _fd_error(nf, 1e-3, x0, y0)
        fine = _fd_error(nf, 1e-4, x0, y0)
        assert fine <= coarse / 5.0


def test_holonomy_isometry_types(rng):
    # drawn away from the degenerate parameter loci of each family
    for _ in range(25):
        sgn = 1.0 if rng.uniform() < 0.5 else -1.0
        ell = EllipticNF(tuple(rng.uniform(0.1, 0.9, 3)), (0, 0, 0))
        assert classify(holonomy(ell)[0].a) is IsometryType.ELLIPTIC
        lox = LoxodromicNF(tuple(rng.uniform(-1, 1, 2)), (0, 0), sgn * float(rng.uniform(0.3, 2.0)), 0.0)
        assert classify(holonomy(lox)[0].a) is IsometryType.LOXODROMIC
        pc1 = ParabolicC1NF(float(rng.uniform(-1, 1)), 0, sgn * float(rng.uniform(0.3, 1.5)), 0, float(rng.uniform(0.3, 1.5)), 0)
        assert classify(holonomy(pc1)[0].a) is IsometryType.PARABOLIC
        pc2 = ParabolicC2NF(tuple(rng.uniform(-1, 1, 2)), (0, 0), sgn * float(rng.uniform(0.3, 2.0)), 0.0)
        assert classify(holonomy(pc2)[0].a) is IsometryType.PARABOLIC


def test_family_params_cover_every_name():
    assert FAMILY_PARAMS["elliptic"] == ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3")
    assert FAMILY_PARAMS["loxodromic"] == ("theta1", "theta2", "u", "tau1", "tau2", "v")
    assert FAMILY_PARAMS["parabolic_c1"] == ("alpha", "a", "p", "beta", "b", "q")
    assert FAMILY_PARAMS["parabolic_c2"] == ("theta1", "theta2", "p", "tau1", "tau2", "q")
