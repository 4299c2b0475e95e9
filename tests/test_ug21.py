"""Group layer: membership, cover arithmetic, classification, reducibility."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import csu21.ug21
from conftest import random_g_element
from csu21 import (
    CorrectionBranchError,
    GElement,
    IsometryType,
    algebra_coords,
    algebra_element,
    check_u21,
    classify,
    g_identity,
    g_inverse,
    g_multiply,
    g_project,
    holonomy,
    is_reducible,
    lie_exp,
    lift_to_g,
    random_u21,
    u21_algebra_residual,
)
from csu21 import LoxodromicNF, ParabolicC1NF, ParabolicC2NF
from csu21.ug21 import J, angle_dist, random_algebra_element


def diag(*entries):
    return np.diag(np.asarray(entries, dtype=complex))


def test_check_u21_identity():
    assert check_u21(np.eye(3)) == 0.0


def test_check_u21_diagonal_phases():
    for theta in (0.3, -1.2, 2.9):
        m = diag(1.0, 1.0, np.exp(1j * theta))
        assert check_u21(m) <= 1e-15


def test_check_u21_hyperbolic_block():
    u = 1.0
    m = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cosh(u), math.sinh(u)],
            [0.0, math.sinh(u), math.cosh(u)],
        ],
        dtype=complex,
    )
    assert check_u21(m) <= 1e-12


def test_check_u21_rejects_scaled_identity():
    assert check_u21(2.0 * np.eye(3)) >= 1.0


def test_algebra_residual_basis_elements():
    assert u21_algebra_residual(np.zeros((3, 3))) == 0.0
    assert u21_algebra_residual(diag(1j, 2j, -0.5j)) <= 1e-15
    x = np.zeros((3, 3), dtype=complex)
    x[0, 2] = 1.0 + 2.0j
    x[2, 0] = np.conj(x[0, 2])
    assert u21_algebra_residual(x) <= 1e-15
    assert u21_algebra_residual(np.eye(3)) >= 1.0


def test_algebra_chart_round_trip(rng):
    for c in rng.normal(scale=2.0, size=(20, 9)):
        x = algebra_element(c)
        assert u21_algebra_residual(x) <= 1e-15
        assert np.array_equal(algebra_coords(x), c)
    cs = rng.normal(size=(4, 9))
    assert np.array_equal(algebra_coords(np.array([algebra_element(c) for c in cs])), cs)


@pytest.mark.parametrize("seed", [0, 1, 7, 20260823])
def test_random_algebra_element_draws_are_unchanged(seed):
    # Reference: the explicit construction the seeded draws have always used.
    c = np.random.default_rng(seed).normal(scale=0.7, size=9)
    z, w, v = c[3] + 1j * c[4], c[5] + 1j * c[6], c[7] + 1j * c[8]
    expected = np.array(
        [
            [1j * c[0], z, w],
            [-np.conj(z), 1j * c[1], v],
            [np.conj(w), np.conj(v), 1j * c[2]],
        ]
    )
    drawn = random_algebra_element(np.random.default_rng(seed), 0.7)
    assert drawn.tobytes() == expected.tobytes()


def test_identity_is_two_sided_exactly(rng):
    e = g_identity()
    for _ in range(10):
        g = random_g_element(rng)
        left = g_multiply(e, g)
        right = g_multiply(g, e)
        assert np.array_equal(left.a, g.a) and np.array_equal(right.a, g.a)
        assert left.theta1 == g.theta1 and left.theta2 == g.theta2
        assert right.theta1 == g.theta1 and right.theta2 == g.theta2


def test_diagonal_product_angles_add_exactly():
    g = lift_to_g(diag(np.exp(0.4j), np.exp(-0.4j), np.exp(0.7j)), 1, 0)
    h = lift_to_g(diag(np.exp(-0.2j), np.exp(0.9j), np.exp(0.1j)), 0, -1)
    prod = g_multiply(g, h)
    # the off-diagonal correction term is arg(1 + 0) = 0 here
    assert prod.theta1 == g.theta1 + h.theta1
    assert prod.theta2 == g.theta2 + h.theta2


def test_correction_term_stays_in_principal_branch(rng):
    for _ in range(200):
        g = random_g_element(rng, scale=1.0)
        h = random_g_element(rng, scale=1.0)
        prod = g_multiply(g, h)
        corr = prod.theta2 - g.theta2 - h.theta2
        assert abs(corr) < math.pi / 2


def test_correction_branch_error_on_invalid_input():
    a = np.eye(3, dtype=complex)
    a[2, 0] = 2.0
    b = np.eye(3, dtype=complex)
    b[0, 2] = -2.0
    g = GElement(a, 0.0, 0.0)
    h = GElement(b, 0.0, 0.0)
    with pytest.raises(CorrectionBranchError):
        g_multiply(g, h)


def test_associativity(rng):
    worst = 0.0
    for _ in range(200):
        g, h, k = (random_g_element(rng) for _ in range(3))
        lhs = g_multiply(g_multiply(g, h), k)
        rhs = g_multiply(g, g_multiply(h, k))
        worst = max(
            worst,
            float(np.max(np.abs(lhs.a - rhs.a))),
            abs(lhs.theta1 - rhs.theta1),
            abs(lhs.theta2 - rhs.theta2),
        )
    assert worst <= 1e-9


def test_congruence_closure_under_products(rng):
    for _ in range(200):
        g = random_g_element(rng)
        h = random_g_element(rng)
        prod = g_multiply(g, h)
        prod.validate()


def test_inverse_of_diagonal_negates_angles():
    g = lift_to_g(diag(np.exp(0.4j), np.exp(-0.4j), np.exp(0.7j)), 0, 1)
    gi = g_inverse(g)
    assert np.max(np.abs(gi.a - diag(np.exp(-0.4j), np.exp(0.4j), np.exp(-0.7j)))) <= 1e-15
    assert gi.theta1 == -g.theta1
    assert abs(gi.theta2 + g.theta2) <= 1e-15


def test_inverse_round_trips(rng):
    worst = 0.0
    for _ in range(200):
        g = random_g_element(rng)
        for prod in (g_multiply(g, g_inverse(g)), g_multiply(g_inverse(g), g)):
            worst = max(
                worst,
                float(np.max(np.abs(prod.a - np.eye(3)))),
                abs(prod.theta1),
                abs(prod.theta2),
            )
    assert worst <= 1e-9


def test_project_forgets_sheets():
    g = GElement(np.eye(3, dtype=complex), 0.0, 2.0 * math.pi)
    assert np.array_equal(g_project(g), np.eye(3))


def test_project_is_homomorphism(rng):
    for _ in range(100):
        g = random_g_element(rng)
        h = random_g_element(rng)
        assert np.max(np.abs(g_project(g_multiply(g, h)) - g.a @ h.a)) <= 1e-12


def test_lift_examples():
    e = lift_to_g(np.eye(3))
    assert e.theta1 == 0.0 and e.theta2 == 0.0
    sheet = lift_to_g(np.eye(3), 0, -1)
    assert sheet.theta2 == -2.0 * math.pi
    half = lift_to_g(diag(-1.0, -1.0, 1.0), 1, 0)
    assert half.theta1 == pytest.approx(2.0 * math.pi)
    assert half.theta2 == 0.0


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_lift_lands_on_requested_sheet(k1, k2):
    m = random_u21(11, 0.5)
    g = lift_to_g(m, k1, k2)
    g.validate()
    base = lift_to_g(m)
    assert g.theta1 == pytest.approx(base.theta1 + 2.0 * math.pi * k1)
    assert g.theta2 == pytest.approx(base.theta2 + 2.0 * math.pi * k2)


def test_lie_exp_zero_and_diagonal():
    assert np.array_equal(lie_exp(np.zeros((3, 3))), np.eye(3))
    x = diag(0.7j, 0.0, 0.0)
    assert np.max(np.abs(lie_exp(x) - diag(np.exp(0.7j), 1.0, 1.0))) <= 1e-15


def test_lie_exp_lands_in_group(rng):
    for _ in range(100):
        x = random_algebra_element(rng, 0.5)
        assert u21_algebra_residual(x) <= 1e-14
        assert check_u21(lie_exp(x)) <= 1e-12


def test_lie_exp_of_a_stack_is_the_stack_of_exponentials(rng):
    # Each matrix of a stack is scaled and squared by its own norm.
    xs = np.array([random_algebra_element(rng, scale) for scale in (0.01, 0.3, 1.0, 4.0)])
    stacked = lie_exp(xs)
    assert stacked.shape == xs.shape
    for x, e in zip(xs, stacked):
        assert np.array_equal(e, lie_exp(x))


@pytest.mark.parametrize("scale", [0.1, 0.3, 0.6, 1.0])
def test_lie_exp_inverts_and_stays_in_group(rng, scale):
    # Forming e @ e^-1 (or J e^H J e) rounds at about eps |e|^2, since the
    # U(2,1) inverse J e^H J is as large as e; at scale 1, entries of e
    # reach about 70, where that is above 1e-12.
    for _ in range(200):
        x = random_algebra_element(rng, scale)
        e = lie_exp(x)
        tol = 16 * np.finfo(float).eps * max(1.0, np.max(np.abs(e))) ** 2
        assert np.max(np.abs(e @ lie_exp(-x) - np.eye(3))) <= tol
        assert check_u21(e) <= tol


def test_lie_exp_agrees_with_taylor_series(rng):
    for _ in range(200):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x *= rng.uniform(0.01, 0.5) / np.linalg.norm(x, 2)
        term, series = np.eye(3, dtype=complex), np.eye(3, dtype=complex)
        for k in range(1, 30):
            term = term @ x / k
            series += term
        assert np.max(np.abs(lie_exp(x) - series)) <= 1e-15


@pytest.mark.parametrize("t", [3.0, 10.0, 40.0])
def test_lie_exp_matches_closed_forms_beyond_the_pade_range(t):
    # Norms past 5.37 need scaling and squaring: a boost, a rotation and
    # a diagonal phase, each with a closed-form exponential.
    ch, sh, co, si = math.cosh(t), math.sinh(t), math.cos(t), math.sin(t)
    boost = np.array([[ch, 0, sh], [0, 1, 0], [sh, 0, ch]])
    rotation = np.array([[co, si, 0], [-si, co, 0], [0, 0, 1]])
    phases = np.array([t, -2 * t, 0.5 * t])
    for coords, exact in (
        ([0, 0, 0, 0, 0, t, 0, 0, 0], boost),
        ([0, 0, 0, t, 0, 0, 0, 0, 0], rotation),
        ([*phases, 0, 0, 0, 0, 0, 0], np.diag(np.exp(1j * phases))),
    ):
        e = lie_exp(algebra_element(np.array(coords, dtype=float)))
        assert np.max(np.abs(e - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_random_u21_deterministic_and_scaled():
    assert np.array_equal(random_u21(5, 0.8), random_u21(5, 0.8))
    assert not np.array_equal(random_u21(5, 0.8), random_u21(6, 0.8))
    near = random_u21(7, 1e-8)
    assert np.max(np.abs(near - np.eye(3))) <= 1e-6


def test_random_u21_membership():
    for seed in range(100):
        assert check_u21(random_u21(seed, 1.0)) <= 1e-10


def test_unit_determinant_modulus(rng):
    for seed in range(100):
        m = random_u21(seed, 1.0)
        assert abs(abs(np.linalg.det(m)) - 1.0) <= 1e-9


def test_classify_examples():
    assert classify(diag(1j, -1j, 1.0)) is IsometryType.ELLIPTIC
    assert classify(np.eye(3)) is IsometryType.ELLIPTIC
    lox = holonomy(LoxodromicNF((0.0, 0.0), (0.0, 0.0), 1.0, 0.0))[0].a
    assert classify(lox) is IsometryType.LOXODROMIC
    par2 = holonomy(ParabolicC2NF((0.0, 0.0), (0.0, 0.0), 1.0, 0.0))[0].a
    assert classify(par2) is IsometryType.PARABOLIC
    par1 = holonomy(ParabolicC1NF(0.0, 0.0, 1.0, 0.0, 1.0, 0.0))[0].a
    assert classify(par1) is IsometryType.PARABOLIC


def test_classify_conjugation_invariance(rng):
    lox = holonomy(LoxodromicNF((0.2, -0.4), (0.0, 0.0), 0.9, 0.0))[0].a
    par = holonomy(ParabolicC2NF((0.3, 0.1), (0.0, 0.0), 0.8, 0.0))[0].a
    ell = diag(np.exp(0.5j), np.exp(-1.1j), np.exp(0.2j))
    for m, want in ((ell, IsometryType.ELLIPTIC), (lox, IsometryType.LOXODROMIC), (par, IsometryType.PARABOLIC)):
        for _ in range(50):
            u = lie_exp(random_algebra_element(rng, 0.7))
            uinv = J @ u.conj().T @ J
            assert classify(u @ m @ uinv) is want


def test_is_reducible_diagonal_family():
    assert is_reducible([diag(1j, -1j, 1.0)])
    assert is_reducible([diag(1j, -1j, 1.0), diag(-1.0, -1.0, 1.0), np.eye(3)])


def test_is_reducible_shared_axis(rng):
    # both matrices fix the e3 axis, nothing else in common
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    assert is_reducible([diag(1j, -1j, np.exp(0.3j)), rot])


def test_is_reducible_false_for_generic_pair(rng):
    m1 = diag(np.exp(0.4j), np.exp(-0.9j), np.exp(0.1j))
    u = lie_exp(random_algebra_element(rng, 0.8))
    uinv = J @ u.conj().T @ J
    m2 = u @ diag(np.exp(1.1j), np.exp(-0.3j), np.exp(0.6j)) @ uinv
    assert not is_reducible([m1, m2])


def test_is_reducible_computes_each_eigenspace_once(monkeypatch, rng):
    # The search tries every eigenspace of the first matrix before it
    # answers False, and reaches the second matrix from each of them.
    calls = []

    def counting(m):
        calls.append(m.tobytes())
        return eigenspaces(m)

    eigenspaces = csu21.ug21._eigenspaces
    monkeypatch.setattr(csu21.ug21, "_eigenspaces", counting)
    m1 = diag(np.exp(0.4j), np.exp(-0.9j), np.exp(0.1j))
    u = lie_exp(random_algebra_element(rng, 0.8))
    m2 = u @ diag(np.exp(1.1j), np.exp(-0.3j), np.exp(0.6j)) @ J @ u.conj().T @ J
    assert not is_reducible([m1, m2])
    assert sorted(calls) == sorted([m1.tobytes(), m2.tobytes()])


def test_is_reducible_needs_input():
    with pytest.raises(ValueError):
        is_reducible([])


def test_angle_dist_wraps():
    assert angle_dist(0.1, 0.1 + 2.0 * math.pi) <= 1e-12
    assert angle_dist(-math.pi + 0.05, math.pi - 0.05) == pytest.approx(0.1)


def test_validate_flags_bad_angles():
    g = lift_to_g(np.eye(3))
    bad = GElement(g.a, g.theta1 + 0.1, g.theta2)
    with pytest.raises(ValueError):
        bad.validate()
    bad2 = GElement(2.0 * np.eye(3), 0.0, 0.0)
    with pytest.raises(ValueError):
        bad2.validate()
