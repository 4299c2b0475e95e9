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
from csu21 import LoxodromicNF, ParabolicC1NF, ParabolicC2NF, find_representation, presentation, sigma_2_3_11_targets
from csu21.ug21 import TOL_CLASSIFY, J, _clusters, _kernel_rank, angle_dist, random_algebra_element


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
    # answers False, and reaches the second matrix from each of them; the
    # eigenspaces of both come from one batched SVD.
    stacks = []

    def counting(ms):
        stacks.append(ms.copy())
        return eigenspaces(ms)

    eigenspaces = csu21.ug21._eigenspaces
    monkeypatch.setattr(csu21.ug21, "_eigenspaces", counting)
    m1 = diag(np.exp(0.4j), np.exp(-0.9j), np.exp(0.1j))
    u = lie_exp(random_algebra_element(rng, 0.8))
    m2 = u @ diag(np.exp(1.1j), np.exp(-0.3j), np.exp(0.6j)) @ J @ u.conj().T @ J
    assert not is_reducible([m1, m2])
    assert len(stacks) == 1
    assert np.array_equal(stacks[0], np.array([m1, m2]))


def _burnside_irreducible(ms):
    # Burnside: the words of length <= 4 in three 3x3 matrices span all of
    # M_3(C) iff the matrices have no common invariant subspace, and in
    # U(2,1) that holds iff they have no common eigenvector.
    words, layer = [np.eye(3, dtype=complex)], [np.eye(3, dtype=complex)]
    for _ in range(4):
        layer = [w @ m for w in layer for m in ms]
        words += layer
    sv = np.linalg.svd(np.array([w.ravel() / np.linalg.norm(w) for w in words]), compute_uv=False)
    return sv[8] > 1e-6 * sv[0]


def _phases(rng):
    # a random phase triple, or one with a repeated eigenvalue (0, 1/2, 1/2)
    turns = rng.uniform(size=3) if rng.uniform() < 0.6 else rng.permutation([0.0, 0.5, 0.5])
    return np.exp(2j * np.pi * turns)


def _block(rng):
    # an element of U(2) x U(1), the stabiliser of the negative line e3
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = q
    out[2, 2] = np.exp(2j * np.pi * rng.uniform())
    return out


def _parabolic(rng):
    # Heisenberg translation fixing the null line v = (0, 1, 1): a
    # horizontal part w v^H J - v w^H J (w = (z, 0, 0)) and a vertical
    # part i t v v^H J, both nilpotent in u(2,1)
    v = np.array([0.0, 1.0, 1.0], dtype=complex)
    w = np.array([rng.normal() + 1j * rng.normal(), 0.0, 0.0])
    vj, wj = v.conj() @ J, w.conj() @ J
    n = np.outer(w, vj) - np.outer(v, wj) + 1j * rng.normal() * np.outer(v, vj)
    return lie_exp(n)


def _u21_inverse(u):
    return J @ u.conj().T @ J


def _triple(rng, kind):
    """Three U(2,1) matrices and whether they were built with a common eigenvector."""
    if kind == "reducible elliptic":
        u = lie_exp(random_algebra_element(rng, 0.6))
        ws = [_block(rng) for _ in range(3)]
        return [u @ w @ np.diag(_phases(rng)) @ _u21_inverse(w) @ _u21_inverse(u) for w in ws], True
    if kind == "irreducible elliptic":
        us = [lie_exp(random_algebra_element(rng, 0.6)) for _ in range(3)]
        return [u @ np.diag(_phases(rng)) @ _u21_inverse(u) for u in us], False
    a, b = np.exp(2j * np.pi * rng.uniform(size=2))
    ms = [_parabolic(rng), np.diag([a, b, b]), _parabolic(rng)]  # all fix (0, 1, 1)
    if kind == "reducible parabolic":
        u = lie_exp(random_algebra_element(rng, 0.6))
        return [u @ m @ _u21_inverse(u) for m in ms], True
    us = [lie_exp(random_algebra_element(rng, 0.6)) for _ in range(3)]
    return [u @ m @ _u21_inverse(u) for u, m in zip(us, ms)], False


def test_is_reducible_agrees_with_burnside(rng):
    kinds = ["reducible elliptic", "irreducible elliptic", "reducible parabolic", "irreducible parabolic"]
    for k in range(120):
        ms, built_reducible = _triple(rng, kinds[k % 4])
        assert max(check_u21(m) for m in ms) <= 1e-10
        assert _burnside_irreducible(ms) is not built_reducible, (k, kinds[k % 4])
        assert is_reducible(ms) is built_reducible, (k, kinds[k % 4])


# The reducibility test before its eigenspaces became column slices of the
# batched SVD and a line's sines one batched norm, verbatim: the reference
# the verdicts of ``is_reducible`` are compared with.
def _reference_eigenspaces(ms: np.ndarray) -> list[np.ndarray]:
    clusters = [_clusters(lam) for lam in np.linalg.eigvals(ms).tolist()]
    mnorms = np.maximum(1.0, np.linalg.norm(ms, 2, axis=(-2, -1)))
    owner = [i for i, cl in enumerate(clusters) for _ in cl]
    centers = np.array([center for cl in clusters for center, _, _ in cl])
    diams = np.array([diam for cl in clusters for _, diam, _ in cl])
    _, sv, vh = np.linalg.svd(ms[owner] - centers[:, None, None] * np.eye(3))
    rank = _kernel_rank(sv, diams, mnorms[owner])
    keep = np.arange(3) >= 3 - rank[:, None]  # the last rank rows of vh
    padded = vh.conj().transpose(0, 2, 1) * keep[:, None, :]
    return np.split(padded, np.cumsum([len(cl) for cl in clusters[:-1]]))


def _reference_is_reducible(ms) -> bool:
    ms = np.array([np.asarray(m, dtype=complex) for m in ms])
    if not len(ms):
        raise ValueError("need at least one matrix")
    sine_tol = math.sqrt(TOL_CLASSIFY)
    spaces = _reference_eigenspaces(ms)
    projectors = [p @ p.conj().transpose(0, 2, 1) for p in spaces]

    def common_line(i: int, basis: np.ndarray) -> bool:
        """Whether span(basis) holds a common eigenvector of ms[i:]."""
        if i == len(ms):
            return True
        _, sv, vh = np.linalg.svd(basis - projectors[i] @ basis, full_matrices=False)
        for s, v in zip(sv, vh):
            k = int(np.sum(s <= sine_tol))
            if k and common_line(i + 1, basis @ v[len(s) - k:].conj().T):
                return True
        return False

    return any(common_line(1, b[:, b.any(axis=0)]) for b in spaces[0])


def _near_common_triple(rng, sine):
    """Three matrices with distinct eigenvalues: diagonal m1 and m3 share the
    eigenvector e1, and m2's eigenvector nearest to it is e1 turned by the
    angle whose sine is ``sine`` in the (e1, e2) plane."""
    m1, m3 = (np.diag(np.exp(2j * np.pi * rng.uniform(size=3))) for _ in range(2))
    c = np.zeros(9)
    c[[0, 1, 2, 7, 8]] = rng.normal(size=5)  # a phase on e1 and a U(1,1) block on (e2, e3)
    m2 = lie_exp(algebra_element(c))
    turn = np.zeros(9)
    turn[3] = math.asin(sine)  # a rotation of the (e1, e2) plane
    h = lie_exp(algebra_element(turn))
    return [m1, h @ m2 @ _u21_inverse(h), m3]


def test_is_reducible_keeps_the_verdicts_of_the_reference(rng):
    # The 210 table solutions (irreducible), seeded triples built with a
    # common conjugated eigenvector, triples whose every matrix has the
    # repeated eigenvalue of class (1/2, 1/2, 0), and triples whose common
    # eigenvector is off by a sine at half and at twice sqrt(TOL_CLASSIFY).
    stacks = []
    pres = presentation((2, 3, 11))
    for seed in range(42):
        stacks += [(find_representation(pres, t, seed=seed, budget=64).matrices, False) for t in sigma_2_3_11_targets()]
    kinds = ["reducible elliptic", "reducible parabolic"]
    stacks += [_triple(rng, kinds[k % 2]) for k in range(200)]
    for k in range(40):
        us = [lie_exp(random_algebra_element(rng, 0.6)) for _ in range(3)]
        if k % 2:  # a common conjugation keeps e3, which every matrix fixes
            us = [us[0]] * 3
        halves = [np.diag(np.exp(2j * np.pi * rng.permutation([0.0, 0.5, 0.5]))) for _ in range(3)]
        stacks.append(([u @ m @ _u21_inverse(u) for u, m in zip(us, halves)], None))
    sine_tol = math.sqrt(TOL_CLASSIFY)
    for k in range(40):
        factor = (0.5, 2.0)[k % 2]
        ms = _near_common_triple(rng, factor * sine_tol)
        stacks.append((ms, factor < 1))
        stacks.append(([ms[1], ms[0], ms[2]], factor < 1))  # the turned line as a root
    assert len(stacks) == 530
    for k, (ms, built) in enumerate(stacks):
        verdict = is_reducible(ms)
        assert verdict is _reference_is_reducible(ms), k
        assert built is None or verdict is built, k


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
