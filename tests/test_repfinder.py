"""Search for representations with prescribed elliptic conjugacy classes."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from csu21 import (
    CentralAngles,
    ClassTarget,
    NotASolution,
    SearchResult,
    Unliftable,
    algebra_element,
    canonical_lift_data,
    check_u21,
    cs_closed,
    extract_lift_data,
    find_representation,
    implied_angles,
    is_reducible,
    lie_exp,
    presentation,
    random_algebra_element,
    relation_residual,
    sigma_2_3_11_fixture,
    sigma_2_3_11_targets,
    target_from_angles,
)
from csu21.repfinder import (
    _conjugate,
    _defect,
    _defect_jacobian,
    _levenberg_marquardt,
    _prefix_products,
    _target_diagonals,
)

F = Fraction

ZERO_TRI = (F(0), F(0), F(0))


def _trivial_target(n=3):
    return ClassTarget((ZERO_TRI,) * n, F(0), (0, 0))


def _lift(pres, target):
    """The target's lift, which ``extract_lift_data`` accepts against."""
    return canonical_lift_data(pres, *implied_angles(pres, target))


def _residual(ms):
    """The search's defect vector of the generators ms."""
    return _defect(_prefix_products(ms))


def _jacobian(ms):
    return _defect_jacobian(ms, _prefix_products(ms))


# ---------------------------------------------------------------------------
# targets


def test_frozen_targets_reduce_fixture_angles():
    targets = sigma_2_3_11_targets()
    assert len(targets) == 5
    assert [t.central_lifts for t in targets] == [(0, -1), (0, 1), (0, 2), (0, -2), (0, 0)]
    assert all(t.central_fraction == 0 for t in targets)
    for t in targets:
        for tri in t.fractions:
            assert all(0 <= f < 1 for f in tri)
    # negative fixture fractions fold into [0, 1)
    assert targets[1].fractions[2] == (F(5, 11), F(8, 11), F(9, 11))


def test_class_target_validates_rotation_numbers():
    with pytest.raises(ValueError):
        ClassTarget(((F(3, 2), F(0), F(0)),), F(0), (0, 0))
    with pytest.raises(ValueError):
        ClassTarget((ZERO_TRI,), F(-1, 4), (0, 0))


def test_target_from_angles_requires_scalar_lift():
    gens = sigma_2_3_11_fixture()[4].generators
    with pytest.raises(Unliftable):
        target_from_angles(gens, CentralAngles(F(1, 2), F(0)))


def test_implied_angles_checks_generator_count():
    pres = presentation((2, 3, 11))
    with pytest.raises(Unliftable):
        implied_angles(pres, _trivial_target(n=4))


# ---------------------------------------------------------------------------
# residual scoring


def test_residual_vanishes_for_trivial_representation():
    pres = presentation((2, 3, 11))
    mats = [np.eye(3)] * 3
    assert relation_residual(pres, mats, _trivial_target()) <= 1e-12


def test_residual_sees_open_long_relation():
    # The exact target diagonals satisfy every power relation but not the
    # product relation, so the residual must be strictly positive.
    pres = presentation((2, 3, 11))
    target = sigma_2_3_11_targets()[4]
    mats = _target_diagonals(target)
    assert relation_residual(pres, mats, target) > 0.1


def test_residual_checks_matrix_count():
    pres = presentation((2, 3, 11))
    with pytest.raises(ValueError):
        relation_residual(pres, [np.eye(3)] * 2, _trivial_target())


# ---------------------------------------------------------------------------
# the search's defect and its Jacobian


def _central_difference(ms, h=1e-6):
    """Columns of h -> _residual(_conjugate(ms, h)) at h = 0 by central differences."""
    cols = []
    for e in np.eye(9 * (len(ms) - 1)):
        plus = _residual(_conjugate(ms, h * e))
        minus = _residual(_conjugate(ms, -h * e))
        cols.append((plus - minus) / (2 * h))
    return np.column_stack(cols)


_FOUR_GENERATOR_TARGET = ClassTarget(
    (
        (F(1, 2), F(0), F(1, 2)),
        (F(1, 3), F(2, 3), F(0)),
        (F(1, 5), F(2, 5), F(4, 5)),
        (F(1, 7), F(3, 7), F(6, 7)),
    ),
    F(0),
    (0, 0),
)


@pytest.mark.parametrize(
    "a, target",
    [((2, 3, 11), t) for t in sigma_2_3_11_targets()] + [((2, 3, 5, 7), _FOUR_GENERATOR_TARGET)],
)
def test_defect_jacobian_matches_central_differences(a, target, rng):
    # The Jacobian is taken in the local chart around the current
    # generators, so check it at points the chart has moved away from the
    # diagonal configuration.
    pres = presentation(a)
    diags = _target_diagonals(target)
    for _ in range(3):
        ms = _conjugate(diags, rng.normal(size=9 * (pres.n - 1)) * 0.8)
        jac = _jacobian(ms)
        assert jac.shape == (18, 9 * (pres.n - 1))
        fd = _central_difference(ms)
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-6 * np.max(np.abs(jac)))


def _eigenvalue_gap(m, d):
    """Largest distance between the eigenvalues of m and the diagonal of d, best matched."""
    lam = np.linalg.eigvals(m)
    return min(np.max(np.abs(lam[list(perm)] - d.diagonal())) for perm in itertools.permutations(range(3)))


@pytest.mark.parametrize("target", sigma_2_3_11_targets())
@pytest.mark.parametrize("scale", [1e-6, 0.1, 1.0])
def test_cayley_step_stays_in_the_group_and_the_classes(target, scale, rng):
    # Rounding in a moved generator x grows like |x|^2.  At scale 1 a boost
    # near eigenvalue 2 makes |x| large (both for cay and for exp), so the
    # bound is 1e-12 relative to |x|^2; at the smaller scales |x| is about 1.
    diags = _target_diagonals(target)
    for _ in range(20):
        moved = _conjugate(diags, rng.normal(size=18) * scale)
        assert np.array_equal(moved[0], diags[0])
        for m, d in zip(moved[1:], diags[1:]):
            size = np.linalg.norm(m, 2) ** 2
            assert check_u21(m) <= 1e-12 * size
            assert _eigenvalue_gap(m, d) <= 1e-12 * size


@pytest.mark.filterwarnings("error")
def test_singular_cayley_step_is_rejected_quietly():
    # A boost of generator 2 whose H has eigenvalue 2, so I - H/2 is singular.
    boost = np.zeros(18)
    boost[5] = 2.0
    assert np.linalg.eigvals(algebra_element(boost[:9])).real.max() == pytest.approx(2.0)
    diags = _target_diagonals(sigma_2_3_11_targets()[4])
    start = _conjugate(diags, np.full(18, 0.1))
    assert not np.isfinite(_residual(_conjugate(start, boost))).any()

    # Offer the singular step as the solve's first trial point.
    steps, accepted = [], []

    def step(ms, h):
        steps.append(h)
        return _conjugate(ms, boost if len(steps) == 1 else h)

    def jacobian(ms):
        accepted.append(ms)
        return _jacobian(ms)

    x = _levenberg_marquardt(_residual, jacobian, start, max_nfev=20, step=step)
    assert all(np.isfinite(ms).all() for ms in accepted)
    assert accepted[0] is start and len(accepted) > 1
    assert np.isfinite(_residual(x)).all()


# ---------------------------------------------------------------------------
# the search's Levenberg-Marquardt solve


def _circle_residual(v):
    # zero on the unit circle; the Jacobian has rank 1 everywhere
    e = v @ v - 1.0
    return np.array([e, 2.0 * e])


def _circle_jacobian(v):
    return np.array([2.0 * v, 4.0 * v])


def test_levenberg_marquardt_solves_a_rank_deficient_problem():
    x = _levenberg_marquardt(_circle_residual, _circle_jacobian, np.array([2.0, 0.5]), max_nfev=400)
    assert np.linalg.norm(_circle_residual(x)) <= 1e-14


def test_levenberg_marquardt_keeps_to_its_evaluation_budget():
    calls = 0

    def fun(v):
        nonlocal calls
        calls += 1
        return np.array([np.exp(v[0]), 1.0])  # no zero: only the budget stops the solve

    _levenberg_marquardt(fun, lambda v: np.array([[np.exp(v[0])], [0.0]]), np.array([0.0]), max_nfev=7)
    assert calls == 7


def test_levenberg_marquardt_stops_on_a_zero_jacobian():
    calls = 0

    def fun(v):
        nonlocal calls
        calls += 1
        return np.array([1.0, -2.0])

    x0 = np.array([0.3, -0.7])
    x = _levenberg_marquardt(fun, lambda v: np.zeros((2, 2)), x0, max_nfev=400)
    assert calls == 1
    assert np.array_equal(x, x0)


def test_levenberg_marquardt_asks_for_the_jacobian_where_it_last_evaluated():
    # The search's Jacobian reuses the products its residual evaluation
    # left behind, which holds only at the latest point evaluated.
    last = []

    def fun(v):
        last.append(v)
        return _circle_residual(v)

    def jac(v):
        assert v is last[-1]
        return _circle_jacobian(v)

    _levenberg_marquardt(fun, jac, np.array([2.0, 0.5]), max_nfev=400)
    assert len(last) > 2


def test_target_diagonals_are_exact_phases_off_a_positive_zero():
    # One exp over the whole stack gives the phases entry by entry; every
    # off-diagonal entry is +0.0 in both parts, as np.diag writes it.
    targets = [*sigma_2_3_11_targets(), _FOUR_GENERATOR_TARGET, _trivial_target(5)]
    for target in targets:
        diags = _target_diagonals(target)
        reference = np.array([np.diag([np.exp(2j * math.pi * float(f)) for f in tri]) for tri in target.fractions])
        assert diags.dtype == complex and diags.shape == reference.shape
        assert diags.tobytes() == reference.tobytes()
        off = ~np.eye(3, dtype=bool)
        assert not np.signbit(diags.real[:, off]).any() and not np.signbit(diags.imag[:, off]).any()


def test_levenberg_marquardt_never_accepts_a_non_finite_residual():
    # Everything beyond x = 1 evaluates to inf; the minimum lies at x = 2.
    accepted = []

    def fun(v):
        return np.array([np.inf]) if v[0] > 1.0 else np.array([v[0] - 2.0])

    def jac(v):
        accepted.append(v[0])
        return np.array([[1.0]])

    x = _levenberg_marquardt(fun, jac, np.array([0.0]), max_nfev=50)
    assert max(accepted) <= 1.0
    assert x[0] <= 1.0
    assert np.isfinite(fun(x)).all()


# ---------------------------------------------------------------------------
# the search


def test_search_finds_trivial_target_without_exploring():
    pres = presentation((2, 3, 11))
    result = find_representation(pres, _trivial_target(), seed=0, budget=1)
    _, residual = extract_lift_data(pres, result, _trivial_target(), _lift(pres, _trivial_target()))
    assert residual <= 1e-12
    for m in result.matrices:
        assert np.max(np.abs(m - np.eye(3))) <= 1e-12


def test_search_is_deterministic():
    pres = presentation((2, 3, 11))
    target = sigma_2_3_11_targets()[0]
    r1 = find_representation(pres, target, seed=2, budget=2)
    r2 = find_representation(pres, target, seed=2, budget=2)
    assert relation_residual(pres, r1.matrices, target) == relation_residual(pres, r2.matrices, target)
    assert r1.iterations == r2.iterations
    for m1, m2 in zip(r1.matrices, r2.matrices):
        assert np.array_equal(m1, m2)


def test_search_is_reproducible_within_one_process():
    # A search must not depend on what other searches ran before it.
    pres = presentation((2, 3, 11))
    targets = sigma_2_3_11_targets()
    first = find_representation(pres, targets[0], seed=1, budget=64)
    find_representation(pres, targets[4], seed=1, budget=64)
    find_representation(pres, targets[2], seed=1, budget=64)
    again = find_representation(pres, targets[0], seed=1, budget=64)
    assert first.iterations == again.iterations
    assert relation_residual(pres, first.matrices, targets[0]) == relation_residual(pres, again.matrices, targets[0])
    for m1, m2 in zip(first.matrices, again.matrices):
        assert m1.tobytes() == m2.tobytes()


def test_iterations_count_every_residual_evaluation(monkeypatch):
    # Every evaluation of the defect or of its Jacobian counts once.  Each
    # random start costs one exponential and a trial point costs none.
    calls = {"defect": 0, "jacobian": 0, "lie_exp": 0}

    def counting(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)

        return wrapper

    monkeypatch.setattr("csu21.repfinder._defect", counting("defect", _defect))
    monkeypatch.setattr("csu21.repfinder._defect_jacobian", counting("jacobian", _defect_jacobian))
    monkeypatch.setattr("csu21.repfinder.lie_exp", counting("lie_exp", lie_exp))
    pres = presentation((2, 3, 11))
    target = sigma_2_3_11_targets()[4]
    result = find_representation(pres, target, seed=1, budget=64)
    extract_lift_data(pres, result, target, _lift(pres, target))  # raises unless the search converged
    assert calls["jacobian"] > 0
    assert result.iterations == calls["defect"] + calls["jacobian"]
    assert 1 <= calls["lie_exp"] < calls["defect"] - 1


def test_table_searches_stay_within_their_evaluation_count():
    # Seed 1 takes 101 evaluations over the five classes (115 with starts
    # at scale 0.8 and no defect floor).  A solve that converges only
    # linearly on the rank-deficient Jacobian takes about four times as
    # many.
    pres = presentation((2, 3, 11))
    total = 0
    for target in sigma_2_3_11_targets():
        result = find_representation(pres, target, seed=1, budget=64)
        extract_lift_data(pres, result, target, _lift(pres, target))  # raises unless the search converged
        total += result.iterations
    assert total <= 200


def test_table_searches_converge_within_100_evaluations():
    # Starts at scale 0.8 with no defect floor took up to 828 evaluations
    # (seed 39: 284 on class 1, 828 on class 2); at scale 0.4 with the
    # floor the worst here is 47.
    pres = presentation((2, 3, 11))
    for seed in range(42):
        for target, case in zip(sigma_2_3_11_targets(), sigma_2_3_11_fixture()):
            result = find_representation(pres, target, seed=seed, budget=64)
            data, _ = extract_lift_data(pres, result, target, _lift(pres, target))  # raises unless the search converged
            assert not is_reducible(result.matrices), (seed, case.label)
            assert cs_closed(pres, data) == case.expected_cs
            assert result.iterations <= 100, (seed, case.label, result.iterations)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 3, 4, 5, 14, 21, 22, 25])
def test_search_random_starts_stay_finite(seed):
    # Seeds whose random starts drove a derivative-free search into overflow.
    pres = presentation((2, 3, 11))
    for target, case in zip(sigma_2_3_11_targets(), sigma_2_3_11_fixture()):
        result = find_representation(pres, target, seed=seed, budget=64)
        data, _ = extract_lift_data(pres, result, target, _lift(pres, target))  # raises unless the search converged
        assert not is_reducible(list(result.matrices))
        assert cs_closed(pres, data) == case.expected_cs


_NEAR_MISS_TARGET = ClassTarget(
    ((F(0), F(1, 2), F(1, 2)), (F(0), F(2, 3), F(1, 3)), (F(0), F(9, 11), F(2, 11))), F(0), (0, -1)
)
_DRIFTING_TARGET = ClassTarget(
    ((F(1, 3), F(5, 6), F(5, 6)), (F(4, 9), F(1, 9), F(4, 9)), (F(5, 33), F(5, 33), F(23, 33))), F(2, 3), (-2, 1)
)


@pytest.mark.parametrize(
    "target, budget",
    [(_NEAR_MISS_TARGET, 16), (_DRIFTING_TARGET, 3)],
    ids=["overflowing-steps", "singular-damped-step"],
)
def test_stalled_search_stays_finite_and_unconverged(target, budget):
    # Every start stalls at a positive minimum.  On the first target large
    # trial steps overflow inside the exponential, and the suite turns any
    # RuntimeWarning into an error; on the second the generators drift so
    # far that J^T J + mu I turns singular in floating point.  Either step
    # must be rejected quietly.
    pres = presentation((2, 3, 11))
    result = find_representation(pres, target, seed=1, budget=budget)
    with pytest.raises(NotASolution) as verdict:
        extract_lift_data(pres, result, target, _lift(pres, target))
    assert np.isfinite(verdict.value.residual)
    assert all(np.isfinite(m).all() for m in result.matrices)


def test_converged_search_solves_case_five():
    pres = presentation((2, 3, 11))
    target = sigma_2_3_11_targets()[4]
    result = find_representation(pres, target, seed=1, budget=16)
    data, residual = extract_lift_data(pres, result, target, _lift(pres, target))
    assert residual == relation_residual(pres, result.matrices, target)
    assert residual <= 1e-8
    assert cs_closed(pres, data) == F(25, 66)
    assert not is_reducible(list(result.matrices))


def _reference_residual(pres, matrices, target):
    # One matrix at a time: matrix_power, the long product and the best of
    # the 6 eigenphase assignments.
    scalar = np.exp(2j * np.pi * float(target.central_fraction))
    total = 0.0
    for m, ai, bi in zip(matrices, pres.a, pres.b):
        total += np.sum(np.abs(np.linalg.matrix_power(m, ai) * scalar**bi - np.eye(3)) ** 2)
    prod = np.eye(3)
    for m in matrices:
        prod = prod @ m
    total += np.sum(np.abs(prod - np.eye(3)) ** 2)
    for m, tri in zip(matrices, target.fractions):
        turns = (np.angle(np.linalg.eigvals(m)) / (2 * np.pi)) % 1.0
        total += min(
            sum(min(abs(t - float(f)) % 1.0, 1.0 - abs(t - float(f)) % 1.0) ** 2 for t, f in zip(perm, tri))
            for perm in itertools.permutations(turns)
        )
    return total


@pytest.mark.parametrize(
    "a", [(2, 3, 11), (3, 7, 5000), (3, 7, 11, 5000), (2, 3, 5, 7, 11), (3, 7, 11, 13, 5000)]
)
def test_relation_residual_matches_a_per_matrix_reference(a, rng):
    # Elliptic generators u D u^-1, whose powers stay bounded, against
    # random rotation numbers and central scalars.
    pres = presentation(a)
    for _ in range(4):
        ms = []
        for _ in a:
            u = lie_exp(random_algebra_element(rng, 0.5))
            phases = np.exp(2j * np.pi * rng.uniform(size=3))
            ms.append(u @ np.diag(phases) @ np.linalg.inv(u))
        fracs = tuple(tuple(F(int(k), 97) for k in rng.integers(0, 97, size=3)) for _ in a)
        target = ClassTarget(fracs, F(int(rng.integers(0, 5)), 5), (0, 0))
        reference = _reference_residual(pres, ms, target)
        assert relation_residual(pres, ms, target) == pytest.approx(reference, rel=1e-12, abs=0)


def test_relation_residual_matches_a_per_matrix_reference_at_table_solutions():
    # At a solution the residual is rounding alone, so this pins the order
    # of the products as well.
    pres = presentation((2, 3, 11))
    for seed in (0, 1, 2):
        for target in sigma_2_3_11_targets():
            ms = find_representation(pres, target, seed=seed, budget=64).matrices
            reference = _reference_residual(pres, ms, target)
            assert reference <= 1e-20
            assert relation_residual(pres, ms, target) == pytest.approx(reference, rel=1e-12, abs=0)


def test_residual_is_conjugation_insensitive_at_solutions(rng):
    pres = presentation((2, 3, 11))
    target = sigma_2_3_11_targets()[4]
    result = find_representation(pres, target, seed=1, budget=16)
    u = lie_exp(random_algebra_element(rng, 0.3))
    uinv = np.linalg.inv(u)
    conj = [u @ m @ uinv for m in result.matrices]
    assert relation_residual(pres, conj, target) <= 1e-9


# ---------------------------------------------------------------------------
# extraction


def test_extract_detects_eigenphase_mismatch():
    pres = presentation((2, 3, 11))
    target = sigma_2_3_11_targets()[4]
    fake = SearchResult((np.eye(3),) * 3, seed=0, iterations=0)
    with pytest.raises(NotASolution) as verdict:
        extract_lift_data(pres, fake, target, _lift(pres, target))
    residual = relation_residual(pres, fake.matrices, target)
    assert verdict.value.residual == residual > 1e-12
    assert str(verdict.value) == f"residual {residual:.3e} > 1e-12"


def test_extract_refuses_a_nan_residual(monkeypatch):
    # NaN compares false either way; the rule must refuse it, not pass it.
    pres = presentation((2, 3, 11))
    target = sigma_2_3_11_targets()[4]
    result = find_representation(pres, target, seed=1, budget=16)
    monkeypatch.setattr("csu21.repfinder.relation_residual", lambda *args: math.nan)
    with pytest.raises(NotASolution) as verdict:
        extract_lift_data(pres, result, target, _lift(pres, target))
    assert math.isnan(verdict.value.residual)


def test_extract_checks_a_search_against_the_target_it_is_given():
    # A solution for case five solves no other table class.
    pres = presentation((2, 3, 11))
    targets = sigma_2_3_11_targets()
    result = find_representation(pres, targets[4], seed=1, budget=16)
    extract_lift_data(pres, result, targets[4], _lift(pres, targets[4]))  # raises unless the search converged
    for other in targets[:4]:
        with pytest.raises(NotASolution):
            extract_lift_data(pres, result, other, _lift(pres, other))


def test_extract_flags_unliftable_targets():
    pres = presentation((2, 3, 11))
    # a_1 = 2 cannot power a primitive third root of unity to the identity
    target = ClassTarget(((F(1, 3), F(0), F(0)), ZERO_TRI, ZERO_TRI), F(0), (0, 0))
    mats = tuple(_target_diagonals(target))
    fake = SearchResult(mats, seed=0, iterations=0)
    with pytest.raises(Unliftable):  # from the lift it would accept against
        extract_lift_data(pres, fake, target, _lift(pres, target))
