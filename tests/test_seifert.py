"""Exact invariants of diagonal representations of Seifert homology spheres."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csu21.seifert
from csu21 import (
    CentralAngles,
    ClassTarget,
    GeneratorAngles,
    InvalidRepData,
    LengthMismatch,
    LiftedRepData,
    NotCoprime,
    Unliftable,
    burns_epstein,
    canonical_lift_data,
    cs_closed,
    cs_pipeline,
    implied_angles,
    make_random_rep,
    mod_z,
    presentation,
    sigma_2_3_11_fixture,
    sigma_2_3_11_targets,
    solve_b,
    target_from_angles,
    validate_rep,
)
from csu21.jsonio import (
    decode_fraction,
    decode_presentation,
    decode_rep_data,
    encode_fraction,
    encode_presentation,
    encode_rep_data,
)
from csu21.seifert import _rep_from_draws
from conftest import shift_central_split, shift_generator_lift, swap_pq

F = Fraction

PRESENTATIONS = [(2, 3, 5), (2, 3, 7), (2, 3, 11), (3, 4, 5)]


# ---------------------------------------------------------------------------
# presentation arithmetic


def test_solve_b_known_triples():
    assert solve_b((2, 3, 5)) == (-1, 1, 1)
    assert solve_b((2, 3, 11)) == (-1, 1, 2)


def test_solve_b_satisfies_sum_identity_and_window():
    for a in PRESENTATIONS + [(2, 3, 5, 7), (3, 5, 7, 11)]:
        b = solve_b(a)
        total = 1
        for ai in a:
            total *= ai
        assert sum(F(bi, ai) for ai, bi in zip(a, b)) == F(1, total)
        for ai, bi in zip(a[:-1], b[:-1]):
            assert -(ai // 2) <= bi < ai - (ai // 2)


def test_solve_b_rejects_bad_moduli():
    with pytest.raises(NotCoprime):
        solve_b((2, 4, 5))
    with pytest.raises(ValueError):
        solve_b((2, 3))
    with pytest.raises(ValueError):
        solve_b((1, 2, 3))


def test_presentation_factory_checks_twists():
    pres = presentation((2, 3, 11))
    assert pres.b == (-1, 1, 2)
    assert pres.product == 66
    assert pres.n == 3
    # any valid twist vector is accepted, not just the canonical one
    alt = presentation((2, 3, 11), b=(-1, 1, 2))
    assert alt == pres
    with pytest.raises(ValueError):
        presentation((2, 3, 11), b=(1, 1, 2))
    with pytest.raises(LengthMismatch):
        presentation((2, 3, 11), b=(-1, 1))


# ---------------------------------------------------------------------------
# constraint validation


def _trivial_data(pres):
    zero = F(0)
    zeros = (zero,) * pres.n
    return LiftedRepData(zero, zero, zero, zeros, zeros, zeros, (0,) * pres.n)


def _case5_data():
    return LiftedRepData(
        F(0),
        F(0),
        F(0),
        (F(1, 2), F(1, 3), F(-1, 11)),
        (F(-1, 2), F(-1, 3), F(1, 11)),
        (F(0), F(0), F(0)),
        (1, 1, -1),
    )


def _case1_data():
    return LiftedRepData(
        F(0),
        F(1),
        F(-1),
        (F(0), F(0), F(6, 11)),
        (F(1, 2), F(-1, 3), F(-8, 11)),
        (F(-1, 2), F(1, 3), F(2, 11)),
        (0, 0, 6),
    )


def test_validate_rep_accepts_valid_data():
    pres = presentation((2, 3, 11))
    assert validate_rep(pres, _trivial_data(pres)).ok
    assert validate_rep(pres, _case5_data()).ok
    assert validate_rep(pres, _case1_data()).ok


def test_validate_rep_names_the_broken_identity():
    pres = presentation((2, 3, 11))
    good = _case5_data()
    bad = LiftedRepData(good.p0, good.q0, good.r0, good.p, good.q, (F(1, 2), F(0), F(0)), good.s)
    report = validate_rep(pres, bad)
    assert not report.ok
    names = {c.name for c in report.failures()}
    assert "a_ir_i+b_ir_0=0" in names
    assert "r_0=-a*sum r_i" in names
    with pytest.raises(InvalidRepData) as err:
        cs_closed(pres, bad)
    assert "a_ir_i+b_ir_0=0" in str(err.value)


def test_validate_rep_details_only_failures():
    pres = presentation((2, 3, 11))
    good = _case5_data()
    bad = LiftedRepData(good.p0, good.q0, good.r0, good.p, good.q, (F(1, 2), F(0), F(0)), good.s)
    report = validate_rep(pres, bad)
    details = {c.name: c.detail for c in report.failures()}
    assert details == {"a_ir_i+b_ir_0=0": "i=1: 1 vs 0", "r_0=-a*sum r_i": "r_0=0 vs -a*sum r_i=-33"}
    assert all(c.detail == "" for c in report.checks if c.ok)
    assert all(c.detail == "" for c in validate_rep(pres, good).checks)


def test_validate_rep_checks_lengths():
    pres = presentation((2, 3, 5, 7))
    with pytest.raises(LengthMismatch):
        validate_rep(pres, _case5_data())


def test_rep_data_refuses_floats():
    with pytest.raises(TypeError):
        LiftedRepData(0.5, F(0), F(0), (F(0),) * 3, (F(0),) * 3, (F(0),) * 3, (0, 0, 0))
    with pytest.raises(TypeError):
        GeneratorAngles((0.5, F(0), F(0)), F(0), F(0))
    with pytest.raises(TypeError):
        CentralAngles(0.0, F(0))


def test_class_target_refuses_floats():
    # Fraction(0.1) would hold 3602879701896397/36028797018963968.
    with pytest.raises(TypeError):
        ClassTarget(((0.1, F(0), F(0)),), F(0), (0, 0))
    with pytest.raises(TypeError):
        ClassTarget(((F(0), F(0), F(0)),), 0.5, (0, 0))
    assert ClassTarget(((F(1, 10), 0, F(0)),), 0, (0, 0)).fractions == ((F(1, 10), F(0), F(0)),)


def test_class_target_refuses_non_integer_lifts():
    # int() would truncate (0.7, -1.9) to the sheet (0, -1).
    tri = (F(0), F(0), F(0))
    for lifts in ((0.7, -1.9), (1.0, 0), (0, F(1, 2))):
        with pytest.raises(TypeError):
            ClassTarget((tri,), F(0), lifts)


# ---------------------------------------------------------------------------
# frozen invariant values


def test_cs_closed_trivial_rep_vanishes():
    pres = presentation((2, 3, 11))
    assert cs_closed(pres, _trivial_data(pres)) == 0
    assert cs_pipeline(pres, _trivial_data(pres)) == 0


def test_cs_closed_frozen_values():
    pres = presentation((2, 3, 11))
    assert cs_closed(pres, _case5_data()) == F(25, 66)
    assert cs_closed(pres, _case1_data()) == F(13, 66)
    assert cs_pipeline(pres, _case5_data()) == F(25, 66)
    assert cs_pipeline(pres, _case1_data()) == F(13, 66)


def test_burns_epstein_values():
    assert burns_epstein(F(0)) == 0
    assert burns_epstein(F(25, 66)) == F(41, 66)
    assert burns_epstein(F(13, 66)) == F(53, 66)
    assert burns_epstein(F(7, 66)) == F(59, 66)
    assert burns_epstein(F(1, 2)) == F(1, 2)


# ---------------------------------------------------------------------------
# assembling lifted data from angle data


def test_canonical_lift_matches_frozen_case_data():
    pres = presentation((2, 3, 11))
    cases = sigma_2_3_11_fixture()
    assert canonical_lift_data(pres, cases[0].generators, cases[0].central) == _case1_data()
    assert canonical_lift_data(pres, cases[4].generators, cases[4].central) == _case5_data()
    got3 = canonical_lift_data(pres, cases[2].generators, cases[2].central)
    assert got3 == LiftedRepData(
        F(-1),
        F(-1),
        F(2),
        (F(1, 2), F(0), F(-2, 11)),
        (F(-3, 2), F(2, 3), F(6, 11)),
        (F(1), F(-2, 3), F(-4, 11)),
        (2, -1, -4),
    )
    assert cs_closed(pres, got3) == F(7, 66)


def test_canonical_lift_rejects_inconsistent_angles():
    pres = presentation((2, 3, 11))
    cases = sigma_2_3_11_fixture()
    gens = cases[4].generators
    # central theta1 - 3 theta2 must be an integer
    with pytest.raises(Unliftable):
        canonical_lift_data(pres, gens, CentralAngles(F(1, 2), F(0)))
    # generator theta2 must satisfy its relation against the central lift
    bad_gen = GeneratorAngles(gens[0].fractions, gens[0].theta1_turns, F(1, 3))
    with pytest.raises(Unliftable):
        canonical_lift_data(pres, (bad_gen,) + gens[1:], cases[4].central)
    # p-slot fraction must make a_i p_i + b_i p_0 an integer
    bad_frac = GeneratorAngles((F(1, 3), F(0), F(0)), F(0), F(0))
    with pytest.raises(Unliftable):
        canonical_lift_data(pres, (bad_frac,) + gens[1:], cases[4].central)
    with pytest.raises(LengthMismatch):
        canonical_lift_data(pres, gens[:2], cases[4].central)


def test_fixture_cases_hit_expected_invariants_by_both_routes():
    pres = presentation((2, 3, 11))
    expected = [F(13, 66), F(13, 66), F(7, 66), F(7, 66), F(25, 66)]
    mu = [F(53, 66), F(53, 66), F(59, 66), F(59, 66), F(41, 66)]
    cases = sigma_2_3_11_fixture()
    assert len(cases) == 5
    for case, e_cs, e_mu in zip(cases, expected, mu):
        data = canonical_lift_data(pres, case.generators, case.central)
        assert case.expected_cs == e_cs
        assert cs_closed(pres, data) == e_cs
        assert cs_pipeline(pres, data) == e_cs
        assert burns_epstein(e_cs) == e_mu


def test_table_targets_reduce_the_fixture_angles():
    cases = sigma_2_3_11_fixture()
    assert sigma_2_3_11_targets() == tuple(target_from_angles(c.generators, c.central) for c in cases)


def test_table_lift_angles_are_the_implied_ones():
    pres = presentation((2, 3, 11))
    for case, target in zip(sigma_2_3_11_fixture(), sigma_2_3_11_targets()):
        gens, central = implied_angles(pres, target)
        assert central == case.central
        for gen, implied in zip(case.generators, gens):
            assert (gen.theta1_turns, gen.theta2_turns) == (implied.theta1_turns, implied.theta2_turns)
            assert tuple(mod_z(f) for f in gen.fractions) == implied.fractions


def test_seifert_imports_only_the_standard_library():
    # The exact layer stays free of numpy, scipy and the package's float modules.
    tree = ast.parse(Path(csu21.seifert.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported <= set(sys.stdlib_module_names), imported - set(sys.stdlib_module_names)


# ---------------------------------------------------------------------------
# random valid data and route agreement


def test_rep_from_zero_draws_is_trivial():
    pres = presentation((2, 3, 11))
    assert _rep_from_draws(pres, F(0), 0, 0, 0, (0, 0, 0)) == _trivial_data(pres)


def test_make_random_rep_is_deterministic_and_valid():
    pres = presentation((2, 3, 7))
    a = make_random_rep(pres, 17)
    b = make_random_rep(pres, 17)
    assert a == b
    assert a != make_random_rep(pres, 18)
    assert validate_rep(pres, a).ok


def test_routes_agree_on_random_data():
    for a in PRESENTATIONS:
        pres = presentation(a)
        for seed in range(50):
            data = make_random_rep(pres, seed)
            assert cs_closed(pres, data) == cs_pipeline(pres, data)


# ---------------------------------------------------------------------------
# invariance of the class invariant under lift choices


@given(st.integers(-5, 5), st.integers(0, 2), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_invariant_unchanged_by_generator_lift_choice(k, i, seed):
    pres = presentation((2, 3, 11))
    data = make_random_rep(pres, seed)
    shifted = shift_generator_lift(pres, data, i, k)
    assert validate_rep(pres, shifted).ok
    assert cs_closed(pres, shifted) == cs_closed(pres, data)
    assert cs_pipeline(pres, shifted) == cs_pipeline(pres, data)


@given(st.integers(-5, 5), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_invariant_unchanged_by_central_split_choice(k, seed):
    pres = presentation((3, 4, 5))
    data = make_random_rep(pres, seed)
    shifted = shift_central_split(pres, data, k)
    assert validate_rep(pres, shifted).ok
    assert cs_closed(pres, shifted) == cs_closed(pres, data)
    assert cs_pipeline(pres, shifted) == cs_pipeline(pres, data)


@given(st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_invariant_unchanged_by_pq_swap(seed):
    pres = presentation((2, 3, 7))
    data = make_random_rep(pres, seed)
    swapped = swap_pq(data)
    assert validate_rep(pres, swapped).ok
    assert cs_closed(pres, swapped) == cs_closed(pres, data)


def test_invariances_hold_on_fixture_cases():
    pres = presentation((2, 3, 11))
    for case in sigma_2_3_11_fixture():
        data = canonical_lift_data(pres, case.generators, case.central)
        for i in range(3):
            assert cs_closed(pres, shift_generator_lift(pres, data, i, 3)) == case.expected_cs
        assert cs_closed(pres, shift_central_split(pres, data, -2)) == case.expected_cs
        assert cs_closed(pres, swap_pq(data)) == case.expected_cs


# ---------------------------------------------------------------------------
# JSON round-trips of the exact data


def test_fraction_codec_round_trip():
    assert decode_fraction("25/66") == F(25, 66)
    assert decode_fraction("-1/2") == F(-1, 2)
    assert decode_fraction(3) == F(3)
    assert decode_fraction("4") == F(4)
    assert encode_fraction(F(25, 66)) == "25/66"
    assert decode_fraction(encode_fraction(F(-7, 3))) == F(-7, 3)
    with pytest.raises(ValueError):
        decode_fraction("1/0")
    with pytest.raises((ValueError, TypeError)):
        decode_fraction(0.5)


def test_presentation_codec_round_trip():
    pres = presentation((2, 3, 11))
    assert decode_presentation(encode_presentation(pres)) == pres
    assert decode_presentation({"a": [2, 3, 11]}) == pres


def test_rep_data_codec_round_trip():
    pres = presentation((2, 3, 11))
    for seed in range(10):
        data = make_random_rep(pres, seed)
        assert decode_rep_data(encode_rep_data(data)) == data
    assert decode_rep_data(encode_rep_data(_case1_data())) == _case1_data()
