"""Exact invariants of diagonal representations of Seifert homology spheres."""

import ast
import dataclasses
import math
import random
import re
import sys
import time
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
from csu21.seifert import SeifertPresentation, _echo, _rep_from_draws
from conftest import shift_central_split, shift_generator_lift, swap_pq

F = Fraction

PRESENTATIONS = [(2, 3, 5), (2, 3, 7), (2, 3, 11), (3, 4, 5)]


# ---------------------------------------------------------------------------
# presentation arithmetic


def test_solve_b_known_triples():
    assert solve_b((2, 3, 5)) == (-1, 1, 1)
    assert solve_b((2, 3, 11)) == (-1, 1, 2)


def _prime_power_moduli(count: int, seed: int = 0) -> list[tuple[int, ...]]:
    """Seeded pairwise coprime tuples, n = 3..8, of prime powers up to 400**2."""
    rng = random.Random(seed)
    primes = [p for p in range(2, 400) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    tuples = []
    for _ in range(count):
        ps = rng.sample(primes, rng.randint(3, 8))
        tuples.append(tuple(p ** rng.randint(1, int(math.log(400**2, p))) for p in ps))
    return tuples


def test_solve_b_satisfies_sum_identity_and_window():
    # The identity and the window have exactly one solution, so these
    # inputs pin solve_b's output, not just its validity.
    for a in PRESENTATIONS + [(2, 3, 5, 7), (3, 5, 7, 11)] + _prime_power_moduli(200):
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
    assert presentation(iter((2, 3, 11))) == pres  # a one-shot iterable is read once
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
    assert validate_rep(pres, _trivial_data(pres)) == ()
    assert validate_rep(pres, _case5_data()) == ()
    assert validate_rep(pres, _case1_data()) == ()


def test_validate_rep_builds_nothing_for_valid_data(monkeypatch):
    # Valid data gets (): no record per check, and no Fraction, which only
    # the detail of a failed check needs.
    pres = presentation((2, 3, 5, 7, 11, 13))
    data = make_random_rep(pres, 5)
    built = []
    monkeypatch.setattr(csu21.seifert, "Fraction", lambda *args: built.append(args) or F(*args))
    assert validate_rep(pres, data) == ()
    assert built == []
    assert not hasattr(csu21.seifert, "CheckResult") and not hasattr(csu21.seifert, "ValidationReport")


def test_validate_rep_names_the_broken_identity():
    pres = presentation((2, 3, 11))
    good = _case5_data()
    bad = LiftedRepData(good.p0, good.q0, good.r0, good.p, good.q, (F(1, 2), F(0), F(0)), good.s)
    names = {name for name, _ in validate_rep(pres, bad)}
    assert "a_ir_i+b_ir_0=0" in names
    assert "r_0=-a*sum r_i" in names
    with pytest.raises(InvalidRepData) as err:
        cs_closed(pres, bad)
    assert "a_ir_i+b_ir_0=0" in str(err.value)


def test_validate_rep_details_only_failures():
    pres = presentation((2, 3, 11))
    good = _case5_data()
    bad = LiftedRepData(good.p0, good.q0, good.r0, good.p, good.q, (F(1, 2), F(0), F(0)), good.s)
    assert validate_rep(pres, bad) == (
        ("a_ir_i+b_ir_0=0", "i=1: 1 vs 0"),
        ("r_0=-a*sum r_i", "r_0=0 vs -a*sum r_i=-33"),
    )
    assert validate_rep(pres, good) == ()


def test_validate_rep_checks_lengths():
    pres = presentation((2, 3, 5, 7))
    with pytest.raises(LengthMismatch):
        validate_rep(pres, _case5_data())


def test_cached_numerators_leave_equality_and_hash_alone():
    pres = presentation((2, 3, 5, 7))
    data = make_random_rep(pres, 3)
    twin = dataclasses.replace(data)
    before = hash(data)
    d, P0, Q0, R0, P, Q, R = data.numerators
    assert "numerators" in vars(data) and "numerators" not in vars(twin)
    assert data == twin and hash(data) == before == hash(twin)
    assert F(P0, d) == data.p0 and F(Q0, d) == data.q0 and F(R0, d) == data.r0
    assert [F(x, d) for x in (*P, *Q, *R)] == [*data.p, *data.q, *data.r]
    assert data.numerators is data.numerators


def test_rep_data_refuses_floats():
    with pytest.raises(TypeError):
        LiftedRepData(0.5, F(0), F(0), (F(0),) * 3, (F(0),) * 3, (F(0),) * 3, (0, 0, 0))
    with pytest.raises(TypeError):
        GeneratorAngles((0.5, F(0), F(0)), F(0), F(0))
    with pytest.raises(TypeError):
        CentralAngles(0.0, F(0))
    with pytest.raises(TypeError):
        mod_z(0.75)


def test_presentation_refuses_non_integral_moduli_and_twists():
    # int() would truncate the moduli (2.9, 3, 11) to (2, 3, 11).
    with pytest.raises(TypeError, match="Seifert moduli must be integers"):
        presentation((2.9, 3, 11))
    with pytest.raises(TypeError, match="Seifert moduli must be integers"):
        solve_b((2, F(3), 11))
    with pytest.raises(TypeError, match="Seifert moduli must be integers"):
        SeifertPresentation((2.0, 3, 11), (-1, 1, 2))
    with pytest.raises(TypeError, match="Seifert twists must be integers"):
        presentation((2, 3, 11), b=(-1.0, 1, 2))
    with pytest.raises(TypeError, match="Seifert twists must be integers"):
        SeifertPresentation((2, 3, 11), (-1, F(1), 2))


def test_rep_data_refuses_non_integral_twists():
    # int() would truncate s = (0.7, -0.2, 0) to (0, 0, 0).
    zeros = (F(0),) * 3
    for s in ((0.7, -0.2, 0), (0, F(1, 2), 0), (0, 1.0, 0)):
        with pytest.raises(TypeError, match="twists s_i must be integers"):
            LiftedRepData(F(0), F(0), F(0), zeros, zeros, zeros, s)


def test_class_target_refuses_floats():
    # Fraction(0.1) would hold 3602879701896397/36028797018963968.
    with pytest.raises(TypeError):
        ClassTarget(((0.1, F(0), F(0)),), F(0), (0, 0))
    with pytest.raises(TypeError):
        ClassTarget(((F(0), F(0), F(0)),), 0.5, (0, 0))
    assert ClassTarget(((F(1, 10), 0, F(0)),), 0, (0, 0)).fractions == ((F(1, 10), F(0), F(0)),)


_ZEROS = (F(0),) * 3
_NOT_EXACT = [True, "1", 1.0]  # bool, str and float: none is a plain int or a Fraction


@pytest.mark.parametrize("bad", _NOT_EXACT, ids=["bool", "str", "float"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: SeifertPresentation((2, 3, v), (-1, 1, 2)),
        lambda v: SeifertPresentation((2, 3, 11), (-1, v, 2)),
        lambda v: LiftedRepData(v, F(0), F(0), _ZEROS, _ZEROS, _ZEROS, (0, 0, 0)),
        lambda v: LiftedRepData(F(0), F(0), F(0), (v, F(0), F(0)), _ZEROS, _ZEROS, (0, 0, 0)),
        lambda v: LiftedRepData(F(0), F(0), F(0), _ZEROS, _ZEROS, _ZEROS, (0, v, 0)),
        lambda v: ClassTarget(((v, F(0), F(0)),), F(0), (0, 0)),
        lambda v: ClassTarget((_ZEROS,), v, (0, 0)),
        lambda v: ClassTarget((_ZEROS,), F(0), (0, v)),
        lambda v: GeneratorAngles((F(0), v, F(0)), F(0), F(0)),
        lambda v: GeneratorAngles(_ZEROS, v, F(0)),
        lambda v: CentralAngles(F(0), v),
        mod_z,
    ],
    ids=[
        "moduli", "twists", "p0", "p_i", "s_i", "target-fraction", "central-fraction", "lifts",
        "generator-fraction", "theta1", "central-theta2", "mod_z",
    ],
)
def test_exact_types_refuse_bools_strings_and_floats(build, bad):
    # True would read as 1, "1" would go to Fraction's string parser and
    # 1.0 to its float conversion: each is refused by type instead.
    with pytest.raises(TypeError):
        build(bad)


def test_exact_types_refuse_an_exponent_literal_at_once():
    # Fraction("1e10000000") builds a ten-million-digit integer; the
    # constructors never hand a str to Fraction's parser.
    start = time.perf_counter()
    with pytest.raises(TypeError, match="pass a Fraction or an int"):
        LiftedRepData("1e10000000", F(0), F(0), _ZEROS, _ZEROS, _ZEROS, (0, 0, 0))
    assert time.perf_counter() - start < 0.1


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
    # One case per raise site, with its message frozen.
    pres = presentation((2, 3, 11))
    case = sigma_2_3_11_fixture()[4]
    gens, central = case.generators, case.central
    first = gens[0]

    def message(generator=first, central=central):
        with pytest.raises(Unliftable) as err:
            canonical_lift_data(pres, (generator,) + gens[1:], central)
        return str(err.value)

    assert message(central=CentralAngles(F(1, 2), F(0))) == "central angles need sigma_0-3r_0 in Z, got 1/2"
    assert message(GeneratorAngles(first.fractions, F(1, 3), F(0))) == (
        "i=1: a_i*theta1_i+b_i*theta1_0 = 2/3 != 0"
    )
    assert message(GeneratorAngles(first.fractions, F(0), F(1, 3))) == "i=1: a_ir_i+b_ir_0 = 2/3 != 0"
    assert message(GeneratorAngles((F(1, 2), F(1, 2), F(1, 2)), F(0), F(0))) == (
        "i=1: theta2 lift 0 not congruent to r-fraction 1/2"
    )
    assert message(GeneratorAngles((F(1, 2), F(1, 3), F(0)), F(0), F(0))) == (
        "i=1: forced q_i=-1/2 not congruent to q-fraction 1/3"
    )
    assert message(GeneratorAngles((F(1, 3), F(2, 3), F(0)), F(0), F(0))) == (
        "i=1: a_ip_i+b_ip_0 = 2/3 is not an integer"
    )
    with pytest.raises(LengthMismatch):
        canonical_lift_data(pres, gens[:2], central)


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


def test_seifert_holds_no_float():
    # Exact end to end: no float(...) call and no float literal in the exact layer.
    tree = ast.parse(Path(csu21.seifert.__file__).read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
    ]
    literals = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert calls == [], f"float() called on lines {calls}"
    assert literals == [], f"float literals on lines {literals}"


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
    assert validate_rep(pres, a) == ()


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
    assert validate_rep(pres, shifted) == ()
    assert cs_closed(pres, shifted) == cs_closed(pres, data)
    assert cs_pipeline(pres, shifted) == cs_pipeline(pres, data)


@given(st.integers(-5, 5), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_invariant_unchanged_by_central_split_choice(k, seed):
    pres = presentation((3, 4, 5))
    data = make_random_rep(pres, seed)
    shifted = shift_central_split(pres, data, k)
    assert validate_rep(pres, shifted) == ()
    assert cs_closed(pres, shifted) == cs_closed(pres, data)
    assert cs_pipeline(pres, shifted) == cs_pipeline(pres, data)


@given(st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_invariant_unchanged_by_pq_swap(seed):
    pres = presentation((2, 3, 7))
    data = make_random_rep(pres, seed)
    swapped = swap_pq(data)
    assert validate_rep(pres, swapped) == ()
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


def _fraction_verdict(parse, s):
    """("ok", value) or ("error", message) of ``parse(s)``."""
    try:
        return "ok", parse(s)
    except ValueError as exc:
        return "error", str(exc)


# The documented grammar of an exact literal.  ``[0-9]`` is ASCII only,
# unlike ``\d``.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _grammar_verdict(s):
    """The verdict the grammar gives: a fullmatch of ``_RATIONAL``, read as
    Fraction(int(num), int(den)).  No string reaches Fraction's own parser,
    which alone would run for minutes on a draw such as "9e99999999".  The
    message echoes the literal cut short, as every decoding diagnostic does."""
    if not _RATIONAL.fullmatch(s):
        return "error", f"bad rational literal {_echo(s)}: not of the form [-]digits[/digits]"
    num, _, den = s.partition("/")
    try:
        return "ok", F(int(num), int(den or "1"))
    except (ValueError, ZeroDivisionError) as exc:  # a zero denominator, or int's digit limit
        return "error", f"bad rational literal {_echo(s)}: {exc}"


def _assert_decodes_by_the_grammar(s):
    got = _fraction_verdict(decode_fraction, s)
    assert got == _grammar_verdict(s)
    if got[0] == "ok":
        assert type(got[1]) is F


_FRACTION_LITERALS = [
    "3/4", "-3/4", "+3/4", " 3/4 ", "3 / 4", "3/-4", "1.5", "1e3", "1_0/3", "٣/٤", "²/3",
    "3/0", "-0/5", "", "/", "3/", "/4", "-", "--3", "-0/0", "007/010", "3/4/5", "6/-0", "\t-6/4\n",
    "1" * 5000 + "/3", "-" + "1" * 5000 + "/3", "3/" + "1" * 5000,
]
# The only literals above that decode, with their values.  Of the rest,
# "3/0" and "-0/0" have a zero denominator and the three 5000-digit
# literals exceed int's digit limit; every other one is outside the grammar.
_FRACTION_VALUES = {"3/4": F(3, 4), "-3/4": F(-3, 4), "-0/5": F(0), "007/010": F(7, 10)}


@pytest.mark.parametrize("s", _FRACTION_LITERALS)
def test_decode_fraction_matches_fraction_on_fixed_cases(s):
    _assert_decodes_by_the_grammar(s)
    verdict, value = _fraction_verdict(decode_fraction, s)
    assert (value if verdict == "ok" else None) == _FRACTION_VALUES.get(s)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
        st.text(alphabet="0123456789-+/ ._eE٣٤²\t", max_size=12),
        st.text(max_size=8),
    )
)
def test_decode_fraction_matches_fraction(s):
    _assert_decodes_by_the_grammar(s)


def test_echo_is_repr_cut_short():
    # Short values echo as repr does; any value echoes in a few hundred
    # characters, however long or deep, without recursing into it.
    for v in (1.5, "3/4x", True, None, [1, "2"], {"a": 1}, -7):
        assert _echo(v) == repr(v)
    deep = []
    for _ in range(100000):
        deep = [deep]
    for v in ("x" * 10**6, [0] * 10**6, {str(k): k for k in range(10**5)}, deep, (("a" * 100,) * 100,) * 100):
        assert len(_echo(v)) < 400
    assert _echo([0] * 10**6) == "[0, 0, 0, 0, 0, 0, ...]"


def test_decode_fraction_takes_ints_but_not_bools():
    for v in (0, -7, 10**30):
        assert decode_fraction(v) == F(v)
        assert type(decode_fraction(v)) is F
    for v in (True, False, 0.5, None, [1, 2]):
        assert _fraction_verdict(decode_fraction, v) == (
            "error",
            f"exact values are 'num/den' strings or integers, got {v!r}",
        )


def test_fraction_encoder_takes_only_exact_values():
    assert encode_fraction(3) == "3/1"
    assert encode_fraction(F(-7, 3)) == "-7/3"
    # Fraction(0.1) would give "3602879701896397/36028797018963968", Fraction(True) "1/1".
    for value in (0.1, True, 1.0, "1/2"):
        with pytest.raises(TypeError):
            encode_fraction(value)


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


# ---------------------------------------------------------------------------
# the integer core against the Fraction formulas it replaced
#
# ``ref_validate_rep``, ``ref_cs_closed`` and ``ref_cs_pipeline`` are the
# ``fractions.Fraction`` implementations that the integer numerators
# replaced, kept verbatim apart from their names: every failed check,
# message and invariant must come out the same.  ``CheckResult`` and
# ``ValidationReport`` are the reference's own record types; the library's
# ``validate_rep`` returns only the (name, detail) pairs of failed checks.


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One named identity of ``validate_rep``; ``detail`` shows the two
    sides when the check fails and is "" when it passes."""

    name: str
    ok: bool
    detail: str


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)


def ref_validate_rep(pres: SeifertPresentation, data: LiftedRepData) -> ValidationReport:
    """Check every presentation constraint exactly, naming each identity."""
    n = pres.n
    for name in ("p", "q", "r", "s"):
        if len(getattr(data, name)) != n:
            raise LengthMismatch(f"{name} has {len(getattr(data, name))} entries for {n} generators")
    checks = []

    def add(name, ok, detail):
        """``detail`` is a callable, called only when the check fails."""
        checks.append(CheckResult(name, ok, "" if ok else detail()))

    dq, dr = data.p0 - data.q0, data.p0 - data.r0
    add("p_0-q_0 in Z", dq.denominator == 1, lambda: f"p_0-q_0 = {dq}")
    add("p_0-r_0 in Z", dr.denominator == 1, lambda: f"p_0-r_0 = {dr}")
    for i in range(n):
        ai, bi, si = pres.a[i], pres.b[i], data.s[i]
        lhs = ai * data.p[i] + bi * data.p0
        add("a_ip_i+b_ip_0=s_i", lhs == si, lambda: f"i={i + 1}: {lhs} vs s_i={si}")
        lhs = ai * data.q[i] + bi * data.q0
        add("a_iq_i+b_iq_0=-s_i", lhs == -si, lambda: f"i={i + 1}: {lhs} vs -s_i={-si}")
        lhs = ai * data.r[i] + bi * data.r0
        add("a_ir_i+b_ir_0=0", lhs == 0, lambda: f"i={i + 1}: {lhs} vs 0")
    ssum = sum(Fraction(data.s[i], pres.a[i]) for i in range(n))
    total = pres.product
    psum = sum(data.p, Fraction(0)) + data.p0 / total
    add("sum s_i/a_i=sum p_i+p_0/a", ssum == psum, lambda: f"{ssum} vs {psum}")
    qsum = -sum(data.q, Fraction(0)) - data.q0 / total
    add("sum s_i/a_i=-sum q_i-q_0/a", ssum == qsum, lambda: f"{ssum} vs {qsum}")
    rsum = -total * sum(data.r, Fraction(0))
    add("r_0=-a*sum r_i", data.r0 == rsum, lambda: f"r_0={data.r0} vs -a*sum r_i={rsum}")
    return ValidationReport(tuple(checks))


def ref_require_valid(pres, data, validate):
    if validate:
        report = ref_validate_rep(pres, data)
        if not report.ok:
            failed = ", ".join(f"{c.name} ({c.detail})" for c in report.failures())
            raise InvalidRepData(f"representation data violates: {failed}")


def ref_cs_closed(pres: SeifertPresentation, data: LiftedRepData, validate: bool = True) -> Fraction:
    """Closed-form invariant (a/2)(P^2 + Q^2 + R^2) mod Z, exactly."""
    ref_require_valid(pres, data, validate)
    P = sum(data.p, Fraction(0))
    Q = sum(data.q, Fraction(0))
    R = sum(data.r, Fraction(0))
    return mod_z(Fraction(pres.product, 2) * (P * P + Q * Q + R * R))


def ref_cs_pipeline(pres: SeifertPresentation, data: LiftedRepData, validate: bool = True) -> Fraction:
    """Invariant via the variation pipeline, exactly."""
    ref_require_valid(pres, data, validate)
    n = pres.n
    total = pres.product
    P = sum(data.p, Fraction(0))
    Q = sum(data.q, Fraction(0))
    R = sum(data.r, Fraction(0))
    s_part = sum(Fraction(data.s[i], pres.a[i]) for i in range(n - 1))
    s_last = Fraction(data.s[-1], pres.a[-1])
    cs_a0 = -Fraction(total, 2) * s_part * (-P + Q + 2 * s_last) - Fraction(1, 2) * (
        data.p0 * P + data.q0 * Q + data.r0 * R
    )
    cs_b0 = Fraction(total, 2) * s_last * (-P + Q + 2 * s_part)
    return mod_z(cs_a0 - cs_b0)


MODULI_BOUNDS = (30, 300, 5000)
CORRUPTIONS = ("s_i", "r_i", "q_0", "r_0", "p_i")


def _coprime_moduli(rng, n, hi):
    """n pairwise coprime moduli in [2, hi], redrawn from scratch when stuck."""
    a, misses = [], 0
    while len(a) < n:
        x = rng.randint(2, hi)
        if all(math.gcd(x, y) == 1 for y in a):
            a.append(x)
        elif (misses := misses + 1) == 50:
            a, misses = [], 0
    return tuple(a)


def _corrupt(rng, data, how):
    """Break one constraint of valid data, as the ``exact`` benchmark does, or move a p_i."""
    i = rng.randrange(len(data.s))
    if how == "s_i":
        return dataclasses.replace(data, s=data.s[:i] + (data.s[i] + 1,) + data.s[i + 1:])
    if how == "r_i":
        return dataclasses.replace(data, r=data.r[:i] + (data.r[i] + 1,) + data.r[i + 1:])
    if how == "q_0":
        return dataclasses.replace(data, q0=data.q0 + F(1, 2))
    if how == "r_0":
        return dataclasses.replace(data, r0=data.r0 + 1)
    step = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
    return dataclasses.replace(data, p=data.p[:i] + (data.p[i] + step,) + data.p[i + 1:])


def _raised(fn, *args):
    try:
        return fn(*args)
    except InvalidRepData as exc:
        return ("InvalidRepData", str(exc))


def _common_denominator(data):
    return math.lcm(*(f.denominator for f in (data.p0, data.q0, data.r0, *data.p, *data.q, *data.r)))


def test_integer_core_matches_the_fraction_formulas():
    largest_d_at_8 = 0
    n_sets = 0
    for seed in range(1000):
        rng = random.Random(seed)
        n, hi = 3 + seed % 6, MODULI_BOUNDS[(seed // 6) % 3]
        pres = presentation(_coprime_moduli(rng, n, hi))
        den = rng.randint(1, 12)
        draws = (rng.randint(-3, 3) for _ in range(3))
        s = tuple(rng.randint(-20, 20) for _ in range(n))
        valid = _rep_from_draws(pres, F(rng.randrange(den), den), *draws, s)
        broken = _corrupt(rng, valid, CORRUPTIONS[seed % len(CORRUPTIONS)])
        for data in (valid, broken):
            n_sets += 1
            failed = tuple((c.name, c.detail) for c in ref_validate_rep(pres, data).failures())
            assert validate_rep(pres, data) == failed
            # The message the reference raises (None for valid data), and both
            # reference routes unvalidated, so broken data is compared too.
            error = _raised(ref_require_valid, pres, data, True)
            closed, pipeline = ref_cs_closed(pres, data, False), ref_cs_pipeline(pres, data, False)
            assert _raised(cs_closed, pres, data) == (error or closed)
            assert _raised(cs_pipeline, pres, data) == (error or pipeline)
            assert cs_closed(pres, data, False) == closed
            assert cs_pipeline(pres, data, False) == pipeline
        assert validate_rep(pres, valid) == () and validate_rep(pres, broken) != ()
        assert cs_closed(pres, valid) == cs_pipeline(pres, valid)
        if n == 8:
            largest_d_at_8 = max(largest_d_at_8, _common_denominator(valid))
    assert n_sets == 2000
    assert largest_d_at_8 > 10**25





def _moved_angles(rng, pres, gens, central):
    """``gens`` and ``central`` with one field moved by a step t (an
    integer, a unit fraction, a random fraction or 0), and whether the
    moved angles still admit a lift.

    The unmoved angles are those of valid data, so they do.  A nonzero t
    on theta1 or theta2 breaks a relation a_i theta_i + b_i theta_0 = 0
    (some b_i is nonzero).  On a rotation number, t keeps a lift exactly
    when it is an integer: the forced q_i moves by -t against p_i, and
    the q- or r-slot congruence fails for t not in Z.
    """
    i = rng.randrange(pres.n)
    step = rng.choice((0, 1, -1, 2, F(1, 2), F(1, pres.a[i]), F(rng.randint(-5, 5), rng.randint(1, 12))))
    field = rng.randrange(2 + 5 * pres.n)
    if field < 2:
        angles = [central.theta1_turns, central.theta2_turns]
        angles[field] += step
        return gens, CentralAngles(*angles), step == 0
    angles = [gens[i].theta1_turns, gens[i].theta2_turns, *gens[i].fractions]
    angles[field % 5] += step
    moved = gens[:i] + (GeneratorAngles(angles[2:], angles[0], angles[1]),) + gens[i + 1:]
    return moved, central, step == 0 or (field % 5 >= 2 and F(step).denominator == 1)


def test_canonical_lift_data_implies_validate_rep():
    # canonical_lift_data does not validate its result: its own Unliftable
    # checks imply every identity of validate_rep (proof in its docstring).
    # Valid data moved one field at a time, 20000 inputs over seven
    # presentations, must be accepted exactly when the move keeps a lift,
    # and accepted data must pass validate_rep.
    moduli = [(2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7), (3, 4, 5), (2, 3, 5, 7), (3, 5, 7, 11, 13)]
    accepted, wrong = 0, []
    for seed in range(2000):
        rng = random.Random(seed)
        pres = presentation(moduli[seed % len(moduli)])
        den = rng.randint(1, 6)
        draws = (rng.randint(-3, 3) for _ in range(3))
        base = _rep_from_draws(pres, F(rng.randrange(den), den), *draws, [rng.randint(-10, 10) for _ in range(pres.n)])
        gens = tuple(GeneratorAngles((p, q, r), p + q + r, r) for p, q, r in zip(base.p, base.q, base.r))
        central = CentralAngles(base.p0 + base.q0 + base.r0, base.r0)
        for _ in range(10):
            moved_gens, moved_central, liftable = _moved_angles(rng, pres, gens, central)
            try:
                data = canonical_lift_data(pres, moved_gens, moved_central)
            except Unliftable:
                verdict = "unliftable"
            else:
                verdict = "invalid" if validate_rep(pres, data) else "valid"
                accepted += 1
            if verdict != ("valid" if liftable else "unliftable"):
                wrong.append((seed, verdict, moved_gens, moved_central))
    assert wrong == []
    assert 4000 <= accepted <= 16000
