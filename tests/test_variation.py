"""Closed-formula vs quadrature checks for the CS variation along paths."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csu21 import (
    ConnectionPath,
    FamilyMismatch,
    LinearParam,
    PolyParam,
    SampledParam,
    cs_delta_closed,
    cs_delta_quadrature,
    cs_integrand,
    gauge_shift_boundary_integral,
    gauge_shift_closed,
    mod_z,
)
from csu21.normal_forms import FAMILIES, FAMILY_PARAMS, FAMILY_X_PARAMS, FAMILY_Y_PARAMS, connection_coeffs, direction_matrix
from csu21.variation import _simpson

from conftest import random_normal_form


# ---------------------------------------------------------------------------
# Simpson's rule


def test_simpson_is_exact_for_cubics_on_odd_point_counts():
    exact = 0.3 - 1.7 / 2 + 2.2 / 3 + 5.0 / 4
    for n in (3, 5, 17, 257):
        t = np.linspace(0.0, 1.0, n)
        assert abs(_simpson(0.3 - 1.7 * t + 2.2 * t**2 + 5.0 * t**3) - exact) <= 1e-14


def test_simpson_even_point_counts_are_exact_for_quadratics():
    exact = 0.4 + 1.1 / 2 - 3.3 / 3
    for n in (4, 6, 34, 256):
        t = np.linspace(0.0, 1.0, n)
        assert abs(_simpson(0.4 + 1.1 * t - 3.3 * t**2) - exact) <= 1e-14


def test_simpson_needs_three_points():
    with pytest.raises(ValueError):
        _simpson(np.ones(2))


# ---------------------------------------------------------------------------
# closed formula on hand-checked paths


def test_constant_path_has_zero_variation():
    path = ConnectionPath("elliptic", {"alpha1": LinearParam(0.3, 0.3), "beta2": LinearParam(-0.7, -0.7)})
    assert cs_delta_closed(path) == 0.0
    assert abs(cs_delta_quadrature(path, 256)) <= 1e-15


def test_elliptic_unit_sweep_value():
    # alpha1: 0 -> 1 against constant beta1 = 1: 1/2 * int(0 - 1) = -1/2.
    path = ConnectionPath("elliptic", {"alpha1": LinearParam(0.0, 1.0), "beta1": LinearParam(1.0, 1.0)})
    assert cs_delta_closed(path) == -0.5
    assert abs(cs_delta_quadrature(path, 256) - (-0.5)) <= 1e-12


def test_loxodromic_translation_sweep_value():
    # u: 0 -> 1 against constant v = 1 contributes int(u' v - u v')/(4 pi^2).
    path = ConnectionPath("loxodromic", {"u": LinearParam(0.0, 1.0), "v": LinearParam(1.0, 1.0)})
    expected = 1.0 / (4.0 * math.pi**2)
    assert abs(cs_delta_closed(path) - expected) <= 1e-15
    assert abs(cs_delta_quadrature(path, 256) - expected) <= 1e-12


def test_parabolic_c2_unit_sweep_value():
    path = ConnectionPath("parabolic_c2", {"theta1": LinearParam(0.0, 1.0), "tau1": LinearParam(1.0, 1.0)})
    assert cs_delta_closed(path) == -1.0
    assert abs(cs_delta_quadrature(path, 256) - (-1.0)) <= 1e-12


def test_parabolic_c1_sweep_ignores_nuisance_parameters():
    # Only (alpha, beta) enter the variation; a sampled wiggle on the
    # translation parameters must not change either route.
    t = np.linspace(0.0, 1.0, 65)
    path = ConnectionPath(
        "parabolic_c1",
        {
            "alpha": SampledParam(tuple(t)),
            "beta": SampledParam(tuple(np.ones_like(t))),
            "a": SampledParam(tuple(np.sin(math.pi * t))),
            "p": SampledParam(tuple(t**2)),
        },
    )
    assert abs(cs_delta_closed(path) - (-1.5)) <= 1e-10
    assert abs(cs_delta_quadrature(path, 256) - (-1.5)) <= 1e-10


# ---------------------------------------------------------------------------
# validation errors


def test_stray_parameter_rejected():
    with pytest.raises(FamilyMismatch):
        ConnectionPath("elliptic", {"u": LinearParam(0.0, 1.0)})
    with pytest.raises(FamilyMismatch):
        ConnectionPath("no_such_family", {})


def test_sampled_grids_must_agree():
    path = ConnectionPath(
        "elliptic",
        {
            "alpha1": SampledParam(tuple(np.linspace(0, 1, 65))),
            "beta1": SampledParam(tuple(np.ones(33))),
        },
    )
    with pytest.raises(ValueError):
        path.sample_grid()
    with pytest.raises(ValueError):
        cs_delta_closed(path)


def test_sampled_param_needs_enough_points():
    with pytest.raises(ValueError):
        SampledParam(tuple(np.zeros(32)))
    SampledParam(tuple(np.zeros(33)))  # boundary is allowed


def test_quadrature_panel_count_validated():
    path = ConnectionPath("elliptic", {"alpha1": LinearParam(0.0, 1.0)})
    with pytest.raises(ValueError):
        cs_delta_quadrature(path, n=15)
    with pytest.raises(ValueError):
        cs_delta_quadrature(path, n=0)


def test_path_snapshot_matches_parameter_values():
    path = ConnectionPath(
        "elliptic",
        {"alpha1": LinearParam(0.0, 1.0), "beta3": PolyParam((0.5, 0.0, 1.0))},
    )
    nf = path.at(0.25)
    assert nf.family == "elliptic"
    assert nf.x == (0.25, 0.0, 0.0)
    assert nf.y == (0.0, 0.0, 0.5 + 0.25**2)


# ---------------------------------------------------------------------------
# dual-route agreement on smooth random paths


def _random_poly_path(rng, family):
    params = {
        name: PolyParam(tuple(rng.uniform(-1.0, 1.0, 4))) for name in FAMILY_PARAMS[family]
    }
    return ConnectionPath(family, params)


def test_closed_matches_quadrature_on_cubic_paths(rng):
    for family in FAMILIES:
        for _ in range(10):
            path = _random_poly_path(rng, family)
            closed = cs_delta_closed(path)
            quad = cs_delta_quadrature(path, n=1024)
            assert abs(closed - quad) <= 1e-8


# (x-name, y-name, weight) of each family's closed formula, transcribed
# from the module docstring: the loxodromic translation term
# int (u' v - u v') is the Wronskian of (v, u).
_EXACT_TERMS = {
    "elliptic": (("alpha1", "beta1", Fraction(1, 2)), ("alpha2", "beta2", Fraction(1, 2)), ("alpha3", "beta3", Fraction(1, 2))),
    "loxodromic": (("theta1", "tau1", Fraction(1, 2)), ("theta2", "tau2", Fraction(1)), ("v", "u", Fraction(1.0 / (4.0 * math.pi**2)))),
    "parabolic_c1": (("alpha", "beta", Fraction(3, 2)),),
    "parabolic_c2": (("theta1", "tau1", Fraction(1)), ("theta2", "tau2", Fraction(1, 2))),
}


def _exact_variation(family, coeffs):
    """Sum of w * int_0^1 (f g' - f' g) dt in Fractions, and the same sum
    over the terms' absolute values (the scale rounding errors act on)."""
    value = scale = Fraction(0)
    for f, g, w in _EXACT_TERMS[family]:
        for i, a in enumerate(coeffs.get(f, [0])):
            for j, b in enumerate(coeffs.get(g, [0])):
                if i + j:  # int_0^1 (j - i) t^(i+j-1) dt = (j - i) / (i + j)
                    term = w * a * b * (j - i) / (i + j)
                    value += term
                    scale += abs(term)
    return value, scale


def test_closed_route_matches_exact_fractions_on_polynomial_paths(rng):
    # Dyadic coefficients are exact floats, so the reference sees the
    # same data.  The exact sum can cancel to near zero, so the bound is
    # relative to the sum of the terms' absolute values.
    for family in FAMILIES:
        for _ in range(50):
            coeffs = {
                name: [Fraction(int(rng.integers(-(2**20), 2**20 + 1)), 2**20) for _ in range(int(rng.integers(0, 5)) + 1)]
                for name in FAMILY_PARAMS[family]
                if rng.random() < 0.8
            }
            path = ConnectionPath(family, {n: PolyParam(tuple(float(c) for c in cs)) for n, cs in coeffs.items()})
            closed = cs_delta_closed(path)
            assert type(closed) is float
            value, scale = _exact_variation(family, coeffs)
            assert abs(Fraction(closed) - value) <= Fraction(1e-13) * scale


def test_integrand_matches_per_family_trace_combination(rng):
    # The trace density, written out per family, in units of 8 pi^2.
    t = np.linspace(0.0, 1.0, 17)
    pi2 = math.pi**2
    for family in FAMILIES:
        path = _random_poly_path(rng, family)
        values, derivs = path.curves_on(t, FAMILY_PARAMS[family])
        v = dict(zip(FAMILY_PARAMS[family], values))
        d = dict(zip(FAMILY_PARAMS[family], derivs))

        def w(f, g):
            return v[f] * d[g] - d[f] * v[g]

        if family == "elliptic":
            expected = 4 * pi2 * (w("alpha1", "beta1") + w("alpha2", "beta2") + w("alpha3", "beta3"))
        elif family == "loxodromic":
            expected = 4 * pi2 * w("theta1", "tau1") + 8 * pi2 * w("theta2", "tau2") + 2 * w("v", "u")
        elif family == "parabolic_c1":
            expected = 12 * pi2 * w("alpha", "beta")
        else:
            expected = 8 * pi2 * w("theta1", "tau1") + 4 * pi2 * w("theta2", "tau2")
        got = cs_integrand(path, t)
        assert np.max(np.abs(got - expected / (8 * pi2))) <= 1e-10


def _curve_and_derivative(curve, t):
    """One curve and its t-derivative on t, evaluated on its own."""
    if isinstance(curve, PolyParam):
        coeffs = np.asarray(curve.coeffs, dtype=float)
        return np.polynomial.polynomial.polyval(t, coeffs), np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyder(coeffs))
    values = np.asarray(curve.values, dtype=float)
    return values, np.gradient(values, t[1] - t[0], edge_order=2)


def _integrand_from_matrices(path, t):
    """tr(cy cx' - cx cy') / (8 pi^2) from direction_matrix stacks, curve by curve."""
    fam = path.family

    def stacks(names):
        pairs = [_curve_and_derivative(path.params.get(name, PolyParam((0.0,))), t) for name in names]
        return direction_matrix(fam, [v for v, _ in pairs]), direction_matrix(fam, [d for _, d in pairs])

    cx, dcx = stacks(FAMILY_X_PARAMS[fam])
    cy, dcy = stacks(FAMILY_Y_PARAMS[fam])
    tr = np.einsum("...ij,...ji->...", cy, dcx) - np.einsum("...ij,...ji->...", cx, dcy)
    return np.real(tr) / (8.0 * math.pi**2)


@pytest.mark.parametrize("kind", ["poly", "samples"])
@pytest.mark.parametrize("family", FAMILIES)
def test_integrand_matches_the_trace_of_the_direction_matrices(rng, family, kind):
    # The trace form must reproduce the matrix trace at random times
    # (polynomial curves) and on random sample grids, with curves of
    # mixed degree and some parameters left at zero.
    for _ in range(10):
        names = [name for name in FAMILY_PARAMS[family] if rng.random() < 0.85]
        if kind == "poly":
            t = np.sort(rng.uniform(0.0, 1.0, 23))
            params = {name: PolyParam(tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, 6))))) for name in names}
        else:
            t = np.linspace(0.0, 1.0, int(rng.integers(33, 80)))
            params = {name: SampledParam(tuple(rng.uniform(-2.0, 2.0, len(t)))) for name in names}
        path = ConnectionPath(family, params)
        reference = _integrand_from_matrices(path, t)
        got = cs_integrand(path, t)
        assert got.shape == t.shape
        assert np.max(np.abs(got - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))


@pytest.mark.parametrize("kind", ["poly", "samples"])
def test_quadrature_memory_at_the_panel_cap(kind):
    # 2**16 panels, the most a document may ask for, or 65537 samples:
    # the quadrature holds float arrays of the curves only, not 3x3
    # complex stacks, and peaks under 20 MB.
    family = "parabolic_c1"
    coeffs = {name: (0.25 * k - 0.5, 1.0 - 0.125 * k, 0.5, -0.25 * k) for k, name in enumerate(FAMILY_PARAMS[family])}
    if kind == "poly":
        path = ConnectionPath(family, {name: PolyParam(c) for name, c in coeffs.items()})
    else:
        t = np.linspace(0.0, 1.0, 2**16 + 1)
        path = ConnectionPath(
            family, {name: SampledParam(tuple(np.polynomial.polynomial.polyval(t, c).tolist())) for name, c in coeffs.items()}
        )
    tracemalloc.start()
    try:
        quad = cs_delta_quadrature(path, 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6
    closed = cs_delta_closed(path)
    assert abs(quad - closed) <= 1e-9 * abs(closed)


# ---------------------------------------------------------------------------
# structural properties of the variation


def test_variation_is_additive_under_concatenation(rng):
    # Two linear legs traversed in sequence, encoded as one sampled path
    # with the joint at an even Simpson node so the quadrature is exact.
    for family in FAMILIES:
        ends = {name: tuple(rng.uniform(-1.0, 1.0, 3)) for name in FAMILY_PARAMS[family]}
        leg1 = ConnectionPath(
            family, {n: LinearParam(e[0], e[1]) for n, e in ends.items()}
        )
        leg2 = ConnectionPath(
            family, {n: LinearParam(e[1], e[2]) for n, e in ends.items()}
        )
        k = np.arange(65)
        joined = {}
        for n, (va, vb, vc) in ends.items():
            first = va + (vb - va) * (k[:33] / 32.0)
            second = vb + (vc - vb) * ((k[33:] - 32) / 32.0)
            joined[n] = SampledParam(tuple(np.concatenate([first, second])))
        total = cs_delta_closed(ConnectionPath(family, joined))
        assert abs(total - (cs_delta_closed(leg1) + cs_delta_closed(leg2))) <= 1e-10


def test_variation_negates_under_reversal(rng):
    for family in FAMILIES:
        ends = {name: tuple(rng.uniform(-1.0, 1.0, 2)) for name in FAMILY_PARAMS[family]}
        fwd = ConnectionPath(family, {n: LinearParam(e[0], e[1]) for n, e in ends.items()})
        rev = ConnectionPath(family, {n: LinearParam(e[1], e[0]) for n, e in ends.items()})
        assert cs_delta_closed(rev) == pytest.approx(-cs_delta_closed(fwd), abs=1e-13)


def test_quadrature_error_decays_at_fourth_order(rng):
    # Cubic parameter paths give a quintic density, so halving the panel
    # width should shrink the Simpson error by about 2^4.
    checked = 0
    for family in FAMILIES:
        for _ in range(5):
            path = _random_poly_path(rng, family)
            exact = cs_delta_closed(path)
            err16 = abs(cs_delta_quadrature(path, n=16) - exact)
            err32 = abs(cs_delta_quadrature(path, n=32) - exact)
            if err32 < 1e-14:
                continue
            assert err16 / err32 >= 8.0
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# gauge loops on elliptic connections


def test_gauge_shift_closed_values():
    assert gauge_shift_closed(1, 0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)) == 0.5
    assert gauge_shift_closed(1, 0, (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == -0.5
    assert gauge_shift_closed(0, 1, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == -0.5
    assert gauge_shift_closed(2, -3, (0.1, 0.4, 0.0), (0.7, 0.2, 0.0)) == pytest.approx(
        2 * 0.25 - (-3) * (-0.15), abs=1e-15
    )


def test_gauge_boundary_integral_matches_closed_form(rng):
    for _ in range(20):
        nf = random_normal_form(rng, "elliptic")
        closed = gauge_shift_closed(1, 0, nf.x, nf.y)
        integral = gauge_shift_boundary_integral(nf)
        assert abs(integral - closed) <= 1e-8


def _gauge_integral_pointwise(nf, n_grid):
    # Reference: the integrand built as 3x3 matrices, one grid point at a time.
    _, cy = connection_coeffs(nf)
    total = 0.0
    for k in range(n_grid):
        e = np.exp(2j * math.pi * k / n_grid)
        g = np.diag([e, np.conj(e), 1.0])
        ginv = np.diag([np.conj(e), e, 1.0])
        dg = 2j * math.pi * np.diag([e, -np.conj(e), 0.0])
        total += -np.real(np.trace(ginv @ cy @ g @ ginv @ dg))
    return total / n_grid / (8.0 * math.pi**2)


@pytest.mark.parametrize("n_grid", [256])  # the reference's own grid
def test_gauge_boundary_integral_matches_the_pointwise_loop(rng, n_grid):
    # The torus average of the full 3x3 integrand against the constant it
    # averages: agreement to a few hundred ulps of the O(1) result.
    for _ in range(20):
        nf = random_normal_form(rng, "elliptic", -5.0, 5.0)
        reference = _gauge_integral_pointwise(nf, n_grid)
        assert abs(gauge_shift_boundary_integral(nf) - reference) <= 1e-13 * max(1.0, abs(reference))


def test_gauge_boundary_integral_rejects_bad_input(rng):
    with pytest.raises(TypeError):
        gauge_shift_boundary_integral(random_normal_form(rng, "loxodromic"))


# ---------------------------------------------------------------------------
# reduction to [0, 1)


def test_mod_z_examples():
    assert mod_z(Fraction(2401, 66)) == Fraction(25, 66)
    assert mod_z(Fraction(-1, 2)) == Fraction(1, 2)
    assert mod_z(Fraction(3, 1)) == 0
    assert mod_z(0) == 0


@given(st.fractions(max_denominator=1000), st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_mod_z_is_integer_shift_invariant(q, n):
    r = mod_z(q)
    assert 0 <= r < 1
    assert mod_z(q + n) == r
    assert (q - r).denominator == 1
