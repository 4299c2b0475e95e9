"""Chern-Simons variation along paths of flat torus connections.

A path t -> A(t) of normal-form connections (one family, parameters
varying with t, no dt-component) changes the Chern-Simons invariant of a
filled-in 3-manifold by a boundary integral.  Because the coefficient
matrices are linear in the parameters and commute within each family,
the tr(A ∧ dA + (2/3) A ∧ A ∧ A) density reduces to

    f(t) = tr(cy(t) cx'(t) - cx(t) cy'(t)) / (8 pi^2)

and the CS change is the integral of f over [0, 1].  Carrying out the
trace per family gives closed Wronskian formulas:

    elliptic     : 1/2 sum_i int (a_i b_i' - a_i' b_i) dt
    loxodromic   : 1/2 int (th1 ta1' - th1' ta1) + int (th2 ta2' - th2' ta2)
                   + 1/(4 pi^2) int (u' v - u v') dt
    parabolic c1 : 3/2 int (alpha beta' - alpha' beta) dt
    parabolic c2 : int (th1 ta1' - th1' ta1) + 1/2 int (th2 ta2' - th2' ta2) dt

``cs_delta_closed`` evaluates these formulas, ``cs_delta_quadrature``
integrates the trace density by composite Simpson's rule in numpy (an
even point count closes with Cartwright's last-interval rule); agreement
of the two routes is the module's main cross-check.  The routes take
their weights from different places: the closed one from the formulas
above (``WRONSKIAN_TERMS``), the quadrature from the direction builder
``normal_forms.direction_matrix``.  With cx = sum_j x_j E_j and cy =
sum_j y_j E_j, where E_j is the builder's matrix of the j-th unit
vector, the density is

    f(t) = (y^T T x' - x^T T y') / (8 pi^2),   T_jk = tr(E_j E_k),

and each family's real 3x3 trace form T is built once, at import.  The
quadrature therefore works on float arrays of the six parameter curves
only: its memory is O(n) floats (at most about 16 MB at n = 2**16).

Parameters move along paths of two kinds: polynomial in t (ascending
coefficients; a linear path between endpoints is the degree-1 case), or
explicitly sampled on a uniform grid.  ``ConnectionPath.curves_on``
evaluates all of a path's curves and their t-derivatives in one call
(one Horner loop over the padded coefficient matrix, one finite
difference along the sample rows); both routes read it.  On polynomial
paths the closed route works from the coefficients instead: it
convolves them into the Wronskian's coefficients and integrates those
exactly.  Sampled paths are differentiated by second-order finite
differences and both routes then run on the shared sample grid, so they
see identical data.

The module also evaluates the change of CS under the basic gauge loops
h(x, y) = diag(e^{2 pi i (mx+ny)}, e^{-2 pi i (mx+ny)}, 1) on an
elliptic connection: the closed form m (b1 - b2)/2 - n (a1 - a2)/2 and a
direct boundary-torus integral of tr(g^{-1} A g ∧ g^{-1} dg) for the
(m, n) = (1, 0) loop, whose integrand is constant on the torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .normal_forms import (
    ELLIPTIC,
    FAMILIES,
    FAMILY_PARAMS,
    NormalForm,
    connection_coeffs,
    direction_matrix,
)

EIGHT_PI_SQ = 8.0 * math.pi**2

MIN_SAMPLES = 33


class FamilyMismatch(ValueError):
    """Path parameters do not belong to the declared normal-form family."""


@dataclass(frozen=True)
class PolyParam:
    """Polynomial parameter path, ascending coefficients in t."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial parameter needs at least one coefficient")


def LinearParam(start: float, end: float) -> PolyParam:
    """Parameter moving linearly from ``start`` to ``end`` over [0, 1]."""
    return PolyParam((start, end - start))


@dataclass(frozen=True)
class SampledParam:
    """Parameter sampled on the uniform grid linspace(0, 1, len(values))."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < MIN_SAMPLES:
            raise ValueError(f"sampled parameter needs >= {MIN_SAMPLES} values, got {len(self.values)}")


ParamCurve = Union[PolyParam, SampledParam]

_ZERO = PolyParam((0.0,))


@dataclass(frozen=True)
class ConnectionPath:
    """A one-parameter family of normal-form connections of one family.

    Parameters absent from ``params`` stay at zero.  All sampled
    parameters must share one grid length.
    """

    family: str
    params: Mapping[str, ParamCurve]

    def __post_init__(self):
        if self.family not in FAMILIES:
            from .seifert import _echo  # only a failing input pays for the import

            raise FamilyMismatch(f"unknown family {_echo(self.family)}")
        allowed = set(FAMILY_PARAMS[self.family])
        stray = sorted(set(self.params) - allowed)
        if stray:
            from .seifert import _echo

            raise FamilyMismatch(
                f"parameters {_echo(stray)} do not belong to family {self.family!r} "
                f"(expected a subset of {sorted(allowed)})"
            )

    def sample_grid(self) -> np.ndarray | None:
        """Shared grid of the sampled parameters, or None if all are smooth."""
        sizes = {len(c.values) for c in self.params.values() if isinstance(c, SampledParam)}
        if not sizes:
            return None
        if len(sizes) > 1:
            raise ValueError(f"sampled parameters disagree on grid size: {sorted(sizes)}")
        return np.linspace(0.0, 1.0, sizes.pop())

    def curves_on(self, t: np.ndarray, names) -> tuple[np.ndarray, np.ndarray]:
        """Values and t-derivatives of the named curves on the grid ``t``.

        Returns two (len(names), len(t)) arrays.  Polynomial curves run
        through one Horner loop over their zero-padded coefficient matrix;
        sampled curves, which must lie on ``t``, are differentiated by one
        second-order ``np.gradient`` along the rows.
        """
        curves = [self.params.get(name, _ZERO) for name in names]
        out = np.empty((2, len(curves), len(t)))  # values, derivatives
        poly = [i for i, c in enumerate(curves) if isinstance(c, PolyParam)]
        sampled = [i for i, c in enumerate(curves) if isinstance(c, SampledParam)]
        if poly:
            k, width = len(poly), max(len(curves[i].coeffs) for i in poly)
            coeffs = np.zeros((2 * k, width))  # the curves' rows, then their derivatives'
            for row, i in enumerate(poly):
                coeffs[row, : len(curves[i].coeffs)] = curves[i].coeffs
            coeffs[k:, :-1] = coeffs[:k, 1:] * np.arange(1, width)
            out[:, poly] = _horner(coeffs, t).reshape(2, k, len(t))
        if sampled:
            samples = np.array([curves[i].values for i in sampled], dtype=float)
            if samples.shape[1] != len(t):
                raise ValueError("sampled parameter does not match the evaluation grid")
            out[0, sampled] = samples
            out[1, sampled] = np.gradient(samples, t[1] - t[0], axis=1, edge_order=2)
        return out[0], out[1]

    def at(self, t: float) -> NormalForm:
        """Normal form at parameter time t (smooth parameter kinds only)."""
        values, _ = self.curves_on(np.asarray([float(t)]), FAMILY_PARAMS[self.family])
        v = values[:, 0].tolist()
        return NormalForm(self.family, tuple(v[:3]), tuple(v[3:]))


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows of ascending coefficients evaluated on t, one (rows, len(t)) array."""
    out = np.zeros((len(coeffs), len(t)))
    for column in coeffs.T[::-1]:
        out *= t
        out += column[:, None]
    return out


# (x-name, y-name, weight) triples: the closed variation formula of each
# family is sum of weight * int (f g' - f' g) dt over these pairs.
WRONSKIAN_TERMS = {
    "elliptic": (
        ("alpha1", "beta1", 0.5),
        ("alpha2", "beta2", 0.5),
        ("alpha3", "beta3", 0.5),
    ),
    "loxodromic": (
        ("theta1", "tau1", 0.5),
        ("theta2", "tau2", 1.0),
        ("v", "u", 1.0 / (4.0 * math.pi**2)),
    ),
    "parabolic_c1": (("alpha", "beta", 1.5),),
    "parabolic_c2": (("theta1", "tau1", 1.0), ("theta2", "tau2", 0.5)),
}


def _simpson(y: np.ndarray) -> float:
    """int_0^1 of samples y on the grid linspace(0, 1, len(y)), len(y) >= 3.

    Composite Simpson's rule.  An even point count leaves one interval
    over, closed by Cartwright's last-interval rule h/12 (5 y[-1] + 8 y[-2]
    - y[-3]), which is what scipy.integrate.simpson (>= 1.11) does.
    """
    n = len(y)
    if n < 3:
        raise ValueError(f"Simpson's rule needs >= 3 points, got {n}")
    h = 1.0 / (n - 1)
    m = n if n % 2 else n - 1  # points covered by the standard rule
    total = h / 3 * (y[0] + 4 * y[1 : m - 1 : 2].sum() + 2 * y[2 : m - 1 : 2].sum() + y[m - 1])
    if m < n:
        total += h / 12 * (5 * y[-1] + 8 * y[-2] - y[-3])
    return float(total)


def _wronskian_integral_exact(f: PolyParam, g: PolyParam) -> float:
    """int_0^1 (f g' - f' g) dt for polynomial curves, exactly.

    With f = sum a_i t^i and g = sum b_j t^j, the t^(k-1) coefficient of
    f g' - f' g is w_k = sum_{i+j=k} a_i b_j (j - i), and its integral
    over [0, 1] is sum_{k>=1} w_k / k (w_0 vanishes).
    """
    a, b = np.asarray(f.coeffs, dtype=float), np.asarray(g.coeffs, dtype=float)
    w = np.convolve(a, np.arange(len(b)) * b) - np.convolve(np.arange(len(a)) * a, b)
    return float(np.sum(w[1:] / np.arange(1, len(w))))


def cs_delta_closed(path: ConnectionPath) -> float:
    """CS change along the path, by the per-family closed formula.

    Polynomial parameter paths integrate exactly; paths with
    sampled parameters evaluate the Wronskian density on the sample grid
    (second-order differences) and integrate by Simpson.
    """
    grid = path.sample_grid()
    terms = WRONSKIAN_TERMS[path.family]
    if grid is None:
        curve = path.params.get
        return sum(w * _wronskian_integral_exact(curve(f, _ZERO), curve(g, _ZERO)) for f, g, w in terms)
    names = FAMILY_PARAMS[path.family]
    values, derivs = path.curves_on(grid, names)
    dens = np.zeros_like(grid)
    for f, g, w in terms:
        i, j = names.index(f), names.index(g)
        dens += w * (values[i] * derivs[j] - derivs[i] * values[j])
    return _simpson(dens)


def _density_form(family: str) -> np.ndarray:
    """The 6x6 form W with (x, y) . W (x', y') = y^T T x' - x^T T y'.

    T_jk = tr(E_j E_k) is the family's real trace form, E_j the direction
    builder's matrix of the j-th unit vector.
    """
    e = direction_matrix(family, np.eye(3))
    trace_form = np.einsum("jab,kba->jk", e, e).real
    zero = np.zeros((3, 3))
    return np.block([[zero, -trace_form], [trace_form, zero]])


# Built once, at import, from the direction builder.
DENSITY_FORMS = {family: _density_form(family) for family in FAMILIES}


def cs_integrand(path: ConnectionPath, t: np.ndarray) -> np.ndarray:
    """Trace density tr(cy cx' - cx cy') / (8 pi^2) on a time grid.

    The coefficient matrices are linear in the parameters, so the trace
    is y^T T x' - x^T T y' in the family's trace form T (``DENSITY_FORMS``).
    """
    values, derivs = path.curves_on(t, FAMILY_PARAMS[path.family])
    # einsum, not a matmul: no BLAS call, so no BLAS buffers made resident.
    return np.einsum("jn,jk,kn->n", values, DENSITY_FORMS[path.family], derivs) / EIGHT_PI_SQ


def cs_delta_quadrature(path: ConnectionPath, n: int) -> float:
    """CS change along the path by Simpson quadrature of the trace density.

    ``n`` (even, >= 2) is the panel count for smooth parameter paths;
    paths with sampled parameters integrate on their own grid instead.
    The float arrays of the curves and the density grow linearly with n
    (at most about 16 MB at n = 2**16), so documents read by
    ``jsonio.decode_path`` (the ``variation`` command) may ask for at most
    ``jsonio.MAX_PANELS`` = 2**16 panels.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"panel count must be even and >= 2, got {n}")
    grid = path.sample_grid()
    t = np.linspace(0.0, 1.0, n + 1) if grid is None else grid
    return _simpson(cs_integrand(path, t))


def gauge_shift_closed(m: int, n: int, alpha, beta) -> float:
    """CS shift of an elliptic connection under the (m, n) gauge loop."""
    return 0.5 * m * (beta[0] - beta[1]) - 0.5 * n * (alpha[0] - alpha[1])


def gauge_shift_boundary_integral(nf: NormalForm) -> float:
    """Boundary-torus integral form of the basic (1, 0) gauge shift.

    Gauging an elliptic connection A by g(x) = diag(e^{2 pi i x},
    e^{-2 pi i x}, 1) changes CS by (1/8 pi^2) int_T tr(g^{-1} A g ∧
    g^{-1} dg).  Only the cy dy term of A survives against the dx-valued
    Maurer-Cartan form g^{-1} dg = g^{-1} g' dx, with a sign from
    reordering dy ∧ dx, so the integrand is -Re tr(g^{-1} cy g g^{-1} g').
    With g diagonal that trace is the sum over i of cy_ii (g^{-1} g')_ii
    for any cy, and g^{-1} g' = 2 pi i diag(1, -1, 0) does not depend on
    x: the integrand is the constant -Re 2 pi i (cy_00 - cy_11), and over
    the unit torus the integral is that constant.  It reads cy through
    ``connection_coeffs``, not through the normal form's angles, so it is
    independent of gauge_shift_closed(1, 0, alpha, beta), which it matches.
    """
    if nf.family != ELLIPTIC:
        raise TypeError("gauge loops in this normal form act on elliptic connections")
    _, cy = connection_coeffs(nf)
    return -float(((cy[0, 0] - cy[1, 1]) * 2j * math.pi).real) / EIGHT_PI_SQ
