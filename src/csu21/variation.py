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
integrates the trace density by composite Simpson; agreement of the two
routes is the module's main cross-check.

Parameters move along paths of two kinds: polynomial in t (ascending
coefficients; a linear path between endpoints is the degree-1 case), or
explicitly sampled on a uniform grid.  On polynomial paths the closed
route works from the coefficients: it convolves them into the
Wronskian's coefficients and integrates those exactly.  Sampled paths
are differentiated by second-order finite differences and both routes
then run on the shared sample grid, so they see identical data.

The module also evaluates the change of CS under the basic gauge loops
h(x, y) = diag(e^{2 pi i (mx+ny)}, e^{-2 pi i (mx+ny)}, 1) on an
elliptic connection: the closed form m (b1 - b2)/2 - n (a1 - a2)/2 and a
direct boundary-torus integral of tr(g^{-1} A g ∧ g^{-1} dg) for the
(m, n) = (1, 0) loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np
from scipy.integrate import simpson

from .normal_forms import (
    ELLIPTIC,
    FAMILIES,
    FAMILY_PARAMS,
    FAMILY_X_PARAMS,
    FAMILY_Y_PARAMS,
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
            raise FamilyMismatch(f"unknown family {self.family!r}")
        allowed = set(FAMILY_PARAMS[self.family])
        stray = sorted(set(self.params) - allowed)
        if stray:
            raise FamilyMismatch(
                f"parameters {stray} do not belong to family {self.family!r} "
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

    def _curve(self, name: str) -> ParamCurve:
        return self.params.get(name, _ZERO)

    def values_on(self, t: np.ndarray, name: str) -> np.ndarray:
        c = self._curve(name)
        if isinstance(c, PolyParam):
            return _horner(c.coeffs, t)
        return _samples_on(c, t)

    def derivs_on(self, t: np.ndarray, name: str) -> np.ndarray:
        c = self._curve(name)
        if isinstance(c, PolyParam):
            return _horner(_deriv(c.coeffs), t)
        return np.gradient(_samples_on(c, t), t[1] - t[0], edge_order=2)

    def at(self, t: float) -> NormalForm:
        """Normal form at parameter time t (smooth parameter kinds only)."""
        tt = np.asarray([float(t)])
        x, y = (
            tuple(float(self.values_on(tt, name)[0]) for name in names)
            for names in (FAMILY_X_PARAMS[self.family], FAMILY_Y_PARAMS[self.family])
        )
        return NormalForm(self.family, x, y)


def _horner(coeffs, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    for c in reversed(coeffs):
        out = out * t + c
    return out


def _deriv(coeffs) -> np.ndarray:
    """Ascending coefficients of the derivative."""
    return np.arange(1, len(coeffs)) * np.asarray(coeffs[1:], dtype=float)


def _samples_on(c: SampledParam, t: np.ndarray) -> np.ndarray:
    vals = np.asarray(c.values, dtype=float)
    if len(vals) != len(t):
        raise ValueError("sampled parameter does not match the evaluation grid")
    return vals


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
        return sum(w * _wronskian_integral_exact(path._curve(f), path._curve(g)) for f, g, w in terms)
    dens = np.zeros_like(grid)
    for f, g, w in terms:
        fv, gv = path.values_on(grid, f), path.values_on(grid, g)
        fd, gd = path.derivs_on(grid, f), path.derivs_on(grid, g)
        dens += w * (fv * gd - fd * gv)
    return float(simpson(dens, x=grid))


def cs_integrand(path: ConnectionPath, t: np.ndarray) -> np.ndarray:
    """Trace density tr(cy cx' - cx cy') / (8 pi^2) on a time grid."""
    fam = path.family
    xs = [path.values_on(t, name) for name in FAMILY_X_PARAMS[fam]]
    ys = [path.values_on(t, name) for name in FAMILY_Y_PARAMS[fam]]
    dxs = [path.derivs_on(t, name) for name in FAMILY_X_PARAMS[fam]]
    dys = [path.derivs_on(t, name) for name in FAMILY_Y_PARAMS[fam]]
    cx = direction_matrix(fam, xs)
    cy = direction_matrix(fam, ys)
    dcx = direction_matrix(fam, dxs)  # the builder is linear, so this is cx'
    dcy = direction_matrix(fam, dys)
    tr = np.einsum("...ij,...ji->...", cy, dcx) - np.einsum("...ij,...ji->...", cx, dcy)
    return np.real(tr) / EIGHT_PI_SQ


def cs_delta_quadrature(path: ConnectionPath, n: int = 256) -> float:
    """CS change along the path by Simpson quadrature of the trace density.

    ``n`` (even, >= 2) is the panel count for smooth parameter paths;
    paths with sampled parameters integrate on their own grid instead.
    The grid's arrays grow with n, so documents read by
    ``jsonio.decode_path`` (the ``variation`` command) may ask for at most
    ``jsonio.MAX_PANELS`` = 2**16 panels.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"panel count must be even and >= 2, got {n}")
    grid = path.sample_grid()
    t = np.linspace(0.0, 1.0, n + 1) if grid is None else grid
    return float(simpson(cs_integrand(path, t), x=t))


def gauge_shift_closed(m: int, n: int, alpha, beta) -> float:
    """CS shift of an elliptic connection under the (m, n) gauge loop."""
    return 0.5 * m * (beta[0] - beta[1]) - 0.5 * n * (alpha[0] - alpha[1])


def gauge_shift_boundary_integral(nf: NormalForm, n_grid: int = 256) -> float:
    """Boundary-torus integral form of the basic (1, 0) gauge shift.

    Gauging an elliptic connection A by g(x) = diag(e^{2 pi i x},
    e^{-2 pi i x}, 1) changes CS by (1/8 pi^2) int_T tr(g^{-1} A g ∧
    g^{-1} dg); the integrand is y-independent, so a periodic-trapezoid
    average over x (spectrally accurate) evaluates the torus integral.
    Matches gauge_shift_closed(1, 0, alpha, beta).
    """
    if nf.family != ELLIPTIC:
        raise TypeError("gauge loops in this normal form act on elliptic connections")
    if n_grid < 16:
        raise ValueError(f"n_grid must be >= 16, got {n_grid}")
    _, cy = connection_coeffs(nf)
    # g(x) = diag(e, 1/e, 1) and dg/dx as diagonals over the grid x = k / n_grid.
    e = np.exp(2j * math.pi * np.arange(n_grid) / n_grid)
    g = np.stack([e, np.conj(e), np.ones(n_grid)], axis=1)
    dg = 2j * math.pi * np.stack([e, -np.conj(e), np.zeros(n_grid)], axis=1)
    ginv = np.conj(g)
    # dx^dy coefficient of tr(g^-1 A g ^ g^-1 dg): only the cy dy term
    # survives against the dx-valued Maurer-Cartan form, with a sign
    # from reordering dy^dx.  With g diagonal, tr(g^-1 cy g g^-1 dg) is
    # the sum over i of the diagonal products, for any cy.
    integrand = -np.real(np.sum(ginv * np.diag(cy) * g * ginv * dg, axis=1))
    return float(np.mean(integrand)) / EIGHT_PI_SQ
