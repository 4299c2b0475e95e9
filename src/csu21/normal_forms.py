"""Normal forms of flat u(2,1) connections on the boundary torus.

A flat connection A = cx dx + cy dy on the 2-torus (coordinates x, y of
period 1) with constant u(2,1)-valued coefficients falls, up to gauge,
into one of four families according to the isometry type of its holonomy:

* elliptic        -- diagonal, parameters alpha = (a1,a2,a3), beta likewise;
* loxodromic      -- diagonal phases plus a hyperbolic 2x2 block driven by
                     real parameters u, v;
* parabolic, case 1 -- minimal polynomial (x-1)^3 before the phase twist,
                     parameters (alpha, a, p) in x and (beta, b, q) in y;
* parabolic, case 2 -- minimal polynomial (x-1)^2, parameters
                     (theta1, theta2, p) and (tau1, tau2, q).

One type, ``NormalForm(family, x, y)``, holds a connection of any
family: ``x`` and ``y`` are its three x- and y-direction parameters, in
the name order of FAMILY_X_PARAMS and FAMILY_Y_PARAMS.  The functions
EllipticNF, LoxodromicNF, ParabolicC1NF and ParabolicC2NF build one from
the per-family parameter names above.

For each family the x- and y-coefficients come from a single linear
"direction" builder applied to the x-parameters resp. y-parameters, and
[cx, cy] = 0 holds identically, so the connection integrates to a global
developing map D: R^2 -> G (universal cover of U(2,1)) with D(0,0) = 1
and D a homomorphism of the additive plane.  The closed-form developing
maps below track the two covering angles explicitly, including the
arctan terms the parabolic families pick up in theta2.

Holonomy of the two basic loops is D(1,0) and D(0,1); flatness makes the
pair commute in G.

Everything here is pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ug21 import GElement

TWO_PI = 2.0 * math.pi

ELLIPTIC = "elliptic"
LOXODROMIC = "loxodromic"
PARABOLIC_C1 = "parabolic_c1"
PARABOLIC_C2 = "parabolic_c2"

FAMILIES = (ELLIPTIC, LOXODROMIC, PARABOLIC_C1, PARABOLIC_C2)

# Flat parameter-name order per family: x-direction names then y-direction
# names, aligned so the same direction builder serves both.
FAMILY_X_PARAMS = {
    ELLIPTIC: ("alpha1", "alpha2", "alpha3"),
    LOXODROMIC: ("theta1", "theta2", "u"),
    PARABOLIC_C1: ("alpha", "a", "p"),
    PARABOLIC_C2: ("theta1", "theta2", "p"),
}
FAMILY_Y_PARAMS = {
    ELLIPTIC: ("beta1", "beta2", "beta3"),
    LOXODROMIC: ("tau1", "tau2", "v"),
    PARABOLIC_C1: ("beta", "b", "q"),
    PARABOLIC_C2: ("tau1", "tau2", "q"),
}
FAMILY_PARAMS = {f: FAMILY_X_PARAMS[f] + FAMILY_Y_PARAMS[f] for f in FAMILIES}


@dataclass(frozen=True)
class NormalForm:
    """Flat connection of one family with constant parameters.

    ``x`` and ``y`` are the three direction parameters of the x- and
    y-coefficient, in FAMILY_X_PARAMS resp. FAMILY_Y_PARAMS order.
    """

    family: str
    x: tuple[float, float, float]
    y: tuple[float, float, float]

    def __post_init__(self):
        if self.family not in FAMILIES:
            from .seifert import _echo  # only a failing input pays for the import

            raise ValueError(f"unknown family {_echo(self.family)}, expected one of {list(FAMILIES)}")


def EllipticNF(alpha, beta) -> NormalForm:
    return NormalForm(ELLIPTIC, tuple(alpha), tuple(beta))


def LoxodromicNF(theta, tau, u, v) -> NormalForm:
    return NormalForm(LOXODROMIC, (theta[0], theta[1], u), (tau[0], tau[1], v))


def ParabolicC1NF(alpha, beta, a, b, p, q) -> NormalForm:
    return NormalForm(PARABOLIC_C1, (alpha, a, p), (beta, b, q))


def ParabolicC2NF(theta, tau, p, q) -> NormalForm:
    return NormalForm(PARABOLIC_C2, (theta[0], theta[1], p), (tau[0], tau[1], q))


def direction_matrix(family: str, values) -> np.ndarray:
    """u(2,1) coefficient matrix of one coordinate direction.

    ``values`` are the three direction parameters in FAMILY_X_PARAMS
    order; arrays broadcast, giving a (..., 3, 3) stack.  The builder is
    linear in the parameters, so it also produces t-derivative stacks
    when fed parameter derivatives.
    """
    v1, v2, v3 = (np.asarray(v, dtype=float) for v in values)
    v1, v2, v3 = np.broadcast_arrays(v1, v2, v3)
    out = np.zeros(v1.shape + (3, 3), dtype=complex)
    if family == ELLIPTIC:
        out[..., 0, 0] = TWO_PI * 1j * v1
        out[..., 1, 1] = TWO_PI * 1j * v2
        out[..., 2, 2] = TWO_PI * 1j * v3
    elif family == LOXODROMIC:
        out[..., 0, 0] = TWO_PI * 1j * v1
        out[..., 1, 1] = TWO_PI * 1j * v2
        out[..., 2, 2] = TWO_PI * 1j * v2
        out[..., 1, 2] = v3
        out[..., 2, 1] = v3
    elif family == PARABOLIC_C1:
        phase = TWO_PI * 1j * v1
        out[..., 0, 0] = phase - 1j * v3
        out[..., 1, 1] = phase
        out[..., 2, 2] = phase + 1j * v3
        out[..., 0, 1] = v2
        out[..., 1, 2] = v2
        out[..., 2, 1] = v2
        out[..., 1, 0] = -v2
        out[..., 0, 2] = 1j * v3
        out[..., 2, 0] = -1j * v3
    elif family == PARABOLIC_C2:
        out[..., 0, 0] = TWO_PI * 1j * v1 - 1j * v3
        out[..., 1, 1] = TWO_PI * 1j * v2
        out[..., 2, 2] = TWO_PI * 1j * v1 + 1j * v3
        out[..., 0, 2] = 1j * v3
        out[..., 2, 0] = -1j * v3
    else:
        from .seifert import _echo  # only a failing input pays for the import

        raise ValueError(f"unknown family {_echo(family)}")
    return out


def connection_coeffs(nf: NormalForm) -> tuple[np.ndarray, np.ndarray]:
    """Constant coefficient matrices (cx, cy) of the flat connection."""
    return direction_matrix(nf.family, nf.x), direction_matrix(nf.family, nf.y)


def developing_map(nf: NormalForm, x: float, y: float) -> GElement:
    """Value at (x, y) of the developing map R^2 -> G with D(0,0) = 1."""
    v1, v2, v3 = (a * x + b * y for a, b in zip(nf.x, nf.y))
    ph1, ph2 = TWO_PI * v1, TWO_PI * v2
    if nf.family == ELLIPTIC:
        ph3 = TWO_PI * v3
        mat = np.diag([np.exp(1j * ph1), np.exp(1j * ph2), np.exp(1j * ph3)])
        return GElement(mat, ph1 + ph2 + ph3, ph3)
    if nf.family == LOXODROMIC:
        s = v3
        e1, e2 = np.exp(1j * ph1), np.exp(1j * ph2)
        mat = np.array(
            [
                [e1, 0.0, 0.0],
                [0.0, e2 * math.cosh(s), e2 * math.sinh(s)],
                [0.0, e2 * math.sinh(s), e2 * math.cosh(s)],
            ]
        )
        return GElement(mat, ph1 + 2.0 * ph2, ph2)
    if nf.family == PARABOLIC_C1:
        s, pp = v2, v3
        tw = np.exp(1j * ph1)
        half = 0.5 * s * s
        mat = tw * np.array(
            [
                [1.0 - half - 1j * pp, s, half + 1j * pp],
                [-s, 1.0, s],
                [-half - 1j * pp, s, 1.0 + half + 1j * pp],
            ]
        )
        return GElement(mat, 3.0 * ph1, math.atan2(pp, 1.0 + half) + ph1)
    pp = v3
    e1, e2 = np.exp(1j * ph1), np.exp(1j * ph2)
    mat = np.array(
        [
            [e1 * (1.0 - 1j * pp), 0.0, 1j * pp * e1],
            [0.0, e2, 0.0],
            [-1j * pp * e1, 0.0, e1 * (1.0 + 1j * pp)],
        ]
    )
    return GElement(mat, 2.0 * ph1 + ph2, ph1 + math.atan(pp))


def holonomy(nf: NormalForm) -> tuple[GElement, GElement]:
    """G-holonomy (rho(mu), rho(lambda)) of the two basic torus loops."""
    return developing_map(nf, 1.0, 0.0), developing_map(nf, 0.0, 1.0)
