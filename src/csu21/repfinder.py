"""Numerical search for U(2,1) representations with prescribed elliptic classes.

A representation of the Seifert presentation <x_1, ..., x_n, h central |
x_i^{a_i} h^{b_i} = 1, x_1 ... x_n = 1> with elliptic generator images
is sought inside U(2,1).  The target conjugacy class of each x_i is a
diagonal phase triple (rotation numbers in [0, 1)); the central h is the
scalar e^{2 pi i f_0} I together with the two covering-angle lift
integers that select its sheet in the universal cover.

The search keeps each generator beyond the first in its target class,
x_i = U D_i U^{-1} with D_i the exact target diagonal and U in U(2,1);
x_1 stays at its diagonal form, using up the conjugation freedom of the
whole representation.  Every power relation x_i^{a_i} h^{b_i} = 1 then
holds identically whenever the target is liftable, so the optimization
only has to close the long relation x_1 ... x_n = 1.  Start 0 evaluates
the all-diagonal configuration once, so that commuting targets are hit
exactly without any search; every later start conjugates the diagonals
by exponentials of a seeded random u(2,1) point and runs one
Levenberg-Marquardt solve of the long relation's defect from there.
The solve works in a moving chart: its point is the stack of current
generators, and a step h moves x_i to exp(H_i) x_i exp(-H_i), with
H_i the u(2,1) element of h's 9 real coordinates for x_i.  At h = 0 the
generator moves along chart direction E by [E, x_i], so the exact
Jacobian is a batch of matrix products with no exponential, and each
trial point costs one exponential of the stacked increments.  That
Jacobian has rank at most 9 (the product only moves in the tangent
space of U(2,1), and each x_i's centraliser is a null direction); as
the Levenberg-Marquardt damping falls, its step tends to the
minimum-norm Gauss-Newton step, so the solve converges fast onto the
positive-dimensional solution set.

``relation_residual`` scores a candidate by the full contract: squared
Frobenius deviations of all relations plus a spectral penalty matching
eigenphases to the target rotation numbers over all assignments.
``extract_lift_data`` snaps a converged solution's eigenphases to the
exact targets and assembles the rational lift data whose closed-form
invariant can then be computed exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .seifert import (
    CentralAngles,
    GeneratorAngles,
    LiftedRepData,
    SeifertPresentation,
    Unliftable,
    canonical_lift_data,
    sigma_2_3_11_fixture,
)
from .ug21 import J, algebra_element, lie_exp
from .variation import mod_z

# A full residual (``relation_residual``) at most this counts as a
# solution.  Searches of all 1386 liftable Sigma(2, 3, 11) targets split
# into true solutions, at 9.0e-26 and below (2.6e-18 over the five table
# classes at seeds 0..241), and near-misses, whose starts all stall at a
# positive minimum of the long relation's defect, at 1.7e-9 and above
# (seed 1, budgets 3 and 64).  1e-12 lies inside that gap and above the
# search's own stop (squared defect <= 1e-16).
CONVERGED_RESIDUAL = 1e-12
SNAP_TOL = 1e-4


class SnapFailure(ValueError):
    """Computed eigenphases do not match the exact target classes."""


def _unit_fraction(v) -> Fraction:
    f = Fraction(v)
    if not 0 <= f < 1:
        raise ValueError(f"rotation numbers must lie in [0, 1), got {f}")
    return f


@dataclass(frozen=True)
class ClassTarget:
    """Target conjugacy classes: rotation numbers per generator plus the
    central scalar's rotation number and covering-lift integers."""

    fractions: tuple[tuple[Fraction, Fraction, Fraction], ...]
    central_fraction: Fraction
    central_lifts: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(
            self, "fractions", tuple(tuple(_unit_fraction(f) for f in tri) for tri in self.fractions)
        )
        object.__setattr__(self, "central_fraction", _unit_fraction(self.central_fraction))
        object.__setattr__(self, "central_lifts", tuple(int(k) for k in self.central_lifts))


@dataclass(frozen=True)
class SearchResult:
    """Best candidate of a search.  ``iterations`` counts the evaluations
    of the search's residual and of its Jacobian, one for each call."""

    matrices: tuple[np.ndarray, ...]
    residual: float
    seed: int
    iterations: int

    @property
    def converged(self) -> bool:
        return self.residual <= CONVERGED_RESIDUAL


def target_from_angles(generators, central: CentralAngles) -> ClassTarget:
    """Reduce exact angle data to a class target (rotation numbers + lifts)."""
    fractions = tuple(tuple(mod_z(f) for f in gen.fractions) for gen in generators)
    f0 = mod_z(central.theta2_turns)
    k2 = central.theta2_turns - f0
    k1 = central.theta1_turns - 3 * f0
    if k1.denominator != 1 or k2.denominator != 1:
        raise Unliftable(f"central angles ({central.theta1_turns}, {central.theta2_turns}) are not a lift of a scalar")
    return ClassTarget(fractions, f0, (k1.numerator, k2.numerator))


def implied_angles(pres: SeifertPresentation, target: ClassTarget):
    """Exact per-generator lift angles forced by the relations.

    The power relation x_i^{a_i} h^{b_i} = 1 determines both covering
    angles of x_i's lift from the central lift: theta_i = -b_i theta_0 /
    a_i in each coordinate.
    """
    if len(target.fractions) != pres.n:
        raise Unliftable(f"{pres.n} generator classes expected, got {len(target.fractions)}")
    f0 = target.central_fraction
    k1, k2 = target.central_lifts
    central = CentralAngles(3 * f0 + k1, f0 + k2)
    gens = tuple(
        GeneratorAngles(
            tri,
            -Fraction(pres.b[i]) * central.theta1_turns / pres.a[i],
            -Fraction(pres.b[i]) * central.theta2_turns / pres.a[i],
        )
        for i, tri in enumerate(target.fractions)
    )
    return gens, central


def _target_diagonals(target: ClassTarget) -> np.ndarray:
    """The (n, 3, 3) stack of exact target diagonals."""
    return np.array([
        np.diag([np.exp(2j * math.pi * float(f)) for f in tri]) for tri in target.fractions
    ])


def _central_scalar(target: ClassTarget) -> complex:
    return complex(np.exp(2j * math.pi * float(target.central_fraction)))


def _circle_dist(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def _spectral_penalty(m: np.ndarray, tri) -> float:
    """Best-assignment squared circle distance of eigenphases to targets."""
    turns = (np.angle(np.linalg.eigvals(m)) / (2.0 * math.pi)) % 1.0
    goals = [float(f) for f in tri]
    return min(
        sum(_circle_dist(t, g) ** 2 for t, g in zip(perm, goals))
        for perm in itertools.permutations(turns)
    )


def relation_residual(pres: SeifertPresentation, matrices, target: ClassTarget) -> float:
    """Full squared residual of a candidate representation."""
    matrices = [np.asarray(m, dtype=complex) for m in matrices]
    if len(matrices) != pres.n:
        raise ValueError(f"{pres.n} matrices expected, got {len(matrices)}")
    eye = np.eye(3)
    scalar = _central_scalar(target)
    total = 0.0
    for i, m in enumerate(matrices):
        rel = np.linalg.matrix_power(m, pres.a[i]) * scalar ** pres.b[i]
        total += float(np.sum(np.abs(rel - eye) ** 2))
    prod = eye
    for m in matrices:
        prod = prod @ m
    total += float(np.sum(np.abs(prod - eye) ** 2))
    for m, tri in zip(matrices, target.fractions):
        total += _spectral_penalty(m, tri)
    return total


_BASIS = np.array([algebra_element(e) for e in np.eye(9)])  # chart directions E_0 .. E_8
_FORM_SIGNS = np.outer(J.diagonal(), J.diagonal()).real  # J A J = A * _FORM_SIGNS


def _conjugate(ms: np.ndarray, h: np.ndarray) -> np.ndarray:
    """x_1 and exp(H_i) x_i exp(-H_i) for i >= 2, H_i = algebra_element(h_i).

    ``ms`` is the (n, 3, 3) stack of generators and ``h`` holds 9 chart
    coordinates per generator beyond the first: one exponential of the
    (n - 1, 3, 3) stack of increments moves them all.
    """
    u = lie_exp((h.reshape(-1, 9) @ _BASIS.reshape(9, 9)).reshape(-1, 3, 3))
    uinv = u.conj().transpose(0, 2, 1) * _FORM_SIGNS  # J U^H J, the U(2,1) inverse
    return np.concatenate([ms[:1], u @ ms[1:] @ uinv])


def _defect(ms: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of x_1 ... x_n - I."""
    d = functools.reduce(np.matmul, ms) - np.eye(3)
    return np.concatenate([d.real.ravel(), d.imag.ravel()])


def _defect_jacobian(ms: np.ndarray) -> np.ndarray:
    """Jacobian of ``_defect(_conjugate(ms, h))`` at h = 0, shape (18, 9 (n - 1)).

    Along chart direction E_k of generator i, dx_i = [E_k, x_i], and the
    product moves by P_i [E_k, x_i] S_i, where P_i and S_i are the
    products of the generators before and after x_i.  With Q_j = x_1 ...
    x_j and T_j = x_{j+1} ... x_n that is Q_{i-1} E_k T_{i-1} - Q_i E_k T_i,
    and Q E T is linear in E: row-major, vec(Q E T) = (Q kron T^T) vec(E).
    """
    q = [ms[0]]
    for m in ms[1:]:
        q.append(q[-1] @ m)
    t = [np.eye(3)]
    for m in ms[:0:-1]:
        t.append(m @ t[-1])
    q, tt = np.array(q), np.array(t[::-1]).transpose(0, 2, 1)
    kron = (q[:, :, None, :, None] * tt[:, None, :, None, :]).reshape(-1, 9, 9)
    dp = (kron[:-1] - kron[1:]) @ _BASIS.reshape(9, 9).T  # (n - 1, 9 entries, 9 directions)
    return np.concatenate([dp.real, dp.imag], axis=1).transpose(1, 0, 2).reshape(18, -1)


def _levenberg_marquardt(fun, jac, x, max_nfev: int, step=np.add):
    """Minimise |fun(x)|^2 from x by Levenberg-Marquardt; return the last accepted x.

    Nielsen's damping rule (Madsen, Nielsen & Tingleff, Methods for
    non-linear least squares problems, 2004, section 3.2).  ``jac(x)`` is
    the Jacobian of h -> fun(step(x, h)) at h = 0; the default step is
    vector addition.  Stops after ``max_nfev`` calls of ``fun``, when the
    step h is below 1e-15, or when the gradient J^T r is below 1e-15 in
    every entry (a zero Jacobian included).  A trial point whose residual
    is not finite is rejected like any step that does not reduce |r|^2,
    and so is a step whose damped normal equations are singular.
    """
    r = fun(x)
    nfev = 1
    jx = jac(x)
    a, g = jx.T @ jx, jx.T @ r
    mu, nu = 1e-3 * a.diagonal().max(), 2.0
    while nfev < max_nfev and np.abs(g).max() > 1e-15:
        try:
            h = np.linalg.solve(a + mu * np.eye(len(g)), -g)
        except np.linalg.LinAlgError:  # mu fell below the rounding of a rank-deficient J^T J
            mu *= nu
            nu *= 2.0
            continue
        if np.linalg.norm(h) <= 1e-15:
            break
        x_new = step(x, h)
        r_new = fun(x_new)
        nfev += 1
        rho = (r @ r - r_new @ r_new) / (h @ (mu * h - g))
        if rho > 0:
            x, r = x_new, r_new
            jx = jac(x)
            a, g = jx.T @ jx, jx.T @ r
            mu *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return x


def find_representation(
    pres: SeifertPresentation,
    target: ClassTarget,
    seed: int = 0,
    budget: int = 64,
) -> SearchResult:
    """Deterministic multi-start search for a representation in the classes.

    ``budget`` counts starts, at least one.  Start 0 evaluates the
    all-diagonal configuration once; starts 1 .. budget - 1 each run one
    Levenberg-Marquardt solve from a seeded random point.  The search
    stops once the squared defect of the long relation is at most 1e-16,
    and returns the best candidate evaluated; ``converged`` reports
    whether its full residual is at most ``CONVERGED_RESIDUAL``.
    Identical (seed, budget) reruns return identical results.
    """
    diags = _target_diagonals(target)
    dim = 9 * (pres.n - 1)
    evals = 0
    best_val, best_ms = math.inf, None

    def residual_vector(ms):
        nonlocal evals, best_val, best_ms
        evals += 1
        r = _defect(ms)
        val = float(r @ r)
        if val < best_val:
            best_val, best_ms = val, ms
        return r

    def jacobian(ms):
        nonlocal evals
        evals += 1
        return _defect_jacobian(ms)

    residual_vector(diags)
    rng = np.random.default_rng(seed)
    # A large trial step can overflow inside the exponential; its residual
    # is then not finite and the step is rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1, budget):
            if best_val <= 1e-16:
                break
            start = _conjugate(diags, rng.normal(size=dim) * 0.8)
            _levenberg_marquardt(residual_vector, jacobian, start, max_nfev=400, step=_conjugate)
    residual = relation_residual(pres, best_ms, target)
    return SearchResult(tuple(best_ms), residual, seed, evals)


def extract_lift_data(
    pres: SeifertPresentation,
    result: SearchResult,
    target: ClassTarget,
) -> LiftedRepData:
    """Snap a converged solution to exact class data and lift it.

    Verifies each matrix's eigenphases sit within SNAP_TOL of the target
    rotation numbers (best assignment), then assembles the exact lift
    data implied by the relations.  Raises ``SnapFailure`` if the phase
    match fails, ``Unliftable`` if the target admits no lift.
    """
    if result.residual > CONVERGED_RESIDUAL:
        raise ValueError(f"cannot extract from residual {result.residual:.3e} > {CONVERGED_RESIDUAL}")
    for i, (m, tri) in enumerate(zip(result.matrices, target.fractions)):
        penalty = _spectral_penalty(m, tri)
        if penalty > 3 * SNAP_TOL**2:
            raise SnapFailure(
                f"generator {i + 1}: eigenphase mismatch {math.sqrt(penalty):.3e} exceeds snap tolerance"
            )
    gens, central = implied_angles(pres, target)
    return canonical_lift_data(pres, gens, central)


def sigma_2_3_11_targets() -> tuple[ClassTarget, ...]:
    """Class targets of the five irreducible Sigma(2, 3, 11) classes."""
    return tuple(
        target_from_angles(case.generators, case.central) for case in sigma_2_3_11_fixture()
    )
