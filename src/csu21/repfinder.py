"""Numerical search for U(2,1) representations with prescribed elliptic classes.

A representation of the Seifert presentation <x_1, ..., x_n, h central |
x_i^{a_i} h^{b_i} = 1, x_1 ... x_n = 1> with elliptic generator images
is sought inside U(2,1).  The target is a ``seifert.ClassTarget``: the
conjugacy class of each x_i is a diagonal phase triple (rotation numbers
in [0, 1)); the central h is the scalar e^{2 pi i f_0} I together with
the two covering-angle lift integers that select its sheet in the
universal cover.  Class targets and the exact rule that lifts them live
in ``seifert``; this module is numerics only.

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
generators, and a step h moves x_i to u_i x_i u_i^{-1} with u_i =
cay(H_i) = (I - H_i/2)^{-1} (I + H_i/2), the Cayley transform of the
u(2,1) element H_i of h's 9 real coordinates for x_i.  Like the
exponential, the Cayley transform maps u(2,1) into U(2,1) exactly
(wherever I - H_i/2 is invertible), and it agrees with exp(H_i) to
second order, so at h = 0 the generator moves along chart direction E
by [E, x_i] either way.  The exact Jacobian is therefore a batch of
matrix products, and each trial point costs one batched 3x3 linear
solve (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
Manifolds, 2008, section 4.1).  That Jacobian has rank at most 9 (the
product only moves in the tangent space of U(2,1), and each x_i's
centraliser is a null direction); as the Levenberg-Marquardt damping
falls, its step tends to the minimum-norm Gauss-Newton step, so the
solve converges fast onto the positive-dimensional solution set.  The
starts stay exponential, one exponential per start: Cayley starts from
the same seeded draws made the table searches less accurate (worst full
residual 1.6e-13 against 1.2e-18 over seeds 0..241 at budget 64, with
starts drawn at scale 0.8).  A start's chart coordinates are drawn at
standard deviation ``START_SCALE``, and its solve stops once the
squared defect reaches the rounding floor ``DEFECT_FLOOR``.  Over seeds
0..241 x the five table classes at budget 64 a solve then takes 20.1
evaluations on average (worst 47), against 37.3 (worst 828) at scale
0.8 with no floor, and the worst full residual is 3.2e-24.

``find_representation`` only searches: its result carries the best
candidate and no verdict.  ``relation_residual`` scores a candidate by
the full contract: squared Frobenius deviations of all relations plus a
spectral penalty matching eigenphases to the target rotation numbers
over all assignments.  ``extract_lift_data`` is the one acceptance rule:
given the target and its lift, it scores the candidate against them once,
and accepts the candidate as a solution only when that residual is at
most ``CONVERGED_RESIDUAL``; otherwise it raises ``NotASolution``.  It
returns the rational lift data, whose closed-form invariant can be
computed exactly, with the residual it scored.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .seifert import ClassTarget, LiftedRepData, SeifertPresentation
from .ug21 import J, algebra_element, lie_exp

# A full residual (``relation_residual``) at most this counts as a
# solution.  Searches of all 1386 liftable Sigma(2, 3, 11) targets (seed
# 1, budget 3) split into 29 true solutions, at 8.9e-25 and below (3.2e-24
# over the five table classes at seeds 0..241, budget 64), and
# near-misses, whose starts all stall at a positive minimum of the long
# relation's defect, at 1.6e-9 and above (also when the 201 below 1e-7
# are searched again at budget 64).  1e-12 lies inside that
# gap and above the search's own stop (squared defect <= 1e-16).
CONVERGED_RESIDUAL = 1e-12

# Standard deviation of the chart coordinates of a random start.  Over
# seeds 0..241 x the five table classes at budget 64, with no defect
# floor, a solve took 37.3 evaluations on average at scale 0.8 (worst
# 828), 28.4 at 0.6, 25.6 at 0.5 and 23.0 at 0.4 (worst 97), and all
# 1210 solves converged at every scale.  Wider starts land far out in
# U(2,1), and their solves spend steps walking back.
START_SCALE = 0.4

# A solve stops once its squared defect is at most this, the rounding
# floor of the long relation: further steps no longer improve the full
# residual.  On the same probe it cuts a solve from 23.0 evaluations to
# 20.1 (worst 47), and the worst full residual stays at 3.2e-24.
# Stopping at the search's own 1e-16 would save 2.4 more but leave the
# worst full residual at 9.9e-17.
DEFECT_FLOOR = 1e-24


@dataclass(frozen=True)
class SearchResult:
    """Best candidate of a search, not yet judged (``extract_lift_data``
    judges it).  ``iterations`` counts the evaluations of the search's
    residual and of its Jacobian, one for each call."""

    matrices: tuple[np.ndarray, ...]
    seed: int
    iterations: int


class NotASolution(ValueError):
    """A candidate's full residual exceeds ``CONVERGED_RESIDUAL``, or is NaN."""

    def __init__(self, residual: float):
        super().__init__(f"residual {residual:.3e} > {CONVERGED_RESIDUAL:.0e}")
        self.residual = residual


def _target_diagonals(target: ClassTarget) -> np.ndarray:
    """The (n, 3, 3) stack of exact target diagonals."""
    phases = np.exp(2j * math.pi * np.array([[float(f) for f in tri] for tri in target.fractions]))
    diags = np.zeros((len(phases), 3, 3), dtype=complex)  # off the diagonal +0.0, as np.diag writes
    diags[:, [0, 1, 2], [0, 1, 2]] = phases
    return diags


def _central_scalar(target: ClassTarget) -> complex:
    return complex(np.exp(2j * math.pi * float(target.central_fraction)))


_EYE = np.eye(3)
# The 6 assignments of three eigenphases to three target rotation numbers.
_PERMS = np.array(list(itertools.permutations(range(3))))


def _eigenphase_penalty(ms: np.ndarray, target: ClassTarget) -> float:
    """Sum over the stack ms of the best-assignment squared circle distance
    of each generator's eigenphases to its target rotation numbers."""
    turns = (np.angle(np.linalg.eigvals(ms)) / (2.0 * math.pi)) % 1.0
    goals = np.array([[float(f) for f in tri] for tri in target.fractions])
    d = np.abs(turns[:, _PERMS] - goals[:, None, :]) % 1.0
    return float((np.minimum(d, 1.0 - d) ** 2).sum(axis=-1).min(axis=-1).sum())


def relation_residual(pres: SeifertPresentation, matrices, target: ClassTarget) -> float:
    """Full squared residual of a candidate representation.

    Squared Frobenius deviations of the power relations and of the long
    relation, plus for each generator the best assignment (over the 6
    permutations) of its eigenphases to its target rotation numbers, as
    a sum of squared circle distances in turns.
    """
    ms = np.array([np.asarray(m, dtype=complex) for m in matrices])
    if len(ms) != pres.n:
        raise ValueError(f"{pres.n} matrices expected, got {len(ms)}")
    scalar = _central_scalar(target)
    scalars = np.array([scalar ** b for b in pres.b])
    with np.errstate(over="ignore", invalid="ignore"):  # overflow scores inf or nan, not a warning
        powers = np.array([np.linalg.matrix_power(m, ai) for m, ai in zip(ms, pres.a)])
    rel = powers * scalars[:, None, None] - _EYE
    dev = np.concatenate([rel, [functools.reduce(np.matmul, ms) - _EYE]])
    return float(np.vdot(dev, dev).real) + _eigenphase_penalty(ms, target)


# Chart directions E_0 .. E_8, one per row, each flattened row-major.
_BASIS = np.array([algebra_element(e) for e in np.eye(9)]).reshape(9, 9)
_FORM_SIGNS = np.outer(J.diagonal(), J.diagonal()).real  # J A J = A * _FORM_SIGNS


def _increments(h: np.ndarray) -> np.ndarray:
    """The (n - 1, 3, 3) stack of u(2,1) elements H_i = algebra_element(h_i)."""
    return (h.reshape(-1, 9) @ _BASIS).reshape(-1, 3, 3)


def _conjugate_by(ms: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x_1 and u_i x_i u_i^{-1} for i >= 2, for a stack u of U(2,1) elements."""
    uinv = u.conj().transpose(0, 2, 1) * _FORM_SIGNS  # J U^H J, the U(2,1) inverse
    return np.concatenate([ms[:1], u @ ms[1:] @ uinv])


def _conjugate(ms: np.ndarray, h: np.ndarray) -> np.ndarray:
    """x_1 and cay(H_i) x_i cay(H_i)^{-1} for i >= 2, H_i = algebra_element(h_i).

    ``ms`` is the (n, 3, 3) stack of generators and ``h`` holds 9 chart
    coordinates per generator beyond the first: one batched solve of
    (I - H_i/2) u_i = I + H_i/2 gives the Cayley factors of all of them.
    If some I - H_i/2 is singular (H_i has eigenvalue 2) the result is
    all NaN, a trial point that Levenberg-Marquardt rejects.
    """
    half = _increments(h) / 2
    try:
        u = np.linalg.solve(_EYE - half, _EYE + half)
    except np.linalg.LinAlgError:
        return np.full_like(ms, np.nan)
    return _conjugate_by(ms, u)


def _prefix_products(ms: np.ndarray) -> np.ndarray:
    """The stack q of prefix products, q[j] = x_1 ... x_{j+1}, multiplied left to right."""
    q = np.empty_like(ms)
    q[0] = ms[0]
    for j in range(1, len(ms)):
        q[j] = q[j - 1] @ ms[j]
    return q


def _defect(q: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of x_1 ... x_n - I, from the prefix products q."""
    d = q[-1] - _EYE
    return np.concatenate([d.real.ravel(), d.imag.ravel()])


def _defect_jacobian(ms: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jacobian of ``_defect(_prefix_products(_conjugate(ms, h)))`` at h = 0,
    shape (18, 9 (n - 1)), given the prefix products q of ms.

    Along chart direction E_k of generator i, dx_i = [E_k, x_i], and the
    product moves by P_i [E_k, x_i] S_i, where P_i and S_i are the
    products of the generators before and after x_i.  With Q_j = x_1 ...
    x_j = q[j - 1] and T_j = x_{j+1} ... x_n that is Q_{i-1} E_k T_{i-1} -
    Q_i E_k T_i, and Q E T is linear in E: row-major, vec(Q E T) = (Q kron
    T^T) vec(E).
    """
    n = len(ms)
    t = np.empty_like(ms)  # t[j] = T_{j+1}
    t[-1] = _EYE
    for j in range(1, n):
        t[n - 1 - j] = ms[n - j] @ t[n - j]
    tt = t.transpose(0, 2, 1)
    kron = (q[:, :, None, :, None] * tt[:, None, :, None, :]).reshape(-1, 9, 9)
    dp = (kron[:-1] - kron[1:]) @ _BASIS.T  # (n - 1, 9 entries, 9 directions)
    return np.concatenate([dp.real, dp.imag], axis=1).transpose(1, 0, 2).reshape(18, -1)


def _levenberg_marquardt(fun, jac, x, max_nfev: int, step=np.add, floor: float = 0.0):
    """Minimise |fun(x)|^2 from x by Levenberg-Marquardt; return the last accepted x.

    Nielsen's damping rule (Madsen, Nielsen & Tingleff, Methods for
    non-linear least squares problems, 2004, section 3.2).  ``jac(x)`` is
    the Jacobian of h -> fun(step(x, h)) at h = 0; the default step is
    vector addition.  ``jac`` is only called at the point of the latest
    ``fun`` call, so ``fun`` may leave products there for it.  Stops after
    ``max_nfev`` calls of ``fun``, once |r|^2 <= ``floor`` (with no
    Jacobian at that point), when the step h is below 1e-15, or when the
    gradient J^T r is below 1e-15 in every entry (a zero Jacobian
    included).  A trial point whose residual is
    not finite is rejected like any step that does not reduce |r|^2, and
    so is a step whose damped normal equations are singular.
    """
    r = fun(x)
    rr = r @ r
    nfev = 1
    jx = jac(x)
    a, g = jx.T @ jx, jx.T @ r
    mu, nu = 1e-3 * a.diagonal().max(), 2.0
    eye = np.eye(len(g))
    while nfev < max_nfev and rr > floor and np.abs(g).max() > 1e-15:
        try:
            h = np.linalg.solve(a + mu * eye, -g)
        except np.linalg.LinAlgError:  # mu fell below the rounding of a rank-deficient J^T J
            mu *= nu
            nu *= 2.0
            continue
        if math.sqrt(h @ h) <= 1e-15:  # the 2-norm, as np.linalg.norm computes it
            break
        x_new = step(x, h)
        r_new = fun(x_new)
        rr_new = r_new @ r_new
        nfev += 1
        rho = (rr - rr_new) / (h @ (mu * h - g))
        if rho > 0:
            x, r, rr = x_new, r_new, rr_new
            if rr <= floor:
                break
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
    Levenberg-Marquardt solve from a seeded random point, which stops at
    the squared defect ``DEFECT_FLOOR``.  No further start is made once
    the squared defect of the long relation is at most 1e-16, and the
    search returns the best candidate evaluated, unscored:
    ``extract_lift_data`` decides whether it is a solution.  Identical
    (seed, budget) reruns return identical results.
    """
    diags = _target_diagonals(target)
    dim = 9 * (pres.n - 1)
    evals = 0
    best_val, best_ms = math.inf, None
    prefix = None  # prefix products of the latest point evaluated, where the Jacobian is asked for

    def residual_vector(ms):
        nonlocal evals, best_val, best_ms, prefix
        evals += 1
        prefix = _prefix_products(ms)
        r = _defect(prefix)
        val = float(r @ r)
        if val < best_val:
            best_val, best_ms = val, ms
        return r

    def jacobian(ms):
        nonlocal evals
        evals += 1
        return _defect_jacobian(ms, prefix)

    residual_vector(diags)
    rng = np.random.default_rng(seed)
    # A large trial step can overflow in the products of the moved
    # generators; its residual is then not finite and the step is rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1, budget):
            if best_val <= 1e-16:
                break
            start = _conjugate_by(diags, lie_exp(_increments(rng.normal(size=dim) * START_SCALE)))
            _levenberg_marquardt(
                residual_vector, jacobian, start, max_nfev=400, step=_conjugate, floor=DEFECT_FLOOR
            )
    return SearchResult(tuple(best_ms), seed, evals)


def extract_lift_data(
    pres: SeifertPresentation,
    result: SearchResult,
    target: ClassTarget,
    data: LiftedRepData,
) -> tuple[LiftedRepData, float]:
    """The exact lift data of ``target`` and the residual of ``result``
    against it, given a solution of it: the one acceptance rule.

    ``data`` is the target's lift, ``canonical_lift_data(pres,
    *implied_angles(pres, target))``, which the caller makes before any
    search (it raises ``Unliftable`` for a target that admits no lift).
    Scores ``result.matrices`` once by ``relation_residual`` and raises
    ``NotASolution``, carrying that residual, unless it is at most
    ``CONVERGED_RESIDUAL`` (a NaN residual is refused too).  The
    residual sees the central scalar, not its sheet: the lift integers
    of the target are taken on trust.
    """
    residual = relation_residual(pres, result.matrices, target)
    if not residual <= CONVERGED_RESIDUAL:
        raise NotASolution(residual)
    return data, residual
