"""Numerical model of U(2,1) and its universal covering group.

U(2,1) is the group of complex 3x3 matrices preserving the Hermitian form
of signature (2,1) given by J = diag(1, 1, -1), i.e. matrices A with
J A^H J = A^{-1}.  The form condition forces |a33| >= 1, so both arg(det A)
and arg(a33) are well defined and the universal cover G can be realized
concretely as triples

    (A, theta1, theta2),   theta1 = arg(det A) mod 2pi,
                           theta2 = arg(a33)   mod 2pi,

with continuous multiplication

    (A, t1, t2) (B, s1, s2) = (AB, t1 + s1, t2 + s2 + arg(1 + z)),
    z = (a31 b13 + a32 b23) / (a33 b33).

Cauchy-Schwarz applied to the rows/columns entering z gives |z| < 1 for
genuine U(2,1) matrices, so the correction angle arg(1 + z) lies in
(-pi/2, pi/2) and the principal branch is always the right one.  If
Re(1 + z) <= 0 the inputs cannot both satisfy the form condition and
``CorrectionBranchError`` is raised.

The module also provides the Lie algebra u(2,1) (matrices x with
x^H J + J x = 0) with its exponential map ``lie_exp`` (Pade-13 scaling and
squaring in numpy, batched over stacks), seeded random sampling through
it, a three-way elliptic/parabolic/loxodromic classification of
isometries of the complex hyperbolic plane, and a joint-eigenvector
reducibility test for tuples of matrices.

All functions are pure: GElement is treated as immutable and no global
state is mutated, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Default tolerances: group-membership residuals, angle congruences, and
# spectral classification decisions.
TOL_GROUP = 1e-10
TOL_ANGLE = 1e-9
TOL_CLASSIFY = 1e-8

J = np.diag([1.0, 1.0, -1.0]).astype(complex)
J.flags.writeable = False


class CorrectionBranchError(ArithmeticError):
    """The theta2 correction term left its principal branch.

    For valid U(2,1) inputs this cannot happen; it signals an invariant
    violation (non-member matrices) or numerical breakdown.
    """


def angle_dist(x: float, y: float) -> float:
    """Distance between two angles modulo 2pi."""
    return abs(math.remainder(x - y, 2.0 * math.pi))


def check_u21(m: np.ndarray) -> float:
    """Max-norm residual of the form condition J m^H J m = I.

    A residual that is not finite (J m^H J m overflowing, possibly to
    inf - inf = NaN) is returned as ``math.inf``, so every ``residual >
    tol`` test rejects the matrix.
    """
    m = np.asarray(m, dtype=complex)
    res = float(np.max(np.abs(J @ m.conj().T @ J @ m - np.eye(3))))
    return res if math.isfinite(res) else math.inf


def u21_algebra_residual(x: np.ndarray) -> float:
    """Max-norm residual of the Lie algebra condition x^H J + J x = 0."""
    x = np.asarray(x, dtype=complex)
    return float(np.max(np.abs(x.conj().T @ J + J @ x)))


@dataclass(frozen=True)
class GElement:
    """Element (a, theta1, theta2) of the universal cover of U(2,1).

    ``a`` is the underlying 3x3 matrix; theta1 and theta2 are real lifts
    of arg(det a) and arg(a[2,2]).  Instances are treated as immutable.
    """

    a: np.ndarray
    theta1: float
    theta2: float

    def validate(self, tol_group: float = TOL_GROUP, tol_angle: float = TOL_ANGLE) -> None:
        """Raise ValueError unless the membership and angle invariants hold."""
        a = np.asarray(self.a, dtype=complex)
        if a.shape != (3, 3):
            raise ValueError(f"matrix must be 3x3, got {a.shape}")
        res = check_u21(a)
        if res > tol_group:
            raise ValueError(f"U(2,1) residual {res:.3e} exceeds tol_group {tol_group:.3e}")
        if abs(a[2, 2]) < 1.0 - tol_group:
            raise ValueError(f"|a33| = {abs(a[2, 2]):.6f} < 1 violates the form condition")
        d1 = angle_dist(self.theta1, float(np.angle(np.linalg.det(a))))
        if d1 > tol_angle:
            raise ValueError(f"theta1 off arg(det) by {d1:.3e} (tol_angle {tol_angle:.3e})")
        d2 = angle_dist(self.theta2, float(np.angle(a[2, 2])))
        if d2 > tol_angle:
            raise ValueError(f"theta2 off arg(a33) by {d2:.3e} (tol_angle {tol_angle:.3e})")


def g_identity() -> GElement:
    return GElement(np.eye(3, dtype=complex), 0.0, 0.0)


def _correction(a: np.ndarray, b: np.ndarray) -> float:
    """Principal-branch correction angle arg(1 + z) for the cover product."""
    z = (a[2, 0] * b[0, 2] + a[2, 1] * b[1, 2]) / (a[2, 2] * b[2, 2])
    w = 1.0 + z
    if w.real <= 0.0:
        raise CorrectionBranchError(
            f"correction term 1 + z = {w:.6g} has non-positive real part; "
            "inputs are not both in U(2,1)"
        )
    return float(np.angle(w))


def g_multiply(g: GElement, h: GElement) -> GElement:
    """Product in the universal cover."""
    a = np.asarray(g.a, dtype=complex)
    b = np.asarray(h.a, dtype=complex)
    corr = _correction(a, b)
    return GElement(a @ b, g.theta1 + h.theta1, g.theta2 + h.theta2 + corr)


def g_inverse(g: GElement) -> GElement:
    """Inverse in the universal cover.

    The matrix inverse is J a^H J (exact for members).  The theta2
    coordinate of the inverse absorbs the correction angle of the pair
    (a, a^{-1}); analytically that angle vanishes, but it is computed so
    that g * g_inverse(g) returns exactly (I, 0, 0) up to rounding.
    """
    a = np.asarray(g.a, dtype=complex)
    inv = J @ a.conj().T @ J
    corr = _correction(a, inv)
    return GElement(inv, -g.theta1, -g.theta2 - corr)


def g_project(g: GElement) -> np.ndarray:
    """Covering projection G -> U(2,1): forget the angle lifts."""
    return np.asarray(g.a, dtype=complex)


def lift_to_g(m: np.ndarray, k1: int = 0, k2: int = 0) -> GElement:
    """Lift a U(2,1) matrix to the cover on the sheet indexed by (k1, k2)."""
    m = np.asarray(m, dtype=complex)
    t1 = float(np.angle(np.linalg.det(m))) + 2.0 * math.pi * k1
    t2 = float(np.angle(m[2, 2])) + 2.0 * math.pi * k2
    return GElement(m, t1, t2)


# Degree-13 Pade coefficients of exp, divided by b_0 so that the constant
# term is exactly 1 (then lie_exp(0) is exactly I), and the largest
# 1-norm at which that approximant alone is accurate to double precision
# (Higham, The scaling and squaring method for the matrix exponential
# revisited, SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3).
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640,
    1323241920, 40840800, 960960, 16380, 182, 1,
]) / 64764752532480000
_THETA13 = 5.371920351148152


def lie_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential u(2,1) -> U(2,1), of one matrix or a stack (..., 3, 3).

    Pade-13 scaling and squaring (Higham 2005): each matrix is scaled by
    2^-s into 1-norm THETA13, its [13/13] Pade approximant r = (V - U)^-1
    (V + U) is formed, and r is squared s times.
    """
    a = np.asarray(x, dtype=complex)
    # frexp writes norm / THETA13 as f 2^s with f in [0.5, 1), so 2^-s
    # scales the 1-norm to at most THETA13.
    _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(s, 0)
    a = a * np.ldexp(1.0, -s)[..., None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        r = np.where((s > k)[..., None, None], r @ r, r)
    return r


def algebra_element(c) -> np.ndarray:
    """The u(2,1) element with real coordinates c (9 of them).

    Basis: i*diag entries (c[0..2]), an su(2)-type off-diagonal pair
    z = c[3] + i c[4] at (0,1) / -conj(z) at (1,0), and two form-skew
    pairs w = c[5] + i c[6] at (0,2) and v = c[7] + i c[8] at (1,2) whose
    mirror entries carry +conj.  The map is linear; ``algebra_coords``
    inverts it.
    """
    z = c[3] + 1j * c[4]
    w = c[5] + 1j * c[6]
    v = c[7] + 1j * c[8]
    return np.array(
        [
            [1j * c[0], z, w],
            [-np.conj(z), 1j * c[1], v],
            [np.conj(w), np.conj(v), 1j * c[2]],
        ]
    )


def algebra_coords(x) -> np.ndarray:
    """The 9 real coordinates of u(2,1) elements x of shape (..., 3, 3).

    Inverse of ``algebra_element`` on the algebra; it reads only the
    diagonal and the upper triangle.
    """
    x = np.asarray(x, dtype=complex)
    return np.stack(
        [
            x[..., 0, 0].imag,
            x[..., 1, 1].imag,
            x[..., 2, 2].imag,
            x[..., 0, 1].real,
            x[..., 0, 1].imag,
            x[..., 0, 2].real,
            x[..., 0, 2].imag,
            x[..., 1, 2].real,
            x[..., 1, 2].imag,
        ],
        axis=-1,
    )


def random_algebra_element(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Draw a u(2,1) element with the 9 real coordinates ~ N(0, scale^2)."""
    return algebra_element(rng.normal(scale=scale, size=9))


def random_u21(seed: int, scale: float = 1.0) -> np.ndarray:
    """Deterministic random U(2,1) matrix: exp of a random algebra element."""
    rng = np.random.default_rng(seed)
    return lie_exp(random_algebra_element(rng, scale))


class IsometryType(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


def _clusters(lam: list[complex]) -> list[tuple[complex, float, int]]:
    """(center, diameter, multiplicity) per eigenvalue cluster of one matrix.

    Clusters are the connected components of the eigenvalues under
    |li - lj| <= sqrt(TOL_CLASSIFY) max(1, max |l|).  Defective
    eigenvalues of a perturbed matrix split on a sqrt(eps) scale, far
    beyond the perturbation itself, so spectral decisions are made on
    clusters rather than raw eigenvalues.
    """
    radius = math.sqrt(TOL_CLASSIFY) * max(1.0, *map(abs, lam))
    groups: list[list[complex]] = []
    for z in lam:
        # z joins, and so bridges, every earlier group it comes near.
        near = [g for g in groups if any(abs(z - u) <= radius for u in g)]
        groups = [g for g in groups if all(g is not h for h in near)] + [sum(near, []) + [z]]
    return [
        (sum(vals) / len(vals), max(abs(u - v) for u in vals for v in vals), len(vals))
        for vals in groups
    ]


def _kernel_rank(sv: np.ndarray, diam, mnorm):
    """Dimension (at least 1) of each eigenspace, from the singular values of m - center*I.

    ``sv`` holds the singular values in its last axis; ``diam`` and
    ``mnorm`` = max(1, |m|_2) broadcast against the others.  The rank
    cutoff is widened by the cluster diameter (defective pairs split as
    sqrt(eps) but their mean stays put) and scaled by ``mnorm``.
    """
    cut = np.maximum(TOL_CLASSIFY, 4.0 * np.asarray(diam)) * mnorm
    return np.maximum(1, np.sum(sv <= cut[..., None], axis=-1))


def classify(m: np.ndarray) -> IsometryType:
    """Classify a U(2,1) matrix as an isometry of complex hyperbolic space.

    Loxodromic iff some eigenvalue modulus differs from 1 by more than
    TOL_CLASSIFY; otherwise elliptic iff the matrix is diagonalizable and
    parabolic iff not.  Both tests run on eigenvalue clusters: moduli of
    cluster means (stable to first order) and the dimension of each
    repeated cluster's eigenspace (``_kernel_rank``).
    """
    m = np.asarray(m, dtype=complex)
    clusters = _clusters(np.linalg.eigvals(m).tolist())
    for center, _, _ in clusters:
        if abs(abs(center) - 1.0) > TOL_CLASSIFY * max(1.0, abs(center)):
            return IsometryType.LOXODROMIC
    mnorm = max(1.0, float(np.linalg.norm(m, 2)))
    for center, diam, mult in clusters:
        if mult > 1:
            sv = np.linalg.svd(m - center * np.eye(3), compute_uv=False)
            if _kernel_rank(sv, diam, mnorm) < mult:
                return IsometryType.PARABOLIC
    return IsometryType.ELLIPTIC


def _eigenspaces(ms: np.ndarray) -> list[list[np.ndarray]]:
    """The eigenspaces of each matrix of the (k, 3, 3) stack ms, one per eigenvalue cluster.

    Entry i lists, per cluster of ms[i], a (3, rank) orthonormal basis of
    the near-kernel of ms[i] - center*I (``_kernel_rank``): its last rank
    right singular vectors, a column slice of one batched SVD.  One
    batched eigvals and two batched SVDs, of ms for the 2-norms and of the
    shifted matrices, serve all of them.
    """
    clusters = [_clusters(lam) for lam in np.linalg.eigvals(ms).tolist()]
    mnorms = np.maximum(1.0, np.linalg.svd(ms, compute_uv=False)[:, 0])
    owner = [i for i, cl in enumerate(clusters) for _ in cl]
    centers = np.array([center for cl in clusters for center, _, _ in cl])
    diams = np.array([diam for cl in clusters for _, diam, _ in cl])
    _, sv, vh = np.linalg.svd(ms[owner] - centers[:, None, None] * np.eye(3))
    rank = _kernel_rank(sv, diams, mnorms[owner])
    v = vh.conj().transpose(0, 2, 1)
    bases = iter([v[c, :, 3 - r:] for c, r in enumerate(rank.tolist())])
    return [[next(bases) for _ in cl] for cl in clusters]


def is_reducible(ms) -> bool:
    """True iff the matrices share a common eigenvector (common fixed line).

    Searches the tree of eigenspace choices, intersecting subspaces as it
    goes.  The eigenspaces of the first matrix are the roots.  A subspace
    with basis B meets all eigenspaces of the next matrix at once through
    (I - P) B over their projectors P: its singular values are the sines
    of the principal angles, and the directions with sine at most
    sqrt(TOL_CLASSIFY) span the intersection.  A line's one sine is the
    norm of (I - P) b, and the line itself is the intersection.
    """
    ms = np.array([np.asarray(m, dtype=complex) for m in ms])
    if not len(ms):
        raise ValueError("need at least one matrix")
    sine_tol = math.sqrt(TOL_CLASSIFY)
    spaces = _eigenspaces(ms)
    # The roots, the first matrix's eigenspaces, need no projectors.
    projectors = [None, *(np.array([b @ b.conj().T for b in bases]) for bases in spaces[1:])]

    def common_line(i: int, basis: np.ndarray) -> bool:
        """Whether span(basis) holds a common eigenvector of ms[i:]."""
        if i == len(ms):
            return True
        residue = basis - projectors[i] @ basis
        if basis.shape[1] == 1:
            sines = np.linalg.norm(residue, axis=(1, 2))
            return bool((sines <= sine_tol).any()) and common_line(i + 1, basis)
        _, sv, vh = np.linalg.svd(residue, full_matrices=False)
        for s, v in zip(sv, vh):
            k = int(np.sum(s <= sine_tol))
            if k and common_line(i + 1, basis @ v[len(s) - k:].conj().T):
                return True
        return False

    return any(common_line(1, b) for b in spaces[0])
