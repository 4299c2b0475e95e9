"""Exact Chern-Simons invariants of representations of Seifert homology spheres.

The Brieskorn homology sphere Sigma(a_1, ..., a_n) (n >= 3, moduli
pairwise coprime) fibers over an orbifold sphere; its fundamental group
is generated by fiber generators x_1, ..., x_n and a central element h
subject to

    x_i^{a_i} h^{b_i} = 1,    x_1 x_2 ... x_n = 1,

where the integers b_i satisfy sum b_i / a_i = 1/a with a = a_1 ... a_n.
A representation into the universal cover of U(2,1) sending each x_i to
a lift of a diagonal element diag(e^{2 pi i p_i}, e^{2 pi i q_i},
e^{2 pi i r_i}) is encoded by rational data

    (p_0, q_0, r_0; p_i, q_i, r_i; s_i),

with the central angles p_0, q_0, r_0 congruent mod Z and the relations
forcing

    a_i p_i + b_i p_0 = s_i in Z,    a_i q_i + b_i q_0 = -s_i,
    a_i r_i + b_i r_0 = 0,

which in turn imply sum s_i/a_i = sum p_i + p_0/a = -sum q_i - q_0/a and
r_0 = -a sum r_i.  For such data the Chern-Simons invariant has the
closed form

    cs = (a/2) ((sum p_i)^2 + (sum q_i)^2 + (sum r_i)^2)  mod Z,

and the Burns-Epstein invariant of the corresponding spherical CR
structure is mu = -cs mod Z.  A second, independent route chains the
variation formulas through a path of cone connections:

    cs(A_0) = -(a/2) S' (-P + Q + 2 s_n/a_n) - (p_0 P + q_0 Q + r_0 R)/2,
    cs(B_0) = (a/2) (s_n/a_n) (-P + Q + 2 S'),      S' = sum_{i<n} s_i/a_i,

with cs = cs(A_0) - cs(B_0) mod Z.  Both routes are implemented on
``fractions.Fraction`` throughout, and their exact agreement is a
standing cross-check.  The data, angle and target types and
``mod_z`` reject floats.

Angle data comes in two forms.  ``GeneratorAngles`` and
``CentralAngles`` give the covering angles of a lift in turns: theta1
is the total phase angle (the sum of the three rotation numbers of the
lift) and theta2 is the r-slot angle.  A ``ClassTarget`` gives only the
conjugacy classes: each generator's rotation numbers in [0, 1), the
central scalar e^{2 pi i f_0} I by f_0 in [0, 1), and two integers
(k_1, k_2) that select the central element's sheet in the cover.  The
relations turn a target into lift angles:

    theta1_0 = 3 f_0 + k_1,    theta2_0 = f_0 + k_2,
    theta1_i = -b_i theta1_0 / a_i,    theta2_i = -b_i theta2_0 / a_i,

and ``canonical_lift_data`` splits theta1_0 = p_0 + q_0 + r_0 with
r_0 = theta2_0 and p_0, q_0 as balanced as possible.
``target_from_angles`` is the reverse reduction and ``implied_angles``
the forward rule.

``sigma_2_3_11_fixture`` holds the five irreducible classes of
Sigma(2, 3, 11) with invariants 13/66, 13/66, 7/66, 7/66, 25/66, and
``sigma_2_3_11_targets`` their class targets.
"""

from __future__ import annotations

import functools
import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction


class NotCoprime(ValueError):
    """Seifert moduli must be pairwise coprime."""


class LengthMismatch(ValueError):
    """Per-generator tuples disagree with the presentation length."""


class InvalidRepData(ValueError):
    """Representation data violates the presentation constraints."""


class Unliftable(ValueError):
    """Angle data admits no lift consistent with the relations."""


def _ext_gcd(p: int, q: int) -> tuple[int, int, int]:
    """(g, x, y) with p x + q y = g = gcd(p, q), by the iterative scheme."""
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


def _validate_moduli(a: tuple[int, ...]) -> None:
    if len(a) < 3:
        raise ValueError(f"need at least 3 Seifert moduli, got {len(a)}")
    for ai in a:
        if ai <= 1:
            raise ValueError(f"Seifert moduli must exceed 1, got {ai}")
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if math.gcd(a[i], a[j]) != 1:
                raise NotCoprime(f"moduli a_{i + 1}={a[i]} and a_{j + 1}={a[j]} share a factor")


def solve_b(a) -> tuple[int, ...]:
    """Integers b_i with sum b_i/a_i = 1/(a_1 ... a_n), deterministically.

    Solves sum b_i (a/a_i) = 1 by a running extended Euclid over the
    cofactors a/a_i, then shifts each b_i (i < n) into the balanced
    window [-a_i/2, a_i/2), compensating on b_n.  Homology-sphere data
    makes the cofactors globally coprime, so a solution always exists.
    """
    a = tuple(int(ai) for ai in a)
    _validate_moduli(a)
    total = math.prod(a)
    cof = [total // ai for ai in a]
    g = cof[0]
    coeff = [1]
    for c in cof[1:]:
        g, x, y = _ext_gcd(g, c)
        coeff = [cf * x for cf in coeff] + [y]
    assert g == 1, "pairwise coprime moduli must have coprime cofactors"
    b = coeff
    for i in range(len(a) - 1):
        lo = -(a[i] // 2)
        shifted = (b[i] - lo) % a[i] + lo
        b[-1] += ((b[i] - shifted) // a[i]) * a[-1]
        b[i] = shifted
    return tuple(b)


@dataclass(frozen=True)
class SeifertPresentation:
    """Moduli a_i and central twists b_i of Sigma(a_1, ..., a_n)."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        _validate_moduli(self.a)
        if len(self.b) != len(self.a):
            raise LengthMismatch(f"{len(self.a)} moduli but {len(self.b)} twists")
        total = self.product
        if sum(Fraction(bi, ai) for ai, bi in zip(self.a, self.b)) != Fraction(1, total):
            raise ValueError("twists must satisfy sum b_i/a_i = 1/(a_1...a_n)")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def product(self) -> int:
        return math.prod(self.a)


def presentation(a, b=None) -> SeifertPresentation:
    """Presentation with the given moduli; b solved canonically if omitted."""
    a = tuple(int(ai) for ai in a)
    return SeifertPresentation(a, tuple(b) if b is not None else solve_b(a))


def _frac(v) -> Fraction:
    if isinstance(v, float):
        raise TypeError("this module is exact; pass Fraction/int, not float")
    return Fraction(v)


def mod_z(value) -> Fraction:
    """Reduce an exact value to its representative in [0, 1)."""
    f = _frac(value)
    return f - (f.numerator // f.denominator)


@dataclass(frozen=True)
class LiftedRepData:
    """Exact angle data of a lifted diagonal representation."""

    p0: Fraction
    q0: Fraction
    r0: Fraction
    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]
    r: tuple[Fraction, ...]
    s: tuple[int, ...]

    def __post_init__(self):
        for name in ("p0", "q0", "r0"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        for name in ("p", "q", "r"):
            object.__setattr__(self, name, tuple(_frac(v) for v in getattr(self, name)))
        object.__setattr__(self, "s", tuple(int(v) for v in self.s))


@dataclass(frozen=True)
class CheckResult:
    """One named identity of ``validate_rep``; ``detail`` shows the two
    sides when the check fails and is "" when it passes."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)


def validate_rep(pres: SeifertPresentation, data: LiftedRepData) -> ValidationReport:
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


def _require_valid(pres, data, validate):
    if validate:
        report = validate_rep(pres, data)
        if not report.ok:
            failed = ", ".join(f"{c.name} ({c.detail})" for c in report.failures())
            raise InvalidRepData(f"representation data violates: {failed}")


def cs_closed(pres: SeifertPresentation, data: LiftedRepData, validate: bool = True) -> Fraction:
    """Closed-form invariant (a/2)(P^2 + Q^2 + R^2) mod Z, exactly."""
    _require_valid(pres, data, validate)
    P = sum(data.p, Fraction(0))
    Q = sum(data.q, Fraction(0))
    R = sum(data.r, Fraction(0))
    return mod_z(Fraction(pres.product, 2) * (P * P + Q * Q + R * R))


def cs_pipeline(pres: SeifertPresentation, data: LiftedRepData, validate: bool = True) -> Fraction:
    """Invariant via the variation pipeline, exactly.

    Chains the elliptic variation formula through the cone connections:
    the endpoint contribution cs(A_0) of the deformation to the flat
    cone, minus the base contribution cs(B_0) of the comparison cone.
    Agrees with ``cs_closed`` mod Z for all valid data.
    """
    _require_valid(pres, data, validate)
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


def burns_epstein(cs):
    """Burns-Epstein invariant mu = -cs mod Z (exact for Fractions)."""
    return mod_z(-cs)


@dataclass(frozen=True)
class GeneratorAngles:
    """Exact G-angle data of one generator image.

    ``fractions`` are the three diagonal rotation numbers (p, q, r
    slots); theta1_turns and theta2_turns are the covering angles of the
    chosen lift, in turns (theta / 2 pi).
    """

    fractions: tuple[Fraction, Fraction, Fraction]
    theta1_turns: Fraction
    theta2_turns: Fraction

    def __post_init__(self):
        object.__setattr__(self, "fractions", tuple(_frac(v) for v in self.fractions))
        object.__setattr__(self, "theta1_turns", _frac(self.theta1_turns))
        object.__setattr__(self, "theta2_turns", _frac(self.theta2_turns))


@dataclass(frozen=True)
class CentralAngles:
    """Covering angles (in turns) of the central element's lift."""

    theta1_turns: Fraction
    theta2_turns: Fraction

    def __post_init__(self):
        object.__setattr__(self, "theta1_turns", _frac(self.theta1_turns))
        object.__setattr__(self, "theta2_turns", _frac(self.theta2_turns))


def canonical_lift_data(
    pres: SeifertPresentation,
    generators,
    central: CentralAngles,
) -> LiftedRepData:
    """Assemble LiftedRepData from per-generator angle data.

    The central angles fix r_0 = theta2_turns and split sigma_0 =
    theta1_turns as p_0 + q_0 + r_0 with p_0, q_0 as balanced as
    possible; each p_i is the p-slot fraction as given, q_i is forced by
    sigma_i = p_i + q_i + r_i.  Raises ``Unliftable`` whenever an
    integrality or relation constraint fails, naming the identity.
    """
    generators = tuple(generators)
    if len(generators) != pres.n:
        raise LengthMismatch(f"{pres.n} generators expected, got {len(generators)}")
    sigma0 = central.theta1_turns
    r0 = central.theta2_turns
    d = sigma0 - 3 * r0
    if d.denominator != 1:
        raise Unliftable(f"central angles need sigma_0-3r_0 in Z, got {d}")
    j = d.numerator // 2
    p0 = r0 + j
    q0 = r0 + (d.numerator - j)
    p, q, r, s = [], [], [], []
    for i, gen in enumerate(generators):
        ai, bi = pres.a[i], pres.b[i]
        fp, fq, fr = gen.fractions
        sigma_i = gen.theta1_turns
        r_i = gen.theta2_turns
        if ai * sigma_i + bi * sigma0 != 0:
            raise Unliftable(
                f"i={i + 1}: a_i*theta1_i+b_i*theta1_0 = {ai * sigma_i + bi * sigma0} != 0"
            )
        if ai * r_i + bi * r0 != 0:
            raise Unliftable(f"i={i + 1}: a_ir_i+b_ir_0 = {ai * r_i + bi * r0} != 0")
        if (r_i - fr).denominator != 1:
            raise Unliftable(f"i={i + 1}: theta2 lift {r_i} not congruent to r-fraction {fr}")
        p_i = fp
        q_i = sigma_i - p_i - r_i
        if (q_i - fq).denominator != 1:
            raise Unliftable(f"i={i + 1}: forced q_i={q_i} not congruent to q-fraction {fq}")
        s_i = ai * p_i + bi * p0
        if s_i.denominator != 1:
            raise Unliftable(f"i={i + 1}: a_ip_i+b_ip_0 = {s_i} is not an integer")
        p.append(p_i)
        q.append(q_i)
        r.append(r_i)
        s.append(s_i.numerator)
    data = LiftedRepData(p0, q0, r0, tuple(p), tuple(q), tuple(r), tuple(s))
    _require_valid(pres, data, True)
    return data


def _unit_fraction(v) -> Fraction:
    f = _frac(v)
    if not 0 <= f < 1:
        raise ValueError(f"rotation numbers must lie in [0, 1), got {f}")
    return f


def _lift(k) -> int:
    if not isinstance(k, numbers.Integral):
        raise TypeError(f"central lifts must be integers, got {k!r}")
    return int(k)


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
        object.__setattr__(self, "central_lifts", tuple(_lift(k) for k in self.central_lifts))


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


def _rep_from_draws(pres: SeifertPresentation, base: Fraction, j: int, k: int, l: int, s) -> LiftedRepData:
    """Deterministic data from raw draws; all-zero draws give trivial data."""
    s = tuple(int(v) for v in s)
    if len(s) != pres.n:
        raise LengthMismatch(f"{pres.n} generators expected, got {len(s)} twists")
    p0 = base + j
    q0 = base + k
    r0 = base + l
    p = tuple(Fraction(s[i] - pres.b[i] * p0, pres.a[i]) for i in range(pres.n))
    q = tuple(Fraction(-s[i] - pres.b[i] * q0, pres.a[i]) for i in range(pres.n))
    r = tuple(Fraction(-pres.b[i] * r0, pres.a[i]) for i in range(pres.n))
    return LiftedRepData(p0, q0, r0, p, q, r, s)


def make_random_rep(pres: SeifertPresentation, seed: int) -> LiftedRepData:
    """Seeded random data satisfying every constraint exactly."""
    rng = random.Random(seed)
    den = rng.randint(1, 6)
    base = Fraction(rng.randrange(den), den)
    j, k, l = (rng.randint(-3, 3) for _ in range(3))
    s = tuple(rng.randint(-10, 10) for _ in range(pres.n))
    data = _rep_from_draws(pres, base, j, k, l, s)
    assert validate_rep(pres, data).ok
    return data


@dataclass(frozen=True)
class TableCase:
    """One row of the Sigma(2, 3, 11) invariant table."""

    label: str
    generators: tuple[GeneratorAngles, ...]
    central: CentralAngles
    expected_cs: Fraction


# label, rotation triples of x_1, x_2, x_3 (not reduced mod 1), central
# theta2 lift k_2, cs.  The central scalar is 1 in every row: f_0 = k_1 = 0.
_SIGMA_2_3_11 = (
    ("1", (("0", "1/2", "1/2"), ("0", "2/3", "1/3"), ("6/11", "3/11", "2/11")), -1, "13/66"),
    ("2", (("0", "1/2", "1/2"), ("1/3", "0", "2/3"), ("-6/11", "-3/11", "-2/11")), 1, "13/66"),
    ("3", (("1/2", "1/2", "0"), ("0", "2/3", "1/3"), ("-2/11", "-5/11", "-4/11")), 2, "7/66"),
    ("4", (("1/2", "1/2", "0"), ("1/3", "0", "2/3"), ("2/11", "5/11", "4/11")), -2, "7/66"),
    ("5", (("1/2", "1/2", "0"), ("1/3", "2/3", "0"), ("-1/11", "1/11", "0")), 0, "25/66"),
)


@functools.cache
def sigma_2_3_11_fixture() -> tuple[TableCase, ...]:
    """The five irreducible classes of Sigma(2, 3, 11), with invariants.

    Each row of ``_SIGMA_2_3_11`` gives the rotation triples and the
    central lift; ``implied_angles`` derives every generator's covering
    angles from them, so the theta1 lifts all vanish and the theta2 lifts
    satisfy a_i r_i + b_i r_0 = 0 with b = (-1, 1, 2).  The expected
    invariants are 13/66, 13/66, 7/66, 7/66, 25/66.
    """
    pres = presentation((2, 3, 11))
    cases = []
    for label, triples, k2, cs in _SIGMA_2_3_11:
        triples = tuple(tuple(Fraction(f) for f in tri) for tri in triples)
        target = ClassTarget(tuple(tuple(mod_z(f) for f in tri) for tri in triples), 0, (0, k2))
        gens, central = implied_angles(pres, target)
        generators = tuple(GeneratorAngles(tri, g.theta1_turns, g.theta2_turns) for tri, g in zip(triples, gens))
        cases.append(TableCase(label, generators, central, Fraction(cs)))
    return tuple(cases)


def sigma_2_3_11_targets() -> tuple[ClassTarget, ...]:
    """Class targets of the five irreducible Sigma(2, 3, 11) classes."""
    return tuple(
        target_from_angles(case.generators, case.central) for case in sigma_2_3_11_fixture()
    )
