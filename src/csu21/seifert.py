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

with cs = cs(A_0) - cs(B_0) mod Z.  Both routes are exact, and their
agreement is a standing cross-check.  Every value that enters or leaves
this module is a ``fractions.Fraction`` (or an int); inside, the checks
and both routes work on integer numerators over one common denominator
d, the lcm of the data's denominators (``LiftedRepData.numerators``,
computed once per data object), and build a ``Fraction`` only for
a returned value, a stored field or the detail of a failing check.  No
float appears anywhere.  Each input rule is one type test: an exact
value of the data, angle and target types and of ``mod_z`` is a
``Fraction`` or an ``int``, and a modulus, twist, s_i or central lift is
an ``int``; a bool, a float or a str raises ``TypeError``.  Reading
text is the job of the JSON boundary (``csu21.jsonio``).

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
import random
from dataclasses import dataclass
from fractions import Fraction


class NotCoprime(ValueError):
    """Seifert moduli must be pairwise coprime."""


class LengthMismatch(ValueError):
    """Per-generator tuples disagree with the presentation length."""


class Unliftable(ValueError):
    """Angle data admits no lift consistent with the relations."""


def _echo(value) -> str:
    """``repr(value)`` cut short for a diagnostic: an input's offending
    entry may be of any size or depth.  A container shows at most six items
    (a dict four), nested containers show as ``[...]`` and a leaf at most 40
    characters, so the echo stays within a few hundred characters."""
    import reprlib  # only a failing input pays for the import

    short = reprlib.Repr()
    short.maxlevel = 1
    short.maxstring = short.maxlong = short.maxother = 40
    return short.repr(value)


def _integers(values, what: str) -> tuple[int, ...]:
    """The values as a tuple; each must be a plain int, not a bool, float or str."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} must be integers, got {_echo(v)}")
    return values


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

    Multiplied by a = a_1 ... a_n the identity reads sum b_j (a/a_j) = 1.
    Modulo a_i every term but the i-th vanishes, since a_i divides a/a_j
    for j != i, so b_i is the inverse of a/a_i modulo a_i; pairwise
    coprime moduli make that inverse exist.  Each b_i with i < n is taken
    in the balanced window [-floor(a_i/2), a_i - floor(a_i/2)), and b_n is
    then forced by exact division.  One residue class meets the window
    once, so the solution is unique.
    """
    a = _integers(a, "Seifert moduli")
    _validate_moduli(a)
    total = math.prod(a)
    b = [(pow(total // ai, -1, ai) + ai // 2) % ai - ai // 2 for ai in a[:-1]]
    bn, r = divmod(1 - sum(bi * (total // ai) for ai, bi in zip(a, b)), total // a[-1])
    assert r == 0, "each a_i with i < n divides 1 - sum_{i<n} b_i (a/a_i)"
    return (*b, bn)


@dataclass(frozen=True)
class SeifertPresentation:
    """Moduli a_i and central twists b_i of Sigma(a_1, ..., a_n)."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", _integers(self.a, "Seifert moduli"))
        object.__setattr__(self, "b", _integers(self.b, "Seifert twists"))
        _validate_moduli(self.a)
        if len(self.b) != len(self.a):
            raise LengthMismatch(f"{len(self.a)} moduli but {len(self.b)} twists")
        total = self.product
        # sum b_i/a_i = 1/a, multiplied through by a
        if sum(bi * (total // ai) for ai, bi in zip(self.a, self.b)) != 1:
            raise ValueError("twists must satisfy sum b_i/a_i = 1/(a_1...a_n)")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def product(self) -> int:
        return math.prod(self.a)


def presentation(a, b=None) -> SeifertPresentation:
    """Presentation with the given moduli; b solved canonically if omitted."""
    a = tuple(a)
    return SeifertPresentation(a, solve_b(a) if b is None else b)


def _frac(v) -> Fraction:
    """The exact value v; only a Fraction or a plain int is one (not a bool, float or str)."""
    if type(v) is Fraction:
        return v
    if type(v) is int:
        return Fraction(v)
    raise TypeError(f"this module is exact; pass a Fraction or an int, got {_echo(v)}")


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
        object.__setattr__(self, "s", _integers(self.s, "twists s_i"))

    @functools.cached_property
    def numerators(self):
        """(d, P0, Q0, R0, P, Q, R): every angle as its numerator over one
        common denominator d (p_0 = P0/d, p_i = P[i]/d, ...).

        Computed on first use and kept in the instance ``__dict__``; it is
        not a dataclass field, so ``==`` and ``hash`` do not see it.
        """
        d, nums = _over_common_denominator((self.p0, self.q0, self.r0, *self.p, *self.q, *self.r))
        nums = tuple(nums)
        i = 3 + len(self.p)
        j = i + len(self.q)
        return d, nums[0], nums[1], nums[2], nums[3:i], nums[i:j], nums[j:]


def _over_common_denominator(fractions) -> tuple[int, list[int]]:
    """(d, numerators): d is the lcm of the denominators, each fraction numerator/d."""
    dens = set(f.denominator for f in fractions)
    d = math.lcm(*dens)
    scale = {e: d // e for e in dens}
    return d, [f.numerator * scale[f.denominator] for f in fractions]


def validate_rep(pres: SeifertPresentation, data: LiftedRepData) -> tuple[tuple[str, str], ...]:
    """Check every presentation constraint exactly; return the failed ones.

    The result holds one (name, detail) pair per failed identity, in a
    fixed order, and is () for valid data.  Each identity is tested on the
    integer numerators of ``LiftedRepData.numerators``, multiplied through
    by d (and by a for the sums); a detail shows both sides as reduced
    fractions.
    """
    n = pres.n
    for name in ("p", "q", "r", "s"):
        if len(getattr(data, name)) != n:
            raise LengthMismatch(f"{name} has {len(getattr(data, name))} entries for {n} generators")
    d, P0, Q0, R0, P, Q, R = data.numerators
    failed = []
    if (P0 - Q0) % d:
        failed.append(("p_0-q_0 in Z", f"p_0-q_0 = {Fraction(P0 - Q0, d)}"))
    if (P0 - R0) % d:
        failed.append(("p_0-r_0 in Z", f"p_0-r_0 = {Fraction(P0 - R0, d)}"))
    for i, (ai, bi, si, Pi, Qi, Ri) in enumerate(zip(pres.a, pres.b, data.s, P, Q, R), 1):
        lhs = ai * Pi + bi * P0
        if lhs != si * d:
            failed.append(("a_ip_i+b_ip_0=s_i", f"i={i}: {Fraction(lhs, d)} vs s_i={si}"))
        lhs = ai * Qi + bi * Q0
        if lhs != -si * d:
            failed.append(("a_iq_i+b_iq_0=-s_i", f"i={i}: {Fraction(lhs, d)} vs -s_i={-si}"))
        lhs = ai * Ri + bi * R0
        if lhs:
            failed.append(("a_ir_i+b_ir_0=0", f"i={i}: {Fraction(lhs, d)} vs 0"))
    # The sums times a d: sum s_i/a_i = S/a and sum p_i + p_0/a = psum/(a d), and so on.
    total = pres.product
    S = sum(si * (total // ai) for ai, si in zip(pres.a, data.s))
    psum = total * sum(P) + P0
    if S * d != psum:
        failed.append(("sum s_i/a_i=sum p_i+p_0/a", f"{Fraction(S, total)} vs {Fraction(psum, total * d)}"))
    qsum = -total * sum(Q) - Q0
    if S * d != qsum:
        failed.append(("sum s_i/a_i=-sum q_i-q_0/a", f"{Fraction(S, total)} vs {Fraction(qsum, total * d)}"))
    rsum = -total * sum(R)
    if R0 != rsum:
        failed.append(("r_0=-a*sum r_i", f"r_0={data.r0} vs -a*sum r_i={Fraction(rsum, d)}"))
    return tuple(failed)


def cs_closed(pres: SeifertPresentation, data: LiftedRepData) -> Fraction:
    """Closed-form invariant (a/2)(P^2 + Q^2 + R^2) mod Z, exactly.

    ``data`` must be valid: ``validate_rep(pres, data) == ()``, as for
    the output of ``canonical_lift_data``.  This route does not check it;
    on invalid data its value means nothing.

    With P = sum p_i = sum(P_i)/d (and Q, R alike) this is one fraction
    a (P'^2 + Q'^2 + R'^2) / (2 d^2) on the numerator sums P', Q', R'.
    """
    d, _, _, _, P, Q, R = data.numerators
    P, Q, R = sum(P), sum(Q), sum(R)
    den = 2 * d * d
    return Fraction(pres.product * (P * P + Q * Q + R * R) % den, den)  # mod Z


def cs_pipeline(pres: SeifertPresentation, data: LiftedRepData) -> Fraction:
    """Invariant via the variation pipeline, exactly.

    Chains the elliptic variation formula through the cone connections:
    the endpoint contribution cs(A_0) of the deformation to the flat
    cone, minus the base contribution cs(B_0) of the comparison cone.
    Agrees with ``cs_closed`` mod Z for all valid data.  Like
    ``cs_closed`` it takes valid data and does not check it.

    Both terms are numerators over 2 a d^2: S' = Sp/a and s_n/a_n = Sl/a,
    the angles are numerators over d as in ``LiftedRepData.numerators``.
    """
    total = pres.product
    d, P0, Q0, R0, P, Q, R = data.numerators
    P, Q, R = sum(P), sum(Q), sum(R)
    Sp = sum(si * (total // ai) for ai, si in zip(pres.a[:-1], data.s[:-1]))
    Sl = data.s[-1] * (total // pres.a[-1])
    slope = total * d * (Q - P)  # a d^2 (-P + Q)
    cs_a0 = -Sp * (slope + 2 * Sl * d * d) - total * (P0 * P + Q0 * Q + R0 * R)
    cs_b0 = Sl * (slope + 2 * Sp * d * d)
    den = 2 * total * d * d
    return Fraction((cs_a0 - cs_b0) % den, den)  # mod Z


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

    Data it returns passes every check of ``validate_rep``, so it is not
    validated again.  The checks above give a_i sigma_i + b_i sigma_0 =
    0, a_i r_i + b_i r_0 = 0 and integral s_i = a_i p_i + b_i p_0, and
    the split gives p_0 = r_0 + j, q_0 = r_0 + m - j with m in Z, so
    sigma_0 = p_0 + q_0 + r_0.  Then, check by check:

    - p_0 - q_0 = 2j - m and p_0 - r_0 = j are integers;
    - a_i p_i + b_i p_0 = s_i by the definition of s_i;
    - a_i q_i + b_i q_0 = a_i sigma_i - a_i p_i - a_i r_i + b_i q_0
      = -b_i sigma_0 - (s_i - b_i p_0) + b_i r_0 + b_i q_0 = -s_i;
    - a_i r_i + b_i r_0 = 0 is checked directly;
    - with sum b_i/a_i = 1/a, sum s_i/a_i = sum p_i + p_0 sum b_i/a_i
      = sum p_i + p_0/a, and likewise -sum q_i - q_0/a = sum s_i/a_i
      from a_i q_i + b_i q_0 = -s_i;
    - r_i = -b_i r_0/a_i, so -a sum r_i = a r_0 sum b_i/a_i = r_0.

    The congruence checks of r_i and q_i against the given fractions
    enter none of these: they make the data a lift of the given classes.
    A seeded fuzz test in the suite checks the claim.
    """
    generators = tuple(generators)
    if len(generators) != pres.n:
        raise LengthMismatch(f"{pres.n} generators expected, got {len(generators)}")
    # Every angle as its numerator over the common denominator d;
    # sigma_0 - 3 r_0 must be an integer m.
    angles = [central.theta1_turns, central.theta2_turns]
    for gen in generators:
        angles += (gen.theta1_turns, gen.theta2_turns, *gen.fractions)
    d, (S0, R0, *per_gen) = _over_common_denominator(angles)
    m, rem = divmod(S0 - 3 * R0, d)
    if rem:
        raise Unliftable(f"central angles need sigma_0-3r_0 in Z, got {Fraction(S0 - 3 * R0, d)}")
    j = m // 2
    P0 = R0 + j * d
    p, q, s = [], [], []
    for i, gen in enumerate(generators):
        ai, bi = pres.a[i], pres.b[i]
        Sig, Ri, Fp, Fq, Fr = per_gen[5 * i:5 * i + 5]
        lhs = ai * Sig + bi * S0
        if lhs:
            raise Unliftable(f"i={i + 1}: a_i*theta1_i+b_i*theta1_0 = {Fraction(lhs, d)} != 0")
        lhs = ai * Ri + bi * R0
        if lhs:
            raise Unliftable(f"i={i + 1}: a_ir_i+b_ir_0 = {Fraction(lhs, d)} != 0")
        fp, fq, fr = gen.fractions
        if (Ri - Fr) % d:
            raise Unliftable(f"i={i + 1}: theta2 lift {gen.theta2_turns} not congruent to r-fraction {fr}")
        # p_i is the p-slot fraction as given; q_i = sigma_i - p_i - r_i.
        Qi = Sig - Fp - Ri
        if (Qi - Fq) % d:
            raise Unliftable(f"i={i + 1}: forced q_i={Fraction(Qi, d)} not congruent to q-fraction {fq}")
        lhs = ai * Fp + bi * P0
        s_i, rem = divmod(lhs, d)
        if rem:
            raise Unliftable(f"i={i + 1}: a_ip_i+b_ip_0 = {Fraction(lhs, d)} is not an integer")
        p.append(fp)
        q.append(Fraction(Qi, d))
        s.append(s_i)
    r0 = central.theta2_turns
    p0 = r0 + j
    q0 = r0 + (m - j)
    r = tuple(gen.theta2_turns for gen in generators)
    return LiftedRepData(p0, q0, r0, tuple(p), tuple(q), r, tuple(s))


def _unit_fraction(v) -> Fraction:
    f = _frac(v)
    if not 0 <= f < 1:
        raise ValueError(f"rotation numbers must lie in [0, 1), got {_echo(f)}")
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
        object.__setattr__(self, "central_lifts", _integers(self.central_lifts, "central lifts"))


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
    s = tuple(s)
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
    assert not validate_rep(pres, data)
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
