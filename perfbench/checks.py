"""The benchmark's own reference computations and output checks.

Nothing here imports csu21: every check recomputes what it needs from
the inputs the benchmark generated, in exact ``Fraction`` arithmetic
where the quantity is rational and in plain numpy otherwise.  A check
raises ``CheckFailed`` naming what is wrong.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

J = np.diag([1.0, 1.0, -1.0]).astype(complex)

# Documented bounds of the program: a search converged when its squared
# relation residual is <= 1e-6, and eigenphases are snapped to the target
# rotation numbers within 1e-4 turns.
CONVERGED_RESIDUAL = 1e-6
SNAP_TOL = 1e-4
MEMBERSHIP_TOL = 1e-9
ANGLE_TOL = 1e-9

# Sigma(2, 3, 11): rotation-number triples of the three generators, the
# theta2 lift of the central element (theta1 lifts vanish), and cs.
TABLE_A = (2, 3, 11)
TABLE = (
    ((("0", "1/2", "1/2"), ("0", "2/3", "1/3"), ("6/11", "3/11", "2/11")), -1, Fraction(13, 66)),
    ((("0", "1/2", "1/2"), ("1/3", "0", "2/3"), ("5/11", "8/11", "9/11")), 1, Fraction(13, 66)),
    ((("1/2", "1/2", "0"), ("0", "2/3", "1/3"), ("9/11", "6/11", "7/11")), 2, Fraction(7, 66)),
    ((("1/2", "1/2", "0"), ("1/3", "0", "2/3"), ("2/11", "5/11", "4/11")), -2, Fraction(7, 66)),
    ((("1/2", "1/2", "0"), ("1/3", "2/3", "0"), ("10/11", "1/11", "0")), 0, Fraction(25, 66)),
)

# The paper's closed variation formulas: per family, (x-name, y-name, weight)
# with CS change = sum weight * int_0^1 (f g' - f' g) dt.
FAMILY_WEIGHTS = {
    "elliptic": (("alpha1", "beta1", 0.5), ("alpha2", "beta2", 0.5), ("alpha3", "beta3", 0.5)),
    "loxodromic": (("theta1", "tau1", 0.5), ("theta2", "tau2", 1.0), ("v", "u", 1.0 / (4.0 * math.pi**2))),
    "parabolic_c1": (("alpha", "beta", 1.5),),
    "parabolic_c2": (("theta1", "tau1", 1.0), ("theta2", "tau2", 0.5)),
}


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def mod1(x: Fraction) -> Fraction:
    return x - math.floor(x)


# ---------------------------------------------------------------------------
# exact Seifert layer


def twists(a) -> list[int]:
    """Integers b with sum b_i/a_i = 1/(a_1...a_n), by the Chinese remainder theorem."""
    total = math.prod(a)
    cof = [total // ai for ai in a]
    b = [pow(c % ai, -1, ai) for c, ai in zip(cof[:-1], a[:-1])]
    rest = 1 - sum(bi * c for bi, c in zip(b, cof))
    require(rest % cof[-1] == 0, f"no integer twist for moduli {a}")
    return b + [rest // cof[-1]]


def check_twists(a, b) -> None:
    require(len(a) == len(b), f"{len(a)} moduli but {len(b)} twists")
    lhs = sum(Fraction(bi, ai) for ai, bi in zip(a, b))
    require(lhs == Fraction(1, math.prod(a)), f"twists {b} give sum b_i/a_i = {lhs}")


def violated_constraints(a, b, d) -> list[str]:
    """Names of the presentation identities that lifted data ``d`` breaks.

    ``d`` maps p0, q0, r0 to Fractions and p, q, r, s to lists; the names
    are the ones the program reports.
    """
    bad = []
    if (d["p0"] - d["q0"]).denominator != 1:
        bad.append("p_0-q_0 in Z")
    if (d["p0"] - d["r0"]).denominator != 1:
        bad.append("p_0-r_0 in Z")
    for ai, bi, p, q, r, s in zip(a, b, d["p"], d["q"], d["r"], d["s"]):
        if ai * p + bi * d["p0"] != s:
            bad.append("a_ip_i+b_ip_0=s_i")
        if ai * q + bi * d["q0"] != -s:
            bad.append("a_iq_i+b_iq_0=-s_i")
        if ai * r + bi * d["r0"] != 0:
            bad.append("a_ir_i+b_ir_0=0")
    total = math.prod(a)
    ssum = sum(Fraction(s, ai) for s, ai in zip(d["s"], a))
    if ssum != sum(d["p"]) + d["p0"] / total:
        bad.append("sum s_i/a_i=sum p_i+p_0/a")
    if ssum != -sum(d["q"]) - d["q0"] / total:
        bad.append("sum s_i/a_i=-sum q_i-q_0/a")
    if d["r0"] != -total * sum(d["r"]):
        bad.append("r_0=-a*sum r_i")
    return sorted(set(bad))


def cs_reference(a, d) -> Fraction:
    """cs = (a/2)(P^2 + Q^2 + R^2) mod Z."""
    P, Q, R = sum(d["p"]), sum(d["q"]), sum(d["r"])
    return mod1(Fraction(math.prod(a), 2) * (P * P + Q * Q + R * R))


def decode_data(doc) -> dict:
    d = {k: Fraction(doc[k]) for k in ("p0", "q0", "r0")}
    d.update({k: [Fraction(v) for v in doc[k]] for k in ("p", "q", "r")})
    d["s"] = [int(v) for v in doc["s"]]
    return d


def encode_data(d) -> dict:
    out = {k: str(d[k]) for k in ("p0", "q0", "r0")}
    out.update({k: [str(v) for v in d[k]] for k in ("p", "q", "r")})
    out["s"] = list(d["s"])
    return out


def check_invariants(payload, a, expected_cs) -> None:
    """Common checks of an ok envelope that reports lifted data and cs."""
    pres = payload["presentation"]
    require(pres["a"] == list(a), f"presentation moduli {pres['a']} != {list(a)}")
    check_twists(a, pres["b"])
    d = decode_data(payload["data"])
    bad = violated_constraints(a, pres["b"], d)
    require(not bad, f"reported lift data violates {bad}")
    cs = Fraction(payload["cs"])
    require(cs == cs_reference(a, d), f"cs {cs} != (a/2)(P^2+Q^2+R^2) mod Z = {cs_reference(a, d)}")
    if expected_cs is not None:
        require(cs == expected_cs, f"cs {cs} != expected {expected_cs}")
    mu = Fraction(payload["burns_epstein"])
    require(mu == mod1(-cs), f"burns_epstein {mu} != -cs mod Z = {mod1(-cs)}")


def check_cs_seifert(code, env, a, expected_cs) -> None:
    require(code == 0 and env["status"] == "ok", f"cs-seifert failed: {env['diagnostics']}")
    payload = env["payload"]
    check_invariants(payload, a, expected_cs)
    require(payload["pipeline_agrees"] is True, "pipeline_agrees is not true")
    require(Fraction(payload["pipeline_cs"]) == Fraction(payload["cs"]), "pipeline cs differs from closed cs")


def check_rejected(code, env, constraint) -> None:
    require(code == 2 and env["status"] == "fail", f"broken document gave exit {code}, status {env['status']}")
    named = [d for d in env["diagnostics"] if f"constraint {constraint} failed" in d]
    require(bool(named), f"diagnostics {env['diagnostics']} do not name {constraint!r}")


def check_verify_table(code, env) -> None:
    require(code == 0 and env["status"] == "ok", f"verify-table failed: {env['diagnostics']}")
    rows = env["payload"]["cases"]
    require(len(rows) == len(TABLE), f"{len(rows)} table rows")
    for row, (_, _, cs) in zip(rows, TABLE):
        for key in ("expected", "closed", "pipeline"):
            require(Fraction(row[key]) == cs, f"case {row['case']}: {key} {row[key]} != {cs}")
        require(Fraction(row["burns_epstein"]) == mod1(-cs), f"case {row['case']}: burns_epstein {row['burns_epstein']}")
        require(row["match"] is True, f"case {row['case']} does not match")
    require(env["payload"]["all_match"] is True, "all_match is not true")


# ---------------------------------------------------------------------------
# search


def decode_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def u21_residual(m) -> float:
    return float(np.max(np.abs(J @ m.conj().T @ J @ m - np.eye(3))))


def burnside_irreducible(ms, cutoff: float = 1e-6) -> bool:
    """Burnside: words of length <= 4 span all 3x3 matrices iff irreducible."""
    words = [np.eye(3, dtype=complex)]
    layer = words
    for _ in range(4):
        layer = [w @ m for w in layer for m in ms]
        words.extend(layer)
    stack = np.array([w.ravel() / np.linalg.norm(w) for w in words])
    sv = np.linalg.svd(stack, compute_uv=False)
    return bool(sv[8] > cutoff * sv[0])


def _circle(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def check_find_reps(code, env, case: int, seed: int) -> None:
    """A found representation of Sigma(2,3,11) class ``case`` (0-based)."""
    require(code == 0 and env["status"] == "ok", f"find-reps failed: {env['diagnostics']}")
    payload = env["payload"]
    search = payload["search"]
    require(search["seed"] == seed and search["converged"] is True, "search not converged or wrong seed")
    a = TABLE_A
    b = payload["presentation"]["b"]
    check_twists(a, b)
    triples, k2, cs = TABLE[case]
    f0 = 0.0  # every table case has a trivial central rotation number
    ms = [decode_matrix(m) for m in search["matrices"]]
    require(len(ms) == 3, f"{len(ms)} matrices")
    total = 0.0
    for i, m in enumerate(ms):
        res = u21_residual(m)
        require(res <= MEMBERSHIP_TOL, f"x_{i + 1} is not in U(2,1): residual {res:.3e}")
        rel = np.linalg.matrix_power(m, a[i]) * cmath.exp(2j * math.pi * f0) ** b[i] - np.eye(3)
        total += float(np.sum(np.abs(rel) ** 2))
    prod = ms[0] @ ms[1] @ ms[2] - np.eye(3)
    total += float(np.sum(np.abs(prod) ** 2))
    require(total <= CONVERGED_RESIDUAL, f"relations hold only to squared residual {total:.3e}")
    for i, (m, tri) in enumerate(zip(ms, triples)):
        turns = [(cmath.phase(z) / (2 * math.pi)) % 1.0 for z in np.linalg.eigvals(m)]
        goals = [float(Fraction(f)) for f in tri]
        miss = min(max(_circle(t, g) for t, g in zip(perm, goals)) for perm in itertools.permutations(turns))
        require(miss <= SNAP_TOL, f"x_{i + 1} eigenphases miss the target by {miss:.3e} turns")
    irreducible = burnside_irreducible(ms)
    require(irreducible, "found representation is reducible by Burnside's criterion")
    require(payload["irreducible"] is irreducible, f"irreducible={payload['irreducible']} disagrees with Burnside")
    d = decode_data(payload["data"])
    require(d["r0"] == k2, f"central theta2 lift {d['r0']} != {k2}")
    check_invariants(payload, a, cs)


# ---------------------------------------------------------------------------
# variation


def poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def poly_deriv(f, k: int = 1):
    for _ in range(k):
        f = [i * c for i, c in enumerate(f)][1:] or [Fraction(0)]
    return f


def poly_sub(f, g):
    n = max(len(f), len(g))
    f, g = list(f) + [0] * (n - len(f)), list(g) + [0] * (n - len(g))
    return [x - y for x, y in zip(f, g)]


def sup_norm(f) -> float:
    """Upper bound of |f| on [0, 1]: the sum of the coefficient moduli."""
    return float(sum(abs(c) for c in f))


def wronskian(f, g):
    """Ascending coefficients of f g' - f' g."""
    return poly_sub(poly_mul(f, poly_deriv(g)), poly_mul(poly_deriv(f), g))


def integral01(f) -> Fraction:
    return sum(Fraction(c) / (i + 1) for i, c in enumerate(f))


def variation_reference(family, curves):
    """Exact CS change along polynomial parameter curves, and its density terms.

    ``curves`` maps parameter names to ascending Fraction coefficients;
    absent names stay at zero.  Returns (value, [(weight, f, g, density)])
    with density = f g' - f' g.
    """
    terms = []
    for x, y, w in FAMILY_WEIGHTS[family]:
        f, g = curves.get(x, [Fraction(0)]), curves.get(y, [Fraction(0)])
        terms.append((w, f, g, wronskian(f, g)))
    value = sum(w * float(integral01(dens)) for w, _, _, dens in terms)
    return value, terms


def simpson_bound(terms, panels: int) -> float:
    """Composite Simpson error bound h^4/180 max|D''''| plus rounding slack."""
    m4 = sum(abs(w) * sup_norm(poly_deriv(dens, 4)) for w, _, _, dens in terms)
    scale = sum(abs(w) * sup_norm(dens) for w, _, _, dens in terms)
    return m4 / (180.0 * panels**4) + 1e-12 * (1.0 + scale)


def sampled_bound(terms, samples: int) -> float:
    """Error bound of both routes on polynomial curves sampled on a uniform grid.

    Second-order differences (central inside, one-sided at the ends) miss
    f' by at most h^2/3 max|f'''|; the density error that causes is
    bounded term by term, and Simpson's weights are positive and sum to 1,
    so it passes to the integral unchanged.  Simpson's own error on the
    exact density is added.
    """
    h = 1.0 / (samples - 1)
    dens_err = sum(
        abs(w) * (sup_norm(f) * h * h / 3 * sup_norm(poly_deriv(g, 3)) + sup_norm(g) * h * h / 3 * sup_norm(poly_deriv(f, 3)))
        for w, f, g, _ in terms
    )
    return dens_err + simpson_bound(terms, samples - 1)


def check_variation(code, env, expected, closed_bound, quad_bound) -> None:
    require(code == 0 and env["status"] == "ok", f"variation failed: {env['diagnostics']}")
    payload = env["payload"]
    for key, bound in (("closed", closed_bound), ("quadrature", quad_bound)):
        value = payload[key]
        require(math.isfinite(value), f"{key} is not finite: {value}")
        require(abs(value - expected) <= bound, f"{key} {value!r} misses {expected!r} by more than {bound:.3e}")


def check_gauge(value, beta) -> None:
    expected = 0.5 * (beta[0] - beta[1])
    require(abs(value - expected) <= 1e-12 * (1.0 + abs(expected)), f"gauge integral {value!r} != (b1-b2)/2 = {expected!r}")


# ---------------------------------------------------------------------------
# cover group


def angle_gap(x: float, y: float) -> float:
    return abs(math.remainder(x - y, 2.0 * math.pi))


def check_product(code, env, g, h) -> dict:
    """``mul`` of cover elements g and h (dicts with matrix, theta1, theta2)."""
    require(code == 0 and env["status"] == "ok", f"mul failed: {env['diagnostics']}")
    prod = env["payload"]["product"]
    a, b, ab = decode_matrix(g["matrix"]), decode_matrix(h["matrix"]), decode_matrix(prod["matrix"])
    require(np.allclose(ab, a @ b, rtol=1e-12, atol=1e-12), "product matrix is not A.B")
    t1 = g["theta1"] + h["theta1"]
    require(abs(prod["theta1"] - t1) <= 1e-12 * (1.0 + abs(t1)), f"theta1 {prod['theta1']} != {t1}")
    gap = angle_gap(prod["theta2"], cmath.phase(ab[2, 2]))
    require(gap <= ANGLE_TOL, f"theta2 is {gap:.3e} off arg((AB)_33)")
    return prod


def check_associative(left, right) -> None:
    """(gh)k and g(hk) agree in all three coordinates, not only mod 2 pi."""
    ml, mr = decode_matrix(left["matrix"]), decode_matrix(right["matrix"])
    require(np.allclose(ml, mr, rtol=1e-10, atol=1e-10), "(gh)k and g(hk) matrices differ")
    for key in ("theta1", "theta2"):
        require(abs(left[key] - right[key]) <= ANGLE_TOL, f"(gh)k and g(hk) differ in {key}")


def check_classify(code, env, kind) -> None:
    require(code == 0 and env["status"] == "ok", f"classify failed: {env['diagnostics']}")
    require(env["payload"]["type"] == kind, f"classified {env['payload']['type']}, built {kind}")


def check_membership(code, env, matrix, member: bool) -> None:
    residual = u21_residual(decode_matrix(matrix))
    if member:
        require(code == 0 and env["payload"]["valid"] is True, f"member rejected: {env['diagnostics']}")
    else:
        require(code == 2 and env["payload"]["valid"] is False, "non-member accepted")
    reported = env["payload"]["residual"]
    require(abs(reported - residual) <= 1e-12 + 1e-6 * residual, f"residual {reported:.3e} != {residual:.3e}")


def check_reducible(answer, reducible: bool, ms) -> None:
    require(burnside_irreducible(ms) is not reducible, "input is not of the type it was built as")
    require(answer is reducible, f"is_reducible returned {answer}, built {'reducible' if reducible else 'irreducible'}")
