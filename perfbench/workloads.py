"""The three workloads: seeded inputs and the jobs of one round.

A workload's ``setup(seed, workdir)`` draws its inputs from the seed,
writes the documents its commands read into ``workdir`` and returns a
list of round items.  ``round_jobs(item)`` is a generator: it yields one
``Job`` at a time, receives the job's result, checks it with the
functions in ``checks`` and may write further documents from it (the
associativity products) before yielding the next job.  Only the job's
own call is timed.

Every job is a user command run in process through ``csu21.cli.main``
with ``--json``, except the two operations no command exposes (the
gauge-shift boundary integral and the reducibility test), which call the
package function directly.  Calls go through module attributes at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import checks as C
from csu21 import cli, normal_forms, ug21, variation


@dataclass
class Job:
    kind: str
    call: Callable[[], object]


def command(kind: str, argv: list[str]) -> Job:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--json"])
        return code, buf.getvalue()

    return Job(kind, call)


def envelope(result) -> tuple[int, dict]:
    code, text = result
    return code, json.loads(text)


def write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# search: find-reps on the five Sigma(2, 3, 11) classes

# Search seeds whose 64 restarts converge on all five classes without the
# overflow in the search objective's matrix products that seeds 0, 3, 4,
# 5, 14, 21, 22 and 25 hit (see CHANGES.md); probed over seeds 0..41.
# They are ordered by their total objective evaluations over the five
# classes (31k to 43k) and cut into six strata of similar cost; every
# sweep takes one seed from each stratum, so runs of different --seed
# search equally hard problems and their timings can be compared.
SEARCH_SEEDS = (
    26, 36, 1, 32, 16, 2, 8, 35, 41, 7, 40, 33, 28, 9, 34, 23, 13, 17,
    39, 6, 27, 12, 31, 18, 15, 24, 37, 38, 11, 10, 30, 29, 20, 19,
)
SEARCH_STRATA = 6
SEARCH_BUDGET = 64
SEARCH_WARMUP = (4, 1)  # (class, search seed) of the set-up job


def table_target(case: int) -> dict:
    triples, k2, _ = C.TABLE[case]
    return {
        "a": list(C.TABLE_A),
        "target": {"generators": [list(t) for t in triples], "central": {"fraction": "0", "lifts": [0, k2]}},
    }


def search_setup(seed: int, workdir: Path) -> list:
    """Rounds of five find-reps jobs, one per class, each round with one search seed."""
    files = {c: write(workdir / f"class{c + 1}.json", table_target(c)) for c in range(len(C.TABLE))}
    rng = random.Random(seed)
    size = -(-len(SEARCH_SEEDS) // SEARCH_STRATA)
    strata = [list(SEARCH_SEEDS[i:i + size]) for i in range(0, len(SEARCH_SEEDS), size)]
    for stratum in strata:
        rng.shuffle(stratum)
    items = []
    for sweep in range(size):
        picks = [stratum[sweep] for stratum in strata if sweep < len(stratum)]
        rng.shuffle(picks)
        items.extend((s, files) for s in picks)
    return items


def warmup_items(workload: str, items) -> list:
    """The set-up round: one fixed search, or the first round of the others."""
    if workload != "search":
        return items[:1]
    case, s = SEARCH_WARMUP
    return [(s, {case: items[0][1][case]})]


def search_round(item):
    s, files = item
    evals = []
    for case, path in files.items():
        argv = ["find-reps", path, "--seed", str(s), "--budget", str(SEARCH_BUDGET)]
        code, env = envelope((yield command("find-reps", argv)))
        C.check_find_reps(code, env, case, s)
        evals.append(env["payload"]["search"]["iterations"])
    return evals


# ---------------------------------------------------------------------------
# exact: cs-seifert on seeded lifted data, and verify-table

EXACT_SIZES = (30, 300, 5000)  # upper end of the moduli draw: small, medium, large
BREAKERS = ("a_ip_i+b_ip_0=s_i", "a_ir_i+b_ir_0=0", "p_0-q_0 in Z", "r_0=-a*sum r_i")


def coprime_moduli(rng: random.Random, n: int, hi: int) -> list[int]:
    """n pairwise coprime integers in [2, hi]; early draws can block the
    rest (6 rules out 2 and 3), so the draw restarts after 50 rejections."""
    a: list[int] = []
    misses = 0
    while len(a) < n:
        x = rng.randint(2, hi)
        if all(math.gcd(x, y) == 1 for y in a):
            a.append(x)
        elif (misses := misses + 1) == 50:
            a, misses = [], 0
    return a


def random_data(rng: random.Random, a, b) -> dict:
    den = rng.randint(1, 12)
    base = Fraction(rng.randrange(den), den)
    p0, q0, r0 = (base + rng.randint(-3, 3) for _ in range(3))
    s = [rng.randint(-20, 20) for _ in a]
    return {
        "p0": p0, "q0": q0, "r0": r0,
        "p": [Fraction(si - bi * p0, ai) for ai, bi, si in zip(a, b, s)],
        "q": [Fraction(-si - bi * q0, ai) for ai, bi, si in zip(a, b, s)],
        "r": [Fraction(-bi * r0, ai) for ai, bi in zip(a, b)],
        "s": s,
    }


def shift_sheet(a, d, i: int, k: int) -> dict:
    d = {**d, "p": list(d["p"]), "q": list(d["q"]), "s": list(d["s"])}
    d["p"][i] += k
    d["q"][i] -= k
    d["s"][i] += a[i] * k
    return d


def shift_central(b, d, k: int) -> dict:
    return {**d, "p0": d["p0"] + k, "q0": d["q0"] - k, "s": [si + bi * k for si, bi in zip(d["s"], b)]}


def swap_pq(d) -> dict:
    return {**d, "p0": d["q0"], "q0": d["p0"], "p": d["q"], "q": d["p"], "s": [-v for v in d["s"]]}


def break_constraint(name: str, rng: random.Random, d) -> dict:
    d = {**d, "r": list(d["r"]), "s": list(d["s"])}
    i = rng.randrange(len(d["s"]))
    if name == "a_ip_i+b_ip_0=s_i":
        d["s"][i] += 1
    elif name == "a_ir_i+b_ir_0=0":
        d["r"][i] += 1
    elif name == "p_0-q_0 in Z":
        d["q0"] += Fraction(1, 2)
    else:
        d["r0"] += 1
    return d


def angle_form(d) -> dict:
    gens = [
        {"fractions": [str(C.mod1(p)), str(C.mod1(q)), str(C.mod1(r))], "theta1_turns": str(p + q + r), "theta2_turns": str(r)}
        for p, q, r in zip(d["p"], d["q"], d["r"])
    ]
    central = {"theta1_turns": str(d["p0"] + d["q0"] + d["r0"]), "theta2_turns": str(d["r0"])}
    return {"generators": gens, "central": central}


def exact_setup(seed: int, workdir: Path) -> list:
    """36 items per cycle: each n = 3..8 with each moduli size, twice."""
    rng = random.Random(seed)
    items = []
    for k in range(36):
        n, hi = 3 + k % 6, EXACT_SIZES[(k // 6) % 3]
        a = coprime_moduli(rng, n, hi)
        b = C.twists(a)
        d = random_data(rng, a, b)
        broken = BREAKERS[k % len(BREAKERS)]
        docs = {
            "data": {"data": d},
            "angles": {"angles": angle_form(d)},
            "sheet": {"data": shift_sheet(a, d, rng.randrange(n), rng.choice((-2, -1, 1, 2)))},
            "central": {"data": shift_central(b, d, rng.choice((-2, -1, 1, 2)))},
            "swap": {"data": swap_pq(d)},
            "broken": {"data": break_constraint(broken, rng, d)},
        }
        paths = {}
        for name, doc in docs.items():
            if "data" in doc:
                doc = {"data": C.encode_data(doc["data"])}
            paths[name] = write(workdir / f"rep{k}-{name}.json", {"a": a, "b": b, **doc})
        items.append((a, C.cs_reference(a, d), broken, paths))
    return items


def exact_round(item):
    a, cs, broken, paths = item
    for name in ("data", "angles", "sheet", "central", "swap"):
        code, env = envelope((yield command("cs-seifert", ["cs-seifert", paths[name]])))
        C.check_cs_seifert(code, env, a, cs)
    code, env = envelope((yield command("cs-seifert", ["cs-seifert", paths["broken"]])))
    C.check_rejected(code, env, broken)
    code, env = envelope((yield command("verify-table", ["verify-table"])))
    C.check_verify_table(code, env)


# ---------------------------------------------------------------------------
# geometry: variation, gauge shift, cover-group operations, reducibility

PATH_KINDS = ("linear", "poly", "samples")
SAMPLES = 65
PANELS = (32, 64, 128)


def algebra_element(rng: np.random.Generator, scale: float, block: bool = False) -> np.ndarray:
    """u(2,1) element with N(0, scale^2) coordinates; ``block`` keeps e_1 fixed."""
    c = rng.normal(scale=scale, size=9)
    z, w, v = complex(c[3], c[4]), complex(c[5], c[6]), complex(c[7], c[8])
    if block:
        c[0], z, w = 0.0, 0j, 0j
    return np.array([[1j * c[0], z, w], [-z.conjugate(), 1j * c[1], v], [w.conjugate(), v.conjugate(), 1j * c[2]]])


def conjugate(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    return p @ m @ (C.J @ p.conj().T @ C.J)


def separated_phases(rng: np.random.Generator, k: int) -> list[float]:
    """k phases pairwise at least 0.6 rad apart on the circle."""
    while True:
        ph = rng.uniform(0.0, 2.0 * math.pi, size=k)
        if all(C.angle_gap(x, y) >= 0.6 for i, x in enumerate(ph) for y in ph[i + 1:]):
            return [float(x) for x in ph]


def unit_diagonal(rng: np.random.Generator) -> np.ndarray:
    return np.diag([complex(math.cos(x), math.sin(x)) for x in separated_phases(rng, 3)])


def built_matrix(rng: np.random.Generator, kind: str) -> np.ndarray:
    """A U(2,1) matrix of a known isometry type, far from the type boundaries."""
    d = unit_diagonal(rng)
    e = list(np.diag(d))
    if kind == "elliptic":
        m = d
    elif kind == "loxodromic":
        s = rng.uniform(0.5, 1.5)
        m = np.array([[e[0], 0, 0], [0, e[1] * math.cosh(s), e[1] * math.sinh(s)], [0, e[1] * math.sinh(s), e[1] * math.cosh(s)]])
    else:  # parabolic: one 2x2 Jordan block at e[0]
        p = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
        m = np.array([[e[0] * (1 - 1j * p), 0, 1j * p * e[0]], [0, e[1], 0], [-1j * p * e[0], 0, e[0] * (1 + 1j * p)]])
    return conjugate(scipy.linalg.expm(algebra_element(rng, 0.4)), m.astype(complex))


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def cover_element(rng: np.random.Generator) -> dict:
    m = scipy.linalg.expm(algebra_element(rng, 0.6))
    k1, k2 = (int(k) for k in rng.integers(-2, 3, size=2))
    return {
        "matrix": encode_matrix(m),
        "theta1": math.atan2(np.linalg.det(m).imag, np.linalg.det(m).real) + 2 * math.pi * k1,
        "theta2": math.atan2(m[2, 2].imag, m[2, 2].real) + 2 * math.pi * k2,
    }


def dyadic_poly(rng: np.random.Generator, degree: int) -> list[Fraction]:
    return [Fraction(int(rng.integers(-24, 25)), 16) for _ in range(degree + 1)]


def dyadic_samples(coeffs, samples: int) -> list[float]:
    """Values on linspace(0, 1, samples).  With dyadic coefficients and a
    power-of-two grid every value is a float exactly, so the document
    carries the polynomial's true samples."""
    grid, degree = samples - 1, len(coeffs) - 1
    nums = [int(c * 16) for c in coeffs]  # coefficients are multiples of 1/16
    den = 16 * grid**degree
    return [sum(n * k**i * grid ** (degree - i) for i, n in enumerate(nums)) / den for k in range(samples)]


def path_doc(rng: np.random.Generator, family: str, kind: str, panels: int):
    """A variation document, the exact CS change and both routes' error bounds."""
    names = normal_forms.FAMILY_PARAMS[family]
    if kind == "linear":
        curves = {n: dyadic_poly(rng, 1) for n in names}
        params = {n: {"kind": "linear", "from": float(c[0]), "to": float(c[0] + c[1])} for n, c in curves.items()}
    elif kind == "poly":
        curves = {n: dyadic_poly(rng, int(rng.integers(3, 5))) for n in names}
        params = {n: {"kind": "poly", "coeffs": [float(x) for x in c]} for n, c in curves.items()}
    else:
        curves = {n: dyadic_poly(rng, 3) for n in names}
        params = {n: {"kind": "samples", "values": dyadic_samples(c, SAMPLES)} for n, c in curves.items()}
    value, terms = C.variation_reference(family, curves)
    if kind == "samples":
        closed_bound = quad_bound = C.sampled_bound(terms, SAMPLES)
    else:
        closed_bound, quad_bound = C.simpson_bound(terms, 1 << 20), C.simpson_bound(terms, panels)
    return {"family": family, "params": params, "n": panels}, value, closed_bound, quad_bound


def geometry_setup(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(abs(seed))  # numpy takes no negative seed
    items = []
    for k in range(12):
        paths = []
        for family in normal_forms.FAMILIES:
            for kind in PATH_KINDS:
                doc, value, cb, qb = path_doc(rng, family, kind, PANELS[(k + len(paths)) % len(PANELS)])
                paths.append((write(workdir / f"g{k}-{family}-{kind}.json", doc), value, cb, qb))
        alpha, beta = (tuple(float(x) for x in rng.uniform(-1.2, 1.2, size=3)) for _ in range(2))
        g, h, kk = (cover_element(rng) for _ in range(3))
        typed = {kind: built_matrix(rng, kind) for kind in ("elliptic", "loxodromic", "parabolic")}
        membership = [
            ("member", {"matrix": encode_matrix(typed["loxodromic"])}, True),
            ("g_element", g, True),
            ("non_member", {"matrix": encode_matrix(typed["elliptic"] * 1.001)}, False),
        ]
        common = scipy.linalg.expm(algebra_element(rng, 0.4))
        reducible = [
            conjugate(common, conjugate(scipy.linalg.expm(algebra_element(rng, 0.6, block=True)), unit_diagonal(rng)))
            for _ in range(3)
        ]
        irreducible = [built_matrix(rng, "elliptic") for _ in range(3)]
        items.append({
            "k": k,
            "workdir": workdir,
            "paths": paths,
            "gauge": (normal_forms.EllipticNF(alpha, beta), beta),
            "cover": (g, h, kk),
            "gh": write(workdir / f"g{k}-gh.json", {"g": g, "h": h}),
            "hk": write(workdir / f"g{k}-hk.json", {"g": h, "h": kk}),
            "typed": [(kind, write(workdir / f"g{k}-{kind}.json", {"matrix": encode_matrix(m)})) for kind, m in typed.items()],
            "membership": [(write(workdir / f"g{k}-{name}.json", doc), doc["matrix"], member) for name, doc, member in membership],
            "sets": ((reducible, True), (irreducible, False)),
        })
    return items


def geometry_round(item):
    for path, value, cb, qb in item["paths"]:
        code, env = envelope((yield command("variation", ["variation", path])))
        C.check_variation(code, env, value, cb, qb)
    nf, beta = item["gauge"]
    C.check_gauge((yield Job("gauge", lambda: variation.gauge_shift_boundary_integral(nf))), beta)
    g, h, k = item["cover"]
    gh = C.check_product(*envelope((yield command("mul", ["mul", item["gh"]]))), g, h)
    hk = C.check_product(*envelope((yield command("mul", ["mul", item["hk"]]))), h, k)
    left_doc = write(item["workdir"] / f"g{item['k']}-gh-k.json", {"g": gh, "h": k})
    right_doc = write(item["workdir"] / f"g{item['k']}-g-hk.json", {"g": g, "h": hk})
    left = C.check_product(*envelope((yield command("mul", ["mul", left_doc]))), gh, k)
    right = C.check_product(*envelope((yield command("mul", ["mul", right_doc]))), g, hk)
    C.check_associative(left, right)
    for kind, path in item["typed"]:
        C.check_classify(*envelope((yield command("classify", ["classify", path]))), kind)
    for path, matrix, member in item["membership"]:
        code, env = envelope((yield command("check-u21", ["check-u21", path])))
        C.check_membership(code, env, matrix, member)
    for ms, reducible in item["sets"]:
        C.check_reducible((yield Job("is_reducible", lambda ms=ms: ug21.is_reducible(ms))), reducible, ms)


WORKLOADS = {
    "search": (search_setup, search_round),
    "exact": (exact_setup, exact_round),
    "geometry": (geometry_setup, geometry_round),
}
