"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print.  Every criterion states its tolerance and time
budget inline; a FAIL line always precedes the assertion failure.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import numpy as np

from csu21 import (
    ConnectionPath,
    PolyParam,
    burns_epstein,
    canonical_lift_data,
    classify,
    connection_coeffs,
    cs_closed,
    cs_delta_closed,
    cs_delta_quadrature,
    cs_pipeline,
    developing_map,
    extract_lift_data,
    find_representation,
    g_identity,
    g_inverse,
    g_multiply,
    g_project,
    gauge_shift_boundary_integral,
    gauge_shift_closed,
    holonomy,
    is_reducible,
    lie_exp,
    make_random_rep,
    presentation,
    sigma_2_3_11_fixture,
    sigma_2_3_11_targets,
)
from csu21.cli import main as cli_main
from csu21.normal_forms import (
    EllipticNF,
    FAMILIES,
    FAMILY_PARAMS,
    LoxodromicNF,
    ParabolicC1NF,
    ParabolicC2NF,
)
from csu21.ug21 import J, TOL_ANGLE, IsometryType, random_algebra_element

from conftest import (
    random_g_element,
    random_normal_form,
    shift_central_split,
    shift_generator_lift,
    swap_pq,
)

F = Fraction

EXPECTED_CS = [F(13, 66), F(13, 66), F(7, 66), F(7, 66), F(25, 66)]
EXPECTED_MU = [F(53, 66), F(53, 66), F(59, 66), F(59, 66), F(41, 66)]


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_acceptance_1_invariant_table():
    t0 = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["verify-table", "--json"])
    doc = json.loads(buf.getvalue())
    rows = doc["payload"]["cases"]
    expected = [f"{v.numerator}/{v.denominator}" for v in EXPECTED_CS]
    exact = [
        r["closed"] == r["pipeline"] == r["expected"] == e and r["match"]
        for r, e in zip(rows, expected)
    ]
    mu_ok = [burns_epstein(v) for v in EXPECTED_CS] == EXPECTED_MU
    dt = time.perf_counter() - t0
    ok = code == 0 and doc["payload"]["all_match"] and len(rows) == 5 and all(exact) and mu_ok and dt < 1.0
    _verdict(
        1,
        ok,
        f"verify-table reproduces the Sigma(2,3,11) values {', '.join(expected)}: "
        f"{sum(exact)}/5 exact by both routes in {dt:.3f}s (< 1s)",
    )


def test_acceptance_2_route_agreement_random_data():
    t0 = time.perf_counter()
    agree = total = 0
    for a in [(2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7)]:
        pres = presentation(a)
        for seed in range(100):
            data = make_random_rep(pres, seed)
            total += 1
            agree += cs_closed(pres, data) == cs_pipeline(pres, data)
    dt = time.perf_counter() - t0
    ok = agree == total == 400 and dt < 5.0
    _verdict(
        2,
        ok,
        f"closed formula == variation pipeline exactly on {agree}/{total} random "
        f"representations over 4 presentations in {dt:.2f}s (< 5s)",
    )


def test_acceptance_3_variation_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(321)
    worst = 0.0
    worst_ratio = np.inf
    for family in FAMILIES:
        for _ in range(50):
            path = ConnectionPath(
                family,
                {n: PolyParam(tuple(rng.uniform(-1.0, 1.0, 4))) for n in FAMILY_PARAMS[family]},
            )
            closed = cs_delta_closed(path)
            worst = max(worst, abs(closed - cs_delta_quadrature(path, 1024)))
            e16 = abs(cs_delta_quadrature(path, 16) - closed)
            e32 = abs(cs_delta_quadrature(path, 32) - closed)
            if e32 >= 1e-13:
                worst_ratio = min(worst_ratio, e16 / e32)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and worst_ratio >= 8.0 and dt < 30.0
    _verdict(
        3,
        ok,
        f"closed vs Simpson on 200 cubic paths: worst |diff| {worst:.2e} (<= 1e-8), "
        f"halving panels shrinks error by >= {worst_ratio:.1f}x (>= 8) in {dt:.1f}s (< 30s)",
    )


def test_acceptance_4_gauge_boundary_integral():
    rng = np.random.default_rng(654)
    worst = 0.0
    for _ in range(20):
        nf = random_normal_form(rng, "elliptic")
        closed = gauge_shift_closed(1, 0, nf.x, nf.y)
        worst = max(worst, abs(gauge_shift_boundary_integral(nf, n_grid=256) - closed))
    ok = worst <= 1e-8
    _verdict(
        4,
        ok,
        f"gauge-loop boundary integral vs closed shift on 20 elliptic connections: "
        f"worst |diff| {worst:.2e} (<= 1e-8)",
    )


def test_acceptance_5_group_consistency_and_classification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(987)
    e = g_identity()
    eye = np.eye(3)
    worst = 0.0

    def dist(g, h):
        return max(
            float(np.max(np.abs(g.a - h.a))),
            abs(g.theta1 - h.theta1),
            abs(g.theta2 - h.theta2),
        )

    els = [random_g_element(rng, scale=0.5) for _ in range(250)]
    for i, g in enumerate(els):
        h = els[(i + 1) % len(els)]
        k = els[(i + 2) % len(els)]
        worst = max(worst, dist(g_multiply(g_multiply(g, h), k), g_multiply(g, g_multiply(h, k))))
        worst = max(worst, dist(g_multiply(g, e), g), dist(g_multiply(e, g), g))
        p = g_multiply(g, g_inverse(g))
        worst = max(worst, float(np.max(np.abs(p.a - eye))), abs(p.theta1), abs(p.theta2))
        worst = max(
            worst,
            float(np.max(np.abs(g_project(g_multiply(g, h)) - g_project(g) @ g_project(h)))),
        )
        g.validate()
    group_ok = worst <= 1e-9

    def sample(kind):
        t = rng.uniform(-0.9, 0.9, 4)
        bump = float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
        if kind == IsometryType.ELLIPTIC:
            return holonomy(EllipticNF((t[0], t[1], t[2]), (0, 0, 0)))[0].a
        if kind == IsometryType.LOXODROMIC:
            return holonomy(LoxodromicNF((t[0], t[1]), (0, 0), bump, 0))[0].a
        if rng.uniform() < 0.5:
            return holonomy(ParabolicC1NF(t[0], 0, t[1], 0, bump, 0))[0].a
        return holonomy(ParabolicC2NF((t[0], t[1]), (0, 0), bump, 0))[0].a

    stable = samples = 0
    counts = {kind: 0 for kind in IsometryType}
    kinds = (IsometryType.ELLIPTIC, IsometryType.LOXODROMIC, IsometryType.PARABOLIC)
    for _ in range(334):
        for kind in kinds:
            m = sample(kind)
            u = lie_exp(random_algebra_element(rng, 0.4))
            uinv = J @ u.conj().T @ J
            samples += 1
            if classify(m) == classify(u @ m @ uinv) == kind:
                stable += 1
                counts[kind] += 1
    classify_ok = stable == samples
    dt = time.perf_counter() - t0
    ok = group_ok and classify_ok and dt < 10.0
    _verdict(
        5,
        ok,
        f"1000 group-law checks worst residual {worst:.2e} (<= 1e-9); classification "
        f"conjugation-stable on {stable}/{samples} samples "
        f"({counts[IsometryType.ELLIPTIC]}E/{counts[IsometryType.LOXODROMIC]}L/"
        f"{counts[IsometryType.PARABOLIC]}P) in {dt:.1f}s (< 10s)",
    )


def test_acceptance_6_developing_maps():
    rng = np.random.default_rng(246)
    worst_fd = 0.0
    worst_comm = 0.0
    step = 1e-5
    for family in FAMILIES:
        for _ in range(100):
            nf = random_normal_form(rng, family)
            cx, cy = connection_coeffs(nf)
            x0, y0 = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
            inv = np.linalg.inv(developing_map(nf, x0, y0).a)
            ddx = (developing_map(nf, x0 + step, y0).a - developing_map(nf, x0 - step, y0).a) / (2 * step)
            ddy = (developing_map(nf, x0, y0 + step).a - developing_map(nf, x0, y0 - step).a) / (2 * step)
            worst_fd = max(
                worst_fd,
                float(np.max(np.abs(inv @ ddx - cx))),
                float(np.max(np.abs(inv @ ddy - cy))),
            )
            hx, hy = holonomy(nf)
            worst_comm = max(worst_comm, float(np.max(np.abs(hx.a @ hy.a - hy.a @ hx.a))))
    ok = worst_fd <= 1e-6 and worst_comm <= TOL_ANGLE
    _verdict(
        6,
        ok,
        f"100 draws/family: finite differences of the developing map match the "
        f"connection to {worst_fd:.2e} (<= 1e-6); holonomies commute to {worst_comm:.2e} (<= 1e-9)",
    )


def test_acceptance_7_lift_independence():
    pres_by_a = {a: presentation(a) for a in [(2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7)]}
    checked = stable = 0

    def probe(pres, data, expected):
        nonlocal checked, stable
        for i in range(pres.n):
            for k in (-2, 1, 3):
                checked += 1
                stable += cs_closed(pres, shift_generator_lift(pres, data, i, k)) == expected
        for k in (-3, -1, 2):
            checked += 1
            stable += cs_closed(pres, shift_central_split(pres, data, k)) == expected
        checked += 1
        stable += cs_closed(pres, swap_pq(data)) == expected

    pres211 = pres_by_a[(2, 3, 11)]
    for case in sigma_2_3_11_fixture():
        data = canonical_lift_data(pres211, case.generators, case.central)
        probe(pres211, data, case.expected_cs)
    n_random = 0
    for pres in pres_by_a.values():
        for seed in range(25):
            data = make_random_rep(pres, seed)
            n_random += 1
            probe(pres, data, cs_closed(pres, data))
    ok = stable == checked and n_random == 100
    _verdict(
        7,
        ok,
        f"invariant unchanged by lift re-choices (generator sheets, central split, p/q swap): "
        f"{stable}/{checked} exact over 5 table cases + {n_random} random representations",
    )


def test_acceptance_8_search_recovers_table():
    t0 = time.perf_counter()
    pres = presentation((2, 3, 11))
    targets = sigma_2_3_11_targets()
    rows_ok = []
    worst_residual = 0.0
    for target, e_cs, e_mu in zip(targets, EXPECTED_CS, EXPECTED_MU):
        result = find_representation(pres, target, seed=1, budget=64)
        worst_residual = max(worst_residual, result.residual)
        data = extract_lift_data(pres, result, target)
        cs = cs_closed(pres, data)
        rows_ok.append(
            result.residual <= 1e-8
            and cs == e_cs
            and burns_epstein(cs) == e_mu
            and not is_reducible(list(result.matrices))
        )
    dt = time.perf_counter() - t0
    ok = all(rows_ok) and len(rows_ok) == 5 and dt < 300.0
    _verdict(
        8,
        ok,
        f"search (seed 1, budget 64) recovers {sum(rows_ok)}/5 classes: worst relation "
        f"residual {worst_residual:.1e} (<= 1e-8), exact invariants, all irreducible, "
        f"in {dt:.1f}s (< 300s)",
    )
