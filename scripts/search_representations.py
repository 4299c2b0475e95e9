#!/usr/bin/env python3
"""Numerically reconstruct the five irreducible Sigma(2, 3, 11) classes.

Runs the multi-start search for each frozen class target, snaps the
converged solutions to exact lift data, and compares the resulting
invariants with the expected table values.  The search is deterministic
per (seed, budget).
"""

import argparse
import sys
import time

from csu21 import (
    burns_epstein,
    cs_closed,
    extract_lift_data,
    find_representation,
    is_reducible,
    presentation,
    sigma_2_3_11_fixture,
    sigma_2_3_11_targets,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="search RNG seed (default 1)")
    parser.add_argument("--budget", type=int, default=64, help="search starts per target (default 64)")
    parser.add_argument("--case", type=int, choices=range(1, 6), help="restrict to one target")
    args = parser.parse_args(argv)

    pres = presentation((2, 3, 11))
    targets = sigma_2_3_11_targets()
    expected = [case.expected_cs for case in sigma_2_3_11_fixture()]
    failures = 0
    for label, (target, e_cs) in enumerate(zip(targets, expected), start=1):
        if args.case is not None and label != args.case:
            continue
        t0 = time.perf_counter()
        result = find_representation(pres, target, seed=args.seed, budget=args.budget)
        dt = time.perf_counter() - t0
        line = f"case {label}: residual {result.residual:.2e} after {result.iterations} evals in {dt:.2f}s"
        if not result.converged:
            print(f"{line} -- DID NOT CONVERGE")
            failures += 1
            continue
        data = extract_lift_data(pres, result, target)
        cs = cs_closed(pres, data)
        red = is_reducible(list(result.matrices))
        ok = cs == e_cs and not red
        failures += not ok
        print(
            f"{line}; cs = {cs} (expected {e_cs}), mu = {burns_epstein(cs)}, "
            f"{'reducible' if red else 'irreducible'} -> {'ok' if ok else 'MISMATCH'}"
        )
    if failures:
        print(f"{failures} target(s) failed")
        return 1
    print("all selected targets reconstructed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
