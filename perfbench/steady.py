"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 perfbench/steady.py

Runs ``run.py`` once per seed, one run at a time, on every workload of
BENCHMARK.json for its ``run_seconds``: set 1 uses seeds 1-10 and set 2
seeds 11-20.  For each workload and end-to-end metric it prints both
sets' medians and quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) / median, and how far set 2's median is worse than set
1's.  A metric is flagged when a spread exceeds its bound in
BENCHMARK.json or set 2's median is worse by more than the bound; a run
is flagged when it is incorrect or has a failed job.  The whole table
also goes to perfbench/out/steady.json.  Exit code 1 if anything is
flagged.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEED_SETS = (range(1, 1 + RUNS), range(1 + RUNS, 1 + 2 * RUNS))


def run_benchmark(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the benchmark command; returns its result line."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table, flagged = {}, []
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k, seeds in enumerate(SEED_SETS, 1):
            results = []
            for seed in seeds:
                res = run_benchmark(workload, seed, bench["run_seconds"], 0)
                print(f"{workload} set {k} seed {seed}: failed {res['failed']}/{res['attempted']} " + " ".join(
                    f"{n}={v['value']:.6g}" for n, v in res["metrics"].items()), flush=True)
                if not res["correct"] or res["failed"]:
                    flagged.append(f"{workload} seed {seed}: correct {res['correct']}, failed {res['failed']}")
                results.append(res)
            sets.append(results)
        table[workload] = {}
        for spec in bench["end_to_end"]:
            name = spec["name"]
            first, second = (summary([r["metrics"][name]["value"] for r in s]) for s in sets)
            worse = (second["median"] - first["median"]) / first["median"] * (1 if spec["better"] == "lower" else -1)
            table[workload][name] = {"set1": first, "set2": second, "set2_worse_by": worse}
            for k, st in enumerate((first, second), 1):
                print(f"  {workload:9s} {name:12s} set {k}: median {st['median']:.6g} "
                      f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.3f} (bound {spec['bound']})")
                if st["spread"] > spec["bound"]:
                    flagged.append(f"{workload} {name} set {k}: spread {st['spread']:.3f} > {spec['bound']}")
            print(f"  {workload:9s} {name:12s} set 2 worse by {worse:+.3f}")
            if worse > spec["bound"]:
                flagged.append(f"{workload} {name}: set 2 median worse by {worse:.3f} > {spec['bound']}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps({"table": table, "flagged": flagged}, indent=2))
    for line in flagged:
        print(f"FLAGGED: {line}")
    print("steady" if not flagged else f"{len(flagged)} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
