"""Reference figures: one untraced and one traced run per workload.

    python3 perfbench/reference.py

Runs every workload of BENCHMARK.json with seed 1 for its
``run_seconds``, once untraced and once traced, and prints, as Markdown,
the Python/numpy/scipy versions, the tracing overhead (traced minus
untraced) and, per workload, every layer's calls per job, self time per
call and self time per job with its share of the traced mean job time.
The README's reference section is this command's output.
"""

from __future__ import annotations

import json
import sys

from steady import HERE, ROOT, run_benchmark

SEED = 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    details = {}
    for workload in names:
        for trace in (0, 1):
            run_benchmark(workload, SEED, bench["run_seconds"], trace)
            path = HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
            details[workload, trace] = json.loads(path.read_text())

    env = details[names[0], 0]["environment"]
    print(f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['machine']}, "
          f"{env['cpus']} CPUs; seed {SEED}, {bench['run_seconds']} s per run.\n")
    print("| workload | jobs/s untraced | jobs/s traced | job p50 ms untraced | job p50 ms traced "
          "| traced minus untraced per job |")
    print("|---|---|---|---|---|---|")
    for workload in names:
        plain, traced = details[workload, 0]["end_to_end"], details[workload, 1]["end_to_end"]
        extra = 1 / traced["jobs_per_s"] - 1 / plain["jobs_per_s"]
        print(f"| {workload} | {plain['jobs_per_s']:.4g} | {traced['jobs_per_s']:.4g} | {plain['job_p50_ms']:.4g} "
              f"| {traced['job_p50_ms']:.4g} | {1e3 * extra:+.3g} ms ({extra * plain['jobs_per_s']:+.1%}) |")
    for workload in names:
        metrics = details[workload, 1]["result"]["metrics"]
        mean_job_us = 1e6 / details[workload, 1]["end_to_end"]["jobs_per_s"]
        print(f"\n`{workload}` (traced mean job {mean_job_us / 1e3:.4g} ms"
              + (f", {metrics['repfinder.evals_per_solve']['value']:.0f} evals per solve" if workload == "search" else "")
              + ")\n")
        print("| layer | calls/job | self us/call | self us/job | share of job |")
        print("|---|---|---|---|---|")
        for name in sorted({n.rsplit(".", 1)[0] for n in metrics if n.endswith(".self_us")}):
            calls, self_us = metrics[f"{name}.calls_per_job"]["value"], metrics[f"{name}.self_us"]["value"]
            if calls:
                print(f"| {name} | {calls:.4g} | {self_us:.4g} | {calls * self_us:.4g} | {calls * self_us / mean_job_us:.1%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
