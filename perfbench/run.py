"""csu21 benchmark: one workload, closed loop, single process and thread.

    python3 perfbench/run.py --workload {search,exact,geometry} --seed N --seconds S --trace {0,1}

Set-up imports the package from ``src/`` of this checkout, draws the
workload's inputs from ``--seed``, writes them as JSON documents and runs
one warm-up round; it is repeated three times and ``setup_s`` is the
import time plus the median repetition.  The measured loop then runs
whole rounds, each job only after the previous one returned, until
``--seconds`` have passed, and checks every output against the
benchmark's own reference (``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (the package's
functions wrapped by ``tracer.py``).  Everything, the end-to-end figures
of a traced run included, also goes to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads: the package works on 3x3
# matrices, where BLAS threads only add overhead, and spinning threads make
# timings depend on whatever else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3


def load_program():
    """Import csu21 from this checkout's sources, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import csu21
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import csu21 from {src}: {exc}")
    if Path(csu21.__file__).resolve().parent != src / "csu21":
        raise SystemExit(f"perfbench: csu21 was imported from {csu21.__file__}, not from {src}")
    import numpy
    import scipy
    import workloads
    return workloads, {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.times: list[float] = []
        self.kinds: Counter = Counter()
        self.evals: list[int] = []

    def report(self, what: str) -> None:
        if self.failed + self.wrong <= 5:
            print(f"perfbench: {what}", file=sys.stderr)


def run_round(round_fn, item, stats: Stats) -> None:
    gen = round_fn(item)
    try:
        job = next(gen)
        while True:
            stats.attempted += 1
            t = time.perf_counter()
            try:
                result = job.call()
            except Exception:  # a traceback from the program is a failed job
                stats.report(f"{job.kind} raised:\n{traceback.format_exc()}")
                stats.failed += 1
                gen.close()
                return
            stats.times.append(time.perf_counter() - t)
            stats.kinds[job.kind] += 1
            job = gen.send(result)
    except StopIteration as stop:
        if stop.value is not None:
            stats.evals.extend(stop.value)
    except checks.CheckFailed as exc:
        stats.report(f"wrong output: {exc}")
        stats.wrong += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "exact", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the work files are removed

    workloads, versions = load_program()
    import_s = time.perf_counter() - T_START
    setup, round_fn = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workroot = OUT / f"work-{os.getpid()}"
    try:
        warm = Stats()
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t = time.perf_counter()
            workdir = workroot / f"setup{rep}"
            workdir.mkdir(parents=True)
            items = setup(args.seed, workdir)
            for item in workloads.warmup_items(args.workload, items):
                run_round(round_fn, item, warm)
            setup_times.append(time.perf_counter() - t)

        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        stats = Stats()
        start = time.perf_counter()
        i = 0
        try:
            while i == 0 or time.perf_counter() - start < args.seconds:
                run_round(round_fn, items[i % len(items)], stats)
                i += 1
        finally:
            if tracer:
                tracer.uninstall()
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    jobs = len(stats.times)
    end_to_end = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "jobs_per_s": (jobs / sum(stats.times) if jobs else 0.0, "jobs/s"),
        "job_p50_ms": (1e3 * statistics.median(stats.times) if jobs else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if tracer:
        metrics = tracer.metrics(jobs)
        metrics["repfinder.evals_per_solve"] = (statistics.fmean(stats.evals) if stats.evals else 0.0, "evals")
    else:
        metrics = end_to_end
    result = {
        "correct": warm.wrong + warm.failed + stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "measured_wall_s": wall,
        "rounds": i,
        "jobs_by_kind": dict(stats.kinds),
        "environment": {**versions, "machine": platform.machine(), "cpus": os.cpu_count()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
