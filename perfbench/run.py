"""Benchmark of eplab: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload fit_noisy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; eplab is imported from its src/. The run
repeats whole rounds of the workload until --seconds have passed. With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json; with --trace 1
it runs untraced rounds for half the time, then traced rounds for the other
half, and prints the per-layer metrics, tracing overhead included. The last
line of standard output is the result as one JSON object; the same result
is also saved under .perfbench/results/ for perfbench/compare.py.
"""

import os

# pinned before numpy loads, so BLAS never adds threads of its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
TRACED_STATS = ("ms_per_call", "calls", "s", "ms", "s_p50", "s_max")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", help="directory for the result record "
                   "(default .perfbench/results)")
    return p.parse_args(argv)


def run_rounds(workload, seconds, tracer, problems, rounds):
    """Whole rounds until `seconds` have passed; each is checked at once."""
    start = time.perf_counter()
    done = []
    while not done or time.perf_counter() - start < seconds:
        rnd = workload.round(tracer)
        if not rnd.failures:
            problems += workload.check(rnd)
        done.append(rnd)
    rounds += done
    return done


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def traced_metric(tracer, name, n_rounds):
    """A per-layer metric read off the tracer, or None if not a span stat."""
    span, _, stat = name.rpartition(".")
    if stat not in TRACED_STATS:
        return None
    durations = sorted(tracer.durations.get(span, ()))
    if stat == "ms_per_call":
        return 1e3 * statistics.mean(durations) if durations else 0.0
    if stat == "s_p50":
        return statistics.median(durations) if durations else 0.0
    if stat == "s_max":
        return durations[-1] if durations else 0.0
    if stat == "calls":
        return tracer.count(span) / n_rounds
    scale = 1e3 if stat == "ms" else 1.0
    return scale * tracer.seconds(span) / n_rounds


def main(argv=None):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "eplab" / "__init__.py").is_file():
        print(f"perfbench: no eplab package under {root / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](root, args.seed, workdir)
    try:
        return measure(args, spec, root, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, root, workload):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    problems = []
    rounds = []
    tracer = None
    if args.trace:
        plain = run_rounds(workload, args.seconds / 2, None, problems, rounds)
        tracer = Tracer().install()
        try:
            traced = run_rounds(workload, args.seconds / 2, tracer, problems,
                                rounds)
            workload.probe()
        finally:
            tracer.uninstall()
    else:
        plain = run_rounds(workload, args.seconds, None, problems, rounds)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for rnd in rounds:
        for text in rnd.failures:
            print(f"failed: {text}", file=sys.stderr)
    clean = [r for r in plain if not r.failures]
    if not clean or (tracer and not any(not r.failures for r in traced)):
        problems.append("no round ran without a failed operation")

    metrics = {}
    absent = []
    if not problems:
        if args.trace:
            traced_ok = [r for r in traced if not r.failures]
            values = workload.per_layer(traced_ok)
            values["trace.overhead_s"] = (
                statistics.median(r.wall for r in traced_ok)
                - statistics.median(r.wall for r in clean))
            for m in spec["per_layer"]:
                value = values.get(m["name"])
                if value is None:
                    value = traced_metric(tracer, m["name"], len(traced_ok))
                if value is None:
                    value = 0.0
                    absent.append(f"{m['name']}: not produced by "
                                  f"{workload.name}")
                elif value == 0.0 and m["name"].split(".")[-1] in TRACED_STATS:
                    absent.append(f"{m['name']}: no call in this process")
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        else:
            values = workload.end_to_end(clean)
            values.update(setup_s=statistics.median(setup_times),
                          wall_s=statistics.median(r.wall for r in clean),
                          peak_rss_mb=peak_rss_mb())
            for m in spec["end_to_end"]:
                metrics[m["name"]] = {"value": values[m["name"]],
                                      "unit": m["unit"]}
    for text in problems:
        print(f"check failed: {text}", file=sys.stderr)
    if absent:
        print("absent on this workload (reported as 0): " + "; ".join(absent))

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    save(args, root, workload, rounds, tracer, result)
    print(json.dumps(result))
    return 0 if not problems else 1


def save(args, root, workload, rounds, tracer, result):
    out = Path(args.results) if args.results else root / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": [r.stages for r in rounds], "result": result}
    if tracer is not None:
        record["spans"] = tracer.table()
    name = (f"{workload.name}-seed{args.seed}-trace{args.trace}-"
            f"{time.time_ns()}.json")
    (out / name).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
