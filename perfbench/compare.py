"""Compare two sets of benchmark results, or summarize one.

    python3 perfbench/compare.py SET_A [SET_B]

Each set is a directory of result records written by run.py (use its
--results option to keep sets apart). For every workload and end-to-end
metric the command prints the median and quartiles of each set and their
spread, the quartile distance as a share of the median. It flags a spread
beyond the metric's bound in BENCHMARK.json, and, given two sets, a median
of SET_B worse than SET_A's by more than the bound, and a share of failed
operations that differs. It exits 1 if anything is flagged.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    """{workload: {metric: [values]}} and {workload: [attempted, failed]}."""
    values = defaultdict(lambda: defaultdict(list))
    counts = defaultdict(lambda: [0, 0])
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record["trace"]:
            continue
        result = record["result"]
        counts[record["workload"]][0] += result["attempted"]
        counts[record["workload"]][1] += result["failed"]
        for name, metric in result["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values, counts


def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0], 0.0
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sets = [load(d) for d in argv]
    flagged = 0
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"{workload}")
        for m in spec["end_to_end"]:
            line = f"  {m['name']:<14} {m['unit']:<4}"
            meds = []
            for values, _ in sets:
                xs = values[workload][m["name"]]
                if not xs:
                    line += "  (no runs)"
                    continue
                med, q1, q3, spread = summary(xs)
                meds.append(med)
                flag = ""
                if spread > m["bound"] and m["name"] != "setup_s":
                    flag = " SPREAD"
                    flagged += 1
                line += (f"  n={len(xs):<2} median {med:<11.6g} "
                         f"q1 {q1:<11.6g} q3 {q3:<11.6g} "
                         f"spread {spread:.3f}{flag}")
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / abs(meds[0])
                if m["better"] == "higher":
                    worse = -worse
                line += f"  worse by {worse:+.3f} (bound {m['bound']})"
                if worse > m["bound"]:
                    line += " REGRESSED"
                    flagged += 1
            print(line)
        shares = []
        for _, counts in sets:
            attempted, failed = counts[workload]
            if attempted:
                shares.append(failed / attempted)
                print(f"  failed {failed}/{attempted}")
        if len(shares) == 2 and shares[0] != shares[1]:
            print("  FAILED SHARE DIFFERS")
            flagged += 1
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
