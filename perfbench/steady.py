"""Steadiness report: run each workload several times and compare spreads
with the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --sets 2

Every workload in BENCHMARK.json is run.  Runs go one after another, each
workload in its own fresh process, seed ``first_seed + i`` for run i.  For
every end-to-end metric the report prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, the distance between the
quartiles as a share of the median, against the metric's bound; a spread
over the bound fails the report.  With ``--sets 2`` the runs are repeated
and the shift of the second median against the first is also compared with
the bound, in the direction that makes the metric worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed requests")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in names:
        sets = []
        for s in range(args.sets):
            runs = [run(workload, args.first_seed + i, spec["run_seconds"])
                    for i in range(args.runs)]
            sets.append({name: [r[name] for r in runs] for name in metrics})
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), {spec['run_seconds']} s each")
        print(f"  {'metric':18} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6} {'spread/bound':>12}  second-median shift")
        for name, m in metrics.items():
            median, q1, q3, spread = summary(sets[0][name])
            line = (f"  {name:18} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                    f"{spread:7.3f} {m['bound']:6.2f} {spread / m['bound']:12.2f}")
            if len(sets) == 2:
                second, _, _, spread2 = summary(sets[1][name])
                worse = (second - median) / median
                if m["better"] == "higher":
                    worse = -worse
                line += f"  {worse:+.3f} (second spread {spread2:.3f})"
                spread = max(spread, spread2)
                if worse > m["bound"]:
                    ok = False
                    line += " WORSE THAN BOUND"
            if spread > m["bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            print(line)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
