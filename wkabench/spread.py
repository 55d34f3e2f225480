"""Run-to-run spread of the end-to-end metrics, one workload at a time.

Usage (from the root of the repository):

    python3 wkabench/spread.py --workloads ladder --seeds 1-10

Runs the benchmark once per seed, strictly one run after another, and prints
for each metric the interquartile range of its values as a share of their
median (``statistics.quantiles(values, n=4)``), beside the metric's bound
from ``BENCHMARK.json``.  The exit code is 1 when a run fails or any spread,
``setup_s`` included, is wider than its bound.
Every run's result line is appended to ``.wkabench/spread.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    log = ROOT / ".wkabench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    bad = 0
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        for seed in seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                bad += 1
                continue
            result = json.loads(lines[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "elapsed_s": elapsed, **result}) + "\n")
            print(f"{workload} seed {seed}: {elapsed:.1f} s  " + "  ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        for metric in spec["end_to_end"]:
            vals = values.get(metric["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            verdict = ("ok" if share < metric["bound"] / 3 else
                       "within bound" if share <= metric["bound"] else "TOO WIDE")
            bad += share > metric["bound"]
            print(f"  {workload} {metric['name']}: median {med:.4g} {metric['unit']}, "
                  f"spread {share:.3f} (bound {metric['bound']}) {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
