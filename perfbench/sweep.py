"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads crowd-416-par2,cold-cli-128 --seeds 1-10 \
        [--seconds N] [--trace 0] [--out sweep.json]

Run from the repository root.  Each run is a separate process.  For every
workload and metric it prints the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), plus each run's
wall time, and writes the same summary as JSON when --out is given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0,
                "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    summary = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            t0 = time.perf_counter()
            cmd = [sys.executable, str(RUN), "--workload", wl, "--seed", str(seed),
                   "--trace", str(args.trace)]
            if args.seconds:
                cmd += ["--seconds", str(args.seconds)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, **result})
            print(f"{wl} seed {seed}: {wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[wl] = {"metrics": metrics, "wall_s": [r["wall_s"] for r in runs],
                       "all_correct": all(r["correct"] for r in runs)}
        for name, s in metrics.items():
            print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
