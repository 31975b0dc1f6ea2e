"""Run the benchmark on several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --workload lines-mc --seeds 1-10

Runs ``perfbench/run.py`` untraced once per seed, one after another, for the
``run_seconds`` of BENCHMARK.json, and prints one
JSON object: for each metric its median, quartiles and quartile spread
((q3 - q1) / median, with statistics.quantiles(n=4)), plus every run's values
and the correctness counts.  The summary is also written to
perfbench/out/baseline-<workload>-<seeds>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import derive

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results):
    """Per-metric median, quartiles and spread over the runs' JSON results."""
    values = {}
    units = {}
    for res in results:
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out[name] = {"unit": units[name], "median": statistics.median(xs),
                     "q1": q1, "q3": q3, "spread": derive.quartile_spread(xs),
                     "values": xs}
    return out


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]

    results = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seeds": args.seeds, "seconds": seconds,
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": summarise(results),
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out",
                        f"baseline-{args.workload}-{args.seeds}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
