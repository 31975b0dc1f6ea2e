"""Record benchmark runs of this checkout, alone or paired with another commit.

Runs the unchanged ``perfbench/run.py`` (untraced) over the given workloads
and seeds, and writes ``BENCH_<label>.json`` at the root of the repository:

* the commit (and whether the working tree differs from it);
* per workload and metric, the median, quartiles and n of the runs;
* failed and attempted operations per run;
* nproc, the load average before and after each run, and the Python, numpy
  and scipy versions;
* the bytecode state.  Every run starts from a fresh ``git archive`` copy,
  which holds no ``__pycache__``, and runs with PYTHONDONTWRITEBYTECODE set,
  so every process on both sides of a pair compiles every module it imports
  (about 20 ms a cold process).  Each run records how many .pyc files its
  copy held, which stays 0.

The working tree is archived as it would be committed after ``git add -A``
(through a temporary index; the repository's own index is left alone).

``--pair REV`` also archives REV and runs the two copies alternately: pair i
runs REV first when i is even and the working tree first when it is odd.
The file holds each side's runs and summary under "tree" (the working
tree) and "parent" (REV), and per metric the per-pair ratios (tree / REV)
and how many pairs the tree won.  The copies live in a temporary directory
that is removed afterwards.

    python3 tools/bench_record.py --label baseline --workloads integral-mc --seeds 501-510
    python3 tools/bench_record.py --label change --pair HEAD~1 \\
        --workloads integral-mc --seeds 501-510 --seconds 22
"""

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-quad", "lines-mc", "rig-mc", "integral-mc")


def _git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _working_tree_id(scratch):
    """The tree object of the working tree as ``git add -A`` would stage it."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    _git("read-tree", "HEAD", env=env)
    _git("add", "-A", env=env)
    return _git("write-tree", env=env)


def _archive(tree_ish, dest):
    """Extract ``tree_ish`` into the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", tree_ish], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def _run(copy, workload, seed, seconds):
    """One untraced benchmark run in ``copy``: its JSON result and context."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    pyc = sum(1 for _ in copy.rglob("*.pyc"))
    load_before = os.getloadavg()
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "wall_s": wall,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "pyc_files_before": pyc,
    }


def summarise(runs):
    """Per metric the median, quartiles and n over ``runs``."""
    out = {}
    for name in runs[0]["metrics"]:
        xs = [run["metrics"][name] for run in runs]
        q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(xs)}
    return out


def compare(parent_runs, tree_runs, better):
    """Per metric the pair ratios (tree / parent) and the tree's wins."""
    out = {}
    for name, direction in better.items():
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(parent_runs, tree_runs)]
        ratios = [c / p for p, c in pairs]
        wins = sum(1 for p, c in pairs if (c < p if direction == "lower" else c > p))
        out[name] = {"better": direction, "ratios": ratios,
                     "ratio_median": statistics.median(ratios),
                     "wins": wins, "pairs": len(pairs)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated, default all four")
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 501-510")
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run; default the run_seconds of BENCHMARK.json")
    parser.add_argument("--pair", metavar="REV",
                        help="also run REV, alternating with the working tree")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="default BENCH_<label>.json at the repository root")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seeds = _seeds(args.seeds)
    out_path = args.out or ROOT / f"BENCH_{args.label}.json"

    record = {
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        "working_tree_differs": bool(_git("status", "--porcelain")),
        "seconds": seconds,
        "seeds": seeds,
        "bytecode": "compiled by every process: no __pycache__, PYTHONDONTWRITEBYTECODE=1",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "workloads": {},
    }
    if args.pair:
        record["pair"] = {"rev": args.pair, "commit": _git("rev-parse", args.pair)}

    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        scratch = pathlib.Path(tmp)
        sides = {"tree": _archive(_working_tree_id(scratch), scratch / "tree")}
        if args.pair:
            sides["parent"] = _archive(args.pair, scratch / "parent")
        for workload in workloads:
            runs = {side: [] for side in sides}
            for i, seed in enumerate(seeds):
                order = sorted(sides, reverse=i % 2 == 1)  # parent first at even i
                for side in order:
                    runs[side].append(_run(sides[side], workload, seed, seconds))
                    last = runs[side][-1]
                    print(f"{workload} seed {seed} {side}: correct={last['correct']} "
                          f"failed={last['failed']}/{last['attempted']}",
                          file=sys.stderr, flush=True)
            entry = {side: {"summary": summarise(side_runs), "runs": side_runs}
                     for side, side_runs in runs.items()}
            if args.pair:
                entry["pairs"] = compare(runs["parent"], runs["tree"], better)
            record["workloads"][workload] = entry
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
