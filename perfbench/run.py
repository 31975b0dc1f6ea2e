"""grassdeg benchmark: one command, four workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli-quad, lines-mc, rig-mc, integral-mc (see workloads.py).  The
seed fixes every Monte Carlo input.  With ``--trace 0`` the run measures the
end-to-end metrics untraced; with ``--trace 1`` it runs the traced per-layer
probes of layers.py instead.  Human-readable lines come first; the last line
of stdout is one JSON object {correct, attempted, failed, metrics}.  A
provenance record and, for traced runs, the spans are written under
perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

# Pin BLAS/OpenMP pools to one thread before numpy is imported anywhere, so
# the only extra threads are the Monte Carlo worker pool.  Children inherit it.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 7

import derive  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s_p25": "s", "samples_per_s": "1/s",
    "err_sqrt_s": "1", "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description="grassdeg benchmark")
    p.add_argument("--workload", required=True, choices=wl.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as h:
                return h.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _provenance(args):
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ[v] for v in THREAD_ENV},
        "mc_workers": wl.WORKERS,
        "loadavg_start": os.getloadavg(),
        "timings": {},
    }


def _timed(records):
    """The calls each entry is timed by: its passing calls, or all its calls
    when none passed.  Failures are counted either way; this keeps a broken
    run reporting.
    """
    passed = {r.key for r in records if r.ok}
    return [r for r in records if r.ok or r.key not in passed]


def _end_to_end(args, gd):
    """Measure one untraced run; returns (metrics, records, basis).

    Each entry of the workload (an estimator; on cli-quad, a cold invocation
    of any of the five commands) is timed at the lower quartile of its
    passing calls in the run (see derive.lower_quartiles).  Timings are then
    rescaled to the host's reference speed: times REFERENCE_S over the lower
    quartile of the reference task, run every half second or so through the
    run.  ``setup_s`` is rescaled the same way, by reference runs made
    between its set-up processes.
    The baseline machine's host changes speed by up to 2x for minutes at a
    time, and grassdeg and the reference slow down together; rescaled, ten
    runs agree to a few percent where raw wall times spread by a third.  The
    raw figures, and the median and tail of the passes, are kept in the
    provenance.
    """
    basis = {}
    setup, setup_refs = wl.measure_setup(ROOT, OUT_DIR, SETUP_REPEATS)
    setup_scale = wl.REFERENCE_S / derive.lower_quartile(setup_refs)
    basis["setup_s"] = {"stat": "median x scale", "n": len(setup), "values": setup,
                        "raw": derive.median(setup), "reference": setup_refs,
                        "scale": setup_scale}
    reference = lambda: wl.run_reference(ROOT, OUT_DIR)  # noqa: E731

    if args.workload == "cli-quad":
        records, passes, refs = wl.run_passes(
            lambda i: wl.cli_cycle(ROOT, OUT_DIR, i), args.seconds, reference)
        quartile = derive.lower_quartiles(("invocation", r.wall_s)
                                          for r in _timed(records))
        pass_raw = quartile["invocation"]
        pass_samples = 1
        peak = max(r.extra.get("rss_mb", 0.0) for r in records)
        peak_basis = "largest child, wait4 ru_maxrss"
    else:
        calls = wl.MC_WORKLOADS[args.workload]
        wl.mc_warm_up(gd, args.workload, args.seed)
        records, passes, refs = wl.run_passes(
            lambda i: wl.mc_pass(gd, args.workload, args.seed, i), args.seconds,
            reference)
        quartile = derive.lower_quartiles((r.key, r.wall_s)
                                          for r in _timed(records))
        pass_raw = sum(quartile[c.key] for c in calls)
        pass_samples = sum(c.samples for c in calls)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak_basis = "workload process ru_maxrss"

    scale = wl.REFERENCE_S / derive.lower_quartile(refs)
    pass_s = pass_raw * scale
    if args.workload == "cli-quad":
        # The quadrature's own error estimate is set by the rule, not by the
        # time spent, so the error side is the tolerance the gate holds
        # edeg(2,4) to: the error the run certifies.
        err = derive.err_sqrt_s(wl.PIN_EDEG24_REL * wl.EDEG24, pass_s)
        err_basis = "gate tolerance of edeg(2,4), 1e-9 x EDEG24, x sqrt(pass_s_p25)"
    else:
        key = wl.HEADLINE[args.workload]
        errs = [r.result.stderr for r in _timed(records)
                if r.key == key and r.result is not None]
        err = (derive.err_sqrt_s(derive.median(errs), quartile[key] * scale)
               if errs else None)
        err_basis = (f"median {key} stderr x sqrt(lower quartile of {key} calls, "
                     "rescaled)")

    tail_value, tail_pct, tail_n = derive.tail(passes)
    metrics = {
        "setup_s": derive.median(setup) * setup_scale,
        "pass_s_p25": pass_s,
        "samples_per_s": pass_samples / pass_s,
        "err_sqrt_s": err,
        "peak_rss_mb": peak,
    }
    counts = {}
    for r in records:
        counts[r.key] = counts.get(r.key, 0) + 1
    basis["reference"] = {"stat": "p25", "n": len(refs), "values": refs,
                          "scale": scale}
    basis["pass_s_p25"] = {"stat": "sum over entries of the p25 of passing calls, "
                                   "x scale", "raw": pass_raw, "p25": quartile,
                           "calls": counts}
    basis["samples_per_s"] = {"stat": f"{pass_samples} samples per pass / pass_s_p25",
                              "raw": pass_samples / pass_raw}
    basis["err_sqrt_s"] = {"of": err_basis}
    basis["peak_rss_mb"] = {"stat": "max", "of": peak_basis}
    basis["pass_s_p50"] = {"value": derive.median(passes), "n": len(passes)}
    basis["pass_s_tail"] = {"value": tail_value, "stat": f"p{tail_pct:.1f}",
                            "n": tail_n,
                            "beyond": sum(1 for w in passes if w > tail_value)}
    basis["passes"] = passes
    basis["calls"] = [[r.key, r.wall_s] for r in records]
    return metrics, records, basis


def _print_table(rows):
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown:>14} {unit:<6} {note}")


def main(argv):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grassdeg", "__init__.py")):
        print(f"perfbench: no grassdeg sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    prov = _provenance(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import grassdeg as gd
    import grassdeg.cli  # noqa: F401

    gd.zonoid.default_profile()
    started = time.perf_counter()

    print(f"grassdeg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, closed loop, 1 client, "
          f"Monte Carlo workers={wl.WORKERS}")
    if args.trace:
        traced_cli = [sys.executable, os.path.join(HERE, "traced_cli.py")]
        m, checks, tracer, cli_records = layers.traced_run(
            gd, args.seed, ROOT, OUT_DIR, traced_cli)
        outcomes = [ok for _, ok, _ in checks]
        metrics = {k: v for k, (v, _) in m.values.items()}
        units = {k: u for k, (_, u) in m.values.items()}
        prov["timings"] = m.basis
        rows = [(k, v, units[k], m.basis.get(k, "")) for k, v in metrics.items()]
        child_spans = {r.key: layers.child_spans(r) for r in cli_records}
        by_name = derive.self_time_by_name(tracer.spans)
        print("self time by span name (s):")
        for name, secs in sorted(by_name.items(), key=lambda kv: -kv[1])[:12]:
            print(f"  {name:<40} {secs:10.4f}")
        trace_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "cli_child_spans": child_spans}, handle)
        failures = [(label, detail) for label, ok, detail in checks if not ok]
    else:
        metrics, records, basis = _end_to_end(args, gd)
        units = END_TO_END_UNITS
        prov["timings"] = basis
        outcomes = [r.ok for r in records]
        failures = [(r.key, r.detail) for r in records if not r.ok]
        rows = [(k, metrics[k], units[k], _basis_note(basis.get(k)))
                for k in END_TO_END_UNITS]
        rows += [(k, basis[k]["value"], "s", "not a metric: " + _basis_note(basis[k]))
                 for k in ("pass_s_p50", "pass_s_tail")]

    failed, attempted, frac = derive.failed_frac(outcomes)
    rows.append(("failed_frac", frac, "ratio", f"{failed} of {attempted} operations"))
    _print_table(rows)
    for label, detail in failures:
        print(f"  FAILED {label}: {detail}")
    prov["elapsed_s"] = time.perf_counter() - started
    prov["failures"] = failures
    prov_path = os.path.join(
        OUT_DIR, f"run-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(prov_path, "w", encoding="utf-8") as handle:
        json.dump({"provenance": prov, "metrics": metrics, "units": units}, handle,
                  indent=1, default=str)
    print("provenance: " + json.dumps(prov, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _basis_note(b):
    if not b:
        return ""
    return ", ".join(f"{k}={v}" for k, v in b.items()
                     if k not in ("values", "value", "reference"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
