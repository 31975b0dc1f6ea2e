"""The traced run: per-layer numbers for every module of grassdeg.

Every probe below calls the package through the wrappers of ``spans.Tracer``
and reads its timings and counts back from the recorded spans.  The tracing
overhead is the cost of one span, measured on a wrapped no-op, times the
number of spans the run recorded.  The per-layer set is the same whatever
the workload, so every traced run reports every per-layer metric.
"""

import json
import math
import re
import sys
import time
import tracemalloc

import numpy as np

import derive
import workloads as wl
from spans import SPANS_PREFIX, Tracer

IMPORT_REPEATS = 3
QUICK_REPEATS = 7  # sub-second probes: median of this many calls
RADIUS_REPEATS = 51
SPAN_COST_CALLS = 20_000
SPAN_COST_ROUNDS = 5
SCALING = ("transversal", "rig-2211", "torus")
MC_TIMED = (("torus", "mc.torus_s"), ("schubert", "mc.schubert_s"),
            ("vitale", "mc.vitale_s"), ("density-gof", "mc.density_gof_s"))
RIG_SHAPES = (wl.RIG_2211, wl.RIG_16411)
_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


class Metrics:
    """Ordered (name -> value, unit) table plus the basis of each number."""

    def __init__(self):
        self.values = {}
        self.basis = {}

    def add(self, name, value, unit, basis=""):
        self.values[name] = (value, unit)
        if basis:
            self.basis[name] = basis


def parse_importtime(text):
    """{module: cumulative seconds} from ``python -X importtime`` output."""
    out = {}
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out.setdefault(m.group(4), int(m.group(2)) / 1e6)
    return out


def _import_layer(m, root, scratch):
    runs = []
    for _ in range(IMPORT_REPEATS):
        _, code, _, err, _ = wl.run_child(
            [sys.executable, "-X", "importtime", "-c", "import grassdeg"],
            root, scratch)
        if code != 0:
            raise RuntimeError(f"import child failed: {err.strip()[-300:]}")
        runs.append(parse_importtime(err))
    basis = f"median of {IMPORT_REPEATS} fresh processes, -X importtime cumulative"
    for name, mod in (("import.grassdeg_s", "grassdeg"),
                      ("import.scipy_interpolate_s", "scipy.interpolate"),
                      ("import.scipy_special_s", "scipy.special")):
        # 0 when the module is no longer imported by import grassdeg
        m.add(name, derive.median(r.get(mod, 0.0) for r in runs), "s", basis)
    m.add("import.modules", derive.median(len(r) for r in runs), "count",
          "modules listed by -X importtime for import grassdeg")


def _span_median(tracer, name, fn, repeats):
    for i in range(repeats):
        with tracer.call(name, run_id=f"{name}#{i}"):
            fn()
    return derive.median(s["end"] - s["start"] for s in tracer.named(name))


def _quad_passes(tracer, name):
    """composite_gl_log calls made under each top-level call ``name``."""
    counts = {
        sum(1 for s in tracer.descendants(root["id"])
            if s["name"] == "_quad.composite_gl_log")
        for root in tracer.named(name)
    }
    if len(counts) != 1:
        raise RuntimeError(f"{name} made a varying number of quadrature passes")
    return counts.pop()


def _zonoid_edeg_layers(m, gd, tracer):
    z, e = gd.zonoid, gd.edeg
    basis = f"median of {QUICK_REPEATS} calls"
    m.add("zonoid.profile_build_s",
          _span_median(tracer, "probe.profile_build",
                       lambda: z.build_radial_profile_2(4096), QUICK_REPEATS),
          "s", "build_radial_profile_2(4096), " + basis)
    profile = z.default_profile()
    m.add("zonoid.profile_knots", len(profile.knots), "count")
    # the nodes of a 32-point Gauss-Legendre rule on 32 panels over [0, pi/4]
    x, _ = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, math.pi / 4.0, 33)
    half = 0.5 * np.diff(edges)
    nodes = ((edges[:-1] + half)[:, None] + half[:, None] * x[None, :]).ravel()
    m.add("zonoid.radius_eval_s",
          _span_median(tracer, "probe.radius_eval",
                       lambda: profile.radius(nodes), RADIUS_REPEATS),
          "s", f"RadialProfile2.radius on 1024 nodes, median of {RADIUS_REPEATS}")
    m.add("edeg.general_quadrature_s",
          _span_median(tracer, "probe.edeg_general",
                       lambda: e.edeg_general(2, 4), QUICK_REPEATS),
          "s", "edeg_general(2, 4), " + basis)
    m.add("edeg.lines_quadrature_s",
          _span_median(tracer, "probe.edeg_lines",
                       lambda: e.edeg_lines_quadrature(3), QUICK_REPEATS),
          "s", "edeg_lines_quadrature(3), " + basis)
    m.add("quad.passes.edeg_general", _quad_passes(tracer, "probe.edeg_general"),
          "count", "composite_gl_log calls per edeg_general(2, 4)")
    m.add("quad.passes.edeg_lines", _quad_passes(tracer, "probe.edeg_lines"),
          "count", "composite_gl_log calls per edeg_lines_quadrature(3)")


def child_spans(rec):
    """Spans a traced CLI child reported on its stderr."""
    for line in rec.extra.get("stderr", "").splitlines():
        if line.startswith(SPANS_PREFIX):
            return json.loads(line[len(SPANS_PREFIX):])
    return []


def _cli_layer(m, traced_cli_records):
    """Compute and start-up time of each command from its traced child.

    runtime_ms has a resolution of 1 ms and reads 0 for ``bounds``, so the
    compute time is the ``cli.run`` span, timed with perf_counter; it covers
    the interval of runtime_ms plus argument parsing and emitting the record.
    """
    for rec in traced_cli_records:
        runs = [s for s in child_spans(rec) if s["name"] == "cli.run"]
        if not runs:
            continue
        compute = runs[0]["end"] - runs[0]["start"]
        m.add(f"cli.compute_s.{rec.key}", compute, "s",
              f"cli.run span of one cold invocation "
              f"(runtime_ms {rec.extra.get('runtime_ms')})")
        m.add(f"cli.startup_s.{rec.key}", rec.wall_s - compute, "s",
              "wall time minus cli.compute_s of the same invocation")


def _same_bytes(a, b):
    """Two estimator results are byte-identical (every field, floats by hex)."""
    def key(r):
        if isinstance(r, float):
            return (r.hex(),)
        return (r.value.hex(), r.stderr.hex(), r.n_samples, r.seed, r.method,
                r.degenerate_count)
    return key(a) == key(b)


# The draws each estimator's kernel makes for one chunk of ``count`` samples.
DRAWS = {
    "transversal": lambda gen, count: gen.standard_normal((count, 4, 4, 2)),
    "rig-2211": lambda gen, count: gen.standard_normal((count, 6, 4, 2)),
    "torus": lambda gen, count: (gen.uniform(0.0, 2.0 * math.pi, (count, 3)),
                                 gen.uniform(0.0, 2.0 * math.pi, (count, 3))),
}


def _chunk_sizes(samples, chunk):
    return [chunk] * (samples // chunk) + ([samples % chunk] if samples % chunk else [])


def _mc_layers(m, gd, tracer, seed, checks):
    """Every estimator at workers=2 and workers=1, checked and compared.

    Each estimator reads the stream it reads in pass 0 of its workload, so
    the workers=2 calls are that pass, traced.
    """
    by_key = {c.key: c for c in wl.ALL_MC}
    sid = {c.key: wl.stream_id(0, i)
           for calls in wl.MC_WORKLOADS.values() for i, c in enumerate(calls)}
    recs = {}
    for call in wl.ALL_MC:
        for workers in (wl.WORKERS, 1):
            if call is wl.RIG_16411 and workers == 1:
                continue  # one chunk only; its workers=1 run is the memory probe
            run_id = f"{call.key}@w{workers}"
            with tracer.call("probe.mc", run_id=run_id):
                rec = wl.run_mc_call(gd, call, seed, sid[call.key], workers)
            checks.append((f"{run_id} check", rec.ok, rec.detail))
            recs[call.key, workers] = rec
            if workers == wl.WORKERS:
                root = tracer.named("probe.mc", run_id)[0]
                chunks = sum(1 for s in tracer.descendants(root["id"])
                             if s["name"] == "geomlin.RngStream.substream")
                m.add(f"mc.chunks.{call.key}", chunks, "count",
                      f"{call.samples} samples, substreams drawn")
        if (call.key, 1) in recs:
            a, b = recs[call.key, 1].result, recs[call.key, wl.WORKERS].result
            same = a is not None and b is not None and _same_bytes(a, b)
            checks.append((f"{call.key} workers=1 vs {wl.WORKERS} byte-identical",
                           same, ""))
    wall = {k: r.wall_s for k, r in recs.items()}

    for key in SCALING:
        m.add(f"mc.scaling_2w.{key}", wall[key, 1] / wall[key, wl.WORKERS], "ratio",
              "wall at workers=1 over wall at workers=2, one call each")
    for key, name in MC_TIMED:
        m.add(name, wall[key, wl.WORKERS], "s",
              f"one call, {by_key[key].samples} samples, workers=2")
    m.add("zonoid.vitale_volume_s", wall["vitale-volume", wl.WORKERS], "s",
          f"vol_C_vitale_mc(2, 2), one call, {by_key['vitale-volume'].samples} "
          "samples, workers=2")

    # sampling share: the same draws from the same substreams, at workers=1
    sample_s = {}
    for key, draw in DRAWS.items():
        rng = gd.geomlin.RngStream(seed, sid[key])
        sizes = _chunk_sizes(by_key[key].samples, gd.mc.CHUNK)
        with tracer.call("probe.sample", run_id=f"sample:{key}"):
            for i, count in enumerate(sizes):
                draw(rng.substream(i).generator, count)
        span = tracer.named("probe.sample", f"sample:{key}")[0]
        sample_s[key] = span["end"] - span["start"]
        m.add(f"geomlin.sample_s.{key}", sample_s[key], "s",
              "drawing the estimator's inputs, workers=1")
        m.add(f"geomlin.sample_frac.{key}", sample_s[key] / wall[key, 1], "ratio",
              "sample_s over the estimator's workers=1 wall")

    # runner overhead: run_kernel with a kernel that does no work
    transversal = by_key["transversal"]
    empty = np.empty(0)
    overhead = _span_median(
        tracer, "probe.runner",
        lambda: gd.mc.run_kernel(lambda gen, count: (empty, 0),
                                 gd.geomlin.RngStream(seed, 0),
                                 transversal.samples, workers=1),
        QUICK_REPEATS)
    m.add("mc.runner_overhead_s", overhead, "s",
          f"run_kernel, zero-work kernel, {transversal.samples} samples, "
          f"workers=1, median of {QUICK_REPEATS}")
    m.add("incidence.count_s",
          wall["transversal", 1] - sample_s["transversal"] - overhead, "s",
          "transversal wall at workers=1 minus sample_s minus runner overhead")

    m.add("incidence.counts_per_s.lines-mc",
          transversal.samples / wall["transversal", wl.WORKERS], "1/s",
          "four-line counts per second of the lines-mc call, workers=2")
    rig_counts = sum(c.samples * c.counts_per_sample for c in RIG_SHAPES)
    rig_wall = sum(wall[c.key, wl.WORKERS] for c in RIG_SHAPES)
    m.add("incidence.counts_per_s.rig-mc", rig_counts / rig_wall, "1/s",
          "four-line counts per second over the rig-mc calls, workers=2")
    for key in ("transversal", "rig-2211", "rig-16411"):
        est = recs[key, wl.WORKERS].result
        if est is not None:
            m.add(f"incidence.degenerate_frac.{key}",
                  est.degenerate_count / est.n_samples, "ratio",
                  "degenerate draws over samples, exact")


def _rig_memory_layer(m, gd, seed, checks):
    """tracemalloc peak of one full chunk of each rig shape at workers=1."""
    chunk = gd.mc.CHUNK
    for call in RIG_SHAPES:
        shape = "-".join(str(x) for x in call.r)
        tracemalloc.start()
        try:
            est = gd.incidence.rig_union_of_lines_mc(
                call.r, gd.geomlin.RngStream(seed, 999), chunk, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m.add(f"incidence.rig_chunk_peak_mb.{shape}", peak / 2**20, "MB",
              f"tracemalloc peak, one {chunk}-sample chunk, workers=1")
        ok, detail = call.check(gd, est)
        checks.append((f"rig {shape} {chunk}-sample memory probe", ok, detail))


def span_cost():
    """Seconds one wrapped call costs over a plain call; median of rounds.

    A no-op is called ``SPAN_COST_CALLS`` times plain and as many times
    through a ``Tracer`` wrapper, nested under a run span as the probes are.
    """
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap(noop, "noop")
    costs = []
    with tracer.call("calibration", run_id="calibration"):
        for _ in range(SPAN_COST_ROUNDS):
            t0 = time.perf_counter()
            for _ in range(SPAN_COST_CALLS):
                noop()
            t1 = time.perf_counter()
            for _ in range(SPAN_COST_CALLS):
                wrapped()
            t2 = time.perf_counter()
            tracer.spans.clear()
            costs.append(((t2 - t1) - (t1 - t0)) / SPAN_COST_CALLS)
    return derive.median(costs)


def _overhead_layer(m, tracer, traced_cli_records):
    """Tracing overhead: cost of one span times the spans the run recorded."""
    child = [child_spans(r) for r in traced_cli_records]
    n_spans = len(tracer.spans) + sum(len(c) for c in child)
    roots = [s for s in tracer.spans if s["parent"] is None]
    roots += [s for c in child for s in c if s["parent"] is None]
    traced_s = sum(s["end"] - s["start"] for s in roots)
    cost = span_cost()
    m.add("trace.overhead_s", cost * n_spans, "s",
          f"{cost * 1e6:.3f} us per span (wrapped minus plain no-op, median of "
          f"{SPAN_COST_ROUNDS} x {SPAN_COST_CALLS} calls) x {n_spans} spans")
    m.add("trace.overhead_frac", cost * n_spans / traced_s, "ratio",
          "trace.overhead_s over the summed duration of the top-level spans")


def traced_run(gd, seed, root, scratch, traced_cli):
    """All per-layer metrics, the checks made on the way, and the tracer.

    The probes are the same whatever the workload, so every traced run
    reports every per-layer metric.  ``traced_cli`` is the argv prefix that
    runs one CLI command traced.
    """
    m = Metrics()
    checks = []
    for workload in wl.MC_WORKLOADS:
        wl.mc_warm_up(gd, workload, seed)
    tracer = Tracer()
    tracer.install(gd)
    try:
        _mc_layers(m, gd, tracer, seed, checks)
        _zonoid_edeg_layers(m, gd, tracer)
    finally:
        tracer.uninstall()
    traced_cli_records = wl.cli_pass(root, scratch, runner=traced_cli)
    checks.extend((f"traced cli {r.key}", r.ok, r.detail)
                  for r in traced_cli_records)
    _rig_memory_layer(m, gd, seed, checks)
    _import_layer(m, root, scratch)
    _cli_layer(m, traced_cli_records)
    _overhead_layer(m, tracer, traced_cli_records)
    return m, checks, tracer, traced_cli_records
