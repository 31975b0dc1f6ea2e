"""The benchmark's workloads, the calls they make and the checks on each result.

Every workload is a closed loop with one client: calls run one after another
from a single process.  Monte Carlo calls use ``WORKERS`` = 2 threads, the
core count of the machine the baseline was taken on.  A pass is one call of
each of the workload's entries, in order (on cli-quad, one invocation); a run
repeats whole passes.

Monte Carlo calls are sized to take 0.1-0.5 s on that machine, so a run holds
dozens of calls of each entry and their lower quartile is a steady figure
(see derive.lower_quartiles).  The checks are the acceptance tier's,
rescaled to those sizes.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

EDEG24 = 1.726231248998883  # edeg G(2,4), pinned by the tier-1 quadrature tests
WORKERS = 2
CHILD_TIMEOUT_S = 60.0  # a cold invocation takes about one second
WARM_UP_SAMPLES = 1024
# The host's speed is sampled by a fixed task that does not run grassdeg: a
# cold Python process importing numpy.  REFERENCE_S is its lower quartile on
# the baseline machine; timings are rescaled to that speed (see run.py).
REFERENCE_ARGV = ("-c", "import numpy")
REFERENCE_S = 0.12
REFERENCE_EVERY_S = 0.5
Z_TOL = 5.0  # standard errors a check on a Monte Carlo estimate allows

# Cold CLI invocations of cli-quad: (key, argv).
CLI_COMMANDS = (
    ("edeg-2-4", ("edeg", "--k", "2", "--n", "4")),
    ("edeg-2-40", ("edeg", "--k", "2", "--n", "40")),
    ("edeg-lines-17", ("edeg-lines", "--n", "17")),
    ("zonoid-volume-2-2", ("zonoid-volume", "--k", "2", "--m", "2")),
    ("bounds-2-40", ("bounds", "--k", "2", "--n", "40")),
)

# Pins at the tier-1 tolerances.  The two log values were recorded at the
# commit that introduced the benchmark; each agrees with the other radial
# route (edeg_general(2, n+1) vs edeg_lines_quadrature(n)) to 1e-13.
PIN_EDEG24_REL = 1e-9
PIN_ZONOID_VOLUME = 0.05830126446298619
PIN_ZONOID_VOLUME_REL = 1e-8
PIN_LOG_EDEG_LINES_17 = 12.098879305675737
PIN_LOG_EDEG_2_40 = 31.52902841641921
PIN_LOG_REL = 1e-9
PIN_EPSILON_2 = 1.3029922589446408
PIN_EPSILON_REL = 1e-10


# ---------------------------------------------------------------------------
# Monte Carlo calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McCall:
    """One Monte Carlo estimator call and how to judge its result."""

    key: str
    samples: int
    run: object  # (grassdeg, rng, samples, workers) -> Estimate or float
    check: object  # (grassdeg, result) -> (ok, detail)
    counts_per_sample: int = 0  # four-line transversal counts per sample
    r: tuple = ()  # union sizes of a rig call


def _within(value, ref, tol, what):
    gap = abs(value - ref)
    return gap <= tol, f"{what} {value:.6g} vs {ref:.6g} (|gap| {gap:.3g} <= {tol:.3g})"


def scaled_tol(tol, ref_samples, samples):
    """A tolerance set for ``ref_samples`` samples, rescaled to ``samples``.

    Monte Carlo error shrinks as 1/sqrt(samples), so the rescaled tolerance
    is as many standard errors wide as the original one was.
    """
    return tol * math.sqrt(ref_samples / samples)


def _edeg24_check(ref_samples):
    # acceptance criterion 1: 1.7262 +- 0.005 at the tier's sample count
    def check(gd, est):
        return _within(est.value, EDEG24, scaled_tol(0.005, ref_samples, est.n_samples),
                       "edeg24")
    return check


def _rig_call(r, samples):
    prod = math.prod(r)

    def run(gd, rng, n, workers):
        return gd.incidence.rig_union_of_lines_mc(r, rng, n, workers=workers)

    def check(gd, est):
        return _within(est.value, prod * EDEG24, Z_TOL * est.stderr, f"rig{r}")

    return McCall("rig-" + "".join(str(x) for x in r), samples, run, check,
                  counts_per_sample=prod, r=r)


def _schubert_check(gd, est):
    # acceptance criterion 3: relative error below 0.05 at 1e6 samples
    ref = math.pi / 4.0
    return _within(est.value, ref, scaled_tol(0.05, 1_000_000, est.n_samples) * ref,
                   "schubert(2,4)")


def _vitale_check(gd, est):
    return _within(est.value, gd.mc.vitale_closed_form(3), Z_TOL * est.stderr,
                   "vitale(3)")


def _vitale_volume_check(gd, est):
    ref = gd.zonoid.vol_C_quadrature(2, gd.zonoid.default_profile())
    return _within(est.value, ref, Z_TOL * est.stderr, "vol_C(2,2)")


def _gof_check(samples):
    # acceptance criterion 4: L1 distance below 0.02 at 1e6 samples; the
    # sampling part of the L1 distance shrinks as 1/sqrt(samples) too
    limit = scaled_tol(0.02, 1_000_000, samples)

    def check(gd, l1):
        return l1 < limit, f"gof L1 {l1:.6g} < {limit:.6g}"
    return check


TRANSVERSAL = McCall(
    "transversal", 32_768,
    lambda gd, rng, n, w: gd.incidence.edeg24_transversal_mc(rng, n, workers=w),
    _edeg24_check(1_000_000), counts_per_sample=1)
RIG_2211 = _rig_call((2, 2, 1, 1), 32_768)
RIG_16411 = _rig_call((16, 4, 1, 1), 512)
TORUS = McCall(
    "torus", 262_144,
    lambda gd, rng, n, w: gd.mc.edeg24_integral(mode="mc", rng=rng, samples=n,
                                                workers=w),
    _edeg24_check(2_000_000))
SCHUBERT = McCall(
    "schubert", 131_072,
    lambda gd, rng, n, w: gd.mc.schubert_ratio_mc(2, 4, 0.01, 0.01, rng, n,
                                                  workers=w),
    _schubert_check)
VITALE = McCall(
    "vitale", 131_072,
    lambda gd, rng, n, w: gd.mc.vitale_check(3, rng, n, workers=w),
    _vitale_check)
VITALE_VOLUME = McCall(
    "vitale-volume", 131_072,
    lambda gd, rng, n, w: gd.zonoid.vol_C_vitale_mc(2, 2, rng, n, workers=w),
    _vitale_volume_check)
DENSITY_GOF = McCall(
    "density-gof", 65_536,
    lambda gd, rng, n, w: gd.mc.density_gof(2, 2, 4, rng, n, workers=w),
    _gof_check(65_536))

MC_WORKLOADS = {
    "lines-mc": (TRANSVERSAL,),
    "rig-mc": (RIG_2211, RIG_16411),
    "integral-mc": (TORUS, SCHUBERT, VITALE, VITALE_VOLUME, DENSITY_GOF),
}
# the estimate behind err_sqrt_s on each Monte Carlo workload
HEADLINE = {"lines-mc": "transversal", "rig-mc": "rig-2211", "integral-mc": "torus"}
ALL_MC = tuple(c for calls in MC_WORKLOADS.values() for c in calls)
WORKLOAD_NAMES = ("cli-quad",) + tuple(MC_WORKLOADS)


def stream_id(pass_index, call_index):
    """RngStream id of one call: distinct for every (pass, call) of a run."""
    return 1 + call_index + 64 * pass_index


@dataclass
class CallRecord:
    key: str
    wall_s: float
    ok: bool
    detail: str
    samples: int = 0
    result: object = None
    extra: dict = field(default_factory=dict)


def run_mc_call(gd, call, seed, sid, workers):
    """Time one estimator call and check its result; never raises."""
    rng = gd.geomlin.RngStream(seed, sid)
    t0 = time.perf_counter()
    try:
        result = call.run(gd, rng, call.samples, workers)
    except Exception as exc:  # a failing call is counted, never dropped
        return CallRecord(call.key, time.perf_counter() - t0, False,
                          f"{type(exc).__name__}: {exc}", call.samples)
    wall = time.perf_counter() - t0
    try:
        ok, detail = call.check(gd, result)
    except Exception as exc:
        ok, detail = False, f"check raised {type(exc).__name__}: {exc}"
    return CallRecord(call.key, wall, bool(ok), detail, call.samples, result)


def run_passes(one_pass, seconds, reference):
    """Repeat ``one_pass``; start another only if it should end in time.

    At least one pass runs.  ``one_pass(index)`` returns a list of records.
    Before a pass, ``reference()`` runs and returns its wall time if
    ``REFERENCE_EVERY_S`` have gone by since it last ran, so the reference
    samples the host's speed all through the run.  Returns all records, the
    wall time of each pass and those of the reference.
    """
    records = []
    pass_walls = []
    ref_walls = []
    start = time.perf_counter()
    last_ref = -math.inf
    index = 0
    while True:
        if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            last_ref = time.perf_counter()
            ref_walls.append(reference())
        t0 = time.perf_counter()
        records.extend(one_pass(index))
        index += 1
        took = time.perf_counter() - t0
        pass_walls.append(took)
        if time.perf_counter() - start + took > seconds:
            return records, pass_walls, ref_walls


def mc_warm_up(gd, workload, seed):
    """One small untimed call of each estimator before timing begins.

    Results are not counted; a defect that makes them fail is recorded by the
    timed calls, which make the same calls at full size.
    """
    for call in MC_WORKLOADS[workload]:
        try:
            call.run(gd, gd.geomlin.RngStream(seed, 0), WARM_UP_SAMPLES, WORKERS)
        except Exception:  # noqa: BLE001 - see docstring
            pass


def mc_pass(gd, workload, seed, index):
    return [run_mc_call(gd, call, seed, stream_id(index, c), WORKERS)
            for c, call in enumerate(MC_WORKLOADS[workload])]


# ---------------------------------------------------------------------------
# cold child processes
# ---------------------------------------------------------------------------


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root, scratch_dir):
    """Run a child to completion; return (wall_s, exit code, stdout, stderr, peak RSS MB).

    The child is reaped with wait4, so its own peak RSS is known without
    mixing in other children.  A watchdog kills a child that hangs.
    """
    with tempfile.TemporaryFile(dir=scratch_dir) as err_file:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root),
                                stdout=subprocess.PIPE, stderr=err_file)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return (wall, proc.returncode, out.decode("utf-8", "replace"),
            err.decode("utf-8", "replace"), usage.ru_maxrss / 1024.0)


SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import grassdeg\n"
    "from grassdeg import zonoid\n"
    "zonoid.default_profile()\n"
    "print(repr(time.perf_counter() - t))\n"
)


def measure_setup(root, scratch_dir, repeats):
    """Seconds for import grassdeg + default_profile() in fresh processes.

    Each set-up child is followed by one run of the reference task, so the
    host's speed is sampled while set-up is measured.  Returns the set-up
    times and the reference times.
    """
    times = []
    refs = []
    for _ in range(repeats):
        _, code, out, err, _ = run_child([sys.executable, "-c", SETUP_SNIPPET],
                                         root, scratch_dir)
        if code != 0:
            raise RuntimeError(f"set-up child failed with exit {code}: {err.strip()}")
        times.append(float(out.strip()))
        refs.append(run_reference(root, scratch_dir))
    return times, refs


def run_reference(root, scratch_dir):
    """Wall seconds of one run of the reference task."""
    wall, code, _, err, _ = run_child([sys.executable, *REFERENCE_ARGV], root,
                                      scratch_dir)
    if code != 0:
        raise RuntimeError(f"reference child failed with exit {code}: {err.strip()}")
    return wall


def check_cli_record(key, payload):
    """Judge one CLI record against the tier-1 pins; returns (ok, detail)."""
    recs = json.loads(payload)
    if key == "edeg-2-4":
        v = recs["value"]
        ok = math.isclose(v, EDEG24, rel_tol=PIN_EDEG24_REL)
        return ok, f"edeg(2,4) {v!r} (rel {PIN_EDEG24_REL})"
    if key == "edeg-2-40":
        v = recs["log_value"]
        ok = recs["value"] is None and math.isclose(v, PIN_LOG_EDEG_2_40,
                                                    rel_tol=PIN_LOG_REL)
        return ok, f"log edeg(2,40) {v!r} (rel {PIN_LOG_REL})"
    if key == "edeg-lines-17":
        v = recs["log_value"]
        ok = recs["value"] is None and math.isclose(v, PIN_LOG_EDEG_LINES_17,
                                                    rel_tol=PIN_LOG_REL)
        return ok, f"log edeg-lines(17) {v!r} (rel {PIN_LOG_REL})"
    if key == "zonoid-volume-2-2":
        v = recs["value"]
        ok = math.isclose(v, PIN_ZONOID_VOLUME, rel_tol=PIN_ZONOID_VOLUME_REL)
        return ok, f"vol_C(2,2) {v!r} (rel {PIN_ZONOID_VOLUME_REL})"
    if key == "bounds-2-40":
        by_q = {r["quantity"]: r for r in recs}
        eps = by_q["epsilon-k"]["value"]
        bound = by_q["edeg-upper-bound"]["log_value"]
        ok = (math.isclose(eps, PIN_EPSILON_2, rel_tol=PIN_EPSILON_REL)
              and bound >= PIN_LOG_EDEG_2_40)
        return ok, f"epsilon_2 {eps!r}; log bound {bound!r} >= log edeg(2,40)"
    raise KeyError(key)


def run_cli_call(key, argv, root, scratch_dir, runner=None):
    """One cold invocation of the grassdeg CLI, checked; never raises."""
    prefix = runner or [sys.executable, "-m", "grassdeg.cli"]
    try:
        wall, code, out, err, rss = run_child(list(prefix) + list(argv), root,
                                              scratch_dir)
    except OSError as exc:
        return CallRecord(key, 0.0, False, f"could not start: {exc}")
    rec = CallRecord(key, wall, False, "", 1, extra={"rss_mb": rss, "stderr": err})
    if code != 0:
        rec.detail = f"exit {code}: {err.strip()[-300:]}"
        return rec
    try:
        rec.ok, rec.detail = check_cli_record(key, out)
        first = json.loads(out)
        first = first[0] if isinstance(first, list) else first
        rec.extra["runtime_ms"] = first["runtime_ms"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        rec.ok, rec.detail = False, f"bad record: {type(exc).__name__}: {exc}"
    return rec


def cli_pass(root, scratch_dir, runner):
    """All five commands once, in order, each run through ``runner``."""
    return [run_cli_call(key, argv, root, scratch_dir, runner)
            for key, argv in CLI_COMMANDS]


def cli_cycle(root, scratch_dir, index):
    """Pass ``index`` of cli-quad: one cold invocation, cycling through the
    five commands.

    The commands cost about the same (start-up dominates), so a pass of one
    invocation gives a run of 20 s about 19 timed passes, against 3 or 4
    passes of all five commands.
    """
    key, argv = CLI_COMMANDS[index % len(CLI_COMMANDS)]
    return [run_cli_call(key, argv, root, scratch_dir)]
