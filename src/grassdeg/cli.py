"""Command-line front end: reproducible runs with machine-readable reports."""

import argparse
import csv
import io
import json
import math
import sys
import time

from . import __version__, edeg, incidence, mc, zonoid
from .geomlin import RngStream
from .specfun import LogValue

SCHEMA_VERSION = 1
DEFAULT_SEED = 20250817  # fixed: published numbers must be reproducible


class RunRecord:
    """One reported quantity; serializes to the versioned JSON schema."""

    def __init__(self, quantity, params, value, stderr=0.0, n_samples=0,
                 seed=DEFAULT_SEED, method="closed-form", degenerate_count=0):
        self.quantity = quantity
        self.params = params
        self.log_value = None
        if isinstance(value, LogValue):
            self.value = None
            self.log_value = value.log_magnitude
        else:
            self.value = float(value)
        # one draw has no standard error: null, never a non-JSON Infinity
        self.stderr = float(stderr) if math.isfinite(stderr) else None
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        self.method = method
        self.degenerate_count = int(degenerate_count)
        self.runtime_ms = 0
        self.tool_version = __version__

    @classmethod
    def from_estimate(cls, quantity, params, est):
        return cls(quantity, params, est.value, stderr=est.stderr,
                   n_samples=est.n_samples, seed=est.seed, method=est.method,
                   degenerate_count=est.degenerate_count)

    def to_dict(self):
        out = {
            "version": SCHEMA_VERSION,
            "quantity": self.quantity,
            "params": self.params,
            "value": self.value,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "degenerate_count": self.degenerate_count,
            "seed": self.seed,
            "method": self.method,
            "runtime_ms": self.runtime_ms,
            "tool_version": self.tool_version,
        }
        if self.log_value is not None:
            out["log_value"] = self.log_value
        return out


def _render(records, fmt):
    """The report text; a non-finite number left in a JSON record raises."""
    if fmt == "json":
        dicts = [r.to_dict() for r in records]
        payload = dicts[0] if len(dicts) == 1 else dicts
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    base_cols = ["quantity", "value", "log_value", "stderr", "n_samples",
                 "degenerate_count", "seed", "method", "runtime_ms"]
    param_cols = sorted({k for r in records for k in r.params})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(base_cols + [f"param_{c}" for c in param_cols])
    for r in records:
        row = [getattr(r, c) for c in base_cols]
        row += [r.params.get(c, "") for c in param_cols]
        writer.writerow(row)
    return buf.getvalue()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, metavar="PATH")

    top = argparse.ArgumentParser(
        prog="grassdeg",
        description="expected degree of real Grassmannians: estimates, "
                    "bounds, and cross-checks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edeg", parents=[common],
                       help="expected degree of G(k,n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("zonoid_quadrature", "zonoid_vitale"),
                   default="zonoid_quadrature")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--quad-points", type=int, default=32)

    p = sub.add_parser("edeg-lines", parents=[common],
                       help="edeg G(2, n+1) by radial quadrature")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quad-points", type=int, default=32)

    p = sub.add_parser("alpha", parents=[common],
                       help="average scaling factor alpha(k,m)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)

    p = sub.add_parser("transversals", parents=[common],
                       help="mean count of lines meeting four random lines")
    p.add_argument("--samples", type=int, required=True)

    p = sub.add_parser("rig", parents=[common],
                       help="lines meeting four unions of random lines")
    p.add_argument("--r", required=True, metavar="r1,r2,r3,r4")
    p.add_argument("--samples", type=int, required=True)

    p = sub.add_parser("zonoid-volume", parents=[common],
                       help="volume of the Segre zonoid C(k,m)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method", choices=("quadrature", "vitale"),
                   default="quadrature")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--quad-points", type=int, default=32)

    p = sub.add_parser("profile-build", parents=[common],
                       help="build and cache the k=2 radial profile "
                            "(--out names the profile JSON, report to stdout)")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--differentiation", choices=("analytic", "numeric"),
                   default="analytic")

    p = sub.add_parser("density-check", parents=[common],
                       help="principal-angle density: normalization and fit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=0,
                   help="0 skips the sampling goodness-of-fit")

    p = sub.add_parser("schubert-ratio", parents=[common],
                       help="|Sigma(k,n)| / |G(k,n)|")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mc", action="store_true")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=None,
                   help="window half-width; defaults to eps")
    p.add_argument("--samples", type=int, default=1_000_000)

    p = sub.add_parser("vitale", parents=[common],
                       help="E|det| of a d x d Gaussian matrix vs closed form")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)

    sub.add_parser("laplace-demo", parents=[common],
                   help="Laplace leading term vs quadrature on two problems")

    p = sub.add_parser("bounds", parents=[common],
                       help="upper bound and asymptotic exponents for (k,n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    return top


def _cmd_edeg(args):
    # only the Vitale route draws; a stream would load numpy.random for nothing
    rng = RngStream(args.seed, 0) if args.method == "zonoid_vitale" else None
    result = edeg.edeg_general(
        args.k, args.n, method=args.method, rng=rng, samples=args.samples,
        quad_points=args.quad_points, workers=args.workers,
    )
    params = {"k": args.k, "n": args.n, "method": args.method}
    if args.method == "zonoid_vitale":
        params["samples"] = args.samples
        n_samples = args.samples
    else:
        params["quad_points"] = args.quad_points
        n_samples = 0
    return [RunRecord("edeg", params, result.value,
                      stderr=result.error_estimate, n_samples=n_samples,
                      seed=args.seed, method=result.method)]


def _cmd_edeg_lines(args):
    result = edeg.edeg_lines_quadrature(args.n, quad_points=args.quad_points)
    asym = edeg.log_edeg_lines_asymptotic(args.n)
    return [RunRecord(
        "edeg-lines",
        {"n": args.n, "quad_points": args.quad_points,
         "log_asymptotic": asym},
        result.value, stderr=result.error_estimate,
        seed=args.seed, method=result.method,
    )]


def _cmd_alpha(args):
    est = mc.alpha_mc(args.k, args.m, RngStream(args.seed, 0), args.samples,
                      workers=args.workers)
    return [RunRecord.from_estimate(
        "alpha", {"k": args.k, "m": args.m, "samples": args.samples}, est)]


def _cmd_transversals(args):
    est = incidence.edeg24_transversal_mc(
        RngStream(args.seed, 0), args.samples, workers=args.workers)
    return [RunRecord.from_estimate(
        "edeg24-transversal", {"samples": args.samples}, est)]


def _cmd_rig(args):
    try:
        r = tuple(int(x) for x in args.r.split(","))
    except ValueError:
        raise ValueError(f"--r must be comma-separated integers, got {args.r!r}")
    est = incidence.rig_union_of_lines_mc(
        r, RngStream(args.seed, 0), args.samples, workers=args.workers)
    expected = math.prod(r)
    return [RunRecord.from_estimate(
        "rig-union-of-lines",
        {"r": list(r), "samples": args.samples,
         "count_multiplier": expected}, est)]


def _cmd_zonoid_volume(args):
    params = {"k": args.k, "m": args.m, "method": args.method}
    if args.method == "quadrature":
        if args.k != 2:
            raise ValueError("quadrature volume requires k = 2")
        log_value, log_error = zonoid.vol_C_quadrature_log(
            args.m, zonoid.default_profile(), quad_points=args.quad_points)
        params["quad_points"] = args.quad_points
        if args.k * args.m > edeg._LOG_ONLY_ABOVE:
            # the volume underflows long before km is large; report its log
            value, stderr = log_value, log_error
        else:
            value = log_value.exp()
            stderr = value * log_error
        return [RunRecord("zonoid-volume", params, value, stderr=stderr,
                          seed=args.seed, method="quadrature")]
    est = zonoid.vol_C_vitale_mc(args.k, args.m, RngStream(args.seed, 0),
                                 args.samples, workers=args.workers)
    params["samples"] = args.samples
    return [RunRecord.from_estimate("zonoid-volume", params, est)]


def _cmd_profile_build(args):
    profile = zonoid.build_radial_profile_2(
        args.grid, differentiation=args.differentiation)
    if args.out:
        profile.save(args.out)
    quarter = profile.radius(math.pi / 4.0)
    record = RunRecord(
        "radial-profile",
        {"grid": args.grid, "differentiation": args.differentiation,
         "knots": len(profile.knots), "cache_path": args.out or ""},
        quarter, seed=args.seed, method="gradient-map")
    args.out = None  # --out named the profile cache; the report goes to stdout
    return [record]


def _cmd_density_check(args):
    # the fit runs first: it rejects k = 3, which the slower nested
    # quadrature of the normalization would otherwise integrate in vain
    if args.samples > 0:
        l1 = mc.density_gof(args.k, args.l, args.n, RngStream(args.seed, 1),
                            args.samples, workers=args.workers)
    records = [RunRecord(
        "density-normalization",
        {"k": args.k, "l": args.l, "n": args.n},
        mc.density_normalization(args.k, args.l, args.n),
        seed=args.seed, method="nested-quadrature")]
    if args.samples > 0:
        records.append(RunRecord(
            "density-gof",
            {"k": args.k, "l": args.l, "n": args.n, "samples": args.samples,
             "bins": 30},
            l1, n_samples=args.samples, seed=args.seed, method="binned-l1"))
    return records


def _cmd_schubert_ratio(args):
    exact = mc.schubert_ratio_exact(args.k, args.n)
    if not args.mc:
        return [RunRecord("schubert-ratio", {"k": args.k, "n": args.n},
                          exact, seed=args.seed, method="closed-form")]
    delta = args.eps if args.delta is None else args.delta
    est = mc.schubert_ratio_mc(args.k, args.n, args.eps, delta,
                               RngStream(args.seed, 0), args.samples,
                               workers=args.workers)
    return [RunRecord.from_estimate(
        "schubert-ratio",
        {"k": args.k, "n": args.n, "eps": args.eps, "delta": delta,
         "samples": args.samples, "exact": exact}, est)]


def _cmd_vitale(args):
    est = mc.vitale_check(args.d, RngStream(args.seed, 0), args.samples,
                          workers=args.workers)
    return [RunRecord.from_estimate(
        "vitale-moment",
        {"d": args.d, "samples": args.samples,
         "closed_form": mc.vitale_closed_form(args.d)}, est)]


def _cmd_laplace_demo(args):
    gauss = edeg.LaplaceProblem(a_at_min=0.0, a0=1.0, mu=2.0, b0=1.0, nu=1.0,
                                min_at_right_endpoint=False)
    gauss_rows = edeg.laplace_validate(
        lambda t: t * t, lambda t: 1.0, 0.0, 1.0, gauss, [10.0, 100.0, 1000.0])

    lines = edeg.LaplaceProblem(
        a_at_min=4.0 * math.log(2.0), a0=3.0, mu=2.0, b0=8.0, nu=2.0,
        min_at_right_endpoint=True)
    profile = zonoid.default_profile()

    def a_fn(t):
        c, s = math.cos(t), math.sin(t)
        return -math.log(float(profile.radius(t)) ** 2 * c * s)

    def b_fn(t):
        c, s = math.cos(t), math.sin(t)
        return (c * c - s * s) / (c * s) ** 2

    line_rows = edeg.laplace_validate(
        a_fn, b_fn, 1e-6, math.pi / 4.0, lines, [4.0, 16.0, 64.0])

    records = []
    for name, rows in (("gaussian-endpoint", gauss_rows),
                       ("lines-radial", line_rows)):
        for row in rows:
            records.append(RunRecord(
                "laplace-demo",
                {"problem": name, "lam": row["lam"],
                 "leading": row["leading"]},
                row["integral"], stderr=row["rel_error"],
                seed=args.seed, method="laplace-vs-quadrature"))
    return records


def _cmd_bounds(args):
    k, n = args.k, args.n
    if k * (n - k) > edeg._LOG_ONLY_ABOVE:
        bound = edeg.edeg_upper_bound_log(k, n)
    else:
        bound = edeg.edeg_upper_bound(k, n)
    records = [RunRecord("edeg-upper-bound", {"k": k, "n": n}, bound,
                         seed=args.seed, method="upper_bound")]
    if k >= 2:
        records.append(RunRecord("epsilon-k", {"k": k}, edeg.epsilon_k(k),
                                 seed=args.seed, method="closed-form"))
    records.append(RunRecord("log-edeg-leading", {"k": k, "n": n},
                             edeg.log_edeg_leading(k, n),
                             seed=args.seed, method="asymptotic"))
    return records


_HANDLERS = {
    "edeg": _cmd_edeg,
    "edeg-lines": _cmd_edeg_lines,
    "alpha": _cmd_alpha,
    "transversals": _cmd_transversals,
    "rig": _cmd_rig,
    "zonoid-volume": _cmd_zonoid_volume,
    "profile-build": _cmd_profile_build,
    "density-check": _cmd_density_check,
    "schubert-ratio": _cmd_schubert_ratio,
    "vitale": _cmd_vitale,
    "laplace-demo": _cmd_laplace_demo,
    "bounds": _cmd_bounds,
}


def run(argv):
    """Parse argv, execute one subcommand, emit the report. Returns exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if args.workers < 1:  # also on commands that run no Monte Carlo
            raise ValueError("workers must be >= 1")
        records = _HANDLERS[args.command](args)
        runtime_ms = int(round((time.perf_counter() - started) * 1000.0))
        for record in records:
            record.runtime_ms = runtime_ms
        _emit(_render(records, args.format), args.out)
    except (ValueError, TypeError, RuntimeError, OverflowError,
            ArithmeticError, OSError) as exc:
        print(f"grassdeg: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
