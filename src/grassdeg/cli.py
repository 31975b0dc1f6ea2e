"""Command-line front end: reproducible runs with machine-readable reports."""

import argparse
import io
import json
import math
import sys
import time

from . import __version__, edeg, zonoid
from .estimate import Estimate
from .specfun import LogValue

SCHEMA_VERSION = 1
DEFAULT_SEED = 20250817  # fixed: published numbers must be reproducible


def _exact(value, method, stderr=0.0, n_samples=0):
    """An Estimate of a value that no random stream produced.

    ``stderr=None`` marks a number with no error estimate; it is reported
    as null.
    """
    return Estimate(value, stderr, n_samples, seed=0, method=method)


def _render(records, fmt, shared):
    """The report text of (quantity, params, Estimate) records.

    ``shared`` holds the fields every record of the run carries: the seed
    as given, runtime_ms, version and tool_version.  A stderr of None (no
    error estimate) or a non-finite one (one draw has no standard error) is
    reported as null, never as a non-JSON Infinity, and any other
    non-finite number in a JSON record raises.
    """
    rows = []
    for quantity, params, est in records:
        on_log = isinstance(est.value, LogValue)
        row = dict(
            shared,
            quantity=quantity,
            params=params,
            value=None if on_log else float(est.value),
            stderr=(float(est.stderr) if est.stderr is not None
                    and math.isfinite(est.stderr) else None),
            n_samples=int(est.n_samples),
            degenerate_count=int(est.degenerate_count),
            method=est.method,
        )
        if on_log:
            row["log_value"] = est.value.log_magnitude
        rows.append(row)
    if fmt == "json":
        payload = rows[0] if len(rows) == 1 else rows
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    import csv

    base_cols = ["quantity", "value", "log_value", "stderr", "n_samples",
                 "degenerate_count", "seed", "method", "runtime_ms"]
    param_cols = sorted({k for row in rows for k in row["params"]})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(base_cols + [f"param_{c}" for c in param_cols])
    for row in rows:
        writer.writerow([row.get(c) for c in base_cols]
                        + [row["params"].get(c, "") for c in param_cols])
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
    p.add_argument("--eps", type=float, default=None,
                   help="window half-width; defaults to min(0.01, 0.02/sqrt(n))")
    p.add_argument("--delta", type=float, default=None,
                   help="window half-width; defaults to eps")
    p.add_argument("--samples", type=int, default=1_000_000)

    p = sub.add_parser("vitale", parents=[common],
                       help="E|det| of a d x d Gaussian matrix vs closed form")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)

    sub.add_parser("laplace-demo", parents=[common],
                   help="edeg G(2,n+1) by quadrature vs the paper's leading term")

    p = sub.add_parser("bounds", parents=[common],
                       help="upper bound and asymptotic exponents for (k,n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    return top


def _cmd_edeg(args):
    # only the Vitale route draws; a stream would load numpy.random for nothing
    rng = None
    if args.method == "zonoid_vitale":
        from .geomlin import RngStream

        rng = RngStream(args.seed, 0)
    est = edeg.edeg_general(
        args.k, args.n, method=args.method, rng=rng, samples=args.samples,
        quad_points=args.quad_points, workers=args.workers,
    )
    params = {"k": args.k, "n": args.n, "method": args.method}
    if args.method == "zonoid_vitale":
        params["samples"] = args.samples
    else:
        params["quad_points"] = args.quad_points
    return [("edeg", params, est)]


def _cmd_edeg_lines(args):
    est = edeg.edeg_lines_quadrature(args.n, quad_points=args.quad_points)
    asym = edeg.log_edeg_lines_asymptotic(args.n)
    return [("edeg-lines",
             {"n": args.n, "quad_points": args.quad_points,
              "log_asymptotic": asym}, est)]


def _cmd_alpha(args):
    from . import mc
    from .geomlin import RngStream

    est = mc.alpha_mc(args.k, args.m, RngStream(args.seed, 0), args.samples,
                      workers=args.workers)
    return [("alpha", {"k": args.k, "m": args.m, "samples": args.samples},
             est)]


def _cmd_transversals(args):
    from . import incidence
    from .geomlin import RngStream

    est = incidence.edeg24_transversal_mc(
        RngStream(args.seed, 0), args.samples, workers=args.workers)
    return [("edeg24-transversal", {"samples": args.samples}, est)]


def _cmd_rig(args):
    from . import incidence
    from .geomlin import RngStream

    try:
        r = tuple(int(x) for x in args.r.split(","))
    except ValueError:
        raise ValueError(f"--r must be comma-separated integers, got {args.r!r}")
    est = incidence.rig_union_of_lines_mc(
        r, RngStream(args.seed, 0), args.samples, workers=args.workers)
    expected = math.prod(r)
    return [("rig-union-of-lines",
             {"r": list(r), "samples": args.samples,
              "count_multiplier": expected}, est)]


def _cmd_zonoid_volume(args):
    params = {"k": args.k, "m": args.m, "method": args.method}
    if args.method == "quadrature":
        if args.k != 2:
            raise ValueError("quadrature volume requires k = 2")
        volume = zonoid.vol_C_quadrature_log(
            args.m, zonoid.default_profile(), quad_points=args.quad_points)
        params["quad_points"] = args.quad_points
        # the volume underflows long before km is large; report its log
        return [("zonoid-volume", params,
                 edeg._on_scale(volume, args.k * args.m))]
    from .geomlin import RngStream

    est = zonoid.vol_C_vitale_mc(args.k, args.m, RngStream(args.seed, 0),
                                 args.samples, workers=args.workers)
    params["samples"] = args.samples
    return [("zonoid-volume", params, est)]


def _cmd_density_check(args):
    from . import mc
    from .geomlin import RngStream

    dims = {"k": args.k, "l": args.l, "n": args.n}
    records = [("density-normalization", dims,
                mc.density_normalization(args.k, args.l, args.n))]
    if args.samples > 0:
        l1 = mc.density_gof(args.k, args.l, args.n, RngStream(args.seed, 1),
                            args.samples, workers=args.workers)
        records.append(("density-gof",
                        dict(dims, samples=args.samples, bins=mc._GOF_BINS),
                        _exact(l1, "binned-l1", stderr=None,
                               n_samples=args.samples)))
    return records


def _schubert_window(args):
    """(eps, delta) of the tube window, as given or by default.

    The window's estimate is biased by about n eps^2 / 2 relative, so the
    default eps = min(0.01, 0.02 / sqrt(n)) keeps that near 2e-4 at any n;
    delta defaults to eps.
    """
    eps = args.eps
    if eps is None:
        eps = min(0.01, 0.02 / math.sqrt(max(args.n, 1)))
    return eps, eps if args.delta is None else args.delta


def _cmd_schubert_ratio(args):
    from . import mc
    from .geomlin import RngStream

    exact = mc.schubert_ratio_exact(args.k, args.n)
    if not args.mc:
        return [("schubert-ratio", {"k": args.k, "n": args.n},
                 _exact(exact, "closed-form"))]
    eps, delta = _schubert_window(args)
    est = mc.schubert_ratio_mc(args.k, args.n, eps, delta,
                               RngStream(args.seed, 0), args.samples,
                               workers=args.workers)
    return [("schubert-ratio",
             {"k": args.k, "n": args.n, "eps": eps, "delta": delta,
              "samples": args.samples, "exact": exact}, est)]


def _cmd_vitale(args):
    from . import mc
    from .geomlin import RngStream

    est = mc.vitale_check(args.d, RngStream(args.seed, 0), args.samples,
                          workers=args.workers)
    return [("vitale-moment",
             {"d": args.d, "samples": args.samples,
              "closed_form": mc.vitale_closed_form(args.d)}, est)]


def _cmd_laplace_demo(args):
    # the radial quadrature of edeg G(2, n+1), with its own error as stderr,
    # against the paper's leading term; n log(1 + rel_gap) tends to 17/24
    records = []
    for n in (4, 16, 64, 256, 4096):
        est = edeg.edeg_lines_quadrature(n)
        log_quad = (est.value.log_magnitude if isinstance(est.value, LogValue)
                    else math.log(est.value))
        log_leading = edeg.log_edeg_lines_asymptotic(n)
        records.append(("laplace-demo",
                         {"n": n, "log_leading": log_leading,
                          "rel_gap": math.expm1(log_quad - log_leading)}, est))
    return records


def _cmd_bounds(args):
    k, n = args.k, args.n
    bound = _exact(edeg.edeg_upper_bound_log(k, n), "upper_bound")
    records = [("edeg-upper-bound", {"k": k, "n": n},
                edeg._on_scale(bound, k * (n - k)))]
    if k >= 2:
        records.append(("epsilon-k", {"k": k},
                        _exact(edeg.epsilon_k(k), "closed-form")))
    records.append(("log-edeg-leading", {"k": k, "n": n},
                    _exact(edeg.log_edeg_leading(k, n), "asymptotic")))
    return records


_HANDLERS = {
    "edeg": _cmd_edeg,
    "edeg-lines": _cmd_edeg_lines,
    "alpha": _cmd_alpha,
    "transversals": _cmd_transversals,
    "rig": _cmd_rig,
    "zonoid-volume": _cmd_zonoid_volume,
    "density-check": _cmd_density_check,
    "schubert-ratio": _cmd_schubert_ratio,
    "vitale": _cmd_vitale,
    "laplace-demo": _cmd_laplace_demo,
    "bounds": _cmd_bounds,
}


def _check_mc_options(args):
    """Refuse bad Monte Carlo options whether or not the method draws."""
    samples = getattr(args, "samples", None)
    if args.command == "density-check":
        if samples < 0:
            raise ValueError("samples must be >= 0 (0 skips the fit)")
    elif samples is not None and samples < 1:
        raise ValueError("samples must be >= 1")
    if args.command == "schubert-ratio":
        from . import mc

        mc._check_schubert_window(*_schubert_window(args))


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
        if not 0 <= args.seed < 2**64:  # streams key on 64 bits
            raise ValueError("seed must be in [0, 2^64)")
        _check_mc_options(args)
        records = _HANDLERS[args.command](args)
        shared = {
            "seed": args.seed,
            "runtime_ms": int(round((time.perf_counter() - started) * 1000.0)),
            "version": SCHEMA_VERSION,
            "tool_version": __version__,
        }
        _emit(_render(records, args.format, shared), args.out)
    except (ValueError, TypeError, RuntimeError, OverflowError,
            ArithmeticError, OSError, MemoryError) as exc:
        print(f"grassdeg: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
