"""Pure derivations behind the benchmark's reported numbers.

Nothing here imports grassdeg or numpy, so the rules that turn raw timings,
estimates and spans into metrics can be tested on their own.
"""

import math
import statistics

TAIL_BEYOND = 10  # a tail percentile must have at least this many samples above it


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def tail(values):
    """Highest percentile that still has ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, count)``.  Sorted ascending, the sample at
    0-based rank ``n - TAIL_BEYOND - 1`` has exactly ``TAIL_BEYOND`` samples
    after it, so it sits at percentile ``100 (n - TAIL_BEYOND) / n``.  Up to
    ``2 TAIL_BEYOND`` samples that percentile is not above the median, which
    is no tail, so the median is returned as percentile 50.  With
    ``TAIL_BEYOND`` samples or fewer no percentile qualifies; the slowest
    sample is returned as percentile 100.
    """
    beyond = TAIL_BEYOND
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no values")
    if n <= beyond:
        return xs[-1], 100.0, n
    pct = 100.0 * (n - beyond) / n
    if pct <= 50.0:
        return statistics.median(xs), 50.0, n
    return xs[n - beyond - 1], pct, n


def lower_quartile(values):
    """First quartile, as ``statistics.quantiles(n=4, method="inclusive")``.

    One value is its own quartile.
    """
    values = list(values)
    if not values:
        raise ValueError("quartile of no values")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def lower_quartiles(pairs):
    """{key: lower quartile of its walls} over ``(key, wall)`` pairs.

    On a shared host other tenants slow calls down, in stretches from a
    second to minutes, and now and then a call lands in a quiet moment well
    below the rest.  The lower quartile of many short calls moves with
    neither: the rare quiet calls that make the fastest call jumpy, nor slow
    stretches that fill less than three quarters of a run, which move a
    median or a mean.
    """
    walls = {}
    for key, wall in pairs:
        walls.setdefault(key, []).append(wall)
    if not walls:
        raise ValueError("quartile of no calls")
    return {key: lower_quartile(ws) for key, ws in walls.items()}


def err_sqrt_s(stderr, wall_s):
    """Error per unit of cost: stderr times the square root of the wall time.

    Halving the error at fixed time and quartering the time at fixed error
    improve it by the same factor, which is what a Monte Carlo user pays.
    """
    if wall_s <= 0.0 or not math.isfinite(wall_s):
        raise ValueError("wall time must be positive and finite")
    if stderr < 0.0 or not math.isfinite(stderr):
        raise ValueError("stderr must be nonnegative and finite")
    return stderr * math.sqrt(wall_s)


def failed_frac(outcomes):
    """(failed, attempted, fraction) over a list of booleans (True = passed)."""
    outcomes = list(outcomes)
    attempted = len(outcomes)
    failed = sum(1 for ok in outcomes if not ok)
    return failed, attempted, (failed / attempted if attempted else 0.0)


def quartile_spread(values):
    """(q3 - q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` are dicts with ``id``, ``parent``, ``start`` and ``end``.
    Children that run in parallel threads may overlap each other; the union of
    their intervals is subtracted once, so self time never goes negative.
    Returns {span id: self seconds}.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        out[s["id"]] = (s["end"] - s["start"]) - _covered(kids, s["start"], s["end"])
    return out


def self_time_by_name(spans):
    """Sum of self times grouped by span name."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + selfs[s["id"]]
    return out
