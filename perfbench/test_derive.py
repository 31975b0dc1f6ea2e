"""Tests of the benchmark's own derivations.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import math
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import derive  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


# ------------------------------------------------------------------ tail


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, n = derive.tail(values)
    assert n == 100
    assert value == 90  # 91..100 are the ten beyond it
    assert pct == 90.0
    assert sum(1 for v in values if v > value) == 10


def test_tail_percentile_follows_sample_count():
    value, pct, n = derive.tail([float(i) for i in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)


def test_tail_never_falls_below_the_median():
    # 11..19 samples: the rank with ten beyond sits under the median
    for n in (11, 15, 20):
        xs = [float(i) for i in range(n)]
        value, pct, count = derive.tail(xs)
        assert (value, pct, count) == (derive.median(xs), 50.0, n)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    for n in (1, 5, 10):
        value, pct, count = derive.tail([3.0] + [1.0] * (n - 1))
        assert (value, pct, count) == (3.0, 100.0, n)


def test_tail_ignores_input_order():
    xs = [5.0, 1.0, 9.0, 3.0] * 5
    assert derive.tail(xs) == derive.tail(sorted(xs))


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        derive.tail([])


# ------------------------------------------------------------- self time


def _span(i, parent, start, end, name="x"):
    return {"id": i, "parent": parent, "start": start, "end": end, "name": name,
            "run": 1}


def test_self_time_subtracts_children():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 3.0), _span(3, 1, 5.0, 6.0)]
    assert derive.self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    # two worker threads running children at the same time
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 2.0, 6.0), _span(3, 1, 4.0, 8.0)]
    assert derive.self_times(spans)[1] == pytest.approx(4.0)


def test_self_time_only_direct_children_count():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 0.0, 4.0),
             _span(3, 2, 1.0, 3.0)]
    selfs = derive.self_times(spans)
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(2.0)
    # self times partition the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_clips_children_to_parent():
    spans = [_span(1, None, 0.0, 5.0), _span(2, 1, 4.0, 7.0)]
    assert derive.self_times(spans)[1] == pytest.approx(4.0)


def test_self_time_by_name_sums():
    spans = [_span(1, None, 0.0, 4.0, "a"), _span(2, 1, 0.0, 1.0, "b"),
             _span(3, 1, 2.0, 3.0, "b")]
    assert derive.self_time_by_name(spans) == pytest.approx({"a": 2.0, "b": 2.0})


def test_tracer_spans_nest_and_share_run_id():
    tracer = Tracer()
    with tracer.call("outer", run_id="r1"):
        with tracer.span("inner"):
            time.sleep(0.001)
    inner, outer = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["run"] == outer["run"] == "r1"
    assert derive.self_times(tracer.spans)[outer["id"]] < outer["end"] - outer["start"]


# ------------------------------------------------------- lower quartile


def test_lower_quartile_per_key():
    pairs = [("a", float(i)) for i in range(1, 10)] + [("b", 0.5)]
    assert derive.lower_quartiles(pairs) == {"a": 3.0, "b": 0.5}


def test_lower_quartile_ignores_a_rare_fast_call_and_a_slow_stretch():
    calls = [1.0] * 14 + [0.6] + [1.8] * 5  # one quiet moment, a busy quarter
    assert derive.lower_quartile(calls) == 1.0


def test_lower_quartile_of_nothing_raises():
    with pytest.raises(ValueError):
        derive.lower_quartiles([])


# ------------------------------------------------------------ err_sqrt_s


def test_err_sqrt_s_is_stderr_times_root_seconds():
    assert derive.err_sqrt_s(0.002, 4.0) == pytest.approx(0.004)


def test_err_sqrt_s_rewards_error_and_time_alike():
    # 4x the samples: stderr halves and time quadruples, so the metric holds
    base = derive.err_sqrt_s(0.01, 1.0)
    assert derive.err_sqrt_s(0.005, 4.0) == pytest.approx(base)


@pytest.mark.parametrize("stderr, wall", [(0.1, 0.0), (0.1, -1.0), (-0.1, 1.0),
                                          (math.inf, 1.0), (0.1, math.nan)])
def test_err_sqrt_s_rejects_bad_input(stderr, wall):
    with pytest.raises(ValueError):
        derive.err_sqrt_s(stderr, wall)


# ----------------------------------------------------------- failed_frac


class _Est:
    def __init__(self, value, stderr=0.001, n_samples=wl.TRANSVERSAL.samples):
        self.value = value
        self.stderr = stderr
        self.n_samples = n_samples


def test_failed_frac_counts_an_injected_wrong_value():
    good, _ = wl.TRANSVERSAL.check(None, _Est(wl.EDEG24 + 0.001))
    wrong, detail = wl.TRANSVERSAL.check(None, _Est(wl.EDEG24 + 0.05))
    assert good and not wrong and "edeg24" in detail
    assert derive.failed_frac([good, wrong, good, good]) == (1, 4, 0.25)


def test_acceptance_tolerance_is_rescaled_to_the_call_size():
    # 0.005 at 1e6 samples is 0.01 at a quarter of them
    assert wl.scaled_tol(0.005, 1_000_000, 250_000) == pytest.approx(0.01)
    at_tier = _Est(wl.EDEG24 + 0.009, n_samples=1_000_000)
    at_quarter = _Est(wl.EDEG24 + 0.009, n_samples=250_000)
    assert not wl.TRANSVERSAL.check(None, at_tier)[0]
    assert wl.TRANSVERSAL.check(None, at_quarter)[0]


def test_gof_limit_follows_the_sample_count():
    limit = 0.02 * math.sqrt(1_000_000 / wl.DENSITY_GOF.samples)
    assert wl.DENSITY_GOF.check(None, 0.99 * limit)[0]
    assert not wl.DENSITY_GOF.check(None, 1.01 * limit)[0]


def test_failing_call_is_recorded_not_dropped():
    class Broken:
        class geomlin:
            @staticmethod
            def RngStream(seed, sid):
                return None

    call = wl.McCall("broken", 10, lambda gd, rng, n, w: 1 / 0,
                      wl._edeg24_check(1_000_000))
    rec = wl.run_mc_call(Broken, call, 1, 1, 1)
    assert not rec.ok and "ZeroDivisionError" in rec.detail
    assert derive.failed_frac([rec.ok]) == (1, 1, 1.0)


def test_an_entry_with_no_passing_call_is_still_timed():
    import run

    recs = [wl.CallRecord("a", 0.2, True, ""), wl.CallRecord("a", 0.1, False, ""),
            wl.CallRecord("b", 0.3, False, "")]
    assert [(r.key, r.wall_s) for r in run._timed(recs)] == [("a", 0.2), ("b", 0.3)]


def test_cli_pin_rejects_a_wrong_digit():
    ok, _ = wl.check_cli_record("edeg-2-4", '{"value": 1.726231248998883}')
    bad, _ = wl.check_cli_record("edeg-2-4", '{"value": 1.726231258998883}')
    assert ok and not bad


def test_failed_frac_of_clean_run_is_zero():
    assert derive.failed_frac([True] * 7) == (0, 7, 0.0)


# ------------------------------------------------------------- plumbing


def test_quartile_spread():
    assert derive.quartile_spread([1.0] * 10) == 0.0
    assert derive.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) > 0.0


def test_parse_importtime_reads_cumulative_column():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |   scipy.special\n"
            "import time:       300 |       9000 | grassdeg\n")
    assert layers.parse_importtime(text) == {"scipy.special": 0.00012,
                                             "grassdeg": 0.009}


def test_run_passes_times_every_pass():
    def one_pass(index):
        time.sleep(0.01)
        return [index, index]

    records, walls, refs = wl.run_passes(one_pass, 0.05, lambda: 1.0)
    assert 1 <= len(walls) <= 5 and len(records) == 2 * len(walls)
    assert all(w >= 0.01 for w in walls)
    assert refs == [1.0]  # the reference runs before pass 0, then every REFERENCE_EVERY_S


def test_span_cost_is_positive_and_small():
    assert 0.0 < layers.span_cost() < 1e-3


def test_stream_ids_are_distinct_per_pass_and_call():
    ids = {wl.stream_id(p, c) for p in range(50) for c in range(5)}
    assert len(ids) == 250


# ---------------------------------------------------------- the tracer


def _grassdeg():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import grassdeg
    import grassdeg.cli  # noqa: F401

    return grassdeg


def test_tracer_wraps_rebound_names_and_restores_them():
    gd = _grassdeg()
    original = gd.edeg.vol_C_quadrature_log
    tracer = Tracer()
    tracer.install(gd)
    try:
        # one wrapper, bound under the defining and the importing module
        assert gd.edeg.vol_C_quadrature_log is gd.zonoid.vol_C_quadrature_log
        assert gd.edeg.vol_C_quadrature_log is not original
        with tracer.call("probe", run_id="r"):
            gd.edeg.edeg_general(2, 4)
    finally:
        tracer.uninstall()
    assert gd.edeg.vol_C_quadrature_log is original
    root = tracer.named("probe")[0]
    below = {s["name"] for s in tracer.descendants(root["id"])}
    assert {"edeg.edeg_general", "zonoid.vol_C_quadrature_log",
            "_quad.composite_gl_log"} <= below
    assert all(s["run"] == "r" for s in tracer.spans)


def test_worker_thread_spans_stay_under_the_call():
    gd = _grassdeg()
    tracer = Tracer()
    tracer.install(gd)
    try:
        with tracer.call("probe", run_id="w"):
            gd.mc.vitale_check(2, gd.geomlin.RngStream(5, 0), 3 * gd.mc.CHUNK,
                               workers=2)
    finally:
        tracer.uninstall()
    root = tracer.named("probe")[0]
    chunks = [s for s in tracer.descendants(root["id"])
              if s["name"] == "geomlin.RngStream.substream"]
    assert len(chunks) == 3
