import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from grassdeg import mc
from grassdeg.cli import _HANDLERS, DEFAULT_SEED, SCHEMA_VERSION, run
from grassdeg.mc import Estimate
from grassdeg.zonoid import default_profile, vol_C_quadrature_log

from conftest import EDEG24

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCHEMA_KEYS = {
    "version",
    "quantity",
    "params",
    "value",
    "stderr",
    "n_samples",
    "degenerate_count",
    "seed",
    "method",
    "runtime_ms",
    "tool_version",
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=reject_constant)


def check_record(rec):
    assert SCHEMA_KEYS <= set(rec)
    assert rec["version"] == SCHEMA_VERSION
    assert isinstance(rec["params"], dict)
    assert rec["runtime_ms"] >= 0


def test_edeg_quadrature_record(capsys):
    rec = invoke_json(capsys, "edeg", "--k", "2", "--n", "4")
    check_record(rec)
    assert rec["quantity"] == "edeg"
    assert rec["seed"] == DEFAULT_SEED
    assert math.isclose(rec["value"], EDEG24, rel_tol=1e-13)
    assert rec["method"] == "quadrature"


def test_edeg_lines_log_scale_record(capsys):
    rec = invoke_json(capsys, "edeg-lines", "--n", "17")
    check_record(rec)
    assert rec["value"] is None
    assert rec["log_value"] > 0.0
    assert "log_asymptotic" in rec["params"]


def test_alpha_record_and_determinism(capsys):
    a = invoke_json(capsys, "alpha", "--k", "2", "--m", "2", "--samples", "20000")
    b = invoke_json(capsys, "alpha", "--k", "2", "--m", "2", "--samples", "20000",
                    "--workers", "8")
    check_record(a)
    for rec in (a, b):
        rec.pop("runtime_ms")
    assert a == b


def test_seed_changes_the_estimate(capsys):
    a = invoke_json(capsys, "transversals", "--samples", "20000")
    b = invoke_json(capsys, "transversals", "--samples", "20000", "--seed", "1")
    assert a["seed"] == DEFAULT_SEED
    assert b["seed"] == 1
    assert a["value"] != b["value"]


def test_seed_outside_64_bits_exit_1(capsys):
    for command in (("transversals", "--samples", "10"), ("bounds", "--k", "2", "--n", "4")):
        for seed in ("-1", str(2**64)):
            code, out, err = invoke(capsys, *command, "--seed", seed)
            assert code == 1
            assert out == ""
            assert err.startswith("grassdeg: ") and "seed" in err
        payload = invoke_json(capsys, *command, "--seed", str(2**64 - 1))
        for rec in payload if isinstance(payload, list) else [payload]:
            assert rec["seed"] == 2**64 - 1


def test_edeg_vitale_reports_degenerate_draws(capsys, monkeypatch):
    import grassdeg.edeg

    def fake_vitale(k, m, rng, samples, workers=1):
        return Estimate(value=0.1, stderr=0.01, n_samples=samples,
                        seed=rng.seed, method="vitale-volume-mc",
                        degenerate_count=3)

    monkeypatch.setattr(grassdeg.edeg, "vol_C_vitale_mc", fake_vitale)
    rec = invoke_json(capsys, "edeg", "--k", "2", "--n", "4", "--method",
                      "zonoid_vitale", "--samples", "100")
    assert rec["degenerate_count"] == 3
    assert rec["n_samples"] == 100 and rec["method"] == "zonoid_mc"


def test_rig_multiplier_in_params(capsys):
    rec = invoke_json(capsys, "rig", "--r", "2,1,1,1", "--samples", "5000")
    check_record(rec)
    assert rec["params"]["count_multiplier"] == 2
    assert rec["params"]["r"] == [2, 1, 1, 1]


def test_zonoid_volume_quadrature(capsys):
    rec = invoke_json(capsys, "zonoid-volume", "--k", "2", "--m", "2")
    check_record(rec)
    assert math.isclose(rec["value"], 0.05830126446038604, rel_tol=1e-13)
    # the panel-doubling error, absolute on the direct value
    assert 0.0 < rec["stderr"] < 1e-8 * rec["value"]


def test_zonoid_volume_switches_to_log_for_large_km(capsys):
    rec = invoke_json(capsys, "zonoid-volume", "--k", "2", "--m", "200")
    check_record(rec)
    volume = vol_C_quadrature_log(200, default_profile())
    assert rec["value"] is None
    assert rec["log_value"] == volume.value.log_magnitude < -1000.0
    assert rec["stderr"] == volume.stderr > 0.0


def test_zonoid_volume_methods_share_the_log_scale(capsys):
    # k m = 32 > 30: both methods report log_value with a log-scale stderr
    quad = invoke_json(capsys, "zonoid-volume", "--k", "2", "--m", "16")
    vitale = invoke_json(capsys, "zonoid-volume", "--k", "2", "--m", "16",
                         "--method", "vitale", "--samples", "20000")
    for rec in (quad, vitale):
        check_record(rec)
        assert rec["value"] is None
    gap = abs(vitale["log_value"] - quad["log_value"])
    assert gap <= 3.0 * math.hypot(vitale["stderr"], quad["stderr"])


@pytest.mark.parametrize("argv", [("transversals", "--samples", "1"),
                                  ("vitale", "--d", "3", "--samples", "1")])
def test_single_draw_has_null_stderr(capsys, argv):
    rec = invoke_json(capsys, *argv)
    check_record(rec)
    assert rec["n_samples"] == 1
    assert rec["stderr"] is None
    code, out, err = invoke(capsys, *argv, "--format", "csv")
    assert code == 0, err
    header, row = list(csv.reader(io.StringIO(out)))
    assert row[header.index("stderr")] == ""


def test_quadrature_commands_never_import_scipy():
    # scipy is a test-only dependency: with its import blocked, every
    # subcommand still runs
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from grassdeg.cli import _HANDLERS, run\n"
        "argvs = (['density-check', '--k', '3', '--l', '3', '--n', '12'],\n"
        "         ['density-check', '--k', '2', '--l', '2', '--n', '4',\n"
        "          '--samples', '1000'],\n"
        "         ['laplace-demo'],\n"
        "         ['edeg', '--k', '2', '--n', '4'],\n"
        "         ['edeg', '--k', '2', '--n', '4', '--method', 'zonoid_vitale',\n"
        "          '--samples', '1000'],\n"
        "         ['zonoid-volume', '--k', '2', '--m', '2'],\n"
        "         ['zonoid-volume', '--k', '2', '--m', '2', '--method', 'vitale',\n"
        "          '--samples', '1000'],\n"
        "         ['alpha', '--k', '2', '--m', '2', '--samples', '1000'],\n"
        "         ['transversals', '--samples', '1000'],\n"
        "         ['rig', '--r', '2,1,1,1', '--samples', '1000'],\n"
        "         ['vitale', '--d', '3', '--samples', '1000'],\n"
        "         ['schubert-ratio', '--k', '2', '--n', '4', '--mc',\n"
        "          '--samples', '1000'],\n"
        "         ['edeg-lines', '--n', '17'],\n"
        "         ['bounds', '--k', '2', '--n', '40'])\n"
        "assert {a[0] for a in argvs} == set(_HANDLERS)\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' and sys.modules[m]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_import_and_quadrature_leave_numpy_random_unloaded():
    # A cold process imports only the modules its command runs: import
    # grassdeg loads no submodule, and the quadrature commands load neither
    # the Monte Carlo engine, its thread pool nor numpy.random.
    script = (
        "import contextlib, io, json, sys\n"
        "import grassdeg\n"
        "after_import = sorted(m for m in sys.modules\n"
        "                      if m.startswith('grassdeg.'))\n"
        "from grassdeg.cli import run\n"
        "argvs = (['edeg', '--k', '2', '--n', '4'],\n"
        "         ['edeg', '--k', '2', '--n', '40'],\n"
        "         ['edeg-lines', '--n', '17'],\n"
        "         ['zonoid-volume', '--k', '2', '--m', '2'],\n"
        "         ['bounds', '--k', '2', '--n', '40'],\n"
        "         ['laplace-demo'])\n"
        "for argv in argvs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "unused = ('grassdeg.mc', 'grassdeg.incidence', 'grassdeg.geomlin',\n"
        "          'concurrent.futures', 'fractions', 'numpy.random')\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "mc = grassdeg.mc\n"
        "print(json.dumps({\n"
        "    'after_import': after_import,\n"
        "    'loaded': loaded,\n"
        "    'mc_by_attribute': mc is sys.modules['grassdeg.mc'],\n"
        "    'dir': dir(grassdeg),\n"
        "    'estimate_reexported':\n"
        "        mc.Estimate is sys.modules['grassdeg.estimate'].Estimate,\n"
        "}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout)
    assert seen["after_import"] == []
    assert seen["loaded"] == []
    assert seen["mc_by_attribute"]
    assert {"specfun", "geomlin", "zonoid", "mc", "edeg",
            "incidence"} <= set(seen["dir"])
    assert seen["estimate_reexported"]


def test_density_check_emits_two_records(capsys):
    recs = invoke_json(capsys, "density-check", "--k", "1", "--l", "1", "--n", "2",
                       "--samples", "10000")
    assert isinstance(recs, list) and len(recs) == 2
    names = [r["quantity"] for r in recs]
    assert names == ["density-normalization", "density-gof"]
    assert abs(recs[0]["value"] - 1.0) < 1e-8
    # the normalization reports its rule's half-resolution difference
    assert recs[0]["stderr"] is not None and 0.0 <= recs[0]["stderr"] <= 1e-8
    # the sampled L1 distance carries no standard error
    assert recs[1]["stderr"] is None
    assert recs[1]["n_samples"] == 10000


def test_schubert_mc_carries_exact_reference(capsys):
    rec = invoke_json(capsys, "schubert-ratio", "--k", "2", "--n", "4", "--mc",
                      "--eps", "0.02", "--delta", "0.02", "--samples", "20000")
    check_record(rec)
    assert math.isclose(rec["params"]["exact"], math.pi / 4.0, rel_tol=1e-10)


def test_schubert_default_window_shrinks_with_n(capsys):
    # the window's bias is about n eps^2 / 2 relative: at eps = 0.01 the
    # (2, 400) record read 12.238 +- 0.021 against 12.494, 12 sigma off
    rec = invoke_json(capsys, "schubert-ratio", "--k", "2", "--n", "400", "--mc")
    check_record(rec)
    params = rec["params"]
    assert params["eps"] == params["delta"] == 0.001
    assert abs(rec["value"] - params["exact"]) <= 5.0 * rec["stderr"]
    # n = 4 keeps 0.01, and explicit windows stay as given
    rec = invoke_json(capsys, "schubert-ratio", "--k", "2", "--n", "4", "--mc",
                      "--samples", "20000")
    assert rec["params"]["eps"] == rec["params"]["delta"] == 0.01
    rec = invoke_json(capsys, "schubert-ratio", "--k", "2", "--n", "400", "--mc",
                      "--eps", "0.01", "--samples", "20000")
    assert rec["params"]["eps"] == rec["params"]["delta"] == 0.01


def test_laplace_demo_gap_falls_like_one_over_n(capsys):
    recs = invoke_json(capsys, "laplace-demo")
    assert [r["params"]["n"] for r in recs] == [4, 16, 64, 256, 4096]
    gaps = [r["params"]["rel_gap"] for r in recs]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    for rec, gap in zip(recs, gaps):
        n = rec["params"]["n"]
        # the paper's O(1/n), tending to 17/24
        assert 0.70 <= n * math.log1p(gap) <= 0.80, rec
        if 2 * (n - 1) > 30:
            assert rec["value"] is None and math.isfinite(rec["log_value"])
            rel_error = rec["stderr"]
        else:
            assert rec["value"] is not None and "log_value" not in rec
            rel_error = rec["stderr"] / rec["value"]
        # the gap is the asymptotic's, not the quadrature's
        assert gap >= 1e4 * rel_error, rec


def test_bounds_switches_to_log_for_large_n(capsys):
    recs = invoke_json(capsys, "bounds", "--k", "2", "--n", "40")
    bound = recs[0]
    assert bound["value"] is None
    assert bound["log_value"] > 0.0
    eps = [r for r in recs if r["quantity"] == "epsilon-k"][0]
    assert math.isclose(eps["value"], 1.3029922589446408, rel_tol=1e-10)


@pytest.mark.parametrize("argv", [["bounds", "--k", "2", "--n", "100000000"],
                                  ["edeg-lines", "--n", "100000000"]],
                         ids=["bounds", "edeg-lines"])
def test_huge_n_costs_no_more_than_small_n(argv):
    # |G(k, n)| takes O(min(k, n-k)) terms, so a cold process at n = 10^8
    # finishes as fast as one at n = 40
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "grassdeg.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=20)
    wall = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""  # the quadrature converges: no warning
    assert wall < 2.0


def test_csv_output(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, err = invoke(capsys, "transversals", "--samples", "5000",
                          "--format", "csv", "--out", str(out))
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out.read_text())))
    header, data = rows[0], rows[1]
    assert header[:9] == [
        "quantity", "value", "log_value", "stderr", "n_samples",
        "degenerate_count", "seed", "method", "runtime_ms",
    ]
    assert "param_samples" in header
    assert data[0] == "edeg24-transversal"


def test_out_file_gets_the_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, _ = invoke(capsys, "transversals", "--samples", "5000",
                             "--out", str(out))
    assert code == 0
    assert stdout == ""
    rec = json.loads(out.read_text())
    check_record(rec)


def test_domain_errors_exit_1(capsys):
    code, _, err = invoke(capsys, "edeg", "--k", "0", "--n", "4")
    assert code == 1
    assert err.strip() != ""
    code, _, _ = invoke(capsys, "vitale", "--d", "13", "--samples", "10")
    assert code == 1
    # only 0 skips the fit; a negative count is an error, not a skip
    code, out, err = invoke(capsys, "density-check", "--k", "2", "--l", "2",
                            "--n", "4", "--samples", "-5")
    assert code == 1
    assert out == ""
    assert err.startswith("grassdeg: ") and "samples must be >= 0" in err
    # Monte Carlo options are checked on every method, drawing or not
    for argv, message in (
            (("edeg", "--k", "2", "--n", "4", "--samples", "-5"), "samples must be >= 1"),
            (("zonoid-volume", "--k", "2", "--m", "2", "--samples", "-5"),
             "samples must be >= 1"),
            (("schubert-ratio", "--k", "2", "--n", "4", "--samples", "-5"),
             "samples must be >= 1"),
            (("schubert-ratio", "--k", "2", "--n", "4", "--eps", "-1"),
             "need 0 < eps <= delta < pi/2")):
        code, out, err = invoke(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("grassdeg: ") and message in err, argv


def test_quadrature_route_names_the_smaller_dimension(capsys):
    # G(2,3) = G(1,3) by duality: k = 2 was given, min(k, n-k) = 1 is refused
    code, out, err = invoke(capsys, "edeg", "--k", "2", "--n", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("grassdeg: ")
    assert "requires min(k, n-k) = 2, got 1" in err
    assert "k = 2 or" not in err


def test_vitale_route_above_the_km_cap_exits_1(capsys):
    # N = 6 * 7 = 42 > 36: the rank-one kernel refuses it before drawing;
    # at N = 1296 and 400 the volume's scale (rho_k rho_m)^N would overflow
    for argv in (("edeg", "--k", "6", "--n", "13", "--method", "zonoid_vitale",
                  "--samples", "100"),
                 ("edeg", "--k", "36", "--n", "72", "--method", "zonoid_vitale",
                  "--samples", "10"),
                 ("zonoid-volume", "--k", "20", "--m", "20", "--method", "vitale")):
        code, out, err = invoke(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("grassdeg: ") and "km > 36" in err, err
        assert "Traceback" not in err


def test_schubert_frames_far_above_a_chunk_of_memory(capsys, monkeypatch):
    # one whole chunk of (400, 200) Gaussian frames would take 9.8 GiB, and
    # of the Jacobi model's 399 Betas a draw 50 MiB; the sub-batches keep it
    # to megabytes, over a full and a partial chunk
    rec = invoke_json(capsys, "schubert-ratio", "--k", "200", "--n", "400",
                      "--mc", "--samples", "20000")
    check_record(rec)
    assert rec["n_samples"] == 20000 and math.isfinite(rec["value"])
    # and an allocation that fails anyway is reported, not a traceback
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.77 GiB for an array")

    monkeypatch.setattr(mc, "schubert_ratio_mc", out_of_memory)
    code, out, err = invoke(capsys, "schubert-ratio", "--k", "200", "--n",
                            "400", "--mc", "--samples", "20000")
    assert code == 1 and out == ""
    assert err == "grassdeg: Unable to allocate 9.77 GiB for an array\n"


def test_nonpositive_workers_exit_1(capsys):
    for command in (("transversals", "--samples", "10"), ("bounds", "--k", "2", "--n", "4")):
        for workers in ("0", "-2"):
            code, out, err = invoke(capsys, *command, "--workers", workers)
            assert code == 1
            assert out == ""
            assert err.startswith("grassdeg: ") and "workers must be >= 1" in err


def test_usage_errors_exit_2(capsys):
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2
    code, _, _ = invoke(capsys, "edeg", "--k", "2", "--n", "4",
                        "--format", "yaml")
    assert code == 2


def test_runtime_ms_is_the_only_unstable_field(capsys):
    a = invoke_json(capsys, "vitale", "--d", "2", "--samples", "30000")
    b = invoke_json(capsys, "vitale", "--d", "2", "--samples", "30000")
    a.pop("runtime_ms")
    b.pop("runtime_ms")
    assert a == b


@pytest.mark.parametrize(
    "argv",
    [
        ("edeg", "--k", "2", "--n", "5", "--method", "zonoid_vitale",
         "--samples", "20000"),
        ("edeg-lines", "--n", "3"),
        ("schubert-ratio", "--k", "3", "--n", "6"),
        ("vitale", "--d", "1", "--samples", "10000"),
        ("bounds", "--k", "3", "--n", "6"),
        ("density-check", "--k", "2", "--l", "3", "--n", "5", "--samples", "0"),
    ],
)
def test_subcommand_smoke(capsys, argv):
    payload = invoke_json(capsys, *argv)
    records = payload if isinstance(payload, list) else [payload]
    for rec in records:
        check_record(rec)


# ------------------------------------------------------------- argv fuzz

def ints(lo, hi, likely_hi):
    """Integers in [lo, hi] as argv text, half of them in [1, likely_hi]."""
    return st.one_of(st.integers(min_value=1, max_value=likely_hi),
                     st.integers(min_value=lo, max_value=hi)).map(str)


SMALL = ints(-2, 60, 6)
SAMPLES = ints(-2, 256, 256)
ANGLE = st.sampled_from(["0.01", "0.3", "1.5", "2", "0", "-1", "1e-300",
                         "nan", "inf"])
R_LIST = st.one_of(
    st.lists(st.integers(min_value=1, max_value=4), min_size=4, max_size=4).map(
        lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(min_value=-2, max_value=12), max_size=6).map(
        lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["", ",", "1,,1,1", "a,b,c,d", "1.5,1,1,1", " 1,1,1,1",
                     "1;1;1;1", "2,2,2,2,", "-1,1,1,1", "1e3,1,1,1"]),
    st.text(alphabet="0123456789,-. x", max_size=12),
)

# option -> value strategy (None for a flag); an option may be left out
OPTIONS = {
    "edeg": {"--k": SMALL, "--n": SMALL, "--samples": SAMPLES,
             "--method": st.sampled_from(["zonoid_quadrature", "zonoid_vitale",
                                          "nope"])},
    "edeg-lines": {"--n": SMALL},
    "alpha": {"--k": SMALL, "--m": SMALL, "--samples": SAMPLES},
    "transversals": {"--samples": SAMPLES},
    "rig": {"--r": R_LIST, "--samples": SAMPLES},
    "zonoid-volume": {"--k": SMALL, "--m": SMALL, "--samples": SAMPLES,
                      "--method": st.sampled_from(["quadrature", "vitale"])},
    "density-check": {"--k": SMALL, "--l": SMALL, "--n": SMALL,
                      "--samples": SAMPLES},
    "schubert-ratio": {"--k": SMALL, "--n": SMALL, "--mc": None, "--eps": ANGLE,
                       "--delta": ANGLE, "--samples": SAMPLES},
    "vitale": {"--d": SMALL, "--samples": SAMPLES},
    "laplace-demo": {},
    "bounds": {"--k": SMALL, "--n": SMALL},
}
COMMON = {"--seed": SMALL, "--workers": ints(-2, 4, 2)}
# tracemalloc peak of one fuzzed run: the largest seen is 8.8 MiB
# (zonoid-volume --k 3 --m 3 --method vitale at the default 10^6 samples,
# whose determinants run in sub-batches of 8 MiB at any km); density-check,
# whose scipy import once peaked at 23.4 MiB, now stays under 1.2 MiB up to
# --k 3 --n 60.  This leaves a margin of 5.4x
FUZZ_PEAK_BYTES = 48 * 2**20


@st.composite
def argvs(draw, command):
    argv = [command]
    for option, values in {**OPTIONS[command], **COMMON}.items():
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            continue  # missing, required or not
        argv.append(option)
        if values is not None:
            argv.append(draw(values))
    return argv


@pytest.mark.parametrize("command", sorted(_HANDLERS))  # OPTIONS covers each
@settings(max_examples=40)
@given(data=st.data())
def test_argv_fuzz_exits_cleanly(command, data):
    argv = data.draw(argvs(command))
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err, argv
    assert peak < FUZZ_PEAK_BYTES, (argv, peak)
    if code == 0:
        payload = json.loads(out, parse_constant=reject_constant)
        for rec in payload if isinstance(payload, list) else [payload]:
            check_record(rec)
    elif code == 1:
        assert out == "" and err.startswith("grassdeg: "), (argv, err)
    else:
        assert code == 2, (argv, code, err)  # argparse usage error


def test_alpha_at_the_km_cap_stays_under_the_fuzz_bound(capsys):
    # the fuzz gives alpha at most 256 samples; one full chunk at km = 36
    # held a (16384, 36, 36) Gram stack, 378 MiB
    tracemalloc.start()
    try:
        rec = invoke_json(capsys, "alpha", "--k", "6", "--m", "6", "--samples", "16384")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_record(rec)
    assert rec["degenerate_count"] == 0
    assert peak < FUZZ_PEAK_BYTES, peak
