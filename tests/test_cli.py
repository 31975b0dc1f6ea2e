import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from grassdeg.cli import _HANDLERS, DEFAULT_SEED, SCHEMA_VERSION, run
from grassdeg.zonoid import RadialProfile2, default_profile, vol_C_quadrature_log

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
    assert math.isclose(rec["value"], 1.726231248998883, rel_tol=1e-9)
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


def test_rig_multiplier_in_params(capsys):
    rec = invoke_json(capsys, "rig", "--r", "2,1,1,1", "--samples", "5000")
    check_record(rec)
    assert rec["params"]["count_multiplier"] == 2
    assert rec["params"]["r"] == [2, 1, 1, 1]


def test_zonoid_volume_quadrature(capsys):
    rec = invoke_json(capsys, "zonoid-volume", "--k", "2", "--m", "2")
    check_record(rec)
    assert math.isclose(rec["value"], 0.05830126446298619, rel_tol=1e-8)
    # the panel-doubling error, absolute on the direct value
    assert 0.0 < rec["stderr"] < 1e-8 * rec["value"]


def test_zonoid_volume_switches_to_log_for_large_km(capsys):
    rec = invoke_json(capsys, "zonoid-volume", "--k", "2", "--m", "200")
    check_record(rec)
    log_value, log_error = vol_C_quadrature_log(200, default_profile())
    assert rec["value"] is None
    assert rec["log_value"] == log_value.log_magnitude < -1000.0
    assert rec["stderr"] == log_error > 0.0


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
    script = (
        "import contextlib, io, sys\n"
        "from grassdeg.cli import run\n"
        "for argv in (['edeg', '--k', '2', '--n', '4'],\n"
        "             ['edeg-lines', '--n', '17'],\n"
        "             ['zonoid-volume', '--k', '2', '--m', '2'],\n"
        "             ['bounds', '--k', '2', '--n', '40']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_profile_build_writes_cache(tmp_path, capsys):
    cache = tmp_path / "profile.json"
    rec = invoke_json(capsys, "profile-build", "--grid", "64", "--out", str(cache))
    check_record(rec)
    prof = RadialProfile2.load(cache)
    assert math.isclose(prof.radius(math.pi / 4.0) ** 2, 0.125, abs_tol=1e-12)


def test_density_check_emits_two_records(capsys):
    recs = invoke_json(capsys, "density-check", "--k", "1", "--l", "1", "--n", "2",
                       "--samples", "10000")
    assert isinstance(recs, list) and len(recs) == 2
    names = [r["quantity"] for r in recs]
    assert names == ["density-normalization", "density-gof"]
    assert abs(recs[0]["value"] - 1.0) < 1e-8


def test_schubert_mc_carries_exact_reference(capsys):
    rec = invoke_json(capsys, "schubert-ratio", "--k", "2", "--n", "4", "--mc",
                      "--eps", "0.02", "--delta", "0.02", "--samples", "20000")
    check_record(rec)
    assert math.isclose(rec["params"]["exact"], math.pi / 4.0, rel_tol=1e-10)


def test_laplace_demo_error_columns_shrink(capsys):
    recs = invoke_json(capsys, "laplace-demo")
    gauss = [r for r in recs if r["params"]["problem"] == "gaussian-endpoint"]
    assert len(gauss) == 3
    assert gauss[0]["stderr"] > gauss[-1]["stderr"]


def test_bounds_switches_to_log_for_large_n(capsys):
    recs = invoke_json(capsys, "bounds", "--k", "2", "--n", "40")
    bound = recs[0]
    assert bound["value"] is None
    assert bound["log_value"] > 0.0
    eps = [r for r in recs if r["quantity"] == "epsilon-k"][0]
    assert math.isclose(eps["value"], 1.3029922589446408, rel_tol=1e-10)


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


def test_quad_points_out_of_range_exit_1(capsys):
    # 257 is one past the bound: rejected before any node is allocated
    for command in (("edeg", "--k", "2", "--n", "4"), ("edeg-lines", "--n", "3"),
                    ("zonoid-volume", "--k", "2", "--m", "2")):
        for points in ("0", "257"):
            code, out, err = invoke(capsys, *command, "--quad-points", points)
            assert code == 1
            assert out == ""
            assert err.startswith("grassdeg: ") and "quad_points" in err
            assert "Traceback" not in err


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
DENSITY_DIM = ints(-2, 8, 4)  # the k = 3 normalization takes seconds at large n
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
                                          "nope"]),
             "--quad-points": SMALL},
    "edeg-lines": {"--n": SMALL, "--quad-points": SMALL},
    "alpha": {"--k": SMALL, "--m": SMALL, "--samples": SAMPLES},
    "transversals": {"--samples": SAMPLES},
    "rig": {"--r": R_LIST, "--samples": SAMPLES},
    "zonoid-volume": {"--k": SMALL, "--m": SMALL, "--samples": SAMPLES,
                      "--method": st.sampled_from(["quadrature", "vitale"]),
                      "--quad-points": SMALL},
    "profile-build": {"--grid": st.integers(min_value=-2, max_value=80).map(str),
                      "--differentiation": st.sampled_from(["analytic",
                                                            "numeric"])},
    "density-check": {"--k": DENSITY_DIM, "--l": DENSITY_DIM, "--n": DENSITY_DIM,
                      "--samples": SAMPLES},
    "schubert-ratio": {"--k": SMALL, "--n": SMALL, "--mc": None, "--eps": ANGLE,
                       "--delta": ANGLE, "--samples": SAMPLES},
    "vitale": {"--d": SMALL, "--samples": SAMPLES},
    "laplace-demo": {},
    "bounds": {"--k": SMALL, "--n": SMALL},
}
COMMON = {"--seed": SMALL, "--workers": ints(-2, 4, 2)}


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
@pytest.mark.filterwarnings("ignore:panel doubling")  # few --quad-points
@settings(max_examples=40)
@given(data=st.data())
def test_argv_fuzz_exits_cleanly(command, data):
    argv = data.draw(argvs(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err, argv
    if code == 0:
        payload = json.loads(out, parse_constant=reject_constant)
        for rec in payload if isinstance(payload, list) else [payload]:
            check_record(rec)
    elif code == 1:
        assert out == "" and err.startswith("grassdeg: "), (argv, err)
    else:
        assert code == 2, (argv, code, err)  # argparse usage error
