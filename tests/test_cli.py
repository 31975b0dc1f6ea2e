import csv
import io
import json
import math

import pytest

from grassdeg.cli import DEFAULT_SEED, SCHEMA_VERSION, run
from grassdeg.zonoid import RadialProfile2

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


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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
