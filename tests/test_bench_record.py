import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
END_TO_END = {"setup_s", "pass_s_p25", "samples_per_s", "err_sqrt_s", "peak_rss_mb"}


@pytest.mark.skipif(not (ROOT / ".git").exists(),
                    reason="the recorder archives commits of a git checkout")
def test_recorder_pairs_the_tree_with_a_commit(tmp_path):
    # one workload, one seed, a second per run: the schema, not the numbers
    out = tmp_path / "BENCH_test.json"
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--label", "test",
         "--workloads", "integral-mc", "--seeds", "3", "--seconds", "1",
         "--pair", "HEAD", "--out", str(out)],
        env=dict(os.environ, TMPDIR=str(scratch)), check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert len(record["commit"]) == 40 and record["pair"]["rev"] == "HEAD"
    assert record["seeds"] == [3] and record["seconds"] == 1.0
    assert record["nproc"] >= 1 and record["python"] and record["numpy"]
    assert "PYTHONDONTWRITEBYTECODE=1" in record["bytecode"]
    entry = record["workloads"]["integral-mc"]
    for side in ("tree", "parent"):
        (run,) = entry[side]["runs"]
        assert run["seed"] == 3 and run["correct"] is True
        assert 0 == run["failed"] < run["attempted"]
        assert len(run["loadavg_before"]) == len(run["loadavg_after"]) == 3
        assert run["pyc_files_before"] == 0
        summary = entry[side]["summary"]
        assert set(summary) == END_TO_END
        for name, stats in summary.items():
            assert stats["n"] == 1
            assert stats["q1"] == stats["median"] == stats["q3"] == run["metrics"][name]
    assert set(entry["pairs"]) == END_TO_END
    err = entry["pairs"]["err_sqrt_s"]
    assert err["better"] == "lower" and err["pairs"] == 1 and err["wins"] in (0, 1)
    tree, parent = (entry[side]["runs"][0]["metrics"]["err_sqrt_s"]
                    for side in ("tree", "parent"))
    assert err["ratios"] == [tree / parent]
    assert list(scratch.iterdir()) == []  # the copies are gone
