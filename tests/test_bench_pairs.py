"""scripts/bench_pairs.py against stand-in checkouts whose benchmark prints a fixed result."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_METRICS = [{"name": "fcbf_s", "unit": "s", "better": "lower", "bound": 0.25}]


def fake_checkout(root, correct, attempted, failed, seconds):
    """A directory whose pipebench/run.py prints one JSON result line."""
    os.makedirs(root / "pipebench")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {"fcbf_s": {"value": seconds, "unit": "s"}}}
    (root / "pipebench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": _METRICS}))
    return str(root)


def run(out_dir, parent, change):
    return bench_pairs.main(["--parent", parent, "--change", change, "--workload", "w",
                             "--seeds", "1-3", "--label", "t", "--out-dir", str(out_dir)])


def test_summary_counts_operations(tmp_path):
    parent = fake_checkout(tmp_path / "parent", True, 10, 0, 2.0)
    change = fake_checkout(tmp_path / "change", True, 12, 1, 1.0)
    assert run(tmp_path, parent, change) == 0
    summary = json.loads((tmp_path / "BENCH_t.json").read_text())["summary"]
    assert summary["operations"] == {"parent": {"attempted": 30, "failed": 0},
                                     "change": {"attempted": 36, "failed": 3}}
    assert summary["fcbf_s"]["change_wins"] == 3


@pytest.mark.parametrize("side", ["parent", "change"])
def test_failed_checks_stop_the_run(tmp_path, capsys, side):
    checkouts = {s: fake_checkout(tmp_path / s, s != side, 10, 0, 1.0)
                 for s in ("parent", "change")}
    assert run(tmp_path, checkouts["parent"], checkouts["change"]) == 1
    err = capsys.readouterr().err
    assert f"pair 0 seed 1 {side}:" in err
    assert checkouts[side] in err and "reported correct false" in err


def test_missing_out_dir_is_created(tmp_path):
    parent = fake_checkout(tmp_path / "parent", True, 10, 0, 2.0)
    change = fake_checkout(tmp_path / "change", True, 10, 0, 1.0)
    assert run(tmp_path / "new" / "dir", parent, change) == 0
    assert (tmp_path / "new" / "dir" / "BENCH_t.json").exists()
