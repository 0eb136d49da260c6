"""scripts/same_outputs.py against stand-in checkouts with a tiny program and workloads."""

import importlib.util
import os

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "same_outputs.py")
_spec = importlib.util.spec_from_file_location("same_outputs", _SCRIPT)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

_WORKLOADS = '''
import os
from types import SimpleNamespace

WORKLOADS = {n: SimpleNamespace(name=n) for n in ("cv-100x200", "pipeline-72x7129")}


def make_inputs(w, seed, workdir, pace):
    train = os.path.join(workdir, "set0-train.csv")
    with open(train, "w") as fh:
        fh.write(f"{w.name} {seed}\\n")
    return [SimpleNamespace(name="set0", methods=("mcm", "fcbf"), train_csv=train,
                            test_csv=None, outputs={(m, "out"): os.path.join(
                                workdir, f"set0-{m}-out.txt") for m in ("mcm", "fcbf")})]


def run_op(w, s, method, call):
    return call([method, s.train_csv, s.outputs[(method, "out")]]) == 0
'''

_SUPPORT = '''
from types import SimpleNamespace

import numpy as np


def make_benchmark_dataset():
    return SimpleNamespace(samples=np.array([[0.1, 2.0], [3.0, 0.25]]),
                           labels=np.array([1, -1]), feature_names=("f1", "f2"))
'''

# Copies its input to its output and appends TAG; fails the methods in FAIL.
_CLI = '''
import sys

TAG, FAIL = {tag!r}, {fail!r}


def main(argv):
    if argv == ["--show-config"]:
        sys.stdout.write("defaults\\n")
        return 0
    if argv[0] == "benchmark":
        src, out = argv[argv.index("--input") + 1], argv[argv.index("--report") + 1]
    else:
        method, src, out = argv
        if method in FAIL:
            return 3
    with open(src) as fh, open(out, "w") as o:
        o.write(fh.read() + (TAG if "pipeline" in src else ""))
    return 0
'''


def checkout(root, tag="", fail=()):
    for sub, name, text in (("pipebench", "workloads.py", _WORKLOADS),
                            ("tests", "support.py", _SUPPORT),
                            ("src/mcmfs", "__init__.py", ""),
                            ("src/mcmfs", "cli.py", _CLI.format(tag=tag, fail=fail))):
        os.makedirs(root / sub, exist_ok=True)
        (root / sub / name).write_text(text)
    return str(root)


def test_identical_checkouts(tmp_path, capsys):
    code = same_outputs.main([checkout(tmp_path / "a"), checkout(tmp_path / "b"),
                              "--seeds", "3,11"])
    out = capsys.readouterr().out
    assert code == 0, out
    # show-config, the seed-42 report, two workloads x two seeds x two methods
    assert out.splitlines() == ["10 of 10 common outputs identical"]


def test_differences_are_listed(tmp_path, capsys):
    code = same_outputs.main([checkout(tmp_path / "a"), checkout(tmp_path / "b", tag="x"),
                              "--seeds", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out == ["differs: pipeline-72x7129-seed3/set0-fcbf-out.txt",
                   "differs: pipeline-72x7129-seed3/set0-mcm-out.txt",
                   "4 of 6 common outputs identical"]


def test_failed_operations_are_named(tmp_path, capsys):
    code = same_outputs.main([checkout(tmp_path / "a", fail=("fcbf",)),
                              checkout(tmp_path / "b"), "--seeds", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "failed: cv-100x200 seed 3 set0 fcbf" in out
    assert "failed: pipeline-72x7129 seed 3 set0 fcbf" in out
    assert "only in change: cv-100x200-seed3/set0-fcbf-out.txt" in out
