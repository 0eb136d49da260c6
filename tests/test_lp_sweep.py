"""scripts/lp_sweep.py on tiny shapes: this tree against itself and against a mutated copy."""

import importlib.util
import json
import os
import shutil

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "lp_sweep", os.path.join(_ROOT, "scripts", "lp_sweep.py"))
lp_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lp_sweep)

# 4 wide LPs and the 5 folds of one fold set
TINY = ["--wide-seeds", "1-1", "--wide-shape", "12x30", "--fold-seeds", "1-1",
        "--fold-shape", "20x10"]

# Fails on the 16-row training splits of the fold sets; elsewhere drops a feature,
# doubles the objective and reports a capacity that the margins exceed.
_MUTATION = '''

_train_mcm = train_mcm


def train_mcm(d, **kwargs):
    if d.n_samples == 16:
        raise ArithmeticError("singular basis matrix")
    model = _train_mcm(d, **kwargs)
    return replace(model, selected=model.selected[1:], objective_value=model.objective_value * 2,
                   capacity=0.0)
'''


def copy_tree(root, mutate=False):
    shutil.copytree(os.path.join(_ROOT, "src"), root / "src")
    os.makedirs(root / "pipebench")
    shutil.copy(os.path.join(_ROOT, "pipebench", "inputs.py"), root / "pipebench")
    if mutate:
        with open(root / "src" / "mcmfs" / "mcm.py", "a", encoding="utf-8") as fh:
            fh.write(_MUTATION)
    return str(root)


def test_same_tree_agrees(tmp_path, capsys):
    code = lp_sweep.main([copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b"), *TINY])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.splitlines() == [
        "9 LPs: parent failed 0 (infeasible 0), change failed 0 (infeasible 0), both solved 9 "
        "(pivot counts differ on 0), largest relative objective difference 0"]


def test_mismatches_are_listed(tmp_path, capsys):
    code = lp_sweep.main([copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b", mutate=True),
                          *TINY])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "change failed: folds 1 fold 0: ArithmeticError: singular basis matrix" in out
    assert "fails on one side only: folds 1 fold 4" in out
    assert any(line.startswith("change returned an infeasible optimum: wide 1 0: a row is "
                               "violated by ") for line in out)
    assert any(line.startswith("selection differs: wide 1 0: ") for line in out)
    assert any(line.startswith("objective differs: wide 1 3: ") for line in out)
    assert out[-1].startswith("9 LPs: parent failed 0 (infeasible 0), change failed 5 "
                              "(infeasible 4), both solved 4 ")


def produced(tree, argv, capsys):
    """The JSON line of each LP that `tree` trains under `argv`, by LP name."""
    lp_sweep.produce(tree, lp_sweep.build_parser().parse_args([tree, tree, *argv]))
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return {r["lp"]: r for r in rows}


def test_classic_variant(tmp_path, capsys):
    tree = copy_tree(tmp_path / "a")
    code = lp_sweep.main([tree, copy_tree(tmp_path / "b"), *TINY, "--variant", "classic"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.splitlines()[-1].startswith(
        "9 LPs: parent failed 0 (infeasible 0), change failed 0 (infeasible 0), both solved 9 ")
    paper, classic = produced(tree, TINY, capsys), produced(tree, [*TINY, "--variant", "classic"],
                                                            capsys)
    assert paper.keys() == classic.keys()
    assert any(paper[k]["objective"] != classic[k]["objective"] for k in paper)
    assert max(r["violation"] for r in classic.values()) <= lp_sweep.FEAS_TOL
