"""Command-line interface: select, train, predict, benchmark."""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

from . import harness, mcm, svm
from .data import (SD_FLOOR, DataError, Dataset, Standardizer, apply_standardizer,
                   fit_standardizer, load_dataset, require_two_classes,
                   standardizer_from_fields, standardizer_lines, stratified_kfold)

_EXIT_INPUT = 2
_EXIT_TRAINING = 3
_EXIT_INTERNAL = 1


def _write_atomic(path: str, text: str) -> None:
    """Write the finished document in one rename so failures leave no partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mcmfs-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--format", choices=("csv", "sparse"), default="csv",
                   help="dataset file format (default csv)")
    p.add_argument("--label-column", default="label",
                   help="label column name for csv inputs (default 'label')")


def _load(args) -> Dataset:
    return load_dataset(args.input, fmt=args.format, label_column=args.label_column)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"cannot parse grid {text!r}") from None
    if not values:
        raise ValueError("grid must not be empty")
    return values


# One row per HarnessConfig field: its flag, the argparse keywords other than
# the default (which HarnessConfig() supplies) and the commands that take it.
# Grids stay strings until _config, so that a malformed one is an option error
# that main() reports instead of an argparse exit.
_CONFIG_FLAGS = (
    ("--selection", "selection", ("benchmark",),
     dict(choices=harness.SELECTIONS,
          help="select per training fold, or once on the full dataset")),
    ("--seed", "seed", ("select", "benchmark"), dict(type=int)),
    ("--C", "mcm_C", ("select", "train", "benchmark"),
     dict(type=float, help="slack trade-off (mcm)")),
    ("--mcm-variant", "mcm_variant", ("select", "train", "benchmark"),
     dict(choices=(mcm.VARIANT_PAPER, mcm.VARIANT_CLASSIC),
          help="capacity rows with or without the slack term")),
    ("--mcm-tune-C", "mcm_tune_C", ("benchmark",),
     dict(action="store_true", help="pick C by inner 3-fold accuracy instead of --C")),
    ("--rel-tol", "mcm_rel_tol", ("select", "train", "benchmark"),
     dict(type=float, help="relative weight threshold (mcm)")),
    ("--k-neighbors", "relieff_k", ("select", "benchmark"),
     dict(type=int, help="neighbors per class (relieff)")),
    ("--fraction", "fraction", ("select", "benchmark"),
     dict(type=float, help="cumulative score mass to keep (relieff)")),
    ("--bins", "fcbf_bins", ("select", "benchmark"),
     dict(type=int, help="discretization bins (fcbf)")),
    ("--delta", "fcbf_delta", ("select", "benchmark"),
     dict(type=float, help="relevance threshold (fcbf)")),
    ("--svm-c-grid", "svm_C_grid", ("benchmark",),
     dict(help="comma-separated C grid (default powers of two, -5..15 step 2)")),
    ("--svm-gamma-grid", "svm_gamma_grid", ("benchmark",),
     dict(help="comma-separated gamma grid (default powers of two, -15..3 step 2)")),
    ("--inner-folds", "inner_folds", ("benchmark",), dict(type=int)),
)
_GRID_FIELDS = ("svm_C_grid", "svm_gamma_grid")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_config_args(p: argparse.ArgumentParser, command: str) -> None:
    defaults = harness.HarnessConfig()
    for flag, field, commands, kwargs in _CONFIG_FLAGS:
        if command in commands:
            p.add_argument(flag, default=getattr(defaults, field), **kwargs)


def _config(args) -> harness.HarnessConfig:
    """The HarnessConfig the command's flags describe; flags it lacks keep their defaults."""
    values = {}
    for flag, field, _, _ in _CONFIG_FLAGS:
        value = getattr(args, _dest(flag), None)
        if value is None:
            continue
        if field in _GRID_FIELDS and isinstance(value, str):
            value = _parse_grid(value)
        values[field] = value
    return harness.HarnessConfig(**values)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mcmfs",
        description="Sparse feature selection by a minimal-complexity hyperplane, "
                    "with ReliefF/FCBF baselines and an RBF-SVM evaluation harness.")
    p.add_argument("--show-config", action="store_true",
                   help="print every tunable default and exit")
    sub = p.add_subparsers(dest="command")

    ps = sub.add_parser("select", help="select features and write their indices")
    _add_input_args(ps)
    ps.add_argument("--method", choices=harness.METHODS, default=harness.METHODS[0])
    ps.add_argument("--out", required=True, help="output feature list")
    _add_config_args(ps, "select")

    pt = sub.add_parser("train", help="train a model and write its document")
    _add_input_args(pt)
    pt.add_argument("--model-kind", choices=("mcm", "svm"), default="mcm")
    pt.add_argument("--out", required=True, help="output model document")
    _add_config_args(pt, "train")
    pt.add_argument("--hard-margin", action="store_true",
                    help="drop slacks entirely (mcm; fails on inseparable data)")
    pt.add_argument("--svm-C", type=float, default=1.0)
    pt.add_argument("--svm-gamma", type=float, default=0.5)
    pt.add_argument("--features", default=None,
                    help="feature list file (as written by select) restricting the svm")

    pp = sub.add_parser("predict", help="predict labels with a trained model document")
    _add_input_args(pp)
    pp.add_argument("--model", required=True, help="model document from train")
    pp.add_argument("--out", required=True, help="output label file")

    pb = sub.add_parser("benchmark", help="cross-validated method comparison")
    _add_input_args(pb)
    pb.add_argument("--methods", default=",".join(harness.METHODS),
                    help="comma-separated subset of " + ",".join(harness.METHODS))
    pb.add_argument("--folds", type=int, default=5)
    pb.add_argument("--report", required=True, help="output report file")
    pb.add_argument("--table", action="store_true", help="print the comparison table")
    pb.add_argument("--timings", action="store_true",
                    help="include wall-clock timings in the report "
                         "(makes the file run-dependent)")
    pb.add_argument("--dataset-name", default=None, help="row label (default: file stem)")
    _add_config_args(pb, "benchmark")
    return p


# Library constants that --show-config lists after the field they follow.
_FIXED_AFTER = {
    "mcm_tune_C": (("mcm_C_grid", harness.MCM_C_GRID),),
    "inner_folds": (("svm_kkt_tol", svm.KKT_TOL), ("svm_max_passes", svm.MAX_PASSES)),
}


def _config_text(parser: argparse.ArgumentParser) -> str:
    """Every default a flag reads, taken from a benchmark command line without options."""
    args = parser.parse_args(["benchmark", "--input", "", "--report", ""])
    cfg = _config(args)
    settings = []
    for f in fields(cfg):
        settings.append((f.name, getattr(cfg, f.name)))
        settings += _FIXED_AFTER.get(f.name, ())
    settings += [("folds", args.folds), ("label_column", args.label_column),
                 ("format", args.format), ("sd_floor", SD_FLOOR),
                 ("selection_abs_floor", mcm.ABS_FLOOR)]
    lines = ["mcmfs defaults"]
    for name, value in settings:
        if isinstance(value, tuple):
            value = ",".join(f"{v:g}" for v in value)
        lines.append(f"  {name} = {value}")
    lines.append("  feature indices in files are 1-based")
    return "\n".join(lines) + "\n"


def _selection_params(method: str, cfg: harness.HarnessConfig) -> str:
    if method == "mcm":
        return f"C={cfg.mcm_C:g} variant={cfg.mcm_variant} rel-tol={cfg.mcm_rel_tol:g}"
    if method == "relieff":
        return f"k-neighbors={cfg.relieff_k} fraction={cfg.fraction:g} seed={cfg.seed}"
    return f"bins={cfg.fcbf_bins} delta={cfg.fcbf_delta:g}"


def _cmd_select(args) -> int:
    d = _load(args)
    require_two_classes(d)
    cfg = _config(args)
    std = fit_standardizer(d)
    ds = apply_standardizer(std, d)
    selected = harness._select_features(ds, args.method, cfg)
    lines = [
        f"# mcmfs select method={args.method} {_selection_params(args.method, cfg)}",
        "# columns: index(1-based) name",
    ]
    if not selected:
        lines.append("# empty selection: no feature passed the rule")
    lines += [f"{j + 1}\t{d.feature_names[j]}" for j in selected]
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def _read_feature_file(path: str, n_features: int) -> tuple[int, ...]:
    selected = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tok = line.split()[0]
            try:
                j = int(tok)
            except ValueError:
                raise DataError(f"malformed feature index {tok!r} in {path}") from None
            if not 1 <= j <= n_features:
                raise DataError(f"feature index {j} out of range 1..{n_features}")
            selected.append(j - 1)
    if not selected:
        raise DataError(f"no feature indices found in {path}")
    return tuple(selected)


def _cmd_train(args) -> int:
    d = _load(args)
    require_two_classes(d)
    std = fit_standardizer(d)
    ds = apply_standardizer(std, d)
    if args.model_kind == "mcm":
        model = mcm.train_mcm(ds, C=args.C, variant=args.mcm_variant,
                              hard_margin=args.hard_margin, rel_tol=args.rel_tol)
        text = mcm.mcm_model_to_text(model, std)
    else:
        subset = (tuple(range(d.n_features)) if args.features is None
                  else _read_feature_file(args.features, d.n_features))
        model = svm.train_svm(ds, subset, args.svm_C, args.svm_gamma)
        text = svm_model_to_text(model, std)
    _write_atomic(args.out, text)
    return 0


def svm_model_to_text(model: svm.SvmModel, standardizer: Standardizer | None = None) -> str:
    fmt = lambda v: format(float(v), ".17g")
    lines = [
        "svm-model v1",
        f"n {model.n_features_in}",
        f"C {fmt(model.C)}",
        f"kernel-gamma {fmt(model.kernel_gamma)}",
        f"bias {fmt(model.bias)}",
        "subset " + " ".join(str(j + 1) for j in model.feature_subset),
        f"support {model.coeffs.size}",
    ]
    for coef, row in zip(model.coeffs, model.support_samples):
        lines.append("sv " + fmt(coef) + " " + " ".join(fmt(v) for v in row))
    if standardizer is not None:
        lines += standardizer_lines(standardizer)
    lines.append("end")
    return "\n".join(lines) + "\n"


def svm_model_from_text(text: str) -> tuple[svm.SvmModel, Standardizer | None]:
    fields_ = {}
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "end":
            continue
        key, _, rest = line.partition(" ")
        if key == "sv":
            rows.append(rest)
        else:
            fields_[key] = rest
    if fields_.get("svm-model") != "v1":
        raise DataError("not an svm-model v1 document")
    try:
        subset = tuple(int(j) - 1 for j in fields_["subset"].split())
        sv = np.array([np.array(r.split(), dtype=np.float64) for r in rows])
        sv = sv.reshape(len(rows), len(subset) + 1)
        model = svm.SvmModel(
            support_samples=sv[:, 1:],
            coeffs=sv[:, 0],
            bias=float(fields_["bias"]),
            kernel_gamma=float(fields_["kernel-gamma"]),
            C=float(fields_["C"]),
            feature_subset=subset,
            n_features_in=int(fields_["n"]),
        )
        if int(fields_["support"]) != len(rows):
            raise DataError("support count does not match the sv lines")
        standardizer = standardizer_from_fields(fields_)
    except (KeyError, ValueError) as exc:
        raise DataError(f"malformed svm-model document: {exc}") from None
    return model, standardizer


def _cmd_predict(args) -> int:
    d = _load(args)
    with open(args.model, encoding="utf-8") as fh:
        text = fh.read()
    first = text.splitlines()[0].strip() if text.strip() else ""
    if first.startswith("mcm-model"):
        model, std = mcm.mcm_model_from_text(text)
        n = model.n_features
    elif first.startswith("svm-model"):
        model, std = svm_model_from_text(text)
        n = model.n_features_in
    else:
        raise DataError(f"unrecognized model document {args.model}")
    if d.n_features != n:
        raise DataError(f"dimension mismatch: model expects {n} features, "
                        f"dataset has {d.n_features}")
    ds = apply_standardizer(std, d) if std is not None else d
    if first.startswith("mcm-model"):
        labels = mcm.mcm_classify(model, ds.samples)
    else:
        labels = svm.svm_predict_batch(model, ds.samples)
    lines = [f"{sid}\t{int(v):+d}" for sid, v in zip(d.sample_ids, labels)]
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_benchmark(args) -> int:
    d = _load(args)
    require_two_classes(d)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    for m in methods:
        if m not in harness.METHODS:
            raise ValueError(f"unknown method {m!r}")
    if not methods:
        raise ValueError("no methods given")
    cfg = _config(args)
    plan = stratified_kfold(d, args.folds, cfg.seed)
    name = args.dataset_name
    if name is None:
        name = os.path.splitext(os.path.basename(args.input))[0]
    report = harness.compare_methods(d, methods, plan, cfg, dataset_name=name)
    _write_atomic(args.report, harness.report_to_text(report, include_timings=args.timings))
    if args.table:
        sys.stdout.write(harness.format_table([report]))
    return 0


_COMMANDS = {
    "select": _cmd_select,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "benchmark": _cmd_benchmark,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.show_config:
        sys.stdout.write(_config_text(parser))
        return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        sys.stderr.write("option error: a command is required\n")
        return _EXIT_INPUT
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return _EXIT_INPUT
    except (mcm.McmTrainingError, svm.SvmTrainingError, ArithmeticError) as exc:
        # ArithmeticError: the LP solver's singular-basis and phase-1 faults
        sys.stderr.write(f"training error: {exc}\n")
        return _EXIT_TRAINING
    except ValueError as exc:
        sys.stderr.write(f"option error: {exc}\n")
        return _EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
