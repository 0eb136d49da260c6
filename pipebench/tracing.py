"""Per-layer spans and counts, recorded around the program's public functions.

A `Tracer` replaces module attributes (the names each caller looks up, for
example `mcmfs.svm.train_svm`, which `grid_search` and the harness both call)
with wrappers that time the call, add counts computed from the arguments and
the result, and optionally keep the inputs and outputs for the checks.  The
wrappers never assume a call pattern: a function the program stops calling
just reports zero, and a missing attribute is skipped.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import mcmfs.cli
import mcmfs.filters
import mcmfs.harness
import mcmfs.mcm
import mcmfs.svm

# Layer metric name -> unit.  Times are summed over one round; counts too.
LAYER_UNITS = {
    "data.load_s": "s", "data.cells_parsed": "cells", "data.standardize_s": "s",
    "data.folds_s": "s", "mcm.build_lp_s": "s", "linprog.solve_s": "s",
    "linprog.solves": "count", "linprog.pivots": "count",
    "linprog.lp_cells_computed": "cells", "filters.relieff_s": "s",
    "filters.discretize_s": "s", "filters.fcbf_s": "s", "svm.grid_s": "s",
    "svm.grid_searches": "count", "svm.fit_s": "s", "svm.fits": "count",
    "svm.fit_failures": "count", "svm.support_vectors": "count",
    "svm.kernel_flop_computed": "flop", "svm.predict_s": "s",
    "svm.predict_rows": "rows", "cli.codec_s": "s", "cli.model_bytes": "bytes",
    "harness.cv_s": "s", "harness.self_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}
COUNTS = tuple(k for k, u in LAYER_UNITS.items() if u != "s")


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name):
        self.name = name
        self.child = 0.0


class Tracer:
    """Installs wrappers on enter, restores the original attributes on exit."""

    def __init__(self, capture: bool = False):
        self.capture = capture
        self.seconds = defaultdict(float)   # layer -> summed span time
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.captured = defaultdict(list)   # kind -> records for the checks
        self._stack: list[_Frame] = []
        self._undo = []

    # -- spans
    def span(self, name, fn, *args, **kwargs):
        frame = _Frame(name)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self.seconds[name] += dur
            self.self_seconds[name] += dur - frame.child
            if parent is not None:
                parent.child += dur

    # -- installation
    def _wrap(self, module, attr, layer, after=None, on_error=None):
        orig = getattr(module, attr, None)
        if orig is None:
            return
        names = list(inspect.signature(orig).parameters)
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                result = tracer.span(layer, orig, *args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if after is not None:
                after({**dict(zip(names, args)), **kwargs}, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def __enter__(self):
        m = mcmfs
        self._wrap(m.cli, "load_dataset", "data.load", after=self._on_load)
        for mod in (m.cli, m.harness):
            self._wrap(mod, "fit_standardizer", "data.standardize")
            self._wrap(mod, "apply_standardizer", "data.standardize")
        for mod in (m.cli, m.harness, m.svm):
            self._wrap(mod, "stratified_kfold", "data.folds", after=self._on_folds)
        self._wrap(m.mcm, "build_mcm_lp", "mcm.build_lp")
        self._wrap(m.mcm, "solve_lp", "linprog.solve", after=self._on_solve)
        self._wrap(m.filters, "relieff_rank", "filters.relieff")
        self._wrap(m.filters, "cumulative_fraction_select", "filters.relieff")
        self._wrap(m.filters, "discretize_equal_frequency", "filters.discretize")
        self._wrap(m.filters, "fcbf_select", "filters.fcbf")
        self._wrap(m.svm, "grid_search", "svm.grid", after=self._on_grid)
        self._wrap(m.svm, "train_svm", "svm.fit", after=self._on_fit,
                   on_error=self._on_fit_error)
        self._wrap(m.svm, "svm_predict_batch", "svm.predict", after=self._on_predict)
        self._wrap(m.cli, "svm_model_to_text", "cli.codec", after=self._on_encode)
        self._wrap(m.cli, "svm_model_from_text", "cli.codec", after=self._on_decode)
        self._wrap(m.harness, "run_method_cv", "harness.cv")
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    # -- counts and captures
    def _on_load(self, args, d):
        self.counts["data.cells_parsed"] += d.n_samples * (d.n_features + 1)

    def _on_folds(self, args, plan):
        if self.capture:
            self.captured["folds"].append((args["d"].labels, plan.k, plan.assignments))

    def _on_solve(self, args, sol):
        lp = args["lp"]
        self.counts["linprog.solves"] += 1
        self.counts["linprog.pivots"] += sol.iterations
        self.counts["linprog.lp_cells_computed"] += lp.n_rows * lp.n_vars
        if self.capture and sol.x is not None:
            self.captured["lps"].append((lp.c, lp.A, lp.rel, lp.b, lp.lower_free,
                                         sol.objective_value))

    def _on_grid(self, args, result):
        self.counts["svm.grid_searches"] += 1

    def _on_fit(self, args, model):
        d, subset = args["d"], args["feature_subset"]
        self.counts["svm.fits"] += 1
        self.counts["svm.support_vectors"] += int(model.coeffs.size)
        self.counts["svm.kernel_flop_computed"] += d.n_samples ** 2 * len(subset)
        if self.capture:
            self.captured["fits"].append((d.samples[:, list(subset)], d.labels, model))

    def _on_fit_error(self, exc):
        self.counts["svm.fits"] += 1
        if isinstance(exc, mcmfs.svm.SvmTrainingError):
            self.counts["svm.fit_failures"] += 1

    def _on_predict(self, args, labels):
        model, X = args["model"], args["X"]
        self.counts["svm.predict_rows"] += len(labels)
        if self.capture:
            self.captured["predictions"].append(
                (model, X[:, list(model.feature_subset)], labels))

    def _on_encode(self, args, text):
        self.counts["cli.model_bytes"] += len(text.encode())

    def _on_decode(self, args, result):
        self.counts["cli.model_bytes"] += len(args["text"].encode())

    # -- report
    def layer_values(self) -> dict[str, float]:
        """Every layer metric of LAYER_UNITS except the round-level trace.overhead_s."""
        s = self.seconds
        out = {
            "data.load_s": s["data.load"], "data.standardize_s": s["data.standardize"],
            "data.folds_s": s["data.folds"], "mcm.build_lp_s": s["mcm.build_lp"],
            "linprog.solve_s": s["linprog.solve"], "filters.relieff_s": s["filters.relieff"],
            "filters.discretize_s": s["filters.discretize"], "filters.fcbf_s": s["filters.fcbf"],
            "svm.grid_s": s["svm.grid"], "svm.fit_s": s["svm.fit"],
            "svm.predict_s": s["svm.predict"], "cli.codec_s": s["cli.codec"],
            "harness.cv_s": s["harness.cv"], "harness.self_s": self.self_seconds["harness.cv"],
            "cli.self_s": self.self_seconds["cli"],
        }
        out.update({k: self.counts[k] for k in COUNTS})
        return out
