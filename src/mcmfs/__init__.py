"""Sparse feature selection by a minimal-complexity linear classifier.

The trainer solves a linear program whose optimum caps the ratio of the
largest to smallest signed margin; the weight vector it returns is sparse, so
the nonzero coordinates form a feature selection.  ReliefF and FCBF filter
baselines plus a cross-validated RBF-SVM harness round out the toolkit.
"""

from .data import (DataError, Dataset, FoldPlan, Standardizer,
                   apply_standardizer, fit_standardizer, load_dataset,
                   stratified_kfold)
from .filters import (DiscreteDataset, cumulative_fraction_select,
                      discretize_equal_frequency, fcbf_select, relieff_rank)
from .harness import (CvReport, HarnessConfig, MethodRecord, compare_methods,
                      format_table, report_to_text, run_method_cv)
from .linprog import EQ, GE, LE, LinearProgram, LpSolution, LpStatus, solve_lp
from .mcm import (McmModel, McmTrainingError, build_mcm_lp, mcm_classify,
                  reselect, train_mcm, vc_bound_term)
from .svm import (SvmModel, SvmTrainingError, grid_search, svm_decision_values,
                  svm_predict_batch, train_svm)

__version__ = "0.1.0"

__all__ = [
    "DataError", "Dataset", "FoldPlan", "Standardizer",
    "apply_standardizer", "fit_standardizer", "load_dataset", "stratified_kfold",
    "DiscreteDataset", "cumulative_fraction_select",
    "discretize_equal_frequency", "fcbf_select", "relieff_rank",
    "CvReport", "HarnessConfig", "MethodRecord", "compare_methods",
    "format_table", "report_to_text", "run_method_cv",
    "EQ", "GE", "LE", "LinearProgram", "LpSolution", "LpStatus", "solve_lp",
    "McmModel", "McmTrainingError", "build_mcm_lp", "mcm_classify", "reselect",
    "train_mcm", "vc_bound_term",
    "SvmModel", "SvmTrainingError", "grid_search", "svm_decision_values",
    "svm_predict_batch", "train_svm",
    "__version__",
]
