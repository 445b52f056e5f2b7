"""Mod-1 uniformity analysis of sequences and distributions under
rescaling transforms, with certified arbitrary-precision evaluation."""

__version__ = "0.1.0"

from .bigreal import DEFAULT_POLICY, BigReal, PrecisionPolicy
from .bounds import (BoundCertificate, Mod1Result, certify_mod1_bound,
                     discrepancy_bound, mod1_law, p_delta_exponential,
                     p_delta_exponential_envelope, p_delta_uniform,
                     p_delta_uniform_envelope)
from .distributions import (DISTRIBUTIONS, Exponential, HalfNormal,
                            LognormalBase10, ParetoI, ParetoII, SeededSampler,
                            UniformOnZeroK, parse_distribution, sup_ratio)
from .errors import (CertificateViolation, DomainError, EmptyDataset,
                     EmptySample, FileError, HypothesisViolated,
                     InsufficientPrecision, InvalidParameter, NoNumericColumn,
                     NotUnimodal, NumericalFailure, PrecisionCapExceeded,
                     TruncationFailure, UBenfordError)
from .experiments import (AnalyzeReport, BoundSweepReport, KsCell,
                          PDeltaReport, Table1Report, Table3Report,
                          analyze_dataset, bound_sweep, ks_cell, pdelta_curve,
                          run_table1, run_table3)
from .ingest import Dataset, ingest_csv
from .kernels import BACKEND
from .report import emit
from .sequences import SEQUENCES, frac_sample, odd_nonsquare, parse_sequence
from .stats import (DigitReport, benford_expected, digit_report,
                    kolmogorov_q, ks_uniform, leading_digit)
from .transforms import (IDENTITY, LOG2, LOG10, LOGLOG, PI_SQUARE, SQRT,
                         Log, LogLog, Power, Transform, eval_transform)

__all__ = [
    "AnalyzeReport", "BACKEND", "BigReal", "BoundCertificate",
    "BoundSweepReport", "CertificateViolation", "DEFAULT_POLICY",
    "DISTRIBUTIONS", "Dataset", "DigitReport", "DomainError", "EmptyDataset",
    "EmptySample", "Exponential", "FileError", "HalfNormal",
    "HypothesisViolated", "IDENTITY", "InsufficientPrecision",
    "InvalidParameter", "KsCell", "LOG2", "LOG10", "LOGLOG", "Log",
    "LogLog", "LognormalBase10", "Mod1Result", "NoNumericColumn",
    "NotUnimodal", "NumericalFailure", "PDeltaReport", "PI_SQUARE",
    "ParetoI", "ParetoII", "Power", "PrecisionCapExceeded",
    "PrecisionPolicy", "SEQUENCES",
    "SQRT", "SeededSampler", "Table1Report", "Table3Report",
    "Transform", "TruncationFailure", "UBenfordError", "UniformOnZeroK",
    "analyze_dataset", "benford_expected", "bound_sweep",
    "certify_mod1_bound", "digit_report", "discrepancy_bound", "emit",
    "eval_transform", "frac_sample", "ingest_csv",
    "kolmogorov_q", "ks_cell", "ks_uniform", "leading_digit", "mod1_law",
    "odd_nonsquare", "p_delta_exponential", "p_delta_exponential_envelope",
    "p_delta_uniform", "p_delta_uniform_envelope", "parse_distribution",
    "parse_sequence", "pdelta_curve", "run_table1", "run_table3",
    "sup_ratio", "__version__",
]
