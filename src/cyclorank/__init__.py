"""Rank criteria and density experiments for class groups of Kummer extensions.

For a prime N = 1 (mod p) and the field obtained by adjoining a p-th root of
unity and a p-th root of N, this package computes: the splitting data of N in
the Eisenstein integers (p = 3), the exact 3-rank by several cross-checkable
criteria, the power-residue product invariants behind the general-p bounds,
and large-scale density scans with convergence reporting.
"""

__version__ = "0.1.0"

from .eisenstein import (
    EisensteinInt,
    GerthMatrix,
    QuadRep,
    SplitData,
    cubic_symbol,
    gerth_matrix,
    hilbert_pi_unit_criterion,
    represent_4n,
    split_prime,
    star_condition,
)
from .errors import DomainError, TruthTableError
from .invariants import (
    AlphaCount,
    InvariantRecord,
    MuBound,
    UnitProduct,
    alpha_count,
    invariant_record,
    mu_count,
    unit_products,
)
from .modmath import (
    ModulusContext,
    PowerClass,
    TargetClass,
    classify_target,
    factorial_mod,
    power_class,
)
from .primes import is_prime, primes_in_class
from .rank import RankReport, bounds, rank3
from .reporting import emit, render
from .scan import ScanSummary, scan_alpha, scan_rank3
from .validation import TruthRow, ValidationReport, ingest_truth

__all__ = [
    "AlphaCount",
    "DomainError",
    "EisensteinInt",
    "GerthMatrix",
    "InvariantRecord",
    "ModulusContext",
    "MuBound",
    "PowerClass",
    "QuadRep",
    "RankReport",
    "ScanSummary",
    "SplitData",
    "TargetClass",
    "TruthRow",
    "TruthTableError",
    "UnitProduct",
    "ValidationReport",
    "alpha_count",
    "bounds",
    "classify_target",
    "cubic_symbol",
    "emit",
    "factorial_mod",
    "gerth_matrix",
    "hilbert_pi_unit_criterion",
    "ingest_truth",
    "invariant_record",
    "is_prime",
    "mu_count",
    "power_class",
    "primes_in_class",
    "rank3",
    "render",
    "represent_4n",
    "scan_alpha",
    "scan_rank3",
    "split_prime",
    "star_condition",
    "unit_products",
]
