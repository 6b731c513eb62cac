"""rspcert: certificates for sparse nonnegative recovery via linear programming.

Decides, with re-checkable witnesses, whether a nonnegative solution of an
underdetermined linear system is the unique least-l1-norm nonnegative
solution, whether minimizing the l1 norm solves the sparsity problem, and
whether a sensing matrix uniformly or non-uniformly recovers K-sparse
nonnegative vectors.
"""

from .errors import (BudgetExceeded, CertificateUnavailable, Infeasible,
                     IterationLimit, NonpositiveWeight, NoSolutionWithin,
                     NotASolution, NotNonnegative, ParseError, RspcertError,
                     Unbounded, ZeroColumn)
from .linalg import (DEFAULT_SUBSET_BUDGET, DEFAULT_TOLERANCES, RankResult,
                     ToleranceConfig, as_matrix, as_vector, augmented_rank,
                     augmented_rank_details, coherence_bound_holds, complement,
                     mutual_coherence, normalize_support, rank, rank_details,
                     spark, sparsity_bound, submatrix)
from .oracle import (EquivalenceStatus, EquivalenceVerdict, SparsestReport,
                     SystemClass, SystemLabel, classify_system,
                     equivalence_verdict, sparsest_supports)
from .orderk import (DEFAULT_CHECK_BUDGET, RecoveryOracleReport, RecoveryReport,
                     certify_order_k, uniform_recovery_oracle)
from .rsp import (FailureReason, LpSparsestResult, RspCertificate,
                  UniquenessVerdict, Verdict, certify_uniqueness, check_rsp_at,
                  lp_sparsest_pipeline, solve_and_certify, solve_l1, support_of,
                  verify_rsp_witness)
from .simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpSolution, StandardLp,
                      solve, verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "CertificateUnavailable", "Infeasible", "IterationLimit",
    "NonpositiveWeight", "NoSolutionWithin", "NotASolution", "NotNonnegative",
    "ParseError", "RspcertError", "Unbounded", "ZeroColumn",
    "DEFAULT_SUBSET_BUDGET", "DEFAULT_TOLERANCES", "DEFAULT_CHECK_BUDGET",
    "RankResult", "ToleranceConfig", "as_matrix", "as_vector",
    "augmented_rank", "augmented_rank_details", "coherence_bound_holds",
    "complement", "mutual_coherence", "normalize_support", "rank",
    "rank_details", "spark", "sparsity_bound", "submatrix",
    "EquivalenceStatus", "EquivalenceVerdict", "SparsestReport", "SystemClass",
    "SystemLabel", "classify_system", "equivalence_verdict", "sparsest_supports",
    "RecoveryOracleReport", "RecoveryReport", "certify_order_k",
    "uniform_recovery_oracle",
    "FailureReason", "LpSparsestResult", "RspCertificate", "UniquenessVerdict",
    "Verdict", "certify_uniqueness", "check_rsp_at", "lp_sparsest_pipeline",
    "solve_and_certify", "solve_l1", "support_of", "verify_rsp_witness",
    "INFEASIBLE", "OPTIMAL", "UNBOUNDED", "LpSolution", "StandardLp", "solve",
    "verify_certificate",
]
