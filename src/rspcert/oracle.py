"""Brute-force ground truth for sparsest nonnegative solutions.

Enumerates supports of increasing size and decides, for every candidate
subsystem A_S z = b, z >= 0, whether it is feasible.  Deliberately
exhaustive and desk-scale: the enumeration is the oracle other certificates
are checked against, so every support is decided, none skipped.  A support
whose b lies outside range(A_S) is ruled out by a least-squares Farkas
witness re-checked on the raw data; every other support is decided by the
verified LP core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import stats
from .errors import NoSolutionWithin
from .linalg import (DEFAULT_SUBSET_BUDGET, DEFAULT_TOLERANCES, IndexSet,
                     SupportEnumeration, ToleranceConfig, as_matrix, as_vector,
                     rank)
from .rsp import (RspCertificate, UniquenessVerdict, Verdict, check_rsp_batch,
                  solve_and_certify, support_of, _raised)
from .simplex import INFEASIBLE, LpStack, solve_batch


@dataclass
class SparsestReport:
    """All minimal-size supports admitting a nonnegative solution.

    Each support carries one representative solution (a vertex of its
    subsystem) and a flag telling whether the support columns have full
    column rank, i.e. whether the representative is the only solution within
    that support.
    """

    k_star: int
    supports: list[IndexSet]
    representatives: list[np.ndarray]
    unique_within_support: list[bool]
    subsets_checked: int


class SystemLabel(str, Enum):
    G1 = "G1"  # unique least-l1 solution, unique sparsest solution
    G2 = "G2"  # unique least-l1 solution, multiple sparsest solutions
    G3 = "G3"  # multiple least-l1 solutions
    INDETERMINATE = "indeterminate"


@dataclass
class SystemClass:
    label: SystemLabel = field(metadata={"json": "class"})
    l1_unique: bool | None
    sparsest_count: int
    l1_solution: np.ndarray
    l1_verdict: UniquenessVerdict
    sparsest: SparsestReport


class EquivalenceStatus(str, Enum):
    STRONGLY_EQUIVALENT = "strongly_equivalent"
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    INDETERMINATE = "indeterminate"


@dataclass
class EquivalenceVerdict:
    """Whether minimizing the l1 norm solves the sparsity problem.

    ``equivalent`` is the graded reading: strong equivalence (a unique
    sparsest solution that is also the unique l1 optimum) implies it.
    """

    status: EquivalenceStatus
    passing_support: IndexSet | None
    certificates: list[RspCertificate]
    sparsest: SparsestReport = field(metadata={"json": None})

    @property
    def equivalent(self) -> bool:
        return self.status in (EquivalenceStatus.EQUIVALENT,
                               EquivalenceStatus.STRONGLY_EQUIVALENT)

    @property
    def strongly_equivalent(self) -> bool:
        return self.status is EquivalenceStatus.STRONGLY_EQUIVALENT


def sparsest_supports(A, b, max_k: int | None = None,
                      tol: ToleranceConfig = DEFAULT_TOLERANCES,
                      budget: int = DEFAULT_SUBSET_BUDGET) -> SparsestReport:
    """Enumerate every support of minimal size that solves A x = b, x >= 0.

    Each block of supports is first screened by ``_outside_range``: from
    G = A^T A and c = A^T b, formed once per call, it gives each support a
    unit y with A_S^T y ~ 0 and b^T y > 0, and a support whose y passes the
    re-check on the raw A_S and b is ruled out, since no z of any sign
    solves A_S z = b.  Only the other supports have their columns gathered,
    and each is decided by its feasibility LP in the LP core (phase 1 is an
    exact feasibility certificate up to tolerances), so a ruled-out
    support's LP is never solved and cannot break down.  A representative
    whose exact support turns out smaller than the enumerated subset is
    attributed to that smaller support and deduplicated, since the count of
    nonzeros is a property of the point, not of the enumeration set.
    """
    A = as_matrix(A)
    m, n = A.shape
    b = as_vector(b, m)
    if max_k is None:
        max_k = n
    if not 0 <= max_k <= n:
        raise ValueError("max_k must lie in [0, n]")
    if np.abs(b).max(initial=0.0) <= tol.feas_tol:
        return SparsestReport(0, [()], [np.zeros(n)], [True], 0)
    gram = _gram(A, b)
    supports = SupportEnumeration(A, range(1, max_k + 1), budget, lazy=True)
    found: dict[IndexSet, tuple[np.ndarray, bool]] = {}
    for k, block in supports:
        idx = np.array(block)
        todo = np.flatnonzero(~_outside_range(gram, idx, tol))
        columns = A.T[idx[todo]].transpose(0, 2, 1).copy()
        lps = LpStack(np.zeros(k), columns, np.broadcast_to(b, (todo.size, m)))
        stats.add("feasibility.lps", todo.size)
        stats.add("feasibility.ruled_out", len(block) - todo.size)
        for i, sol in zip(todo, map(_raised, solve_batch(lps, tol))):
            S = block[i]
            if sol.status != INFEASIBLE:
                z = np.zeros(n)
                z[list(S)] = np.maximum(sol.x, 0.0)
                exact = support_of(z, tol)
                if exact not in found:
                    found[exact] = (z, rank(A, exact, tol) == len(exact))
        # The last support of size k starts at n - k.  Stop there once a size
        # has solutions, before the enumeration budgets for the next size.
        if found and block[-1][0] == n - k:
            break
    if not found:
        raise NoSolutionWithin(max_k)
    k_star = min(len(S) for S in found)
    keep = sorted(S for S in found if len(S) == k_star)
    return SparsestReport(
        k_star=k_star,
        supports=keep,
        representatives=[found[S][0] for S in keep],
        unique_within_support=[found[S][1] for S in keep],
        subsets_checked=supports.count)


# How far b^T y must clear the largest residual the LP core accepts before
# the screen of ``_outside_range`` rules a support out.
_SCREEN_FACTOR = 1e3


class _Gram(NamedTuple):
    """What the range screen reads of A x = b, formed once per search."""

    A: np.ndarray      # (m, n)
    b: np.ndarray      # (m,)
    G: np.ndarray      # (n, n) A^T A
    c: np.ndarray      # (n,) A^T b
    scale: np.ndarray  # (n,) max(1, max_i |a_ij|), column by column


def _gram(A: np.ndarray, b: np.ndarray) -> _Gram:
    return _Gram(A, b, A.T @ A, A.T @ b, np.maximum(1.0, np.abs(A).max(axis=0)))


def _outside_range(gram: _Gram, idx: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Which supports (rows of ``idx``, (count, k)) have a checked Farkas witness.

    The normal equations (G_S + delta I) z = c_S, one stacked k x k solve
    over blocks gathered from G = A^T A and c = A^T b, give z with
    A_S z close to the projection of b onto range(A_S); the ridge delta, a
    rounding-level 1e-14 max diag(G_S) plus the smallest normal float,
    keeps every system nonsingular, a rank-deficient or zero A_S included.
    Then r = b - A_S z and y = r / |r| on the raw columns: y has
    A_S^T y ~ 0 and b^T y = |r| > 0, so no z, even one of any sign, solves
    A_S z = b.  How y was computed matters to no verdict: a support counts
    as ruled out only when y passes a re-check on the raw A_S and b,
    |A_S^T y|_inf <= feas_tol * max(1, max|A_S|), and b^T y above
    _SCREEN_FACTOR times beta = sqrt(m) * feas_tol * max(1, |b|_inf).  A
    poor z, as G_S's squared condition number can give on near-dependent
    columns, only leaves y outside the check and sends its support to the
    LP.

    Why the LP would not have called such a support feasible: the LP core's
    optimum re-check (``simplex._certified``) accepts a z only with every
    entry of A_S z - b within feas_tol * max(1, |b|_inf), so with
    |A_S z - b|_2 <= beta.  For that z, b^T y = y^T (b - A_S z) +
    (A_S^T y)^T z <= beta + |A_S^T y|_inf |z|_1, which the witness refutes
    unless |z|_1 >= (_SCREEN_FACTOR - 1) beta / |A_S^T y|_inf.  The first
    check alone keeps that bound at 999 sqrt(m) max(1, |b|_inf) /
    max(1, max|A_S|) or more, whatever the witness.  Over the supports
    the differential test in tests/test_oracle.py rules out, |A_S^T y|
    reaches 0.7 of the check on its near-dependent systems and 2.4e-3
    elsewhere, so no headroom below the check is counted on: only a
    solution about a thousand times larger than |b| / |A_S| could escape
    it, one that exists only for a nearly singular A_S.  Where b lies in range(A_S) (always for k >= m), r is
    rounding noise or zero: such a y fails the first check, or the second,
    and the support goes to the LP.
    """
    A, b, G, c, scale = gram
    diag = np.arange(idx.shape[1])
    GS = G[idx[:, :, None], idx[:, None, :]]
    GS[:, diag, diag] += (1e-14 * GS[:, diag, diag].max(axis=1, keepdims=True)
                          + np.finfo(float).tiny)
    x = np.zeros((idx.shape[0], A.shape[1]))
    x[np.arange(idx.shape[0])[:, None], idx] = np.linalg.solve(GS, c[idx][:, :, None])[:, :, 0]
    r = b - x @ A.T
    norm = np.linalg.norm(r, axis=1)
    y = r / np.where(norm > 0.0, norm, 1.0)[:, None]
    slack = np.abs(np.take_along_axis(y @ A, idx, axis=1)).max(axis=1)
    beta = np.sqrt(A.shape[0]) * tol.feas_tol * max(1.0, np.abs(b).max())
    return (slack <= tol.feas_tol * scale[idx].max(axis=1)) & (y @ b > _SCREEN_FACTOR * beta)


def classify_system(A, b, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                    budget: int = DEFAULT_SUBSET_BUDGET) -> SystemClass:
    """Place the system in the uniqueness taxonomy G1 / G2 / G3.

    G1: unique l1 optimum and a single sparsest support; G2: unique l1
    optimum with several sparsest supports; G3: the l1 optimum itself is not
    unique.  A marginal uniqueness verdict is reported as indeterminate
    rather than guessed.
    """
    x, verdict = solve_and_certify(A, b, tol)
    report = sparsest_supports(A, b, tol=tol, budget=budget)
    count = len(report.supports)
    if verdict.unique is Verdict.YES:
        label = SystemLabel.G1 if count == 1 else SystemLabel.G2
        l1_unique = True
    elif verdict.unique is Verdict.NO:
        label = SystemLabel.G3
        l1_unique = False
    else:
        label = SystemLabel.INDETERMINATE
        l1_unique = None
    return SystemClass(label=label, l1_unique=l1_unique, sparsest_count=count,
                       l1_solution=x, l1_verdict=verdict, sparsest=report)


def equivalence_verdict(A, b, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                        budget: int = DEFAULT_SUBSET_BUDGET,
                        system: SystemClass | None = None) -> EquivalenceVerdict:
    """Decide whether the l1 optimum is a sparsest nonnegative solution.

    Runs the range-space certificate at every sparsest support, as one batch
    of margin LPs: equivalence holds iff some sparsest support passes (at
    most one ever can), and holds strongly iff that support is the only
    sparsest one.  ``system``, what ``classify_system`` returns for the same
    system and tolerances, supplies the sparsest supports instead of a second
    search, and the certificate at the l1 optimum's support instead of a
    second margin LP there.
    """
    A = as_matrix(A)
    if system is None:
        report = sparsest_supports(A, b, tol=tol, budget=budget)
        known = {}
    else:
        report = system.sparsest
        known = {system.l1_verdict.rsp.support: system.l1_verdict.rsp}
    todo = [S for S in report.supports if S not in known]
    by_support = dict(zip(todo, check_rsp_batch(A, todo, tol))) | known
    certificates = [by_support[S] for S in report.supports]
    passing = [c.support for c in certificates if c.holds is Verdict.YES]
    marginal = [c.support for c in certificates if c.holds is Verdict.MARGINAL]
    if passing:
        status = (EquivalenceStatus.STRONGLY_EQUIVALENT
                  if len(report.supports) == 1 else EquivalenceStatus.EQUIVALENT)
        chosen = passing[0]
    elif marginal:
        status = EquivalenceStatus.INDETERMINATE
        chosen = None
    else:
        status = EquivalenceStatus.NOT_EQUIVALENT
        chosen = None
    return EquivalenceVerdict(status=status, passing_support=chosen,
                              certificates=certificates, sparsest=report)
