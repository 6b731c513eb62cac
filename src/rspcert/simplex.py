"""Dense tableau simplex, stacked, with verifiable primal/dual certificates.

Solves min c.x subject to B x = p, x >= 0.  Every variable is nonnegative:
a caller with an unrestricted variable splits it into the difference of two
nonnegative ones (the margin LPs of ``rsp`` do so for their objective
value).

An LP is solved two-phase: phase 1 drives out artificial columns to reach a
feasible basis, phase 2 optimises from it.  A caller that knows a feasible
basis passes it to ``solve_batch`` and the LP starts in phase 2 on a
tableau with no artificial columns.  ``rsp`` does so for the null-space
margin LP of every support, (r - k' + 2) x (n - k + 3) for A of rank r and
A_S of rank k', and for the recovery oracle's l1 LPs, each at its planted
vertex (S and m - k columns that the order-K gate's QR of A_S makes a
nonsingular basis; ``rsp._l1_starts``).  The one
fallback from a start is the core's: in the same call it solves two-phase
every LP with no start, whose start does not serve or whose started solve
fails.  These stay two-phase: the l1 LPs of ``solve_l1`` and
``solve_and_certify``, the first LP of ``lp-sparse``, and the feasibility
LPs of the sparsest search, solved only for the supports whose b its
least-squares screen (``oracle._outside_range``, normal equations on
G = A^T A formed once per search) does not put outside range(A_S).

``solve_batch`` solves LPs that share one objective and shape (an
``LpStack``) on stacked tableaux of shape (B, rows, cols) of at most
512 KiB (``linalg._STACK_BYTES``; more LPs are solved chunk by chunk).  It is
the one place that bounds tableau memory.  Each step prices, ratio-tests and
pivots every unfinished LP in lockstep, and an LP that finishes is swapped
behind the ones still pivoting.  ``solve`` is the batch of one.  Every
operation acts on each LP alone and every decision is made per LP, so an LP
gets bit-identical output whether it is solved alone, mid-chunk or across a
chunk boundary, and identical inputs pivot identically.

The core re-checks every optimum it hands out, and only optima.  Each chunk
re-checks its optimal LPs as array operations on the raw B, p and c and the
x and y just computed (primal feasibility, dual feasibility, complementary
slackness, matching objectives), never reading the tableau.  An optimum that
fails comes back as ``CertificateUnavailable``, and so does a breakdown (its
subclass ``IterationLimit``).  ``verify_certificate`` runs the same check on
one LP.  An "infeasible" status and an unbounded ray leave the core
unchecked, and at large scale the "infeasible" status can be wrong (ROADMAP
item 3 holds the Farkas check that would catch it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import stats
from .errors import CertificateUnavailable, IterationLimit
from .linalg import (DEFAULT_TOLERANCES, ToleranceConfig, as_matrix, as_vector,
                     stack_chunks)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_EPS = 1e-10     # entries at or below this never serve as pivots
_PRICE_EPS = 1e-9      # reduced-cost threshold for optimality
_RATIO_TIE = 1e-9      # ratio-test tie window
_CLEAN_EPS = 1e-11     # tiny negatives in rhs / primal values snapped to zero
_DEGENERATE_RUN = 10   # zero-step pivots tolerated before Bland's rule
_NO_ROW = np.iinfo(np.int64).max


@dataclass
class StandardLp:
    """min objective . x  s.t.  constraints @ x = rhs, x >= 0."""

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        self.constraints = as_matrix(self.constraints)
        m, n = self.constraints.shape
        self.objective = as_vector(self.objective, n)
        self.rhs = as_vector(self.rhs, m)


@dataclass
class LpSolution:
    """Solver outcome; primal/dual fields are populated when status is optimal.

    When optimal: x is primal feasible, y solves the dual equations through
    s = c - B^T y with s >= 0, x.s vanishes componentwise, and the primal and
    dual objectives agree.  ``ray`` carries an unbounded improving direction
    when status is unbounded.
    """

    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    objective_value: float | None = None
    ray: np.ndarray | None = None
    pivots: int = 0


@dataclass
class LpStack:
    """LPs of one objective and one shape, stacked along a leading axis.

    LP i is min objective . x s.t. constraints[i] @ x = rhs[i], x >= 0; rows
    that all LPs share may be broadcast views.
    """

    objective: np.ndarray    # (n,)
    constraints: np.ndarray  # (B, m, n)
    rhs: np.ndarray          # (B, m)

    @classmethod
    def of(cls, lps: Sequence[StandardLp]) -> "LpStack":
        """Stack copies of the LPs' constraints and right-hand sides."""
        first = lps[0]
        if any(lp.constraints.shape != first.constraints.shape
               or not np.array_equal(lp.objective, first.objective) for lp in lps[1:]):
            raise ValueError("stacked LPs must share one objective and one shape")
        return cls(first.objective, np.stack([lp.constraints for lp in lps]),
                   np.stack([lp.rhs for lp in lps]))

    def __getitem__(self, index) -> "LpStack":
        return LpStack(self.objective, self.constraints[index], self.rhs[index])


def tableau_bytes(m: int, n: int, phase1: bool = True) -> int:
    """Bytes of the tableau of one LP with m rows and n variables.

    Without ``phase1`` (an LP started at a given basis) the tableau has no
    artificial columns.
    """
    return 8 * (m + 1) * (n + 1 + (m if phase1 else 0))


class _Tableaux:
    """Stacked dense tableaux, over structural columns and phase 1's artificial ones if any.

    Slot s holds the tableau of LP ``lp[s]``; the LPs still pivoting occupy
    the leading slots.  Tableau row r of slot s is ``rows[row0[s] + r]``, and
    ``ints`` holds each slot's basis followed by its LP, so that basis entry r
    sits at the same flat index.  ``status`` holds each LP's outcome: OPTIMAL
    while it pivots, then UNBOUNDED, INFEASIBLE or a breakdown's message.
    ``steps`` counts the calls of ``pivot`` and ``step_lps`` the LPs they
    pivoted, for ``stats``.
    """

    def __init__(self, T: np.ndarray, basis: np.ndarray):
        # T holds each LP's tableau in canonical form for its basis: the
        # basic columns are unit columns; the objective row is set later.
        count, rows, _ = T.shape
        m = rows - 1
        self.m = m
        self.T = T
        self.work = np.empty_like(T)
        self.ratios = np.empty((count, m))
        self.rows = T.reshape(count * rows, -1)
        self.every = np.arange(count)
        self.row0 = self.every * rows
        self.ints = np.empty((count, rows), dtype=np.int64)
        self.ints[:, :m] = basis
        self.ints[:, m] = self.every
        self.basis, self.lp = self.ints[:, :m], self.ints[:, m]
        self.ints_flat = self.ints.reshape(-1)
        self.pivots = np.zeros(count, dtype=np.int64)
        self.status = np.full(count, OPTIMAL, dtype=object)
        self.entering = np.full(count, -1)    # by LP: the ray's column when unbounded
        self.steps = self.step_lps = 0

    def slots(self) -> np.ndarray:
        """The slot of each LP."""
        where = np.empty_like(self.every)
        where[self.lp] = self.every
        return where

    def partition(self, keep: np.ndarray, *local: np.ndarray) -> int:
        """Move the slots of [0, len(keep)) with ``keep`` set to the front.

        Returns their count; each per-slot array of ``local`` is permuted
        along with the slots.
        """
        active = int(np.count_nonzero(keep))
        holes = np.flatnonzero(~keep[:active])
        if holes.size:
            movers = active + np.flatnonzero(keep[active:])
            order = np.arange(keep.size)
            order[holes] = movers
            order[movers] = holes
            for a in (self.ints, self.pivots, *local):
                a[:keep.size] = a[order]
            spare = self.work[0]
            for h, mv in zip(holes.tolist(), movers.tolist()):
                spare[...] = self.T[h]
                self.T[h] = self.T[mv]
                self.T[mv] = spare
        return active

    def set_costs(self, active: int, costs: np.ndarray) -> None:
        """Price slots [0, active) by the cost row ``costs``.

        The objective row is the cost row minus the cost-weighted basic rows,
        subtracted one row at a time in row order.  Where one LP's basic cost
        in a row is zero and another's is not, the first subtracts a zero row;
        that can flip only the sign of a zero in its objective row, which no
        decision or result reads.
        """
        T, basis = self.T[:active], self.basis[:active]
        basic_costs = costs[basis]
        objective = T[:, -1]
        objective[:, :-1] = costs
        objective[:, -1] = 0.0
        for r in np.flatnonzero(basic_costs.any(axis=0)):
            objective -= basic_costs[:, r, None] * T[:, r]
        T[self.every[:active, None], -1, basis] = 0.0

    def pivot(self, active: int, r: np.ndarray, j: np.ndarray, col: np.ndarray) -> None:
        """Pivot slots [0, active) each on its row ``r`` and column ``j``.

        ``col`` holds column j of each tableau and is overwritten; the caller
        counts the pivot.
        """
        self.steps += 1
        self.step_lps += active
        T = self.T[:active]
        at = self.row0[:active] + r
        prow = self.rows.take(at, axis=0)
        col = col.reshape(-1)
        prow /= col.take(at)[:, None]
        self.rows[at] = prow
        col[at] = 0.0
        # T -= col (outer) prow, which leaves column j the unit column
        # exactly (x - x * 1 = 0).  The outer product is built in place: a
        # product of two broadcast factors is slower.
        outer = self.work[:active]
        np.copyto(outer.reshape(col.size, -1), col[:, None])
        outer *= prow[:, None, :]
        T -= outer
        rhs = T[:, :self.m, -1]
        negative = rhs < 0.0
        if np.count_nonzero(negative):
            rhs[negative & (rhs > -_CLEAN_EPS)] = 0.0
        self.ints_flat[at] = j

    def _views(self, active: int, allowed: int):
        T = self.T[:active]
        return (T, self.every[:active], T[:, -1, :allowed], T[:, :self.m, -1],
                self.ratios[:active], self.basis[:active])

    def run(self, active: int, allowed: int, max_pivots: int) -> None:
        """Pivot slots [0, active) to optimality over their first ``allowed`` columns.

        An LP with no improving column keeps ``status`` OPTIMAL; one whose
        entering column has no positive entry turns UNBOUNDED and keeps that
        column in ``entering``; one that would pivot past ``max_pivots`` gets
        the pivot-limit message.  Each step prices and ratio-tests every
        active LP, then retires those that stopped in one block.
        """
        m = self.m
        # An LP has made step - since[slot] degenerate pivots in a row, and
        # none is due for Bland's rule while step - since_min < _DEGENERATE_RUN.
        step = since_min = 0
        since = np.zeros(active, dtype=np.int64)
        # Each step pivots every active LP once: ``pending`` steps are not yet
        # in ``pivots``, and no LP reaches the limit within ``room`` steps.
        pending = 0
        room = max_pivots - int(self.pivots[:active].max(initial=0))
        T, every, reduced, rhs, ratios, basis = self._views(active, allowed)
        while active:
            # Optimal under either rule: no reduced cost below -_PRICE_EPS,
            # read at the first minimum, the Dantzig entering column.
            j = reduced.argmin(axis=1)
            done = reduced[every, j] >= -_PRICE_EPS
            if step - since_min >= _DEGENERATE_RUN:
                since_min = int(since.min())
            if step - since_min >= _DEGENERATE_RUN:
                # Bland's rule: smallest eligible index, guarantees termination.
                bland = step - since >= _DEGENERATE_RUN
                first = (reduced < -_PRICE_EPS).argmax(axis=1)
                j = first if np.count_nonzero(bland) == active else np.where(bland, first, j)
            col = T[every, :, j]
            positive = col[:, :m] > _PIVOT_EPS
            ratios.fill(np.inf)
            np.divide(rhs, col[:, :m], out=ratios, where=positive)
            best = ratios.min(axis=1)
            # Ratio ties go to the smallest basis index.
            r = np.where(ratios <= (best + _RATIO_TIE)[:, None], basis, _NO_ROW).argmin(axis=1)
            # The one place LPs stop: optimal, unbounded (a ratio test of an LP
            # not optimal found no row) or at the pivot limit.  An optimal LP
            # stays OPTIMAL; its ratio test is discarded.
            failing = room <= 0 or np.count_nonzero((best == np.inf) & ~done)
            if failing or np.count_nonzero(done):
                self.pivots[:active] += pending
                pending = 0
                if failing:
                    unbounded = ~done & ~positive.any(axis=1)
                    stuck = ~done & ~unbounded & (self.pivots[:active] >= max_pivots)
                    lps = self.lp[:active]
                    self.entering[lps[unbounded]] = j[unbounded]
                    self.status[lps[unbounded]] = UNBOUNDED
                    self.status[lps[stuck]] = f"pivot limit {max_pivots} reached"
                    done |= unbounded | stuck
                active = self.partition(~done, r, j, col, best, since)
                if not active:
                    return
                r, j, col, best, since = (a[:active] for a in (r, j, col, best, since))
                room = max_pivots - int(self.pivots[:active].max())
                T, every, reduced, rhs, ratios, basis = self._views(active, allowed)
            self.pivot(active, r, j, col)
            pending += 1
            room -= 1
            step += 1
            np.putmask(since, best > _RATIO_TIE, step)


def _artificial_tableaux(lps: LpStack) -> _Tableaux:
    # Phase 1's tableaux: rows of negative right-hand side are negated, so that
    # the artificial columns n, ..., n + m - 1 form a feasible first basis.
    B, p = lps.constraints, lps.rhs
    count, m, n = B.shape
    sigma = np.where(p < 0.0, -1.0, 1.0)
    T = np.zeros((count, m + 1, n + m + 1))
    T[:, :m, :n] = B
    T[:, :m, :n] *= sigma[:, :, None]
    rows = np.arange(m)
    T[:, rows, n + rows] = 1.0
    T[:, :m, -1] = p * sigma
    return _Tableaux(T, n + rows)


def _started_tableaux(lps: LpStack, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-2 tableaux M^-1 [B | p] of LPs at given bases, and which of the bases serve.

    Column r of LP b's M is column basis[b, r] of its B; the tableaux have no
    artificial columns.  M^-1 is applied to the non-basic columns and p
    alone, and the basic columns are set to unit columns.  A basis serves
    when its m columns are distinct, M is nonsingular and the basic solution
    M^-1 p is finite and nonnegative (entries above -_CLEAN_EPS are snapped
    to zero).
    """
    B, p = lps.constraints, lps.rhs
    count, m, n = B.shape
    every = np.arange(count)[:, None]
    basic = np.zeros((count, n), dtype=bool)
    basic[every, basis] = True
    serves = np.count_nonzero(basic, axis=1) == m
    # A basis that repeats a column does not serve; its LP takes its last m
    # columns as basic here, so that every LP has n - m non-basic ones.
    basic[~serves] = np.arange(n) >= n - m
    columns = np.nonzero(~basic)[1].reshape(count, n - m)
    M = B[every, :, basis].transpose(0, 2, 1)
    rhs = np.empty((count, m, n - m + 1))
    rhs[:, :, :-1] = B[every, :, columns].transpose(0, 2, 1)
    rhs[:, :, -1] = p
    # 16 LPs per solve: its output, live beside the tableaux and M, stays
    # small, and a singular M is retried alone within its 16.
    for lo in range(0, count, 16):
        part = slice(lo, lo + 16)
        try:
            rhs[part] = np.linalg.solve(M[part], rhs[part])
        except np.linalg.LinAlgError:
            for b in range(lo, min(lo + 16, count)):
                try:
                    rhs[b:b + 1] = np.linalg.solve(M[b:b + 1], rhs[b:b + 1])
                except np.linalg.LinAlgError:
                    serves[b] = False
    T = np.zeros((count, m + 1, n + 1))
    T[every, :m, columns] = rhs[:, :, :-1].transpose(0, 2, 1)
    T[every, :m, basis] = np.eye(m)
    T[:, :m, n] = rhs[:, :, -1]
    values = T[:, :m, -1]
    values[(values < 0.0) & (values > -_CLEAN_EPS)] = 0.0
    serves &= (values >= 0.0).all(axis=1) & np.isfinite(T).all(axis=(1, 2))
    return T, serves


def _phase1(tab: _Tableaux, n: int, tol: ToleranceConfig, max_pivots: int) -> int:
    """Drive the artificials of ``tab`` out; the count of LPs left active.

    The LPs that broke down or ended INFEASIBLE leave the active slots.
    """
    count, m = tab.basis.shape
    width = n + m
    phase1_costs = np.zeros(width)
    phase1_costs[n:] = 1.0
    tab.set_costs(count, phase1_costs)
    tab.run(count, width, max_pivots)
    # Phase 1's objective is bounded below by zero: unbounded means breakdown.
    tab.status[tab.status == UNBOUNDED] = "phase 1 reported an unbounded direction"
    tab.status[(tab.status == OPTIMAL) & (-tab.T[tab.slots(), -1, -1] > tol.feas_tol)] = INFEASIBLE
    active = tab.partition((tab.status == OPTIMAL)[tab.lp])

    # Swap basic artificials for structural columns where the row allows it;
    # the LPs that pivot on row r move to the leading slots first.  Rows that
    # stay artificial are redundant: their artificial sits at level zero with
    # cost zero in phase 2, pinning the matching dual value to zero.  A pivot
    # changes only its own row's basic variable, so the rows holding
    # artificials are known up front.
    artificial = tab.basis[:active] >= n
    for r in np.flatnonzero(artificial.any(axis=0)):
        row = np.abs(tab.T[:active, r, :n])
        j = row.argmax(axis=1)
        ok = artificial[:, r] & (row[tab.every[:active], j] > _PIVOT_EPS)
        swapped = tab.partition(ok, j, artificial)
        if swapped:
            col = tab.T[tab.every[:swapped], :, j[:swapped]]
            tab.pivot(swapped, np.full(swapped, r), j[:swapped], col)
            tab.pivots[:swapped] += 1
    return active


def _solve_chunk(lps: LpStack, tab: _Tableaux, tol: ToleranceConfig,
                 max_pivots: int) -> list[LpSolution | CertificateUnavailable]:
    # Solve the LPs of ``lps`` from their tableaux ``tab``: phase 1 first when
    # ``tab`` has artificial columns (``_artificial_tableaux``), else phase 2
    # alone from a feasible basis (``_started_tableaux``).  Each result
    # follows from the LP's ``tab.status``; only optima are re-checked.
    B, p, c = lps.constraints, lps.rhs, lps.objective
    count, m, n = B.shape
    active = _phase1(tab, n, tol, max_pivots) if tab.T.shape[2] > n + 1 else count

    width = tab.T.shape[2] - 1
    c_ext = np.zeros(width)
    c_ext[:n] = c
    tab.set_costs(active, c_ext)
    tab.run(active, n, max_pivots)
    counts = stats.current()
    if counts is not None:
        counts["simplex.steps"] += tab.steps
        counts["simplex.step_lps"] += tab.step_lps
        counts["simplex.step_slots"] += tab.steps * len(tab.T)

    at = tab.slots()
    results: list = [None] * count
    for i in np.flatnonzero(tab.status != OPTIMAL):
        s, status = at[i], tab.status[i]
        if status == INFEASIBLE:
            results[i] = LpSolution(status=INFEASIBLE, pivots=int(tab.pivots[s]))
        elif status == UNBOUNDED:
            j, basic = tab.entering[i], tab.basis[s] < n
            ray = np.zeros(n)
            ray[j] = 1.0
            ray[tab.basis[s][basic]] = -tab.T[s, :m, j][basic]
            results[i] = LpSolution(status=UNBOUNDED, ray=ray, pivots=int(tab.pivots[s]))
        else:
            results[i] = IterationLimit(status)
    optimal = np.flatnonzero(tab.status == OPTIMAL)
    if not optimal.size:
        return results

    slots = at[optimal]
    basis = tab.basis[slots]
    x = np.zeros((optimal.size, width))
    x[tab.every[:optimal.size, None], basis] = tab.T[slots, :m, -1]
    x = x[:, :n]
    x[(x < 0.0) & (x > -_CLEAN_EPS)] = 0.0

    # Dual values from the final basis: solve M^T y = c_B.  Column r of M is
    # column basis[r] of B, or for an artificial the unit column of its row
    # (with cost zero, so that row's dual is zero).
    q, r = np.nonzero(basis >= n)
    MT = B[optimal[:, None], :, np.where(basis < n, basis, 0)]
    MT[q, r] = 0.0
    MT[q, r, basis[q, r] - n] = 1.0
    c_basis = c_ext[basis][:, :, None]
    try:
        y = np.linalg.solve(MT, c_basis)[:, :, 0]
    except np.linalg.LinAlgError:
        y = np.concatenate([_dual(MT[k:k + 1], c_basis[k:k + 1]) for k in range(optimal.size)])
    if optimal.size < count:
        B, p = B[optimal], p[optimal]
    certified, s = _certified(B, p, c, x, y, tol)
    for k, i in enumerate(optimal):
        if certified[k]:
            results[i] = LpSolution(status=OPTIMAL, x=x[k], y=y[k], reduced_costs=s[k],
                                    objective_value=float(c @ x[k]),
                                    pivots=int(tab.pivots[slots[k]]))
        else:
            results[i] = CertificateUnavailable("optimal solve failed its certificate re-check")
    return results


def _dual(MT: np.ndarray, c_basis: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(MT, c_basis)[:, :, 0]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(MT[0], c_basis[0, :, 0], rcond=None)[0][None]


def solve_batch(lps: LpStack | Sequence[StandardLp], tol: ToleranceConfig = DEFAULT_TOLERANCES,
                max_pivots: int | None = None,
                basis: np.ndarray | None = None) -> list[LpSolution | CertificateUnavailable]:
    """Solve LPs of one objective and shape in lockstep, each with the rules of ``solve``.

    The LPs are pivoted in consecutive chunks of at most
    ``linalg._STACK_BYTES`` of tableau; that is the one bound on tableau
    memory, so callers pass whole stacks.  Returns one entry per LP, in
    order, each what ``solve`` gives that LP alone, except that where
    ``solve`` raises, the ``CertificateUnavailable`` is returned instead, so
    it leaves the others intact: an optimum that failed its certificate
    re-check, or a breakdown (``IterationLimit``).  Every ``LpSolution``
    returned with status optimal has passed the re-check.

    ``basis`` may give LP i a feasible starting basis: row i lists m column
    indices, column r of the basis matrix M being column ``basis[i, r]`` of
    LP i's constraints.  Such an LP skips phase 1: its tableau is
    M^-1 [B | p], built per chunk with no artificial columns, and phase 2
    runs from it.  An LP whose row starts with -1 has no start and is solved
    two-phase, as is one whose M is singular or whose basic solution M^-1 p
    has an entry below -_CLEAN_EPS, or whose started solve comes back
    ``CertificateUnavailable``; callers keep no fallback of their own.  A
    started LP, too, gets the same result whether it is solved alone,
    mid-chunk or across a chunk boundary, and among started and unstarted
    LPs alike.

    Its work is counted into the open ``stats`` scope, if any.
    """
    if not isinstance(lps, LpStack):
        if not lps:
            return []
        lps = LpStack.of(lps)
    count, m, n = lps.constraints.shape
    if max_pivots is None:
        max_pivots = 50 * (m + n)
    results: list = [None] * count
    two_phase = np.arange(count)
    unstarted = count
    if basis is not None:
        started = np.flatnonzero(basis[:, 0] >= 0)
        unstarted = count - started.size
        fallback = [np.flatnonzero(basis[:, 0] < 0)]
        for part in stack_chunks(started.size, tableau_bytes(m, n, phase1=False)):
            at = started[part]
            chunk = _rows(lps, at)
            T, serves = _started_tableaux(chunk, basis[at])
            if not serves.all():
                fallback.append(at[~serves])
                at, chunk, T = at[serves], chunk[serves], T[serves]
            if at.size:
                solved = _solve_chunk(chunk, _Tableaux(T, basis[at]), tol, max_pivots)
                fallback.append(at[[isinstance(r, CertificateUnavailable) for r in solved]])
                for i, result in zip(at, solved):
                    results[i] = result
        two_phase = np.sort(np.concatenate(fallback))
    for part in stack_chunks(two_phase.size, tableau_bytes(m, n)):
        at = two_phase[part]
        chunk = _rows(lps, at)
        solved = _solve_chunk(chunk, _artificial_tableaux(chunk), tol, max_pivots)
        for i, result in zip(at, solved):
            results[i] = result
    counts = stats.current()
    if counts is not None:
        counts["simplex.batches"] += 1
        counts["simplex.lps"] += count
        counts["simplex.pivots"] += sum(r.pivots for r in results if isinstance(r, LpSolution))
        counts["simplex.two_phase"] += two_phase.size - unstarted
    return results


def _rows(lps: LpStack, at: np.ndarray) -> LpStack:
    # The LPs ``at`` (ascending, at least one) of a stack: a view when they
    # are consecutive, else a copy of this chunk alone.
    if at[-1] - at[0] + 1 == at.size:
        return lps[at[0]:at[-1] + 1]
    return lps[at]


def solve(lp: StandardLp, tol: ToleranceConfig = DEFAULT_TOLERANCES,
          max_pivots: int | None = None) -> LpSolution:
    """Two-phase simplex solve of a standard-form LP, its optimum re-checked.

    Dantzig pricing with smallest-index tie breaks; Bland's rule engages after
    a run of degenerate pivots.  Infeasible iff the phase-1 optimum exceeds
    ``tol.feas_tol``.  Rather than return a silently wrong answer it raises
    ``CertificateUnavailable``: an optimum that fails the certificate
    re-check of ``verify_certificate``, or, as its subclass
    ``IterationLimit``, a solve that exhausts its pivot budget or breaks down.
    """
    result = solve_batch([lp], tol, max_pivots)[0]
    if isinstance(result, CertificateUnavailable):
        raise result
    return result


def verify_certificate(lp: StandardLp, sol: LpSolution,
                       tol: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Re-check one LP's solution by direct residual evaluation.

    Independent of the solve path: recomputes every certificate condition
    (primal feasibility, dual feasibility, complementary slackness, matching
    objectives) from the raw problem data, with the check and the thresholds
    ``solve_batch`` applies to every optimum.  A solution that is not
    optimal never verifies.
    """
    if not (isinstance(sol, LpSolution) and sol.status == OPTIMAL
            and sol.x is not None and sol.y is not None):
        return False
    x, y = (np.asarray(v, dtype=float)[None] for v in (sol.x, sol.y))
    return bool(_certified(lp.constraints[None], lp.rhs[None], lp.objective, x, y, tol)[0][0])


def _certified(B: np.ndarray, p: np.ndarray, c: np.ndarray, x: np.ndarray, y: np.ndarray,
               tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Which pairs (x[i], y[i]) certify LP i of (B, p, c) optimal, and s = c - B[i]^T y[i].

    Each check reads the raw problem data only; a pair with an entry that is
    not finite fails.
    """
    bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1))
    if np.count_nonzero(bad):
        x, y = np.where(bad[:, None], 0.0, x), np.where(bad[:, None], 0.0, y)
    feas, gap = tol.feas_tol, tol.gap_tol
    # Primal residual, relative to the right-hand side, and primal signs.
    residual = np.abs(np.matmul(B, x[:, :, None])[:, :, 0] - p)
    bad |= residual.max(axis=1) > feas * np.maximum(1.0, np.abs(p).max(axis=1))
    bad |= (x < -feas).any(axis=1)
    # Reduced costs: nonnegative.
    s = c - np.matmul(y[:, None, :], B)[:, 0]
    bad |= (s < -feas).any(axis=1)
    # Complementary slackness and the duality gap.
    bad |= (np.abs(x * s) > gap).any(axis=1)
    obj = x @ c
    bad |= np.abs(obj - np.einsum("bi,bi->b", p, y)) > gap * np.maximum(1.0, np.abs(obj))
    return ~bad, s
