"""Run statistics: counts of the work the library does while a scope is open.

``collect()`` opens a scope and yields its ``collections.Counter``; the
layers add to the innermost open scope, and when a scope closes its counts
are added to the one that encloses it.  With no scope open nothing is
counted, and a hook costs one ``ContextVar`` lookup.  Scopes follow
``contextvars``, so each thread and each asyncio task counts its own work.

Each count is added where its figure is already known:

* ``simplex.solve_batch``: ``simplex.batches`` (calls), ``simplex.lps``,
  ``simplex.pivots`` (of the LPs returned as an ``LpSolution``),
  ``simplex.steps`` (lockstep pivots of a stack, phase 1's artificial swaps
  included), ``simplex.step_lps`` and ``simplex.step_slots`` (the LPs
  pivoting and the tableaux allocated, summed over the steps; their ratio
  is the stack's occupancy), and ``simplex.two_phase`` (started LPs
  re-solved two-phase: the start did not serve, or its solve failed);
* the callers that know an LP's kind: ``margin.lps``, ``margin.blocks``
  (calls of ``rsp._margin_solves``), and by support size k
  ``margin.supports.<k>``, ``margin.settled_first.<k>`` and
  ``margin.settled_reweighted.<k>`` (supports settled by the first
  least-squares witness or a reweighted one); ``l1.lps``, ``l1.batches`` and
  ``l1.pivots`` (``rsp._l1_points``); ``feasibility.lps`` and
  ``feasibility.ruled_out`` (``oracle.sparsest_supports``: supports sent to
  a feasibility LP, and supports its range screen rules out, which get
  none; together they are the supports checked);
* ``linalg.ranked``: matrices ranked by a rank probe (``rank`` and the
  other reported ranks); the order-K full-column-rank gate counts nothing,
  so neither ``certify_order_k`` nor the recovery oracle counts any;
* the recovery oracle: ``oracle.trials_decided`` (trials whose l1 dual proves
  them unique) and ``oracle.trials_to_margin`` (trials decided by the gate
  and a margin LP at their support).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

_counts: ContextVar[Counter | None] = ContextVar("rspcert_stats", default=None)


@contextmanager
def collect() -> Iterator[Counter]:
    """Count the work done inside the ``with`` block; yields the scope's Counter."""
    counts: Counter = Counter()
    token = _counts.set(counts)
    try:
        yield counts
    finally:
        _counts.reset(token)
        outer = _counts.get()
        if outer is not None:
            outer.update(counts)


def current() -> Counter | None:
    """The Counter of the innermost open scope, or None when no scope is open.

    For a hook that adds several counts, or one whose count costs work to
    compute: it reads the scope once and skips the work when there is none.
    """
    return _counts.get()


def add(name: str, n: int = 1) -> None:
    """Add ``n`` to count ``name`` of the innermost open scope, if any."""
    counts = _counts.get()
    if counts is not None:
        counts[name] += n
