"""Outside-in tracing of rspcert's layers.

The tracer replaces public functions under the names their callers imported
them as (``rspcert.rsp.solve``, ``rspcert.orderk.check_rsp_at``, ...) with
wrappers that record a span per call: name, parent span, start, end and a
small observation of the result.  No source file of the program is touched,
and ``uninstall`` puts every original back.  A span is named after the
module that defines the function, so ``rspcert.orderk.rank`` records as
``linalg.rank``.  A binding that no longer exists is listed as absent and the
metrics that need it read 0 with a sample count of 0.

Self time is a span's duration minus the durations of its child spans; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from dataclasses import dataclass, field, fields
from time import perf_counter

# Caller module -> names it calls through.  A dict binding (the CLI's
# property table) has each of its values wrapped.
BINDINGS = {
    "rspcert.cli": ("main", "load_matrix", "load_vector", "_PROPERTIES", "rsp_order_k",
                    "uniform_recovery_oracle", "classify_system", "equivalence_verdict",
                    "certify_uniqueness", "certify_weighted_uniqueness",
                    "lp_sparsest_pipeline", "solve_and_certify"),
    "rspcert.report": ("tolerance_dict", "rsp_certificate_dict", "uniqueness_dict",
                       "sparsest_dict", "system_class_dict", "equivalence_dict",
                       "recovery_dict", "oracle_dict", "lp_sparsest_dict",
                       "build_report", "dump_report"),
    "rspcert.orderk": ("check_rsp_at", "solve_and_certify", "rank"),
    "rspcert.oracle": ("sparsest_supports", "check_rsp_at", "solve_and_certify", "rank"),
    "rspcert.rsp": ("solve", "verify_certificate", "check_rsp_at", "solve_l1",
                    "solve_and_certify", "certify_uniqueness", "rank_details",
                    "augmented_rank_details"),
}

RANK_SPANS = ("linalg.rank", "linalg.rank_details", "linalg.augmented_rank_details")
CERTIFY_SPANS = ("orderk.rsp_order_k", "orderk.wrsp_order_k", "orderk.prsp_order_k",
                 "orderk.pwrsp_order_k")
# A simplex solve is tagged by the nearest enclosing span that opened it.
SOLVE_TAGS = {"rsp.check_rsp_at": "margin", "rsp.solve_l1": "l1",
              "oracle.sparsest_supports": "feas", "rsp.lp_sparsest_pipeline": "lp"}


def _observe_solve(sol):
    return sol.status, sol.pivots


OBSERVERS = {
    "simplex.solve": _observe_solve,
    "rsp.check_rsp_at": lambda cert: cert.holds.value,
    "orderk.uniform_recovery_oracle": lambda r: r.supports_checked,
    "oracle.sparsest_supports": lambda r: r.subsets_checked,
    **{name: (lambda r: r.subsets_checked) for name in CERTIFY_SPANS},
}


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('rspcert.')}.{fn.__qualname__}"


class Tracer:
    """Span recorder for one process; install, run commands, summarize."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent, start, end, observation]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, fn):
        name = _span_name(fn)
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = "raised"
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    span[4] = observe(result)
                except AttributeError:
                    span[4] = None
            return result
        return traced

    def install(self) -> None:
        for modname, names in BINDINGS.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.extend(f"{modname}.{n}" for n in names)
                continue
            for attr in names:
                target = getattr(module, attr, None)
                if isinstance(target, dict):
                    wrapped = {k: self._wrap(v) if callable(v) else v
                               for k, v in target.items()}
                elif callable(target):
                    wrapped = self._wrap(target)
                else:
                    self.absent.append(f"{modname}.{attr}")
                    continue
                self._saved.append((module, attr, target))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> "PassStats":
        """Summarize and clear the spans recorded since the last call."""
        stats = PassStats.from_spans(self.spans)
        self.spans.clear()
        return stats


@dataclass
class PassStats:
    """Aggregates of one traced pass over a fixed list of commands."""

    calls: Counter = field(default_factory=Counter)
    time: Counter = field(default_factory=Counter)        # seconds by span name
    self_time: Counter = field(default_factory=Counter)   # seconds by span name
    layer_self: Counter = field(default_factory=Counter)  # seconds by layer
    solves: Counter = field(default_factory=Counter)      # by tag
    solve_time: Counter = field(default_factory=Counter)  # by tag
    pivots: Counter = field(default_factory=Counter)      # by tag
    statuses: Counter = field(default_factory=Counter)    # by (tag, status)
    outcomes: Counter = field(default_factory=Counter)    # by (span name, observation)
    work: Counter = field(default_factory=Counter)        # supports/subsets by span name

    @classmethod
    def from_spans(cls, spans: list[list]) -> "PassStats":
        st = cls()
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]
        for i, (name, parent, _, _, obs) in enumerate(spans):
            own = dur[i] - child[i]
            st.calls[name] += 1
            st.time[name] += dur[i]
            st.self_time[name] += own
            st.layer_self[name.split(".", 1)[0]] += own
            if name == "simplex.solve":
                tag = _tag(spans, parent)
                st.solves[tag] += 1
                st.solve_time[tag] += dur[i]
                if isinstance(obs, tuple):
                    status, pivots = obs
                    st.pivots[tag] += pivots
                    st.statuses[tag, status] += 1
                else:
                    st.statuses[tag, "raised"] += 1
            elif isinstance(obs, int) and not isinstance(obs, bool):
                st.work[name] += obs
            elif obs is not None:
                st.outcomes[name, obs] += 1
        return st

    def counts(self) -> dict:
        """Every exact count of the pass; two passes over one seed must agree."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "solves": dict(sorted(self.solves.items())),
            "pivots": dict(sorted(self.pivots.items())),
            "statuses": sorted([*k, v] for k, v in self.statuses.items()),
            "outcomes": sorted([*k, v] for k, v in self.outcomes.items()),
            "work": dict(sorted(self.work.items())),
        }


def _tag(spans: list[list], parent: int) -> str:
    while parent >= 0:
        tag = SOLVE_TAGS.get(spans[parent][0])
        if tag is not None:
            return tag
        parent = spans[parent][1]
    return "other"


def _ratio(num: float, den: float) -> tuple[float, int]:
    return (num / den if den else 0.0), int(den)


def layer_metrics(passes: list[PassStats], commands: int, report_bytes: int) -> dict:
    """Per-layer metrics over traced passes: name -> (value, sample count).

    ``commands`` and ``report_bytes`` are totals over the same passes.
    Counts are per pass (identical across passes); times are averaged over
    every call in every pass.
    """
    total = PassStats()
    for p in passes:
        for f in fields(PassStats):
            getattr(total, f.name).update(getattr(p, f.name))
    n_pass = len(passes)
    solves = sum(total.solves.values())
    ranks = sum(total.calls[n] for n in RANK_SPANS)
    certify_time = sum(total.time[n] for n in CERTIFY_SPANS)
    certify_work = sum(total.work[n] for n in CERTIFY_SPANS)
    oracle_name = "orderk.uniform_recovery_oracle"
    orderk_spans = CERTIFY_SPANS + (oracle_name,)
    orderk_time = sum(total.time[n] for n in orderk_spans)
    sparsest = "oracle.sparsest_supports"
    feas = total.solves["feas"]
    feas_infeasible = total.statuses["feas", "infeasible"]
    marginal = total.outcomes["rsp.check_rsp_at", "marginal"]
    loads = total.calls["io.load_matrix"] + total.calls["io.load_vector"]
    load_time = total.time["io.load_matrix"] + total.time["io.load_vector"]
    us = 1e6
    m = {
        "simplex.solves": (solves / n_pass, solves),
        "simplex.us_per_pivot": _ratio(us * sum(total.solve_time.values()),
                                       sum(total.pivots.values())),
        "simplex.verify_us": _ratio(us * total.time["simplex.verify_certificate"],
                                    total.calls["simplex.verify_certificate"]),
        "simplex.verified_frac": _ratio(total.calls["simplex.verify_certificate"], solves),
        "simplex.infeasible_frac": _ratio(
            sum(v for (_, s), v in total.statuses.items() if s == "infeasible"), solves),
        "rsp.check_rsp_at.calls": (total.calls["rsp.check_rsp_at"] / n_pass,
                                   total.calls["rsp.check_rsp_at"]),
        "rsp.check_rsp_at.self_us": _ratio(us * total.self_time["rsp.check_rsp_at"],
                                           total.calls["rsp.check_rsp_at"]),
        "rsp.solve_and_certify.self_us": _ratio(us * total.self_time["rsp.solve_and_certify"],
                                                total.calls["rsp.solve_and_certify"]),
        "rsp.marginal_frac": _ratio(marginal, total.calls["rsp.check_rsp_at"]),
        "linalg.rank.calls": (ranks / n_pass, ranks),
        "linalg.rank_us": _ratio(us * sum(total.time[n] for n in RANK_SPANS), ranks),
        "orderk.certify_us_per_support": _ratio(us * certify_time, certify_work),
        "orderk.oracle_us_per_support": _ratio(us * total.time[oracle_name],
                                               total.work[oracle_name]),
        "orderk.self_frac": (total.layer_self["orderk"] / orderk_time if orderk_time else 0.0,
                             sum(total.calls[n] for n in orderk_spans)),
        "oracle.sparsest_calls_per_cmd": _ratio(total.calls[sparsest], commands),
        "oracle.us_per_subset": _ratio(us * total.time[sparsest], total.work[sparsest]),
        "oracle.self_us_per_subset": _ratio(us * total.self_time[sparsest],
                                            total.work[sparsest]),
        "oracle.feasible_frac": _ratio(feas - feas_infeasible, feas),
        "io.loads_per_cmd": _ratio(loads, commands),
        "io.load_us": _ratio(us * load_time, loads),
        "report.emit_us": _ratio(us * total.layer_self["report"], commands),
        "report.bytes_per_cmd": _ratio(report_bytes, commands),
        "cli.self_ms": _ratio(1e3 * total.layer_self["cli"], commands),
    }
    for tag in ("margin", "l1", "feas", "lp"):
        m[f"simplex.solve_us.{tag}"] = _ratio(us * total.solve_time[tag], total.solves[tag])
    for tag in ("margin", "l1", "feas"):
        m[f"simplex.pivots_per_solve.{tag}"] = _ratio(total.pivots[tag], total.solves[tag])
    return m
