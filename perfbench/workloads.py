"""Seeded inputs and command streams for the benchmark workloads.

Each workload turns a seed into a pool of input files written to the current
directory and a list of CLI commands over that pool.  The list is a pure
function of the seed.  A run makes at least one whole pass over it and then
cycles on until its time is up; a repeated command must reproduce its output
exactly.  Each pool is sized so that one pass takes about one run at
today's speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ORDERK_PROPERTIES = ("rsp", "wrsp", "prsp", "pwrsp")
ONESHOT_SHAPES = ((4, 8), (5, 10), (6, 12))


@dataclass
class Command:
    """One CLI invocation and the data its output is checked against."""

    key: str                    # identifies the input; repeats share it
    kind: str                   # CLI command, or certify-w for weighted certify
    argv: list[str]
    report: str                 # path the command writes with --json
    A: np.ndarray | None = None
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    pool_size: int              # distinct input sets generated per seed
    pass_commands: int          # fixed prefix replayed by the traced run
    build: Callable[[int, int], list[Command]]     # (seed, pool index) -> commands

    def commands(self, seed: int) -> list[Command]:
        """Write the input pool for ``seed``; return one pass over it in order."""
        return [cmd for i in range(self.pool_size) for cmd in self.build(seed, i)]


def _write_matrix(path: str, A: np.ndarray) -> None:
    # %.17g round-trips every double, so the CLI reads the exact arrays the
    # checks use.
    np.savetxt(path, A, delimiter=",", fmt="%.17g")


def _write_vector(path: str, v: np.ndarray) -> None:
    np.savetxt(path, v.reshape(-1, 1), fmt="%.17g")


def _planted(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    x = np.zeros(n)
    x[np.sort(rng.choice(n, size=k, replace=False))] = rng.uniform(0.1, 1.0, size=k)
    return x


def _orderk(seed: int, i: int) -> list[Command]:
    rng = np.random.default_rng([seed, 1, i])
    A = rng.standard_normal((8, 16))
    path = f"ok{i}_A.csv"
    _write_matrix(path, A)
    prop = ORDERK_PROPERTIES[i % len(ORDERK_PROPERTIES)]
    report = f"ok{i}.json"
    return [Command(f"ok{i}", "order-k",
                    ["order-k", path, "--k", "3", "--oracle", "--property", prop,
                     "--json", report], report, A)]


def _sparsest(seed: int, i: int) -> list[Command]:
    rng = np.random.default_rng([seed, 2, i])
    if i % 2 == 0:
        A = rng.standard_normal((10, 20))
    else:
        A = rng.uniform(0.0, 1.0, size=(10, 20))
    x = _planted(rng, 20, 4)
    b = A @ x
    a_path, b_path, report = f"sp{i}_A.csv", f"sp{i}_b.csv", f"sp{i}.json"
    _write_matrix(a_path, A)
    _write_vector(b_path, b)
    return [Command(f"sp{i}", "classify",
                    ["classify", a_path, b_path, "--json", report], report, A,
                    {"b": b, "x": x})]


def _oneshot(seed: int, i: int) -> list[Command]:
    rng = np.random.default_rng([seed, 3, i])
    m, n = ONESHOT_SHAPES[i % len(ONESHOT_SHAPES)]
    A = rng.standard_normal((m, n))
    x = _planted(rng, n, 2)
    b = A @ x
    w = rng.uniform(0.5, 2.0, size=n)
    c = rng.uniform(0.5, 1.5, size=n)   # positive costs keep the LP bounded
    p = f"os{i}"
    files = {"A": f"{p}_A.csv", "b": f"{p}_b.csv", "x": f"{p}_x.csv",
             "w": f"{p}_w.csv", "c": f"{p}_c.csv"}
    _write_matrix(files["A"], A)
    for name, v in (("b", b), ("x", x), ("w", w), ("c", c)):
        _write_vector(files[name], v)
    arrays = {"b": b, "x": x, "w": w, "c": c}
    cycle = [
        ("solve-l1", ["solve-l1", files["A"], files["b"]]),
        ("certify", ["certify", files["A"], files["b"], files["x"]]),
        ("certify-w", ["certify", files["A"], files["b"], files["x"],
                       "--weights", files["w"]]),
        ("lp-sparse", ["lp-sparse", files["A"], files["b"], files["c"]]),
        ("classify", ["classify", files["A"], files["b"]]),
        ("order-k", ["order-k", files["A"], "--k", "2", "--oracle"]),
        ("random-batch", ["random-batch", "--m", "4", "--n", "8", "--k", "2",
                          "--count", "2", "--seed", str(seed * 1000 + i)]),
    ]
    commands = []
    for step, argv in cycle:
        report = f"{p}_{step}.json"
        commands.append(Command(f"{p}:{step}", step, argv + ["--json", report],
                                report, A, arrays))
    return commands


WORKLOADS = {
    w.name: w for w in (
        Workload("orderk_enum", pool_size=16, pass_commands=4, build=_orderk),
        Workload("sparsest_search", pool_size=8, pass_commands=2, build=_sparsest),
        Workload("oneshot_small", pool_size=144, pass_commands=21, build=_oneshot),
    )
}
