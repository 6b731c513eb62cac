"""Golden digests of enumeration order, counts and report layout.

The exhaustive support searches decide every order-K, sparsest-support and
equivalence verdict, so their visiting order (sizes ascending, lexicographic
within a size) and their counts are part of the contract: the first failing
support is the reported counterexample, the oracle's random draws follow the
supports it visits, and the counts are reported.  Each test here reduces CLI
reports on fixed seeded inputs to those fields (or, for the report values, to
the whole document with floats at 12 significant digits) and compares a
sha256 over their canonical JSON with a digest recorded from an earlier
build.  A digest that changes means a verdict, witness, count or report field
changed.
"""

import hashlib
import itertools
import json

import numpy as np

from rspcert import RspcertError, uniform_recovery_oracle, verify_rsp_witness
from rspcert.cli import main

from conftest import (UNIQUE_A, UNIQUE_B, UNIQUE_X, planted_system,
                      write_csv_matrix, write_csv_vector)

PROPERTIES = ("rsp", "wrsp", "prsp", "pwrsp")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--json", str(out)])
    return code, json.loads(out.read_text())


def _key_paths(obj, prefix=""):
    """Every key path of a JSON document; list elements share one path."""
    if isinstance(obj, dict):
        paths = set()
        for key, value in obj.items():
            path = f"{prefix}.{key}"
            paths.add(path)
            paths |= _key_paths(value, path)
        return paths
    if isinstance(obj, list):
        paths = set()
        for item in obj:
            paths |= _key_paths(item, prefix + "[]")
        return paths
    return set()


def _order_k_matrices():
    """Three Gaussian 5x10 matrices, and a fourth with a dependent pair."""
    mats = [np.random.default_rng([2024, i]).standard_normal((5, 10)) for i in range(3)]
    dependent = mats[0].copy()
    dependent[:, 9] = 2.0 * dependent[:, 0]
    return mats + [dependent]


def test_order_k_enumeration_is_pinned(tmp_path):
    a_path = tmp_path / "A.csv"
    rows = []
    for i, A in enumerate(_order_k_matrices()):
        write_csv_matrix(a_path, A)
        for prop, k in itertools.product(PROPERTIES, (1, 2)):
            code, report = _run(tmp_path, ["order-k", str(a_path), "--k", str(k),
                                           "--property", prop, "--oracle"])
            recovery = report["verdicts"]["recovery"]
            oracle = report["verdicts"]["oracle"]
            rows.append({
                "matrix": i, "property": prop, "k": k, "exit": code,
                "holds": recovery["holds"],
                "counterexample": recovery["counterexample"],
                "subsets_checked": recovery["subsets_checked"],
                "failures_per_size": recovery["failures_per_size"],
                "marginal_subsets": recovery["marginal_subsets"],
                "oracle_failing_support": oracle["failing_support"],
                "oracle_supports_checked": oracle["supports_checked"],
            })
    assert _digest(rows) == ORDER_K_DIGEST, json.dumps(rows)


def test_classify_enumeration_is_pinned(tmp_path):
    rows = []
    for j in range(2):
        A, b, _ = planted_system(np.random.default_rng([2024, 10 + j]), 5, 10, 2)
        a_path, b_path = tmp_path / "A.csv", tmp_path / "b.csv"
        write_csv_matrix(a_path, A)
        write_csv_vector(b_path, b)
        code, report = _run(tmp_path, ["classify", str(a_path), str(b_path)])
        sparsest = report["verdicts"]["system_class"]["sparsest"]
        equivalence = report["verdicts"]["equivalence"]
        rows.append({
            "system": j, "exit": code,
            "k_star": sparsest["k_star"],
            "supports": sparsest["supports"],
            "subsets_checked": sparsest["subsets_checked"],
            "status": equivalence["status"],
            "passing_support": equivalence["passing_support"],
        })
    assert _digest(rows) == CLASSIFY_DIGEST, json.dumps(rows)


def _report_commands(tmp_path):
    """One argv per report layout: every file-based command and variant."""
    a_path, b_path = tmp_path / "A.csv", tmp_path / "b.csv"
    x_path, w_path = tmp_path / "x.csv", tmp_path / "w.csv"
    c_path = tmp_path / "c.csv"
    write_csv_matrix(a_path, UNIQUE_A)
    write_csv_vector(b_path, UNIQUE_B)
    write_csv_vector(x_path, UNIQUE_X)
    write_csv_vector(w_path, np.array([2.0, 2.0, 1.0, 1.0]))
    write_csv_vector(c_path, np.ones(4))
    system = [str(a_path), str(b_path)]
    return {
        "solve-l1": ["solve-l1", *system],
        "certify": ["certify", *system, str(x_path)],
        "certify-weighted": ["certify", *system, str(x_path), "--weights", str(w_path)],
        "order-k": ["order-k", str(a_path), "--k", "2"],
        "order-k-oracle": ["order-k", str(a_path), "--k", "2", "--oracle"],
        "classify": ["classify", *system],
        "lp-sparse": ["lp-sparse", *system, str(c_path)],
    }


def _rounded(obj, tmp_path):
    """A JSON value with floats at 12 significant digits and paths made relative."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, str):
        return obj.replace(str(tmp_path), "")
    if isinstance(obj, dict):
        return {key: _rounded(value, tmp_path) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_rounded(item, tmp_path) for item in obj]
    return obj


def test_report_key_sets_are_pinned(tmp_path):
    commands = _report_commands(tmp_path)
    keys = {name: sorted(_key_paths(_run(tmp_path, argv)[1]))
            for name, argv in commands.items()}
    batch = tmp_path / "batch.jsonl"
    assert main(["random-batch", "--m", "2", "--n", "4", "--k", "1",
                 "--count", "2", "--seed", "9", "--json", str(batch)]) == 0
    keys["random-batch"] = [sorted(_key_paths(json.loads(line)))
                            for line in batch.read_text().splitlines()]
    assert _digest(keys) == KEYS_DIGEST, json.dumps(keys)


def _witnesses(obj):
    """Every range-space certificate with a witness in a JSON document."""
    if isinstance(obj, dict):
        if obj.get("witness_y") is not None:
            yield obj
        for value in obj.values():
            yield from _witnesses(value)
    elif isinstance(obj, list):
        for item in obj:
            yield from _witnesses(item)


def test_report_values_are_pinned(tmp_path):
    # Witnesses, tolerances, inputs and every other value, not just the keys.
    # A witness at a degenerate optimum is one point of the optimal face, so
    # each is also re-verified: lp-sparse certifies A with the cost row
    # appended, the weighted certify A with its columns divided by w.
    matrices = {"lp-sparse": np.vstack([UNIQUE_A, np.ones(4)]),
                "certify-weighted": UNIQUE_A / np.array([2.0, 2.0, 1.0, 1.0])}
    rows, verified = [], 0
    for name, argv in _report_commands(tmp_path).items():
        code, report = _run(tmp_path, argv)
        report.pop("timing_ms")
        rows.append({"command": name, "exit": code, "report": _rounded(report, tmp_path)})
        for cert in _witnesses(report):
            M = matrices.get(name, UNIQUE_A)
            assert verify_rsp_witness(M, cert["support"], cert["witness_eta"], cert["witness_y"])
            verified += 1
    assert verified == 6
    assert _digest(rows) == VALUES_DIGEST, json.dumps(rows)


def test_random_batch_output_is_pinned(capsys):
    assert main(["random-batch", "--m", "4", "--n", "8", "--k", "2",
                 "--count", "5", "--seed", "7"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    rows[-1].pop("timing_ms")
    assert _digest(rows) == RANDOM_BATCH_DIGEST, json.dumps(rows)


def _oracle_row(A, K, **options):
    try:
        report = uniform_recovery_oracle(A, K, **options)
    except RspcertError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"recovers": report.recovers, "failing_support": report.failing_support,
            "supports_checked": report.supports_checked}


def oracle_rows():
    """The recovery oracle's outcome on the benchmark's order-K matrices and on 5x10 cases.

    The 8x16 matrices are those of the orderk_enum benchmark workload, K=3,
    seeds 1 and 7, with the property cycling as there.  The 5x10 cases draw three trials per support, and
    two of them recover every support of size 1 and 2, so the random draws
    of a whole enumeration follow one another in order.
    """
    rows = []
    for seed, i in itertools.product((1, 7), range(16)):
        A = np.random.default_rng([seed, 1, i]).standard_normal((8, 16))
        prop = PROPERTIES[i % len(PROPERTIES)]
        rows.append({"seed": seed, "matrix": i, "property": prop,
                     **_oracle_row(A, 3, property=prop)})
    small = [(i, K, PROPERTIES[(i + K) % 4]) for i in range(4) for K in (1, 2, 3)]
    small += [(25, 2, "rsp"), (52, 2, "wrsp"), (25, 3, "prsp"), (52, 3, "rsp")]
    for i, K, prop in small:
        A = np.random.default_rng([2027, i]).standard_normal((5, 10))
        rows.append({"matrix": i, "k": K, "property": prop,
                     **_oracle_row(A, K, trials_per_support=3, seed=i, property=prop)})
    return rows


def test_recovery_oracle_is_pinned():
    rows = oracle_rows()
    assert sum(row.get("recovers") is True for row in rows) == 6
    # This run stopped with "phase 1 reported an unbounded direction" while
    # its margin LPs ran phase 1; it must now fail where the certifier does.
    assert {"seed": 7, "matrix": 4, "property": "rsp", "recovers": False,
            "failing_support": (0, 1, 8), "supports_checked": 143} in rows
    assert not any("error" in row for row in rows)
    assert _digest(rows) == ORACLE_DIGEST, json.dumps(rows)


# Recorded from the build whose enumerations were still five hand-written
# combinations() loops; the single-generator core must reproduce them.
ORDER_K_DIGEST = "274a67e981f6350a6f11bdecacf2543ba47bae9a4eff4a817691041db3f87c53"
CLASSIFY_DIGEST = "6a17cb46af1ba83a500813c7890a44681e7db1cc550b52cc14bc7fd92f1f144c"
KEYS_DIGEST = "bd91edf65b7a85d45f7315f2bd599e82a7f7d551a166e332b15b3fe23ed8a31f"
RANDOM_BATCH_DIGEST = "5ef9ca335f71da98ed1495a029183ac390da62ba058e04263a917477b1754f01"
# Recorded from the build whose certifier solves the margin LP of every
# full-rank support in null-space coordinates: the lp-sparse witness moved to
# another point of its degenerate optimal face.  Every other value is that of
# the build that started the full margin LP at a constructed feasible basis.
VALUES_DIGEST = "c649510a3aee6c51f75b311f0b9365f225254f29e6a00e9175ea56b236971a45"
# Recorded from the build whose certifier started every full-rank margin LP
# at a constructed feasible basis.  Every row but seed 7 matrix 4, which
# broke down in phase 1 before, is that of the build whose recovery oracle
# solved and certified one support at a time.
ORACLE_DIGEST = "8ed5e65dfe1ca6d8a13fd55578fd8293f1b0ad2a9a5a4a0dee4ce620a038168a"
