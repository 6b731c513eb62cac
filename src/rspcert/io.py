"""Problem file ingestion: CSV matrices/vectors and MatrixMarket array files.

Matrices are plain CSV (one row per line, comma-separated decimals) or the
MatrixMarket dense array format ("%%MatrixMarket matrix array real general",
column-major entries).  Vectors are single-column CSV, one value per line.
A leading UTF-8 byte-order mark is skipped.  Parse failures report 1-based
line and column positions.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .linalg import as_matrix, as_vector

_MM_HEADER = ("%%matrixmarket", "matrix", "array", "real", "general")


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise ParseError(path, 0, 0, str(exc)) from exc


def _parse_float(token: str, path, line_no: int, col_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, line_no, col_no, f"invalid number {token.strip()!r}") from None
    if not np.isfinite(value):
        raise ParseError(path, line_no, col_no, f"non-finite entry {token.strip()!r}")
    return value


def _load_csv_matrix(lines: list[str], path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        tokens = raw.split(",")
        row = [_parse_float(tok, path, line_no, col_no)
               for col_no, tok in enumerate(tokens, start=1)]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(path, line_no, 1,
                             f"row has {len(row)} entries, expected {width}")
        rows.append(row)
    if not rows:
        raise ParseError(path, 1, 1, "empty matrix file")
    return as_matrix(rows)


def _load_mm_matrix(lines: list[str], path) -> np.ndarray:
    # The header is the first non-blank line; positions are 1-based lines of the file.
    start = next(i for i, ln in enumerate(lines) if ln.strip())
    if [t.lower() for t in lines[start].split()] != list(_MM_HEADER):
        raise ParseError(path, start + 1, 1,
                         "expected header '%%MatrixMarket matrix array real general'")
    # Past the header, blank and comment lines are skipped: the first data
    # line is the size line, the rest are the entries.
    data = [(line_no, raw) for line_no, raw in enumerate(lines[start + 1:], start=start + 2)
            if raw.strip() and not raw.lstrip().startswith("%")]
    if not data:
        raise ParseError(path, len(lines), 1, "missing size line")
    size_line, size = data[0]
    try:
        m, n = (int(token) for token in size.split())
    except ValueError:
        raise ParseError(path, size_line, 1, "size line must hold two integers") from None
    if m < 1 or n < 1:
        raise ParseError(path, size_line, 1, f"array size {m}x{n} must be positive")
    values = [_parse_float(raw, path, line_no, 1) for line_no, raw in data[1:]]
    if len(values) != m * n:
        raise ParseError(path, len(lines), 1,
                         f"expected {m * n} entries for a {m}x{n} array, found {len(values)}")
    # MatrixMarket array entries run down each column.
    return as_matrix(np.array(values).reshape((m, n), order="F"))


def load_matrix(path) -> np.ndarray:
    """Load a dense matrix from CSV or a MatrixMarket array file."""
    lines = _read_lines(path)
    first = next((ln for ln in lines if ln.strip()), "")
    if first.lstrip().lower().startswith("%%matrixmarket"):
        return _load_mm_matrix(lines, path)
    return _load_csv_matrix(lines, path)


def load_vector(path) -> np.ndarray:
    """Load a vector from single-column CSV (one value per line)."""
    lines = _read_lines(path)
    values: list[float] = []
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        if "," in raw:
            raise ParseError(path, line_no, raw.index(",") + 1,
                             "vector files hold one value per line")
        values.append(_parse_float(raw, path, line_no, 1))
    if not values:
        raise ParseError(path, 1, 1, "empty vector file")
    return as_vector(values)
