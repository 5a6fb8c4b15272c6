"""Readers for the two on-disk matrix formats the benchmarks consume.

Matrix Market dense/coordinate real files (general or symmetric) and LIBSVM
sparse feature rows. Both readers return plain dense float64 arrays; these
solvers are desk scale and the dense representation keeps every downstream
kernel simple. A minimal Matrix Market writer is included so instances can
be round-tripped to disk.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .errors import (
    EmptyMatrixError,
    InvalidConfigError,
    MalformedFileError,
    ParseError,
    UnsupportedFormatError,
)
from .linalg import is_integer


def _float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad numeric token {token!r} {where}") from None


def _int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad integer token {token!r} {where}") from None


# A stripped coordinate entry line with exactly three fields; re's \s is the
# whitespace str.split() splits on.
_THREE_FIELDS = re.compile(r"\S+\s+\S+\s+\S+")


def _data_lines(text: str) -> list[str]:
    """Stripped lines of text that are neither blank nor % comments."""
    return [ln for ln in map(str.strip, text.split("\n"))
            if ln and ln[0] != "%"]


def _values_by_token(lines: list[str]) -> list[float]:
    """Array-layout values one token at a time, naming the line of a bad one."""
    values = []
    for lineno, ln in enumerate(lines, start=1):
        for tok in ln.split():
            values.append(_float(tok, f"at value line {lineno}"))
    return values


def _values_bulk(text: str) -> np.ndarray | None:
    """Array-layout values of a comment-free body, None if one is bad.

    np.fromstring makes no string object per token, but it reads a blank
    text as [-1.0], "-nan" unsigned and "nan(123)" as NaN, and refuses
    "1_000": a blank or refused text, or one with a NaN, goes by float()'s
    rules through np.array over the split tokens.
    """
    if not text.isspace():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a partial read only warns
            try:
                values = np.fromstring(text, sep=" ")
            except (ValueError, DeprecationWarning):
                values = None
        if values is not None and not np.isnan(values).any():
            return values
    try:
        return np.array(text.split(), dtype=np.float64)
    except ValueError:
        return None


def _entries_by_token(path, M: np.ndarray, entries: list[str],
                      symmetric: bool) -> None:
    """Write coordinate entries into M one at a time, in file order.

    The last write to a position wins, and the first bad entry raises with
    its entry number.
    """
    m, n = M.shape
    for lineno, entry in enumerate(entries, start=1):
        toks = entry.split()
        if len(toks) != 3:
            raise MalformedFileError(
                f"{path}: entry {lineno} has {len(toks)} fields, expected 3"
            )
        i = _int(toks[0], f"at entry {lineno}")
        j = _int(toks[1], f"at entry {lineno}")
        v = _float(toks[2], f"at entry {lineno}")
        if not (1 <= i <= m and 1 <= j <= n):
            raise MalformedFileError(
                f"{path}: entry {lineno} index ({i},{j}) out of bounds "
                f"for {m}x{n}"
            )
        M[i - 1, j - 1] = v
        if symmetric and i != j:
            M[j - 1, i - 1] = v


def _entries_bulk(M: np.ndarray, entries: list[str], symmetric: bool) -> bool:
    """Write coordinate entries into M with one fancy-indexed assignment.

    Returns False, leaving M untouched, when any entry is malformed or out
    of bounds, or when two writes hit one position (the mirror of an
    off-diagonal symmetric entry included): the file-order loop owns those
    cases, its errors and its last-write-wins result.
    """
    if not all(map(_THREE_FIELDS.fullmatch, entries)):
        return False
    tokens = " ".join(entries).split()
    try:
        i = np.array(tokens[0::3], dtype=np.int64) - 1
        j = np.array(tokens[1::3], dtype=np.int64) - 1
        v = np.array(tokens[2::3], dtype=np.float64)
    except (ValueError, OverflowError):
        return False
    m, n = M.shape
    if not (np.all((i >= 0) & (i < m)) and np.all((j >= 0) & (j < n))):
        return False
    if symmetric:
        off = i != j
        i, j, v = (np.concatenate((i, j[off])), np.concatenate((j, i[off])),
                   np.concatenate((v, v[off])))
    pos = np.sort(i * n + j)
    if np.any(pos[1:] == pos[:-1]):
        return False
    M[i, j] = v
    return True


def load_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file into a dense array.

    Supports the coordinate and array formats with real entries and general
    or symmetric qualifiers. Symmetric files store the lower triangle; the
    upper triangle is mirrored in. Anything else in the header is refused
    rather than guessed at.

    The size line is read from the file line by line and the body after
    it in one read, so the body is never copied. Every value is converted
    by one numpy call (_values_bulk for the array layout), then placed
    with index arrays, or for a symmetric array with one boolean
    upper-triangle mask, once into M and once into M.T. When a bulk step
    fails, the tokens are walked again one at a time, which raises the
    error naming the line or entry at fault (or, for coordinate entries
    that write one position twice, applies them in file order).
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise UnsupportedFormatError(f"{path}: missing MatrixMarket banner")
        parts = header.strip().split()
        if len(parts) != 5 or parts[1].lower() != "matrix":
            raise UnsupportedFormatError(f"{path}: malformed banner {header!r}")
        layout, field, symmetry = (p.lower() for p in parts[2:5])
        if layout not in ("coordinate", "array"):
            raise UnsupportedFormatError(f"{path}: unsupported layout {layout!r}")
        if field != "real":
            raise UnsupportedFormatError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise UnsupportedFormatError(f"{path}: unsupported symmetry {symmetry!r}")
        # The size line is the first line neither blank nor a comment.
        for line in iter(fh.readline, ""):
            size = line.split()
            if size and size[0][0] != "%":
                break
        else:
            raise MalformedFileError(f"{path}: no size line")
        rest = fh.read()

    if layout == "coordinate":
        if len(size) != 3:
            raise MalformedFileError(f"{path}: coordinate size line needs m n nnz")
        m = _int(size[0], "in size line")
        n = _int(size[1], "in size line")
        nnz = _int(size[2], "in size line")
        if symmetry == "symmetric" and m != n:
            raise MalformedFileError(f"{path}: symmetric matrix must be square")
        entries = _data_lines(rest)
        if len(entries) != nnz:
            raise MalformedFileError(
                f"{path}: declared {nnz} entries, found {len(entries)}"
            )
        M = np.zeros((m, n))
        if not _entries_bulk(M, entries, symmetry == "symmetric"):
            _entries_by_token(path, M, entries, symmetry == "symmetric")
        return M

    # Dense array layout: column-major values, lower triangle only when
    # symmetric.
    if len(size) != 2:
        raise MalformedFileError(f"{path}: array size line needs m n")
    m = _int(size[0], "in size line")
    n = _int(size[1], "in size line")
    if symmetry == "symmetric" and m != n:
        raise MalformedFileError(f"{path}: symmetric matrix must be square")
    # Comment lines may sit between values; only then is the body filtered
    # line by line before the split.
    text = "\n".join(_data_lines(rest)) if "%" in rest else rest
    values = _values_bulk(text)
    if values is None:
        values = np.array(_values_by_token(_data_lines(rest)),
                          dtype=np.float64)
    expected = m * n if symmetry == "general" else n * (n + 1) // 2
    if values.size != expected:
        raise MalformedFileError(
            f"{path}: expected {expected} values, found {values.size}"
        )
    M = np.zeros((m, n))
    if symmetry == "general":
        M.T[...] = values.reshape(n, m)
    else:
        # Column j of the lower triangle, rows j..n-1, is row j of the upper
        # triangle in row-major order: the order a boolean mask fills.
        upper = np.tri(n, dtype=bool).T
        M[upper] = values
        M.T[upper] = values
    return M


def save_matrix_market(M, path) -> None:
    """Write a dense array as a Matrix Market array-format real general file.

    Values are printed with 17 significant digits, which round-trips every
    float64 exactly.
    """
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise MalformedFileError("only 2-d arrays can be written")
    m, n = A.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{m} {n}\n")
        for j in range(n):
            for i in range(m):
                fh.write(f"{A[i, j]:.17g}\n")


def load_libsvm(path, m_limit: int | None = None,
                n_features: int | None = None) -> np.ndarray:
    """Read LIBSVM-format feature rows into a dense matrix.

    Each line is ``label index:value index:value ...`` with 1-based, strictly
    increasing indices. Labels are validated and discarded; these solvers
    synthesize a consistent right-hand side instead. The column count is the
    largest index seen unless n_features pins it. m_limit caps how many rows
    are read. Both must be integers of at least 1 when given.
    """
    for name, value in (("m_limit", m_limit), ("n_features", n_features)):
        if value is not None and not (is_integer(value) and value >= 1):
            raise InvalidConfigError(
                f"{name} must be an integer >= 1, got {value!r}")
    rows: list[dict[int, float]] = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            toks = line.split()
            _float(toks[0], f"in label at line {lineno}")
            entries: dict[int, float] = {}
            prev = 0
            for tok in toks[1:]:
                if ":" not in tok:
                    raise MalformedFileError(
                        f"{path}: line {lineno} token {tok!r} is not index:value"
                    )
                idx_s, val_s = tok.split(":", 1)
                idx = _int(idx_s, f"in feature index at line {lineno}")
                val = _float(val_s, f"in feature value at line {lineno}")
                if idx < 1:
                    raise MalformedFileError(
                        f"{path}: line {lineno} has index {idx} < 1"
                    )
                if idx <= prev:
                    raise MalformedFileError(
                        f"{path}: line {lineno} indices not strictly increasing "
                        f"({prev} then {idx})"
                    )
                if n_features is not None and idx > n_features:
                    raise MalformedFileError(
                        f"{path}: line {lineno} index {idx} exceeds declared "
                        f"feature count {n_features}"
                    )
                entries[idx] = val
                prev = idx
            rows.append(entries)
            max_index = max(max_index, prev)
            if m_limit is not None and len(rows) >= m_limit:
                break
    if not rows:
        raise EmptyMatrixError(f"{path}: no feature rows")
    n = n_features if n_features is not None else max_index
    if n == 0:
        raise EmptyMatrixError(f"{path}: rows carry no features")
    M = np.zeros((len(rows), n))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            M[r, idx - 1] = val
    # rows whose features are all zero (absent or explicit) carry no
    # information and break the no-zero-rows assumption downstream
    keep = np.linalg.norm(M, axis=1) > 0.0
    if not keep.any():
        raise EmptyMatrixError(f"{path}: every row has all-zero features")
    return M[keep]
