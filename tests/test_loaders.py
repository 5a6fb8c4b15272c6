import os
import re
import tracemalloc

import numpy as np
import pytest

from sketchdescent import loaders
from sketchdescent.errors import (
    EmptyMatrixError,
    InvalidConfigError,
    MalformedFileError,
    ParseError,
    UnsupportedFormatError,
)
from sketchdescent.loaders import load_libsvm, load_matrix_market, save_matrix_market


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestMatrixMarket:
    def test_coordinate_general(self, tmp_path):
        path = write(tmp_path, "a.mtx", """%%MatrixMarket matrix coordinate real general
% comment line
3 2 3
1 1 1.5
2 2 -2.0
3 1 4.0
""")
        M = load_matrix_market(path)
        assert np.array_equal(M, np.array([[1.5, 0.0], [0.0, -2.0], [4.0, 0.0]]))

    def test_coordinate_symmetric_mirrors(self, tmp_path):
        path = write(tmp_path, "s.mtx", """%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 2.0
2 1 1.0
2 2 2.0
""")
        M = load_matrix_market(path)
        assert np.array_equal(M, np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_coordinate_symmetric_missing_diagonal_is_zero(self, tmp_path):
        path = write(tmp_path, "s0.mtx", """%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 2.0
2 1 1.0
""")
        M = load_matrix_market(path)
        assert np.array_equal(M, np.array([[2.0, 1.0], [1.0, 0.0]]))

    def test_coordinate_empty_is_zero(self, tmp_path):
        path = write(tmp_path, "z.mtx",
                     "%%MatrixMarket matrix coordinate real general\n3 3 0\n")
        assert np.array_equal(load_matrix_market(path), np.zeros((3, 3)))

    def test_array_column_major(self, tmp_path):
        path = write(tmp_path, "v.mtx",
                     "%%MatrixMarket matrix array real general\n2 1\n3\n4\n")
        assert np.array_equal(load_matrix_market(path),
                              np.array([[3.0], [4.0]]))
        path2 = write(tmp_path, "v2.mtx",
                      "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        # values fill columns first
        assert np.array_equal(load_matrix_market(path2),
                              np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_array_symmetric_lower_triangle(self, tmp_path):
        path = write(tmp_path, "as.mtx",
                     "%%MatrixMarket matrix array real symmetric\n2 2\n2\n1\n5\n")
        assert np.array_equal(load_matrix_market(path),
                              np.array([[2.0, 1.0], [1.0, 5.0]]))

    def test_rejects_complex(self, tmp_path):
        path = write(tmp_path, "c.mtx",
                     "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2 3\n")
        with pytest.raises(UnsupportedFormatError):
            load_matrix_market(path)

    def test_rejects_bad_banner(self, tmp_path):
        path = write(tmp_path, "b.mtx", "not a matrix market file\n1 1\n")
        with pytest.raises(UnsupportedFormatError):
            load_matrix_market(path)

    def test_index_out_of_bounds(self, tmp_path):
        path = write(tmp_path, "o.mtx",
                     "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(MalformedFileError):
            load_matrix_market(path)

    def test_non_numeric_value(self, tmp_path):
        path = write(tmp_path, "n.mtx",
                     "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n")
        with pytest.raises(ParseError):
            load_matrix_market(path)

    def test_roundtrip_17_digits(self, tmp_path):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((4, 3))
        path = tmp_path / "rt.mtx"
        save_matrix_market(M, path)
        assert np.array_equal(load_matrix_market(path), M)


class TestLibsvm:
    def test_sparse_expansion(self, tmp_path):
        path = write(tmp_path, "d.txt", "1 1:2 3:1\n0 2:5\n")
        assert np.array_equal(load_libsvm(path),
                              np.array([[2.0, 0.0, 1.0], [0.0, 5.0, 0.0]]))

    def test_zero_feature_row_dropped(self, tmp_path):
        path = write(tmp_path, "d.txt", "1 1:0 2:0\n1 1:3\n")
        M = load_libsvm(path)
        assert M.shape == (1, 2)
        assert M[0, 0] == 3.0

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "e.txt", "")
        with pytest.raises(EmptyMatrixError):
            load_libsvm(path)

    def test_non_increasing_indices(self, tmp_path):
        path = write(tmp_path, "bad.txt", "1 3:1 2:1\n")
        with pytest.raises(MalformedFileError):
            load_libsvm(path)

    def test_non_numeric_value(self, tmp_path):
        path = write(tmp_path, "bad.txt", "1 1:x\n")
        with pytest.raises(ParseError):
            load_libsvm(path)

    def test_m_limit_and_declared_width(self, tmp_path):
        path = write(tmp_path, "d.txt", "1 1:1\n1 2:1\n1 3:1\n")
        M = load_libsvm(path, m_limit=2, n_features=4)
        assert M.shape == (2, 4)


def reference_load(path):
    """Token-by-token Matrix Market reader, the bulk loader's reference.

    Written from the format description for well-formed real files only:
    data lines are the non-blank lines that do not start with %, the first
    is the size line, array values fill columns (the lower triangle's when
    symmetric), and coordinate entries are written in file order, mirrored
    when symmetric, so the last write to a position wins.
    """
    with open(path, encoding="utf-8") as fh:
        banner = fh.readline().split()
        rows = [line.split() for line in (raw.strip() for raw in fh)
                if line and not line.startswith("%")]
    layout, symmetry = banner[2].lower(), banner[4].lower()
    m, n = int(rows[0][0]), int(rows[0][1])
    M = np.zeros((m, n))
    if layout == "coordinate":
        for toks in rows[1:]:
            i, j, v = int(toks[0]) - 1, int(toks[1]) - 1, float(toks[2])
            M[i, j] = v
            if symmetry == "symmetric":
                M[j, i] = v
        return M
    values = iter([float(tok) for toks in rows[1:] for tok in toks])
    for j in range(n):
        for i in range(j if symmetry == "symmetric" else 0, m):
            M[i, j] = next(values)
            if symmetry == "symmetric":
                M[j, i] = M[i, j]
    return M


def write_lines(tmp_path, name, lines, newline="\n"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)
    return path


@pytest.fixture
def by_token_calls(monkeypatch):
    """How often the loader fell back to its token-by-token walk."""
    calls = []
    for name in ("_values_by_token", "_entries_by_token"):
        original = getattr(loaders, name)

        def spy(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(loaders, name, spy)
    return calls


def assert_same_array(M, ref):
    assert M.dtype == ref.dtype == np.float64
    assert M.shape == ref.shape
    assert M.flags.c_contiguous
    assert np.array_equal(M, ref, equal_nan=True)
    assert M.tobytes() == ref.tobytes()  # signed zeros and NaN bits too


HOSTILE = ["1_000", "nan", "-Infinity", "1e400", "1.5e-400", "+.5", "5.",
           "\uff11\uff12", "-0.0"]


class TestBulkMatrixMarket:
    """The bulk parse returns exactly what a token-by-token reader does."""

    def test_array_general_hostile_tokens(self, tmp_path, by_token_calls):
        path = write_lines(tmp_path, "g.mtx", [
            "%%MatrixMarket matrix array real general", "3 3", *HOSTILE])
        assert_same_array(load_matrix_market(path), reference_load(path))
        assert by_token_calls == []

    def test_array_symmetric_hostile_tokens(self, tmp_path, by_token_calls):
        path = write_lines(tmp_path, "s.mtx", [
            "%%MatrixMarket matrix array real symmetric", "3 3", *HOSTILE[:6]])
        M = load_matrix_market(path)
        assert_same_array(M, reference_load(path))
        assert M[0, 2] == M[2, 0] == -np.inf
        assert by_token_calls == []

    def test_coordinate_hostile_tokens(self, tmp_path, by_token_calls):
        # fullwidth and underscored indices parse like int() reads them
        entries = [f"{i} {j} {v}" for (i, j), v in zip(
            [(1, 1), (2, 1), (3, 1), ("+1", 2), ("\uff12", 2), (3, "0_2"),
             (1, 3), (2, 3), (3, 3)], HOSTILE)]
        for symmetry in ("general", "symmetric"):
            rows = entries if symmetry == "general" else [
                e for e in entries if int(e.split()[0]) >= int(e.split()[1])]
            path = write_lines(tmp_path, f"c-{symmetry}.mtx", [
                f"%%MatrixMarket matrix coordinate real {symmetry}",
                f"3 3 {len(rows)}", *rows])
            assert_same_array(load_matrix_market(path), reference_load(path))
        assert by_token_calls == []

    def test_comment_lines_between_values(self, tmp_path, by_token_calls):
        path = write_lines(tmp_path, "c.mtx", [
            "%%MatrixMarket matrix array real general", "% before the size",
            "2 2", "1.5", "% between values", "", "   % indented", "2.5",
            "3.5", "%", "4.5"])
        assert_same_array(load_matrix_market(path), reference_load(path))
        path = write_lines(tmp_path, "cc.mtx", [
            "%%MatrixMarket matrix coordinate real symmetric", "2 2 2",
            "1 1 2.0", "% between entries", "2 1 -1.0"])
        assert_same_array(load_matrix_market(path), reference_load(path))
        assert by_token_calls == []

    def test_several_values_per_line_and_crlf(self, tmp_path, by_token_calls):
        for newline in ("\n", "\r\n"):
            path = write_lines(tmp_path, "w.mtx", [
                "%%MatrixMarket matrix array real general", "2 3",
                "1 2\t3", "  4   5 ", "6"], newline=newline)
            M = load_matrix_market(path)
            assert_same_array(M, reference_load(path))
            assert np.array_equal(M, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
            path = write_lines(tmp_path, "s.mtx", [
                "%%MatrixMarket matrix array real symmetric", "3 3",
                "1 2 3 4", "5 6"], newline=newline)
            assert_same_array(load_matrix_market(path), reference_load(path))
            path = write_lines(tmp_path, "c.mtx", [
                "%%MatrixMarket matrix coordinate real general", "2 2 2",
                "1 1 1.5", "2\t2   -2.5"], newline=newline)
            assert_same_array(load_matrix_market(path), reference_load(path))
        assert by_token_calls == []

    def test_grid_like_symmetric_file(self, tmp_path, by_token_calls):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((60, 30))
        A = W.T @ W
        A = 0.5 * (A + A.T)
        path = write_lines(tmp_path, "grid.mtx", [
            "%%MatrixMarket matrix array real symmetric", "30 30",
            *(f"{v:.17g}" for j in range(30) for v in A[j:, j])])
        M = load_matrix_market(path)
        assert_same_array(M, reference_load(path))
        assert np.array_equal(M, A)
        assert by_token_calls == []

    @pytest.mark.parametrize("symmetry, entries", [
        ("general", ["1 1 1.0", "2 1 2.0", "1 1 3.0"]),
        ("symmetric", ["2 1 1.0", "1 2 5.0", "2 2 2.0"]),
        ("symmetric", ["1 1 1.0", "2 2 2.0", "2 2 -7.0"]),
    ])
    def test_repeated_position_keeps_last_write(self, tmp_path, by_token_calls,
                                                symmetry, entries):
        path = write_lines(tmp_path, "d.mtx", [
            f"%%MatrixMarket matrix coordinate real {symmetry}",
            f"2 2 {len(entries)}", *entries])
        M = load_matrix_market(path)
        assert_same_array(M, reference_load(path))
        assert by_token_calls == ["_entries_by_token"]

    @pytest.mark.parametrize("token, value", [
        ("-nan", -np.nan), ("1_000", 1000.0), ("１２", 12.0)])
    def test_tokens_the_fast_parse_misreads(self, tmp_path, by_token_calls,
                                            token, value):
        # np.fromstring drops the sign of "-nan" and refuses the other two;
        # the values still follow float(), with no token walk.
        path = write_lines(tmp_path, "f.mtx", [
            "%%MatrixMarket matrix array real general", "2 2",
            "1.5 -0.0", token, "2.5"])
        M = load_matrix_market(path)
        assert_same_array(M, reference_load(path))
        assert np.array([value]).tobytes() == M[0, 1:].tobytes()
        assert by_token_calls == []

    def test_blank_body_holds_no_values(self, tmp_path):
        # np.fromstring reads a whitespace-only text as [-1.0]
        for body in (" ", "\n\n", "\t \x0b\x0c"):
            raises_at(tmp_path, [
                "%%MatrixMarket matrix array real general", "1 1", body],
                MalformedFileError, "expected 1 values, found 0")


def raises_at(tmp_path, lines, error, message):
    path = write_lines(tmp_path, "bad.mtx", lines)
    with pytest.raises(error, match=re.escape(message)):
        load_matrix_market(path)


class TestMatrixMarketErrors:
    """Bulk failures raise the token walk's error, with its location."""

    def test_bad_value_names_its_line(self, tmp_path):
        for token in ("abc", "0x10", "1d3"):
            raises_at(tmp_path, [
                "%%MatrixMarket matrix array real general", "2 2", "1",
                "% comments are not counted", f"2 {token}", "3"],
                ParseError, f"bad numeric token {token!r} at value line 2")

    def test_nan_payload_names_its_line(self, tmp_path):
        # np.fromstring reads "nan(123)" as a NaN; float() refuses it
        raises_at(tmp_path, [
            "%%MatrixMarket matrix array real general", "2 1", "1",
            "nan(123)"],
            ParseError, "bad numeric token 'nan(123)' at value line 2")

    def test_bad_entry_value_names_its_entry(self, tmp_path):
        for token in ("abc", "0x10", "1d3"):
            raises_at(tmp_path, [
                "%%MatrixMarket matrix coordinate real general", "2 2 2",
                "1 1 1.0", f"2 2 {token}"],
                ParseError, f"bad numeric token {token!r} at entry 2")

    def test_float_index_names_its_entry(self, tmp_path):
        raises_at(tmp_path, [
            "%%MatrixMarket matrix coordinate real symmetric", "2 2 3",
            "1 1 1.0", "2 2 1.0", "1.0 2 3.0"],
            ParseError, "bad integer token '1.0' at entry 3")

    def test_value_count_mismatch(self, tmp_path):
        raises_at(tmp_path, [
            "%%MatrixMarket matrix array real general", "2 2", "1 2 3 4 5"],
            MalformedFileError, "expected 4 values, found 5")
        raises_at(tmp_path, [
            "%%MatrixMarket matrix array real symmetric", "2 2", "1 2"],
            MalformedFileError, "expected 3 values, found 2")
        raises_at(tmp_path, [
            "%%MatrixMarket matrix coordinate real general", "2 2 3",
            "1 1 1.0", "2 2 1.0"],
            MalformedFileError, "declared 3 entries, found 2")
        raises_at(tmp_path, [
            "%%MatrixMarket matrix coordinate real general", "2 2 2",
            "1 1 1.0", "2 2"],
            MalformedFileError, "entry 2 has 2 fields, expected 3")

    def test_first_fault_in_file_order_wins(self, tmp_path):
        raises_at(tmp_path, [
            "%%MatrixMarket matrix coordinate real general", "2 2 2",
            "3 1 1.0", "1 1 abc"],
            MalformedFileError, "entry 1 index (3,1) out of bounds for 2x2")
        raises_at(tmp_path, [
            "%%MatrixMarket matrix coordinate real general", "2 2 2",
            "1 1 abc", "3 1 1.0"],
            ParseError, "bad numeric token 'abc' at entry 1")


class TestSizeLineAndPlacement:
    """The size line read from the file, the body once, the mask placement."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_symmetric_placement_equals_triu_indices(self, tmp_path, n):
        values = np.random.default_rng(n).standard_normal(n * (n + 1) // 2)
        want = np.zeros((n, n))
        r, c = np.triu_indices(n)
        want[c, r] = values
        want[r, c] = values
        path = write_lines(tmp_path, "s.mtx", [
            "%%MatrixMarket matrix array real symmetric", f"{n} {n}",
            *(f"{v:.17g}" for v in values)])
        assert_same_array(load_matrix_market(path), want)

    def test_blank_and_comment_lines_around_the_size_line(self, tmp_path):
        for symmetry, values in (("general", ["1", "2", "3", "4"]),
                                 ("symmetric", ["1", "2", "4"])):
            path = write_lines(tmp_path, "b.mtx", [
                f"%%MatrixMarket matrix array real {symmetry}", "", "  ",
                "% a comment", "\t% indented", "", " 2 2 ", "", "% between",
                values[0], "", *values[1:], "%", ""])
            M = load_matrix_market(path)
            assert_same_array(M, reference_load(path))
            assert M[1, 1] == 4.0
        path = write_lines(tmp_path, "bc.mtx", [
            "%%MatrixMarket matrix coordinate real general", "", "% c",
            "2 2 1", "", "2 1 -3.5"])
        assert_same_array(load_matrix_market(path), reference_load(path))

    @pytest.mark.parametrize("body", [[], [""], ["% only", "", "  % comments"]])
    def test_no_size_line(self, tmp_path, body):
        path = write_lines(tmp_path, "n.mtx", [
            "%%MatrixMarket matrix array real general", *body])
        with pytest.raises(MalformedFileError,
                           match=f"^{re.escape(str(path))}: no size line$"):
            load_matrix_market(path)

    def test_symmetric_parse_peak_memory(self, tmp_path):
        # The body string, its values (half of M) and M itself; no copy of
        # the body, no int64 index arrays.
        n = 300
        W = np.random.default_rng(3).standard_normal((2 * n, n))
        A = W.T @ W
        A = 0.5 * (A + A.T)
        path = write_lines(tmp_path, "p.mtx", [
            "%%MatrixMarket matrix array real symmetric", f"{n} {n}",
            *(f"{v:.17g}" for j in range(n) for v in A[j:, j])])
        tracemalloc.start()
        try:
            M = load_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(M, A)
        assert peak <= os.path.getsize(path) + 2.5 * 8 * n * n


class TestLibsvmRowLimit:
    @pytest.mark.parametrize("m_limit", [0, -1])
    def test_row_limit_below_one_refused(self, tmp_path, m_limit):
        path = write(tmp_path, "d.txt", "1 1:1\n1 2:1\n")
        with pytest.raises(InvalidConfigError):
            load_libsvm(path, m_limit=m_limit)

    @pytest.mark.parametrize("name, value", [
        ("m_limit", 2.5), ("m_limit", 2.0), ("m_limit", True),
        ("n_features", 3.5), ("n_features", 3.0), ("n_features", True),
        ("n_features", 0)])
    def test_non_integer_sizes_refused(self, tmp_path, name, value):
        path = write(tmp_path, "d.txt", "1 1:1\n1 2:1\n1 3:1\n")
        with pytest.raises(InvalidConfigError, match=f"{name} must be"):
            load_libsvm(path, **{name: value})

    def test_numpy_integer_sizes_accepted(self, tmp_path):
        path = write(tmp_path, "d.txt", "1 1:1\n1 2:1\n1 3:1\n")
        M = load_libsvm(path, m_limit=np.int64(2), n_features=np.int32(4))
        assert M.shape == (2, 4)
