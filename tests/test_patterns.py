"""Tests for response-pattern tabulation and CSV ingestion."""
import csv

import numpy as np
import pytest

from emirt import patterns
from emirt.expectation import expected_counts, posterior, response_prob_matrix
from emirt.patterns import IngestionError, load_response_csv, tabulate
from emirt.quadrature import normal_grid


class TestTabulate:
    def test_counts_duplicates(self):
        data = tabulate([[1, 0], [1, 0], [0, 1]])
        np.testing.assert_array_equal(data.patterns, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(data.freqs, [1, 2])
        assert data.n_persons == 3
        assert data.n_items == 2

    def test_single_row(self):
        with pytest.warns(UserWarning):
            data = tabulate([[1, 1]])
        np.testing.assert_array_equal(data.patterns, [[1, 1]])
        np.testing.assert_array_equal(data.freqs, [1])

    def test_exhaustive_patterns(self):
        data = tabulate([[0, 0], [0, 1], [1, 0], [1, 1]])
        np.testing.assert_array_equal(data.freqs, [1, 1, 1, 1])
        assert data.freqs.sum() == 4

    def test_lexicographic_order(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 2, size=(60, 4))
        data = tabulate(matrix)
        as_tuples = [tuple(row) for row in data.patterns]
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)
        assert data.n_patterns <= min(60, 2**4)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_round_trip_multiset(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 2, size=(rng.integers(1, 200), rng.integers(1, 10)))
        data = tabulate(matrix)
        rebuilt = np.repeat(data.patterns, data.freqs, axis=0)
        original = np.array(sorted(map(tuple, matrix)))
        np.testing.assert_array_equal(np.array(sorted(map(tuple, rebuilt))), original)
        assert data.freqs.sum() == len(matrix)

    def test_rejects_other_values(self):
        with pytest.raises(IngestionError) as err:
            tabulate([[0, 1], [2, 0]])
        assert err.value.row == 2
        assert err.value.col == 1

    def test_rejects_empty(self):
        with pytest.raises(IngestionError):
            tabulate(np.empty((0, 3)))

    def test_rejects_ragged(self):
        with pytest.raises(IngestionError):
            tabulate([[0, 1], [1]])

    def test_warns_on_constant_item(self):
        with pytest.warns(UserWarning, match="item 2"):
            tabulate([[0, 1], [1, 1]])

    @pytest.mark.parametrize("n_items", [1, 7, 8, 9, 16, 17, 32, 33, 62, 63, 64, 70, 200])
    def test_matches_row_unique_at_byte_boundaries(self, n_items):
        """Packed rows span ceil(I/8) bytes; the table must not depend on it."""
        rng = np.random.default_rng(n_items)
        matrix = rng.integers(0, 2, size=(400, n_items), dtype=np.uint8)
        matrix = np.vstack([matrix, matrix[:150], matrix[:1] ^ 1])
        data = tabulate(matrix)
        want, counts = np.unique(matrix, axis=0, return_counts=True)
        np.testing.assert_array_equal(data.patterns, want)
        np.testing.assert_array_equal(data.freqs, counts)
        assert data.patterns.dtype == np.uint8 and data.freqs.dtype == np.int64
        assert not data.patterns.flags.writeable and not data.freqs.flags.writeable


def estep_item_totals(data):
    """N1_j from the E-step: at one node every posterior row is 1, so the
    expected correct count of item j is its number of correct responses."""
    grid = normal_grid(1)
    n = data.n_items
    post, _ = posterior(data, response_prob_matrix(np.ones(n), np.zeros(n), grid), grid)
    return expected_counts(data, post).n1[:, 0]


class TestItemTotals:
    def test_small_example(self):
        data = tabulate([[1, 0], [1, 0], [0, 1]])
        np.testing.assert_array_equal(estep_item_totals(data), [2, 1])

    def test_all_zero(self):
        with pytest.warns(UserWarning):
            data = tabulate([[0, 0], [0, 0]])
        np.testing.assert_array_equal(estep_item_totals(data), [0, 0])

    def test_all_one(self):
        with pytest.warns(UserWarning):
            data = tabulate(np.ones((5, 3), dtype=int))
        np.testing.assert_array_equal(estep_item_totals(data), [5, 5, 5])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_column_sums(self, seed):
        rng = np.random.default_rng(100 + seed)
        matrix = rng.integers(0, 2, size=(rng.integers(1, 200), rng.integers(1, 10)))
        data = tabulate(matrix)
        np.testing.assert_array_equal(estep_item_totals(data), matrix.sum(axis=0))


class TestLoadResponseCsv:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,0,1\n0,0,1\n")
        np.testing.assert_array_equal(load_response_csv(path), [[1, 0, 1], [0, 0, 1]])

    def test_header_detected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("item1,item2\n1,0\n0,1\n")
        np.testing.assert_array_equal(load_response_csv(path), [[1, 0], [0, 1]])

    def test_crlf_and_spaces(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"1, 0\r\n0, 1\r\n")
        np.testing.assert_array_equal(load_response_csv(path), [[1, 0], [0, 1]])

    def test_bad_token_location(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,0\n1,7\n")
        with pytest.raises(IngestionError) as err:
            load_response_csv(path)
        assert err.value.row == 2
        assert err.value.col == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,0\n1\n")
        with pytest.raises(IngestionError) as err:
            load_response_csv(path)
        assert err.value.row == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(IngestionError):
            load_response_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(IngestionError):
            load_response_csv(path)


LOADER_INPUTS = {
    "strict": b"1,0,1\n0,0,1\n",
    "strict_header": b"item1,item2\n1,0\n0,1\n",
    "crlf": b"1,0\r\n0,1\r\n",
    "crlf_header": b"a,b\r\n1,0\r\n",
    "crlf_bom_header": b"\xef\xbb\xbfa,b\r\n1,0\r\n0,1\r\n",
    "crlf_no_final_newline": b"1,0\r\n0,1",
    "crlf_blank_line": b"1,0\r\n\r\n0,1\r\n",
    "crlf_one_item": b"1\r\n0\r\n",
    "crlf_then_lf": b"1,0\r\n0,1\n",
    "lf_then_crlf": b"1,0\n0,1\r\n",
    "lf_header_crlf_rows": b"a,b\n1,0\r\n0,1\r\n",
    "carriage_return_in_row": b"1,0\r\n0\r,1\r\n",
    "spaces": b"1, 0\n0 ,1\n",
    "blank_lines": b"1,0\n\n0,1\n\n",
    "ragged_row": b"1,0\n1\n",
    "bad_token": b"1,0\n1,7\n",
    "no_final_newline": b"1,0\n0,1",
    "quoted_header": b'"item,1","item2"\n1,0\n',
    "quoted_first_row": b'"1","0"\n1,0\n',
    "carriage_return_in_first_line": b"a\r1,0\n0,1\n",
    "utf8_bom": b"\xef\xbb\xbf1,0\n0,1\n",
    "utf8_bom_header": b"\xef\xbb\xbfa,b\n0,1\n",
    "non_utf8_byte": b"a,b\n1,0\n0,\xff\n",
    "header_only": b"a,b,c\n",
    "empty": b"",
    "one_item": b"1\n0\n1\n",
    "one_item_header": b"x\n1\n0\n",
    "blank_first_line": b"\n1,0\n0,1\n",
    "header_on_line_two": b"\nx,y\n1,0\n",
}


def _outcome(parse, path):
    try:
        matrix = parse(path)
        return (matrix.dtype, matrix.flags.writeable, matrix.tolist())
    except IngestionError as exc:
        return (str(exc), exc.row, exc.col)


class TestLoaderDifferential:
    @pytest.mark.parametrize("name", sorted(LOADER_INPUTS))
    def test_same_result_as_csv_parser(self, tmp_path, name):
        """The loader returns what the csv-module parser returns, or raises
        what it raises, whichever parser reads the file."""
        path = tmp_path / f"{name}.csv"
        path.write_bytes(LOADER_INPUTS[name])
        want = _outcome(lambda p: patterns._parse_csv(p.read_bytes(), p), path)
        assert _outcome(load_response_csv, path) == want

    @pytest.mark.parametrize(
        "name, want", [("utf8_bom", [[1, 0], [0, 1]]), ("utf8_bom_header", [[0, 1]])]
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, name, want):
        """Both parsers read past a leading UTF-8 BOM; the differential test
        above cannot see a fault that the two parsers share."""
        path = tmp_path / f"{name}.csv"
        path.write_bytes(LOADER_INPUTS[name])
        np.testing.assert_array_equal(load_response_csv(path), want)
        np.testing.assert_array_equal(patterns._parse_strict(path.read_bytes()), want)
        np.testing.assert_array_equal(patterns._parse_csv(path.read_bytes(), path), want)

    def test_byte_order_mark_keeps_error_locations(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"\xef\xbb\xbf1,0\n1,7\n")
        with pytest.raises(IngestionError) as err:
            load_response_csv(path)
        assert (err.value.row, err.value.col) == (2, 2)

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["bare", "bom"])
    def test_non_utf8_byte_keeps_its_row(self, tmp_path, bom, eol):
        """A byte that is not UTF-8 is an IngestionError at its own row; a
        decoder that reads ahead in chunks would report a later one."""
        path = tmp_path / "r.csv"
        path.write_bytes(bom + LOADER_INPUTS["non_utf8_byte"].replace(b"\n", eol))
        with pytest.raises(IngestionError) as err:
            load_response_csv(path)
        assert (err.value.row, err.value.col) == (3, None)
        assert "0xff" in str(err.value)

    def test_strict_file_never_reaches_csv_reader(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on a strict file")

        monkeypatch.setattr(csv, "reader", refuse)
        path = tmp_path / "r.csv"
        path.write_bytes(b"i1,i2,i3\n1,0,1\n0,0,1\n")
        np.testing.assert_array_equal(load_response_csv(path), [[1, 0, 1], [0, 0, 1]])

    def test_crlf_and_lf_files_give_the_same_matrix(self, tmp_path):
        """LF and CRLF, with and without a header and a byte-order mark: one
        matrix, read by the strict parser every time."""
        matrix = np.random.default_rng(3).integers(0, 2, size=(40, 7), dtype=np.uint8)
        rows = b"".join(b",".join(b"%d" % v for v in row) + b"\n" for row in matrix)
        header = b",".join(b"item%d" % j for j in range(7)) + b"\n"
        for bom in (b"", b"\xef\xbb\xbf"):
            for head in (b"", header):
                for eol in (b"\n", b"\r\n"):
                    raw = bom + (head + rows).replace(b"\n", eol)
                    path = tmp_path / "r.csv"
                    path.write_bytes(raw)
                    np.testing.assert_array_equal(patterns._parse_strict(raw), matrix)
                    np.testing.assert_array_equal(load_response_csv(path), matrix)

    @pytest.mark.parametrize("head", [b"", b"x,y,z\n"], ids=["bare", "header"])
    def test_crlf_keeps_error_locations(self, tmp_path, head):
        raw = head + b"1,0,1\n0,1,1\n1,1,7\n"
        errors = []
        for eol in (b"\n", b"\r\n"):
            path = tmp_path / "r.csv"
            path.write_bytes(raw.replace(b"\n", eol))
            with pytest.raises(IngestionError) as err:
                load_response_csv(path)
            errors.append((str(err.value), err.value.row, err.value.col))
        assert errors[0] == errors[1] == (errors[0][0], 3 + bool(head), 3)
