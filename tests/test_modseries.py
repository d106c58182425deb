"""Residue records, CRT reconstruction and the series file format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sawenum.modseries import (
    DEFAULT_MODULI,
    SeriesFormatError,
    SeriesTable,
    TruncatedPolynomial,
    check_coprime,
    check_crt_range,
    crt_reconstruct,
    read_series,
    write_series,
)

# published walk counts for n = 72..79, used as CRT and parser fixtures
LARGE_COUNTS = {
    72: 11107224538074654820152678182884,
    73: 29442884996760677051402398150644,
    74: 78023796077779727644807609460228,
    75: 206797849568186990141402577046860,
    76: 547952781764285893561169365957068,
    77: 1452142167241575828091155500636684,
    78: 3847327231644550282490410907667972,
    79: 10194710293557466193787900071923676,
}


class TestCrt:
    def test_small_example(self):
        assert crt_reconstruct([2, 3], [3, 5]) == 8

    def test_large_count_fixtures(self):
        for n, value in LARGE_COUNTS.items():
            residues = [value % m for m in DEFAULT_MODULI]
            assert crt_reconstruct(residues, DEFAULT_MODULI) == value, n

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            crt_reconstruct([1, 2], [6, 10])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crt_reconstruct([1], [3, 5])

    @given(st.integers(0, 2**62 * (2**62 - 1) - 1))
    def test_round_trip_default_moduli(self, value):
        residues = [value % m for m in DEFAULT_MODULI]
        assert crt_reconstruct(residues, DEFAULT_MODULI) == value

    def test_check_coprime(self):
        check_coprime(DEFAULT_MODULI)
        with pytest.raises(ValueError):
            check_coprime([4, 6])
        with pytest.raises(ValueError):
            check_coprime([1, 5])


class TestCrtRange:
    def test_default_moduli_hold_counts_to_n_77(self):
        check_crt_range(DEFAULT_MODULI, 77)
        with pytest.raises(ValueError):
            check_crt_range(DEFAULT_MODULI, 78)

    def test_bound_is_four_times_three_to_the_n_minus_one(self):
        check_crt_range((37,), 3)  # 4 * 3**2 = 36
        with pytest.raises(ValueError):
            check_crt_range((36,), 3)
        check_crt_range((2,), 0)  # c_0 = 1


class TestTruncatedPolynomial:
    def test_from_integers_reduces_pads_and_truncates(self):
        p = TruncatedPolynomial.from_integers([7, 11], 5, [0, 0, 30, 0, 1])
        assert p.coeffs == [[0, 0, 30 % 7, 0, 1, 0], [0, 0, 30 % 11, 0, 1, 0]]
        assert p.residues(2) == (30 % 7, 30 % 11)
        assert p.residues(5) == (0, 0)
        big = TruncatedPolynomial.from_integers([2**62], 1, [2**64 + 3, 5, 9])
        assert big.coeffs == [[3, 5]]


class TestSeriesTable:
    def test_to_exact_reconstructs(self):
        vals = [tuple(LARGE_COUNTS[n] % m for m in DEFAULT_MODULI)
                for n in sorted(LARGE_COUNTS)]
        table = SeriesTable(vals, DEFAULT_MODULI, {"quantity": "count"})
        exact = table.to_exact()
        assert exact.is_exact
        assert exact.values == [LARGE_COUNTS[n] for n in sorted(LARGE_COUNTS)]

    def test_to_exact_refuses_moduli_that_cannot_hold_the_counts(self):
        # c_2 = 12 reduced modulo 7 would come back as 5
        table = SeriesTable([(1,), (4,), (5,)], (7,), {"quantity": "count"})
        with pytest.raises(ValueError, match="cannot hold counts up to n = 2"):
            table.to_exact()
        # a table of another quantity has no such bound
        assert SeriesTable([(1,), (4,), (5,)], (7,)).to_exact().values == [
            1, 4, 5]

    def test_to_exact_is_identity_on_exact(self):
        t = SeriesTable([1, 4, 12])
        assert t.to_exact() is t


class TestFileFormat:
    def test_round_trip_exact(self, tmp_path):
        t = SeriesTable([1, 4, 12, 36], None, {"quantity": "count", "nmax": "3"})
        path = tmp_path / "a.series"
        write_series(t, path)
        back = read_series(path)
        assert back.values == t.values
        assert back.moduli is None
        assert back.metadata["quantity"] == "count"

    def test_round_trip_residues(self, tmp_path):
        vals = [(1, 1), (4, 4), (0, 3)]
        t = SeriesTable(vals, (5, 7), {})
        path = tmp_path / "r.series"
        write_series(t, path)
        back = read_series(path)
        assert back.values == vals and back.moduli == (5, 7)

    @given(values=st.lists(st.integers(0, 10**40), min_size=1, max_size=20))
    def test_round_trip_random_exact(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("series") / "x.series"
        write_series(SeriesTable(values), path)
        assert read_series(path).values == values

    def test_fixture_file_with_large_counts(self, tmp_path):
        path = tmp_path / "fix.series"
        lines = ["# quantity: count", "# moduli: exact"]
        lines += [f"{i}\t{LARGE_COUNTS[n]}"
                  for i, n in enumerate(sorted(LARGE_COUNTS))]
        path.write_text("\n".join(lines) + "\n")
        table = read_series(path)
        assert table.values[0] == 11107224538074654820152678182884

    def test_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "bad.series"
        path.write_text("0\t1\n2\t4\n")
        with pytest.raises(SeriesFormatError):
            read_series(path)

    def test_garbage_value_rejected(self, tmp_path):
        path = tmp_path / "bad.series"
        path.write_text("0\tfoo\n")
        with pytest.raises(SeriesFormatError):
            read_series(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "bad.series"
        path.write_text("0 1\n")
        with pytest.raises(SeriesFormatError):
            read_series(path)

    def test_residue_vector_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.series"
        path.write_text("# moduli: 5,7\n0\t1,2\n1\t3\n")
        with pytest.raises(SeriesFormatError):
            read_series(path)

    def test_nmax_header_must_match_coefficient_count(self, tmp_path):
        path = tmp_path / "short.series"
        write_series(SeriesTable([1, 4, 12, 36], None, {"nmax": "3"}), path)
        assert len(read_series(path)) == 4
        # a file cut off after n = 2 still parses line by line
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(SeriesFormatError, match="nmax"):
            read_series(path)

    def test_non_coprime_moduli_rejected(self, tmp_path):
        path = tmp_path / "bad.series"
        path.write_text("# moduli: 6,10\n0\t1,1\n")
        with pytest.raises(ValueError):
            read_series(path)
