"""Target-variety catalog: degree sets and the h^{1,2} table."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fanolink import catalog
from fanolink.catalog import (
    FANO_DEGREES,
    CatalogError,
    hodge_h12,
    is_valid_fano_degree,
    load_hodge_table,
    parse_hodge_table,
)

EXPECTED_DEGREES = {
    1: (2, 4, 6, 8, 10, 12, 14, 16, 18, 22),
    2: (8, 16, 24, 32, 40),
    3: (54,),
    4: (64,),
}


class TestDegreeRules:
    def test_expanded_degree_lists(self):
        assert set(FANO_DEGREES) == set(EXPECTED_DEGREES)
        for index, degrees in EXPECTED_DEGREES.items():
            assert tuple(sorted(FANO_DEGREES[index])) == degrees

    def test_index_one_excludes_twenty(self):
        assert not is_valid_fano_degree(1, 20)
        assert is_valid_fano_degree(1, 18)
        assert is_valid_fano_degree(1, 22)

    def test_index_one_rejects_odd_and_out_of_range(self):
        assert not is_valid_fano_degree(1, 7)
        assert not is_valid_fano_degree(1, 0)
        assert not is_valid_fano_degree(1, 24)

    def test_index_two_multiples_of_eight_only(self):
        assert is_valid_fano_degree(2, 8)
        assert is_valid_fano_degree(2, 40)
        assert not is_valid_fano_degree(2, 12)
        assert not is_valid_fano_degree(2, 48)

    def test_high_indices_single_degree(self):
        assert is_valid_fano_degree(3, 54)
        assert not is_valid_fano_degree(3, 27)
        assert is_valid_fano_degree(4, 64)
        assert not is_valid_fano_degree(4, 32)

    def test_invalid_index_raises(self):
        with pytest.raises(ValueError, match="index out of range"):
            is_valid_fano_degree(0, 2)
        with pytest.raises(ValueError, match="index out of range"):
            is_valid_fano_degree(5, 64)

    def test_non_integer_degree_is_invalid_not_an_error(self):
        assert not is_valid_fano_degree(1, Fraction(5, 2))

    def test_integral_fraction_degree_accepted(self):
        assert is_valid_fano_degree(1, Fraction(12, 2))


class TestHodgeTable:
    def test_load_covers_every_admissible_pair(self):
        table = load_hodge_table()
        assert set(table) == {(i, d) for i, degrees in FANO_DEGREES.items() for d in degrees}
        assert len(table) == 17

    def test_known_values(self):
        assert hodge_h12(1, 2) == 52
        assert hodge_h12(1, 22) == 0
        assert hodge_h12(2, 8) == 21
        assert hodge_h12(3, 54) == 0
        assert hodge_h12(4, 64) == 0

    def test_lookup_accepts_integral_fraction(self):
        assert hodge_h12(1, Fraction(12, 2)) == 20

    def test_lookup_rejects_inadmissible_degree(self):
        with pytest.raises(ValueError, match="no catalog entry"):
            hodge_h12(1, 20)

    def test_lookup_rejects_fractional_degree(self):
        with pytest.raises(ValueError, match="no catalog entry"):
            hodge_h12(1, Fraction(5, 2))


class TestParseErrors:
    def _full_lines(self) -> list[str]:
        table = load_hodge_table()
        return [f"{i} {k} {h}" for (i, k), h in sorted(table.items())]

    def test_malformed_line_reports_position(self):
        lines = self._full_lines()
        lines[2] = "1 6"
        with pytest.raises(CatalogError, match=r"<memory>:3: expected 'index degree h12'"):
            parse_hodge_table(lines)

    def test_non_integer_field(self):
        lines = self._full_lines()
        lines[0] = "1 2 fifty"
        with pytest.raises(CatalogError, match=r"<memory>:1: non-integer field"):
            parse_hodge_table(lines)

    def test_out_of_range_index(self):
        with pytest.raises(CatalogError, match="index out of range"):
            parse_hodge_table(self._full_lines() + ["7 2 0"])

    def test_inadmissible_degree(self):
        with pytest.raises(CatalogError, match="degree 20 not admissible"):
            parse_hodge_table(self._full_lines() + ["1 20 0"])

    def test_negative_h12(self):
        lines = self._full_lines()
        lines[0] = "1 2 -1"
        with pytest.raises(CatalogError, match="negative h12"):
            parse_hodge_table(lines)

    def test_duplicate_entry(self):
        lines = self._full_lines()
        with pytest.raises(CatalogError, match=r"duplicate entry for \(1, 2\)"):
            parse_hodge_table(lines + [lines[0]])

    def test_missing_pair(self):
        lines = self._full_lines()[:-1]
        with pytest.raises(CatalogError, match=r"missing entries.*\(4, 64\)"):
            parse_hodge_table(lines)

    def test_comments_and_blanks_skipped(self):
        lines = ["# heading", ""] + self._full_lines()
        lines[5] += "  # trailing note"
        assert parse_hodge_table(lines) == load_hodge_table()

    def test_source_name_in_message(self):
        with pytest.raises(CatalogError, match=r"custom\.txt:1"):
            parse_hodge_table(["garbage line here extra"], source="custom.txt")


class TestOverride:
    def test_override_is_scoped(self, monkeypatch):
        baseline = hodge_h12(1, 22)
        mutated = dict(load_hodge_table())
        mutated[(1, 22)] = baseline + 5
        with monkeypatch.context() as patch:
            patch.setattr(catalog, "load_hodge_table", lambda: mutated)
            assert hodge_h12(1, 22) == baseline + 5
        assert hodge_h12(1, 22) == baseline

    def test_loaded_table_is_read_only(self):
        with pytest.raises(TypeError):
            load_hodge_table()[(1, 2)] = 999
        assert hodge_h12(1, 2) == 52
