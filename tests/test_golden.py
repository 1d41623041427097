"""Golden table loading, validation errors, row numbering, and diffing."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from importlib import resources

import pytest

from fanolink.golden import (
    DiffReport,
    GoldenDataError,
    diff,
    golden_for_family,
    golden_key,
    load_golden,
)
from fanolink.model import CELL_COLUMNS, FAMILIES, ExistenceStatus
from fanolink.rational import as_integer
from fanolink.search import FAMILY_IDS, record

# Table number -> (family id, row count), as the family specs state them.
TABLES = {
    table: (spec.id, count) for spec in FAMILIES.values() for table, count in spec.tables
}

# ---------------------------------------------------------------------------
# Fixture helpers


def _packaged_text(table: int) -> str:
    return (
        resources.files("fanolink").joinpath(f"data/table{table}.csv").read_text(encoding="utf-8")
    )


def _write_table(tmp_path, table: int, text: str) -> None:
    (tmp_path / f"table{table}.csv").write_text(text, encoding="utf-8")


def _corrupt(tmp_path, table: int, old: str, new: str, count: int = 1):
    """Copy a packaged table into tmp_path with one substring replaced."""
    text = _packaged_text(table)
    assert text.count(old) >= count
    _write_table(tmp_path, table, text.replace(old, new, count))


# ---------------------------------------------------------------------------
# Structure of the packaged tables


class TestCardinalities:
    def test_per_table_counts(self):
        counts = {table: count for table, (_, count) in TABLES.items()}
        assert counts == {1: 26, 2: 27, 3: 58, 4: 3, 5: 7, 6: 7, 7: 3, 8: 2, 9: 1}
        assert sum(counts.values()) == 134

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_each_table_loads_with_stated_count(self, table):
        assert len(load_golden(table)) == TABLES[table][1]

    def test_family_table_map(self):
        assert {table: family for table, (family, _) in TABLES.items()} == {
            1: "e1e1", 2: "e1e1", 3: "e1e1", 4: "e1e2", 5: "e1e3",
            6: "e1e5", 7: "e2e2", 8: "e3e3", 9: "e5e5",
        }
        assert tuple(FAMILIES) == FAMILY_IDS


class TestRowNumbering:
    def test_e1e1_rows_are_numbered_consecutively(self, golden):
        assert {table: FAMILIES["e1e1"].row_offset(table) for table in (1, 2, 3)} == {
            1: 0, 2: 26, 3: 53,
        }
        assert [row["row"] for row in golden["e1e1"]] == list(range(1, 112))
        assert [row["table"] for row in golden["e1e1"]] == [1] * 26 + [2] * 27 + [3] * 58

    @pytest.mark.parametrize("family", ["e1e2", "e1e3", "e1e5", "e2e2", "e3e3", "e5e5"])
    def test_single_table_families_restart_at_one(self, golden, family):
        assert [row["row"] for row in golden[family]] == list(range(1, len(golden[family]) + 1))


class TestExistenceColumn:
    def test_e1e1_status_breakdown(self, golden):
        rows = golden["e1e1"]
        not_exists = [row["row"] for row in rows if row["exists"] is ExistenceStatus.NOT_EXISTS]
        assert not_exists == [9, 27, 32, 36, 43, 53, 62, 66, 73, 82, 85, 91, 95]
        assert sum(row["exists"] is ExistenceStatus.EXISTS for row in rows) == 60
        assert sum(row["exists"] is ExistenceStatus.OPEN for row in rows) == 38

    def test_open_rows_have_no_reference(self, golden):
        for rows in golden.values():
            for row in rows:
                if row["exists"] is ExistenceStatus.OPEN:
                    assert row["ref"] == ""
                else:
                    assert row["ref"] != ""


class TestRowsAsCells:
    def test_rows_are_read_only(self, golden):
        row = golden["e1e2"][0]
        with pytest.raises(TypeError):
            row["e_over_r3"] = 25  # type: ignore[index]
        with pytest.raises(TypeError):
            del row["ref"]  # type: ignore[attr-defined]
        assert row["e_over_r3"] == 24

    def test_reloading_gives_equal_rows(self, golden):
        golden_for_family.cache_clear()
        for family, rows in golden.items():
            again = golden_for_family(family)
            assert again is not rows
            assert again == rows

    def test_every_row_holds_the_cells_of_its_tuple(self, golden):
        # A row's explain fields, put through the record builder, give cells
        # equal to the row, and of the same type, on every key and value
        # column. Every cell on either side is an int, a non-integral
        # Fraction, a str or None: never a float or an integral Fraction.
        def exact_typed(value):
            if isinstance(value, Fraction):
                return value.denominator != 1
            return value is None or type(value) in (int, str)

        assert sum(map(len, golden.values())) == 134
        for family, rows in golden.items():
            spec = FAMILIES[family]
            for row in rows:
                assert set(row) == {*CELL_COLUMNS, "exists", "ref", "table", "row", "family"}
                values = tuple(as_integer(row[field]) for field in spec.explain_fields)
                cells = record(family, values).cells()
                for column in spec.key_columns + spec.value_columns:
                    where = (family, row["row"], column)
                    assert cells[column] == row[column], where
                    assert type(cells[column]) is type(row[column]), where
                for column in CELL_COLUMNS:
                    where = (family, row["row"], column)
                    assert exact_typed(cells[column]), (*where, cells[column])
                    assert exact_typed(row[column]), (*where, row[column])


class TestReconstructedCoefficients:
    def test_row_70_star_pair(self, golden):
        row = next(r for r in golden["e1e1"] if r["row"] == 70)
        assert row["kx3"] == 4
        assert (row["r"], row["d"], row["g"]) == (3, 9, 3)
        assert (row["r_plus"], row["d_plus"], row["g_plus"]) == (1, 5, 0)
        assert row["alpha"] == Fraction(11, 3)
        assert row["beta"] == Fraction(-1, 3)
        assert row["alpha_plus"] == 11
        assert row["beta_plus"] == -3

    def test_table_4_first_row(self, golden):
        row = golden["e1e2"][0]
        assert (row["table"], row["row"]) == (4, 1)
        assert row["kx3"] == 4
        assert (row["r"], row["d"], row["g"]) == (2, 12, 7)
        assert (row["alpha"], row["beta"]) == (Fraction(5, 2), Fraction(-1, 2))
        assert (row["alpha_plus"], row["beta_plus"]) == (5, -2)
        assert (row["kY3"], row["kY3_plus"]) == (40, 12)
        assert row["e_over_r3"] == 24
        assert row["exists"] is ExistenceStatus.EXISTS
        assert row["ref"] == "Tak89"

    def test_symmetric_row_parses_decimal_degree(self, golden):
        row = golden["e5e5"][0]
        assert row["kY3"] == Fraction(5, 2)
        assert row["e"] == 15
        assert row["e_over_r3"] is None and row["kY3_plus"] is None
        assert row["r"] is None and row["d"] is None and row["g"] is None

    def test_reconstruction_identity_holds_on_every_row(self, golden):
        for rows in golden.values():
            for row in rows:
                assert row["alpha_plus"] == -row["alpha"] / row["beta"]
                assert row["beta_plus"] == 1 / row["beta"]


# ---------------------------------------------------------------------------
# Loader argument validation


class TestLoaderArguments:
    @pytest.mark.parametrize("table", [0, 10, -3])
    def test_table_id_out_of_range(self, table):
        with pytest.raises(ValueError, match="table id out of range 1..9"):
            load_golden(table)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            golden_for_family("e7e7")

    def test_data_dir_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_golden(9, data_dir=tmp_path)


# ---------------------------------------------------------------------------
# Strict parsing of table files


class TestParseErrors:
    def test_clean_copy_loads_identically(self, tmp_path):
        _write_table(tmp_path, 9, _packaged_text(9))
        assert load_golden(9, data_dir=tmp_path) == load_golden(9)

    def test_non_integer_field(self, tmp_path):
        _corrupt(tmp_path, 9, "\n2,E5,E5", "\nx,E5,E5")
        with pytest.raises(GoldenDataError, match=r"table9\.csv:5: column kx3: not an integer: 'x'"):
            load_golden(9, data_dir=tmp_path)

    def test_non_rational_field(self, tmp_path):
        _corrupt(tmp_path, 9, ",2.5,", ",2.5.1,")
        with pytest.raises(GoldenDataError, match=r"table9\.csv:5: column kY3: not a rational"):
            load_golden(9, data_dir=tmp_path)

    def test_header_mismatch(self, tmp_path):
        _corrupt(tmp_path, 9, "alpha,beta", "aleph,beta")
        with pytest.raises(GoldenDataError, match=r"table9\.csv:4: header mismatch"):
            load_golden(9, data_dir=tmp_path)

    def test_wrong_field_count(self, tmp_path):
        _corrupt(tmp_path, 9, ",Open,", ",Open,,")
        with pytest.raises(GoldenDataError, match=r"table9\.csv:5: expected 9 fields, got 10"):
            load_golden(9, data_dir=tmp_path)

    def test_cardinality_enforced(self, tmp_path):
        text = _packaged_text(9)
        _write_table(tmp_path, 9, text + "4,E5,E5,1,-1,4.5,30,Open,\n")
        with pytest.raises(GoldenDataError, match="table 9 must contain 1 rows, found 2"):
            load_golden(9, data_dir=tmp_path)

    def test_duplicate_key_rejected(self, tmp_path):
        text = _packaged_text(4)
        first_row = text.splitlines()[4]
        assert first_row.startswith("4,E1,E2,2,12,7,")
        _write_table(tmp_path, 4, text + first_row + "\n")
        with pytest.raises(
            GoldenDataError,
            match=r"table4\.csv:8: duplicate key \('E1', 'E2', 4, 2, 12, 7\) \(first at line 5\)",
        ):
            load_golden(4, data_dir=tmp_path)

    def test_degree_offset_consistency_symmetric(self, tmp_path):
        _corrupt(tmp_path, 9, ",2.5,", ",3,")
        with pytest.raises(GoldenDataError, match="kY3 3 inconsistent with the E5 degree offset"):
            load_golden(9, data_dir=tmp_path)

    def test_degree_offset_consistency_star(self, tmp_path):
        _corrupt(tmp_path, 4, ",40,12,", ",40,13,")
        with pytest.raises(GoldenDataError, match="kY3_plus 13 inconsistent with the E2 degree offset"):
            load_golden(4, data_dir=tmp_path)

    def test_degree_formula_consistency_e1e1(self, tmp_path):
        _corrupt(tmp_path, 1, "2,E1,E1,1,1,0,1,1,0,3,-1,6,6,47", "2,E1,E1,1,1,0,1,1,0,3,-1,7,6,47")
        with pytest.raises(
            GoldenDataError,
            match=r"kY3 7 inconsistent with degree formula for \(kx3=2, r=1, d=1, g=0\)",
        ):
            load_golden(1, data_dir=tmp_path)

    def test_zero_beta_rejected(self, tmp_path):
        _corrupt(tmp_path, 9, ",1,-1,", ",1,0,")
        with pytest.raises(GoldenDataError, match=r"table9\.csv:5: beta must be nonzero"):
            load_golden(9, data_dir=tmp_path)

    def test_unknown_existence_label(self, tmp_path):
        _corrupt(tmp_path, 9, ",Open,", ",Maybe,")
        with pytest.raises(GoldenDataError, match=r"table9\.csv:5: column exists: unknown value 'Maybe'"):
            load_golden(9, data_dir=tmp_path)

    def test_unknown_type_label(self, tmp_path):
        _corrupt(tmp_path, 9, "2,E5,E5", "2,E6,E5")
        with pytest.raises(
            GoldenDataError, match=r"table9\.csv:5: column type_left: unknown value 'E6'"
        ):
            load_golden(9, data_dir=tmp_path)

    def test_type_pairing_enforced(self, tmp_path):
        _corrupt(tmp_path, 9, "2,E5,E5", "2,E2,E5")
        with pytest.raises(
            GoldenDataError, match=r"table9\.csv:5: types must be E5,E5 \(family e5e5\), got E2,E5"
        ):
            load_golden(9, data_dir=tmp_path)

    @pytest.mark.parametrize(
        "table, old, new, message",
        [
            # A consistent e2e2 row (kY3 = 2 + 8) in the e5e5 table.
            (9, "2,E5,E5,1,-1,2.5,", "2,E2,E2,1,-1,10,",
             r"table9\.csv:5: types must be E5,E5 \(family e5e5\), got E2,E2"),
            # A consistent e1e5 row (kY3_plus = 4 + 1/2) in the e1e2 table.
            (4, "4,E1,E2,2,12,7,5/2,-1/2,40,12,", "4,E1,E5,2,12,7,5/2,-1/2,40,4.5,",
             r"table4\.csv:5: types must be E1,E2 \(family e1e2\), got E1,E5"),
        ],
        ids=["e2e2-row-in-table9", "e1e5-row-in-table4"],
    )
    def test_row_of_another_family_rejected(self, tmp_path, table, old, new, message):
        _corrupt(tmp_path, table, old, new)
        with pytest.raises(GoldenDataError, match=message):
            load_golden(table, data_dir=tmp_path)

    @pytest.mark.parametrize(
        "data, message",
        [
            ("5,12,7", r"table4\.csv:5: E1 index out of range 1\.\.4: 5"),
            ("2,0,7", r"table4\.csv:5: E1 curve degree must be >= 1: 0"),
            ("2,12,-1", r"table4\.csv:5: E1 genus must be >= 0: -1"),
        ],
        ids=["index", "degree", "genus"],
    )
    def test_bad_e1_side_data_rejected(self, tmp_path, data, message):
        _corrupt(tmp_path, 4, "4,E1,E2,2,12,7,", f"4,E1,E2,{data},")
        with pytest.raises(GoldenDataError, match=message):
            load_golden(4, data_dir=tmp_path)

    def test_empty_file(self, tmp_path):
        _write_table(tmp_path, 9, "# nothing here\n\n")
        with pytest.raises(GoldenDataError, match="empty table file"):
            load_golden(9, data_dir=tmp_path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = _packaged_text(9)
        _write_table(tmp_path, 9, "\n# extra leading comment\n" + text + "\n\n# trailing\n")
        loaded = load_golden(9, data_dir=tmp_path)
        assert loaded == load_golden(9)

    def test_error_names_the_data_dir_source(self, tmp_path):
        _corrupt(tmp_path, 9, "\n2,E5,E5", "\nx,E5,E5")
        with pytest.raises(GoldenDataError) as excinfo:
            load_golden(9, data_dir=tmp_path)
        assert str(tmp_path) in str(excinfo.value)


# ---------------------------------------------------------------------------
# Round-trip through the renderer


class TestRoundTrip:
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_render_then_reload_is_identity(self, tmp_path, golden_csv, table):
        rows = load_golden(table)
        text = golden_csv(rows, TABLES[table][0])
        _write_table(tmp_path, table, text)
        assert load_golden(table, data_dir=tmp_path) == rows


# ---------------------------------------------------------------------------
# Diffing


class TestKeys:
    @pytest.mark.parametrize("family", FAMILY_IDS)
    def test_golden_and_candidate_keys_align(self, enumerated, golden, family):
        golden_keys = {golden_key(row) for row in golden[family]}
        candidate_keys = {FAMILIES[c.family].key(c.cells()) for c in enumerated[family]}
        assert golden_keys == candidate_keys
        assert len(golden_keys) == len(golden[family])


class TestDiff:
    def test_exact_match_is_empty(self, enumerated, golden):
        report = diff(enumerated["e1e2"], golden["e1e2"])
        assert report.empty
        assert report.describe() == "exact match"

    def test_single_field_perturbation_is_one_mismatch(self, enumerated, golden):
        doctored = list(golden["e1e2"])
        doctored[0] = {**doctored[0], "e_over_r3": 25}
        report = diff(enumerated["e1e2"], doctored)
        assert not report.missing and not report.extra
        assert len(report.mismatches) == 1
        mismatch = report.mismatches[0]
        assert mismatch.column == "e_over_r3"
        assert (mismatch.expected, mismatch.actual) == (25, 24)
        assert mismatch.key == ("E1", "E2", 4, 2, 12, 7)
        assert "mismatch at ('E1', 'E2', 4, 2, 12, 7): e_over_r3 expected 25, got 24" in (
            report.describe()
        )

    def test_dropped_candidate_is_missing(self, enumerated, golden):
        report = diff(enumerated["e1e2"][1:], golden["e1e2"])
        assert report.missing == (golden_key(golden["e1e2"][0]),)
        assert not report.extra and not report.mismatches
        assert report.describe().startswith("missing row: ")
        assert not report.empty

    def test_unmatched_candidate_is_extra(self, enumerated, golden):
        stray = record("e1e2", (8, 1, 1, 0, 7, -1))
        report = diff(list(enumerated["e1e2"]) + [stray], golden["e1e2"])
        assert report.extra == (FAMILIES[stray.family].key(stray.cells()),)
        assert not report.missing and not report.mismatches
        assert "extra row: ('E1', 'E2', 8, 1, 1, 0)" in report.describe()

    def test_report_is_a_frozen_value(self):
        report = DiffReport(missing=(), extra=(), mismatches=())
        assert report.empty
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.missing = (("x",),)  # type: ignore[misc]

    def test_duplicate_computed_row_is_reported(self, enumerated, golden):
        computed = enumerated["e1e1"] + (enumerated["e1e1"][0],)
        report = diff(computed, golden["e1e1"])
        assert not report.empty
        first = enumerated["e1e1"][0]
        assert report.duplicate_computed == (FAMILIES[first.family].key(first.cells()),)
        assert report.duplicate_golden == ()
        assert "duplicate computed row: ('E1', 'E1', 2, 1, 1, 0, 1, 1, 0)" in report.describe()

    def test_duplicate_golden_row_is_reported(self, enumerated, golden):
        reference = golden["e1e1"] + (golden["e1e1"][0],)
        report = diff(enumerated["e1e1"], reference)
        assert not report.empty
        assert report.duplicate_golden == (golden_key(golden["e1e1"][0]),)
        assert report.duplicate_computed == ()
        assert "duplicate golden row: ('E1', 'E1', 2, 1, 1, 0, 1, 1, 0)" in report.describe()
