"""Output formats: exact CSV/JSON, display markdown/LaTeX, dispatch."""

from __future__ import annotations

import csv
import io
import json

import pytest

from fanolink.model import FAMILIES
from fanolink.render import (
    build_golden_index,
    render_csv,
    render_dispatch,
    render_json,
    render_latex,
    render_markdown,
)
from fanolink.search import FAMILY_IDS


@pytest.fixture(scope="module")
def golden_index(golden):
    rows = [row for family in FAMILY_IDS for row in golden[family]]
    return build_golden_index(rows)


@pytest.fixture(scope="module")
def all_families(enumerated):
    return [(family, enumerated[family]) for family in FAMILY_IDS]


def _data_lines(text: str) -> list[str]:
    """Data rows of a single-section CSV render (comments and header dropped)."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return rows[1:]


class TestCsv:
    def test_section_layout(self, enumerated, golden_index):
        text = render_csv([("e1e1", enumerated["e1e1"])], golden_index)
        lines = text.splitlines()
        assert lines[0] == "# family: e1e1"
        assert lines[1] == (
            "kx3,type_left,type_right,r,d,g,r_plus,d_plus,g_plus,"
            "alpha,beta,kY3,kY3_plus,e_over_r3,exists,ref"
        )
        assert len(lines) == 2 + 111

    def test_first_row_values(self, enumerated, golden_index):
        text = render_csv([("e1e1", enumerated["e1e1"])], golden_index)
        assert _data_lines(text)[0] == "2,E1,E1,1,1,0,1,1,0,3,-1,6,6,47,Exists,Isk78"

    def test_star_family_rationals_are_exact(self, enumerated, golden_index):
        text = render_csv([("e1e2", enumerated["e1e2"])], golden_index)
        rows = _data_lines(text)
        assert rows == [
            "4,E1,E2,2,12,7,5/2,-1/2,40,12,24,Exists,Tak89",
            "6,E1,E2,2,4,0,3/2,-1/2,24,14,16,Exists,Tak89",
            "14,E1,E2,4,6,0,3/4,-1/4,64,22,6,Exists,Tak89",
        ]

    def test_empty_golden_index_leaves_status_blank(self, enumerated):
        text = render_csv([("e5e5", enumerated["e5e5"])], golden_index={})
        assert _data_lines(text) == ["2,E5,E5,1,-1,5/2,15,,"]

    def test_multiple_sections_are_blank_line_separated(self, enumerated, golden_index):
        text = render_csv(
            [("e3e3", enumerated["e3e3"]), ("e5e5", enumerated["e5e5"])], golden_index
        )
        assert "\n\n# family: e5e5\n" in text
        assert text.startswith("# family: e3e3\n")

    def test_byte_deterministic(self, all_families, golden_index):
        assert render_csv(all_families, golden_index) == render_csv(all_families, golden_index)

    def test_csv_parses_back_with_consistent_field_counts(self, enumerated, golden_index):
        text = render_csv([("e1e3", enumerated["e1e3"])], golden_index)
        parsed = list(csv.reader(io.StringIO("\n".join(_data_lines(text)))))
        assert all(len(fields) == len(FAMILIES["e1e3"].csv_columns) for fields in parsed)
        assert len(parsed) == 7


class TestJson:
    def test_full_run_has_all_records(self, all_families, golden_index):
        records = json.loads(render_json(all_families, golden_index))
        assert len(records) == 134

    def test_record_types_and_status_join(self, all_families, golden_index):
        records = json.loads(render_json(all_families, golden_index))
        first = records[0]
        assert first["kx3"] == 2 and isinstance(first["kx3"], int)
        assert first["alpha"] == 3 and isinstance(first["alpha"], int)
        assert first["beta"] == -1
        assert first["kY3"] == 6 and first["kY3_plus"] == 6
        assert first["e_over_r3"] == 47
        assert first["exists"] == "Exists"
        assert first["ref"] == "Isk78"

    def test_non_integral_rationals_are_exact_strings(self, enumerated, golden_index):
        records = json.loads(render_json([("e1e2", enumerated["e1e2"])], golden_index))
        assert records[0]["alpha"] == "5/2"
        assert records[0]["beta"] == "-1/2"

    def test_unmatched_rows_serialize_null_status(self, enumerated):
        records = json.loads(render_json([("e2e2", enumerated["e2e2"])], {}))
        assert all(record["exists"] is None for record in records)
        assert all(record["ref"] is None for record in records)

    def test_open_row_has_status_but_no_reference(self, enumerated, golden_index):
        records = json.loads(render_json([("e5e5", enumerated["e5e5"])], golden_index))
        assert records[0]["exists"] == "Open"
        assert records[0]["ref"] is None
        assert records[0]["kY3"] == "5/2"
        assert records[0]["e"] == 15


class TestMarkdown:
    def test_section_and_running_number(self, enumerated, golden_index):
        text = render_markdown([("e1e2", enumerated["e1e2"])], golden_index)
        lines = text.splitlines()
        assert lines[0] == "## e1e2"
        assert lines[2].startswith("| # | -K_X^3 |")
        body = [line for line in lines if line.startswith("| 1 ") or line.startswith("| 2 ")
                or line.startswith("| 3 ")]
        assert [line.split(" | ")[0].lstrip("| ") for line in body] == ["1", "2", "3"]

    def test_coefficients_use_decimal_typography(self, enumerated, golden_index):
        text = render_markdown([("e1e2", enumerated["e1e2"])], golden_index)
        first_body_row = text.splitlines()[4]
        cells = [cell.strip() for cell in first_body_row.strip("|").split("|")]
        headings = [h.strip() for h in text.splitlines()[2].strip("|").split("|")]
        row = dict(zip(headings, cells))
        assert row["alpha"] == "2.5"
        assert row["beta"] == "-0.5"
        assert row["-K_Y^3"] == "40"  # degree columns stay exact

    def test_degree_columns_stay_fractional(self, enumerated, golden_index):
        text = render_markdown([("e1e5", enumerated["e1e5"])], golden_index)
        assert " 9/2 " in text  # smallest half-integral point-side degree
        assert " 2.25 " not in text and " 4.5 " not in text


class TestLatex:
    def test_structure_and_math_headings(self, enumerated, golden_index):
        text = render_latex([("e1e1", enumerated["e1e1"][:2])], golden_index)
        lines = text.splitlines()
        assert lines[0] == "% family: e1e1"
        assert lines[1] == r"\begin{tabular}{" + "r" * 15 + "}"
        assert lines[2].startswith(r"\# & $-K_X^3$ & $-K_Y^3$ & $-K_{Y^+}^3$ & $\alpha$")
        assert r"$r^+$ & $d^+$ & $g^+$" in lines[2]
        assert lines[3] == r"\hline"
        assert lines[4].startswith("1 & 2 & 6 & 6 & 3 & -1 & ")
        assert lines[-1] == r"\end{tabular}"

    def test_point_degrees_render_exact(self, enumerated, golden_index):
        text = render_latex([("e1e5", enumerated["e1e5"])], golden_index)
        assert "9/2" in text
        assert "$e/r^3$" in text

    def test_symmetric_schema_has_defect_heading(self, enumerated, golden_index):
        text = render_latex([("e3e3", enumerated["e3e3"])], golden_index)
        assert "$e$" in text
        assert "$e/r^3$" not in text


class TestGoldenCsv:
    def test_headers_match_loader_schema(self, golden, golden_csv):
        for family in FAMILY_IDS:
            text = golden_csv(golden[family][:1], family)
            assert text.splitlines()[0] == ",".join(FAMILIES[family].csv_columns)

    def test_symmetric_degree_normalizes_to_fraction_form(self, golden, golden_csv):
        text = golden_csv(golden["e5e5"], "e5e5")
        assert text.splitlines()[1] == "2,E5,E5,1,-1,5/2,15,Open,"


class TestDispatch:
    @pytest.mark.parametrize("fmt,renderer", [
        ("csv", render_csv),
        ("json", render_json),
        ("markdown", render_markdown),
        ("latex", render_latex),
    ])
    def test_dispatch_matches_direct_call(self, enumerated, golden_index, fmt, renderer):
        families = [("e2e2", enumerated["e2e2"])]
        assert render_dispatch(fmt, families, golden_index) == renderer(families, golden_index)

    def test_unknown_format_raises(self, enumerated, golden_index):
        with pytest.raises(ValueError, match="unknown format: 'yaml'"):
            render_dispatch("yaml", [("e2e2", enumerated["e2e2"])], golden_index)
