"""End-to-end CLI behaviour through in-process main(argv)."""

from __future__ import annotations

import ctypes
import functools
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import types
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import fanolink
from fanolink import formulas
from fanolink import golden as golden_mod
from fanolink import search as search_mod
from fanolink.checks import DEFAULT_CHECKS, REGISTRY
from fanolink.cli import (
    MALLOC_TRIM_THRESHOLD,
    TRACE_CHUNK_LINES,
    _cell_suffixes,
    _set_malloc_policy,
    _TraceSink,
    main,
)
from fanolink.render import build_golden_index, render_csv

# SHA-256 of the stdout of each output that only people read (measured).
DISPLAY_SHA256 = {
    ("--list-checks",): "b2fe6c2c10b93eced91ad60bc0d435eb00729952dfc2af69770645b47fabc94f",
    ("enumerate", "--families", "all", "--format", "markdown"): (
        "ac045e5040627b23ade8ed2f6fdf77a94318b72eb6dd2d58830bd70b34777124"
    ),
    ("enumerate", "--families", "all", "--format", "latex"): (
        "cb69f57bed484050fcee90de85940319c0e7be428e1c3eca065858d0a6de7654"
    ),
}

# SHA-256 of each chunk-test cell's reference trace (the plain-callable
# hook's lines), by disabled checks and family (measured).
CHUNK_TRACE_SHA256 = {
    "default": {
        "e1e1": "405aefbbb3f194142e1c41ea56552899ed2f00a6716d5db9fa5e93a5f2e37681",
        "e1e2": "c29340ccbf4a5fe98c14d1c05d8370494509905291249aee49e26a5159ac6c0d",
        "e1e3": "5cbad030ccd92618d2aa6dccf561a221b13bea0be42e5de297872d8893b9f1d4",
        "e1e5": "c3317aa20c70f8ad1d75e611afeec32546a17c26ddc59da749e7cc66486b9b3c",
        "e2e2": "8582282fd2766758e59fc47842b0f0494acb3adbdfd391ff2b5fd85e9032e7aa",
        "e3e3": "b55f04d772cd5f0b950fa4ea833f8fe2fc434cad272c9e93194d2824c348f03b",
        "e5e5": "876d0d1fd41434158355aa65f3c20e1b82f7a092032d843edf685ab476ed3a79",
    },
    "SIGMA_POS": {
        "e1e1": "7bd0c912cd22dc78c7b608ed304202b4ec87d09f64d9bc611eb04c60677b4dfb",
        "e1e2": "fc34ae3fc1bdd7513fb07199f959ebf06736e4ad76f9aa17b7e7287ad04b9ce2",
        "e1e3": "a4852bc85ad1efaa93369be334baa95d7e4b3c085a702a10ba9abd1d2c22f2e5",
        "e1e5": "c774b7ce567a85e50207880ff95501cea0280a0997e2bb157ff64e66f5e1e629",
        "e2e2": "8582282fd2766758e59fc47842b0f0494acb3adbdfd391ff2b5fd85e9032e7aa",
        "e3e3": "b55f04d772cd5f0b950fa4ea833f8fe2fc434cad272c9e93194d2824c348f03b",
        "e5e5": "876d0d1fd41434158355aa65f3c20e1b82f7a092032d843edf685ab476ed3a79",
    },
    "FANO_DEGREE_LEFT": {
        "e1e1": "e64743c0b6dabb8b26832e130901cf750e34be82c985f5336d69829a296f5d88",
        "e1e2": "1bb0105cb45927e790a357023d762b9af722f134a546a323c12157cc3ea2196b",
        "e1e3": "803c2ce633aacdd48519d66d172981381e610aca9e0852eaf3992962dcd53af9",
        "e1e5": "5e0418622b9998e455d5f486aa64acaa2626d21d26f52d1efdf0f2c846f39ab3",
        "e2e2": "8582282fd2766758e59fc47842b0f0494acb3adbdfd391ff2b5fd85e9032e7aa",
        "e3e3": "b55f04d772cd5f0b950fa4ea833f8fe2fc434cad272c9e93194d2824c348f03b",
        "e5e5": "876d0d1fd41434158355aa65f3c20e1b82f7a092032d843edf685ab476ed3a79",
    },
    "FANO_DEGREE_RIGHT": {
        "e1e1": "194923c954696da8cd4ed19263d460d0618206eba102a753f5f320d31396eac4",
        "e1e2": "4fa88cbf0bc15c76d775b2cf83b7bd07e9b9425000eb4d238606bf20598a45b5",
        "e1e3": "5cbad030ccd92618d2aa6dccf561a221b13bea0be42e5de297872d8893b9f1d4",
        "e1e5": "c3317aa20c70f8ad1d75e611afeec32546a17c26ddc59da749e7cc66486b9b3c",
        "e2e2": "8582282fd2766758e59fc47842b0f0494acb3adbdfd391ff2b5fd85e9032e7aa",
        "e3e3": "b55f04d772cd5f0b950fa4ea833f8fe2fc434cad272c9e93194d2824c348f03b",
        "e5e5": "876d0d1fd41434158355aa65f3c20e1b82f7a092032d843edf685ab476ed3a79",
    },
}

class _CountingStream(io.StringIO):
    """A text stream that counts its write calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "enumerate" in out and "verify" in out and "explain" in out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_list_checks(self, capsys):
        assert main(["--list-checks"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert [line.split()[0] for line in lines] == list(REGISTRY)
        width = max(len(name) for name in REGISTRY)
        assert lines[0].startswith(f"{'SIGMA_POS':<{width}}  ")

    @pytest.mark.parametrize("argv", DISPLAY_SHA256, ids=lambda argv: argv[-1])
    def test_display_bytes_are_pinned(self, capsys, argv):
        # The family specs' display columns drive markdown and LaTeX.
        assert main(list(argv)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == DISPLAY_SHA256[argv]


class TestEnumerate:
    def test_single_family_csv(self, capsys):
        assert main(["enumerate", "--families", "e1e2"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "# family: e1e2"
        assert len(lines) == 2 + 3
        assert lines[2] == "4,E1,E2,2,12,7,5/2,-1/2,40,12,24,Exists,Tak89"

    def test_all_families_json(self, capsys):
        assert main(["enumerate", "--families", "all", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 134

    def test_family_list_is_canonicalized(self, capsys):
        assert main(["enumerate", "--families", "e5e5,e1e2,e1e2"]) == 0
        out = capsys.readouterr().out
        assert out.index("# family: e1e2") < out.index("# family: e5e5")
        assert out.count("# family: e1e2") == 1

    def test_unknown_family_is_usage_error(self, capsys):
        for families, message in (
            ("e1e9", "error: unknown families: e1e9"),
            (",", "error: no families given"),
        ):
            assert main(["enumerate", "--families", families]) == 2
            assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_unknown_family_beside_all_is_usage_error(self, capsys, command):
        assert main([command, "--families", "all,e9e9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown families: e9e9 (")

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["enumerate", "--families", "e5e5", "--disable-check", "NOPE"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_check_id_is_usage_error(self, capsys):
        for disabled in ([""], ["HODGE", ""], ["", "NOPE"]):
            argv = ["enumerate", "--families", "e5e5"]
            for name in disabled:
                argv += ["--disable-check", name]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: empty check id; fanolink --list-checks prints the valid ids\n"
            )

    def test_disable_check_changes_output(self, capsys):
        assert main(["enumerate", "--families", "e1e5"]) == 0
        baseline = capsys.readouterr().out
        assert (
            main(["enumerate", "--families", "e1e5", "--disable-check", "HYPERELLIPTIC_SYM"]) == 0
        )
        ablated = capsys.readouterr().out
        assert len(ablated.splitlines()) == len(baseline.splitlines()) + 2

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        assert main(["enumerate", "--families", "e2e2"]) == 0
        expected = capsys.readouterr().out
        target = tmp_path / "out.csv"
        assert main(["enumerate", "--families", "e2e2", "--out", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert target.read_text(encoding="utf-8") == expected

    def test_unwritable_out_path_is_internal_error(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        assert main(["enumerate", "--families", "e5e5", "--out", str(target)]) == 3
        assert capsys.readouterr().err.startswith("internal error:")

    def test_audit_failure_is_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(formulas, "etilde_cube_numerators", lambda *args: (-(2**63), 1))
        assert main(["enumerate", "--families", "e2e2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: magnitude outside signed 64-bit range")

    def test_list_checks_is_a_top_level_option_only(self, capsys):
        assert main(["enumerate", "--list-checks"]) == 2
        assert "unrecognized arguments: --list-checks" in capsys.readouterr().err

    def test_trace_rejections_streams_to_stderr(self, capsys):
        assert main(["enumerate", "--families", "e5e5", "--trace-rejections"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# family: e5e5")
        assert "reject[domain] (1, 2) failed=KX3_RANGE" in captured.err

    @pytest.mark.parametrize(
        "disabled",
        [(), ("SIGMA_POS",), ("FANO_DEGREE_LEFT",), ("FANO_DEGREE_RIGHT",)],
        ids=lambda disabled: "-".join(disabled) or "default",
    )
    @pytest.mark.parametrize("family", search_mod.FAMILY_IDS)
    def test_trace_is_written_in_chunks(self, monkeypatch, family, disabled):
        # Each write but the last carries TRACE_CHUNK_LINES lines, in the
        # bytes a per-line print would give.  The reference hook is a plain
        # callable, so it hears each side prune and E1-E1 pair-fast reject as
        # its own event, while the CLI's hook takes them in block calls.  The
        # reference trace is pinned, so a change to the walk's order cannot
        # pass by changing both sides.
        expected = []
        search_mod.enumerate_family(
            family,
            DEFAULT_CHECKS - set(disabled),
            trace=lambda s, d, f: expected.append(f"reject[{s}] {d} failed={','.join(f)}\n"),
        )
        digest = hashlib.sha256("".join(expected).encode()).hexdigest()
        assert digest == CHUNK_TRACE_SHA256["-".join(disabled) or "default"][family]
        stream = _CountingStream()
        monkeypatch.setattr(sys, "stderr", stream)
        argv = ["enumerate", "--families", family, "--trace-rejections"]
        for check in disabled:
            argv += ["--disable-check", check]
        assert main(argv) == 0
        # Line by line: the first unequal pair shows without a diff of megabytes.
        lines = stream.getvalue().splitlines(keepends=True)
        assert next((pair for pair in zip(lines, expected) if pair[0] != pair[1]), None) is None
        assert len(lines) == len(expected)
        if family.startswith("e1"):
            assert len(expected) > 4 * TRACE_CHUNK_LINES
        assert stream.writes == -(-len(expected) // TRACE_CHUNK_LINES)

    def test_trace_sink_takes_the_blocks(self, monkeypatch, capsys):
        # The side prunes and pair-fast rejects reach the CLI's hook as
        # blocks only; its per-event call hears the full rejects alone.
        stages, blocks = Counter(), Counter()
        call, block = _TraceSink.__call__, _TraceSink.block

        def counted_call(self, stage, data, failed):
            stages[stage] += 1
            call(self, stage, data, failed)

        def counted_block(self, stage, *args):
            blocks[stage] += 1
            block(self, stage, *args)

        monkeypatch.setattr(_TraceSink, "__call__", counted_call)
        monkeypatch.setattr(_TraceSink, "block", counted_block)
        assert main(["enumerate", "--families", "e1e1", "--trace-rejections"]) == 0
        assert "reject[pair-fast]" in capsys.readouterr().err
        assert set(blocks) == {"side-left", "side-right", "pair-fast"}
        assert set(stages) == {"full"}

    def test_trace_sink_suffixes_are_kept_for_the_process(self, monkeypatch):
        # The side lists' cells are built once per process, and so are the
        # suffixes and events they key by id: every traced run after the
        # first, each with a new sink, builds none anew and writes the same
        # trace, for every family, under the default checks and an ablation.
        # Cells built per run would add entries.
        for disabled in ([], ["--disable-check", "FANO_DEGREE_LEFT"]):
            argv = ["enumerate", "--families", "all", "--trace-rejections", *disabled]
            traces = []
            for _ in range(3):
                stream = io.StringIO()
                monkeypatch.setattr(sys, "stderr", stream)
                assert main(argv) == 0
                misses = _cell_suffixes.cache_info().misses
                traces.append((stream.getvalue(), dict(_TraceSink._events), misses))
            (first, before, built), *later = traces
            assert before
            for text, after, rebuilt in later:
                assert text == first, disabled
                assert after.keys() == before.keys(), disabled
                assert all(after[key] is entry for key, entry in before.items())
                assert rebuilt == built, disabled

    def test_trace_sink_block_writes_the_events_of_its_window(self, monkeypatch):
        # The search's sparse blocks span their cells and its dense ones
        # start anywhere; every window of either must give the per-event lines.
        cells = ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0))
        failed = ((), ("SIGMA_POS",), ("FANO_DEGREE_LEFT", "HODGE"))
        for verdicts in (bytes([0, 1, 2, 0, 1]), bytes([2, 1, 2, 1, 1])):
            for start, stop in itertools.combinations(range(len(cells) + 1), 2):
                block = ("side-left", (4, 2), cells, verdicts, failed, start, stop)
                expected = []
                search_mod._block(
                    lambda s, d, f: expected.append(f"reject[{s}] {d} failed={','.join(f)}\n"),
                    *block,
                )
                stream = io.StringIO()
                monkeypatch.setattr(sys, "stderr", stream)
                sink = _TraceSink()
                sink.block(*block)
                sink.write()
                assert stream.getvalue() == "".join(expected), (verdicts, start, stop)

    def test_trace_is_flushed_before_an_internal_error(self, monkeypatch, capsys):
        assert main(["enumerate", "--families", "e1e2", "--trace-rejections"]) == 0
        traced = capsys.readouterr().err
        enumerate_family = search_mod.enumerate_family

        def failing_after_e1e2(family, *args, **kwargs):
            if family != "e1e2":
                raise RuntimeError("boom")
            return enumerate_family(family, *args, **kwargs)

        monkeypatch.setattr(search_mod, "enumerate_family", failing_after_e1e2)
        assert main(["enumerate", "--families", "e1e2,e1e3", "--trace-rejections"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == traced + "internal error: boom\n"

    def test_markdown_smoke(self, capsys):
        assert main(["enumerate", "--families", "e5e5", "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("## e5e5")

    def test_latex_smoke(self, capsys):
        assert main(["enumerate", "--families", "e5e5", "--format", "latex"]) == 0
        assert capsys.readouterr().out.startswith("% family: e5e5")


class TestVerify:
    def test_all_families_match(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "e1e1: exact match (111 rows)",
            "e1e2: exact match (3 rows)",
            "e1e3: exact match (7 rows)",
            "e1e5: exact match (7 rows)",
            "e2e2: exact match (3 rows)",
            "e3e3: exact match (2 rows)",
            "e5e5: exact match (1 rows)",
        ]

    def test_golden_tables_are_loaded_once(self, capsys, monkeypatch):
        loads: Counter[int] = Counter()
        real = golden_mod.load_golden

        def counted(table, data_dir=None):
            loads[table] += 1
            return real(table, data_dir)

        monkeypatch.setattr(golden_mod, "load_golden", counted)
        golden_mod.golden_for_family.cache_clear()
        assert main(["verify"]) == 0
        assert main(["enumerate", "--families", "all"]) == 0
        capsys.readouterr()
        assert loads == {table: 1 for table in range(1, 10)}

    def test_doctored_golden_is_reported(self, capsys, monkeypatch):
        real = golden_mod.golden_for_family

        def doctored(family):
            rows = list(real(family))
            rows[0] = {**rows[0], "e_over_r3": 99}
            return tuple(rows)

        monkeypatch.setattr(golden_mod, "golden_for_family", doctored)
        assert main(["verify", "--families", "e1e2"]) == 1
        out = capsys.readouterr().out
        assert "e1e2: MISMATCH" in out
        assert "e_over_r3 expected 99, got 24" in out

    def test_unknown_family_is_usage_error(self, capsys):
        for families, message in (("bogus", "error:"), (",", "error: no families given")):
            assert main(["verify", "--families", families]) == 2
            assert capsys.readouterr().err.startswith(message)


# Raw explain tuples beyond the golden rows: one that fails each check first
# where some explainable tuple does, and more failure texts after the first.
EXPLAIN_RAW_TUPLES = (
    ("e1e1", "(2,1,1,0,1,1,1)"),  # SIGMA_POS
    ("e1e1", "(3,2,1,0,2,1,0)"),  # KX3_RANGE: odd central degree
    ("e1e1", "(24,1,1,0,1,1,0)"),  # KX3_RANGE: central degree above 22
    ("e1e1", "(2,2,2,0,1,1,0)"),  # FANO_DEGREE_LEFT
    ("e1e1", "(2,1,8,0,1,8,0)"),  # target degree 20, outside the catalog; Hodge lookup fails
    ("e1e1", "(2,2,1,0,2,2,0)"),  # FANO_DEGREE_RIGHT
    ("e1e1", "(2,1,1,0,1,2,0)"),  # DIOPHANTINE, E1-E1
    ("e1e2", "(4,2,12,7,5,-1)"),  # DIOPHANTINE, E1-point
    ("e3e3", "(2,3)"),  # DIOPHANTINE, symmetric
    ("e1e1", "(2,1,1,0,3,1,0)"),  # non-integral cube and decomposition
    ("e1e1", "(4,1,1,0,1,1,0)"),  # ETILDE_INTEGRAL
    ("e1e1", "(4,2,3,1,2,3,1)"),  # GCD_LEFT
    ("e1e1", "(2,1,5,2,1,5,2)"),  # DEFECT_POSITIVE
    ("e1e2", "(2,2,1,0,4,-1)"),  # DEFECT_DIVISIBLE
    ("e1e1", "(2,2,1,0,1,5,2)"),  # HODGE
    ("e1e3", "(2,2,4,2,5,-2)"),  # HYPERELLIPTIC_SYM
    ("e1e2", "(2,4,11,1,87,-4)"),  # alpha_plus beyond ALPHA_PLUS_BOUND
    ("e1e2", "(4,2,12,7,7,-3)"),  # beta_plus below -r: BETA_PLUS_RANGE
    ("e1e2", "(4,2,12,7,5,1)"),  # positive beta_plus
    ("e1e2", "(4,1,1,0,0,-1)"),  # zero alpha_plus
    ("e2e2", "(8,0)"),  # zero coefficients
    ("e2e2", "(1,8)"),  # odd central degree, symmetric
    ("e5e5", "(3,1)"),  # singular E5 target with a half-integral degree
)
# SHA-256 of the stdout of explain for every golden row (family order, then
# table order) followed by EXPLAIN_RAW_TUPLES, concatenated.
EXPLAIN_SHA256 = "06807e609c6c8b98d7f9149ace7128dc05c431f5806f67e65cb77cada6942872"


def explain_argvs(golden: dict[str, tuple]) -> list[list[str]]:
    rows = [
        ["explain", family, "row", str(row["row"])]
        for family in search_mod.FAMILY_IDS
        for row in golden[family]
    ]
    return rows + [["explain", family, key] for family, key in EXPLAIN_RAW_TUPLES]


class TestExplain:
    def test_explain_bytes_are_pinned(self, capsys, golden):
        argvs = explain_argvs(golden)
        assert len(argvs) == 134 + len(EXPLAIN_RAW_TUPLES)
        digest = hashlib.sha256()
        for argv in argvs:
            assert main(argv) == 0, argv
            captured = capsys.readouterr()
            assert captured.err == "", argv
            digest.update(captured.out.encode("utf-8"))
        assert digest.hexdigest() == EXPLAIN_SHA256

    def test_golden_row_derivation(self, capsys):
        assert main(["explain", "e1e1", "row", "1"]) == 0
        out = capsys.readouterr().out
        assert "family: e1e1" in out
        assert "central degree -K_X^3: 2" in out
        assert "left side: E1 (r=1, d=1, g=0), sigma=3, target degree 6" in out
        assert "coefficients: alpha=3, beta=-1, alpha_plus=3, beta_plus=-1" in out
        assert "flopped divisor cubes: left=-46, right=-46" in out
        assert "defects: e=47, e_plus=47, e/r^3=47" in out
        assert "verdict: admitted" in out

    def test_tuple_key_left_basis_decomposition(self, capsys):
        assert main(["explain", "e1e1", "(2,2,1,0,2,1,0)"]) == 0
        out = capsys.readouterr().out
        assert "left-basis decomposition (alpha*r, beta-alpha): (8, -5)" in out
        assert "right-basis decomposition (alpha_plus*r_plus, beta_plus-alpha_plus): (8, -5)" in out
        assert "verdict: admitted" in out

    @pytest.mark.parametrize(
        "family, expected",
        [
            (
                "e1e1",
                [
                    "left-basis decomposition (alpha*r, beta-alpha): (3, -4)",
                    "right-basis decomposition (alpha_plus*r_plus, beta_plus-alpha_plus): (3, -4)",
                ],
            ),
            ("e1e2", ["left-basis decomposition (alpha*r, beta-alpha): (5, -3)"]),
            ("e2e2", []),
        ],
    )
    def test_decomposition_lines_per_shape(self, capsys, family, expected):
        # Only E1 sides have an integral basis to decompose in.
        assert main(["explain", family, "row", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "basis decomposition" in line] == expected

    def test_star_family_row(self, capsys):
        assert main(["explain", "e1e2", "row", "1"]) == 0
        out = capsys.readouterr().out
        assert "coefficients: alpha=5/2, beta=-1/2, alpha_plus=5, beta_plus=-2" in out
        assert "right side: E2, sigma=4" in out

    def test_rejected_candidate_full_report(self, capsys):
        assert main(["explain", "e1e1", "(2,1,2,1,1,2,1)"]) == 0
        out = capsys.readouterr().out
        assert "verdict: rejected" in out
        assert "FAIL SIGMA_POS" in out
        assert "checks:" in out

    def test_symmetric_tuple(self, capsys):
        assert main(["explain", "e5e5", "(2,1)"]) == 0
        out = capsys.readouterr().out
        assert "defects: e=15, e_plus=15, e/r^3=15" in out
        assert "verdict: admitted" in out

    def test_unknown_family(self, capsys):
        assert main(["explain", "e9e9", "row", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown family: 'e9e9'")

    def test_missing_golden_row(self, capsys):
        assert main(["explain", "e1e1", "row", "999"]) == 2
        assert capsys.readouterr().err.strip() == "error: no golden row 999 in family e1e1"

    def test_row_number_may_follow_row_without_a_space(self, capsys):
        assert main(["explain", "e1e1", "row", "27"]) == 0
        spaced = capsys.readouterr()
        assert main(["explain", "e1e1", "row27"]) == 0
        assert capsys.readouterr() == spaced

    def test_bad_row_number(self, capsys):
        # A row number is ASCII -?[0-9]+: not "²" (str.isdigit accepts it), a
        # doubled sign, "1_0" (int() reads 10) or "٣" (str.isdecimal accepts it).
        for text in ("one", "²", "--5", "1_0", "٣"):
            assert main(["explain", "e1e1", f"row {text}"]) == 2
            assert capsys.readouterr().err == f"error: bad row number: {text!r}\n"

    def test_wrong_tuple_arity(self, capsys):
        assert main(["explain", "e1e1", "(2,1,2)"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: e1e1 tuple is (kx3, r, d, g, r_plus, d_plus, g_plus)"

    @pytest.mark.parametrize("key", ["(0,2,1,0,2,1,0)", "(-4,2,1,0,2,1,0)"])
    def test_nonpositive_central_degree_is_usage_error(self, capsys, key):
        assert main(["explain", "e1e1", key]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: central degree kx3 must be positive, got ")

    @pytest.mark.parametrize("family,key", [("e1e2", "(0,2,12,7,5,-2)"), ("e5e5", "(-2,1)")])
    def test_nonpositive_central_degree_other_shapes(self, capsys, family, key):
        assert main(["explain", family, key]) == 2
        assert "central degree kx3 must be positive" in capsys.readouterr().err

    def test_out_of_range_central_degree_is_explained(self, capsys):
        assert main(["explain", "e1e1", "(3,2,1,0,2,1,0)"]) == 0
        out = capsys.readouterr().out
        assert "FAIL KX3_RANGE: central degree 3" in out
        assert "verdict: rejected" in out

    def test_unparseable_tuple(self, capsys):
        # Each field is ASCII -?[0-9]+, by the row number's rule: int() would
        # read "1_0" as 10 and "٣" as 3.
        for key in ("(a,b)", "(2,2,1,0,2,1_0,0)", "(٣,2,1,0,2,1,0)"):
            assert main(["explain", "e1e1", key]) == 2
            assert capsys.readouterr().err == f"error: cannot parse tuple: {key!r}\n"

    @pytest.mark.parametrize(
        "family,key,value",
        [
            ("e1e1", "4,1,99999999999999999999,0,1,1,0", "99999999999999999999"),
            ("e1e2", "(4,2,12,7,5,-9223372036854775809)", "-9223372036854775809"),
            ("e2e2", "(9223372036854775808,1)", "9223372036854775808"),
        ],
    )
    def test_out_of_64_bit_range_field_is_usage_error(self, capsys, family, key, value):
        # One past the signed 64-bit range on each side; 2**63 - 1 is accepted
        # as a field, and then its target degree 2**63 + 7 is what is named.
        assert main(["explain", family, key]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "64-bit" in captured.err and value in captured.err
        assert main(["explain", "e2e2", "(9223372036854775807,1)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "9223372036854775807" not in captured.err
        assert "9223372036854775815" in captured.err

    @pytest.mark.parametrize(
        "family,key,value",
        [
            # kY3 = kx3 + 8 = 2**63 + 7.
            ("e2e2", "(9223372036854775807,1)", "9223372036854775815/1"),
            # The left excess r*d + 2 - 2g = 2**63 + 1.
            ("e1e1", "(2,1,9223372036854775807,0,1,1,0)", "9223372036854775809/1"),
            # kY3 = kx3 + 2*r*d + 2 - 2g = 2**63 + 2.
            ("e1e1", "(9223372036854775806,1,1,0,1,1,0)", "9223372036854775810/1"),
            ("e1e2", "(9223372036854775806,1,1,0,1,-1)", "9223372036854775810/1"),
            # Every field is in range; the flopped-divisor cube is not: with
            # alpha = 2**62, beta = -1 and the E2 constants (4, 2, 1) it is
            # 2*alpha^3 - 12*alpha^2 - 6*alpha - 1.
            ("e2e2", "(2,4611686018427387904)", f"{2 * 2**186 - 12 * 2**124 - 6 * 2**62 - 1}/1"),
        ],
    )
    def test_out_of_64_bit_range_derived_value_is_usage_error(self, capsys, family, key, value):
        # Every derived number is audited before anything is printed.
        assert main(["explain", family, key]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: magnitude outside signed 64-bit range: {value}\n"


class TestRepeatedCalls:
    """main() runs many times in one process: in the tests and in bench/."""

    def test_calls_leave_no_cyclic_garbage(self, capsys):
        assert main(["--list-checks"]) == 0
        gc.collect()
        gc.disable()
        try:
            for argv in (
                ["verify", "--families", "e2e2"],
                ["enumerate", "--families", "e5e5"],
                ["--list-checks"],
                ["explain", "e2e2", "(8,1)"],
            ):
                assert main(argv) == 0
                assert gc.collect() == 0, argv
        finally:
            gc.enable()
        capsys.readouterr()

    def test_malloc_policy_is_set_once_per_process(self, monkeypatch, capsys):
        # Each mallopt call consolidates glibc's heap, so main sets the mmap
        # threshold and then the trim threshold in its process's first call
        # only; without a mallopt, main runs as it does with one.
        calls = []
        monkeypatch.setattr(ctypes.pythonapi, "mallopt", lambda *args: calls.append(args) or 1)
        _set_malloc_policy.cache_clear()
        try:
            for _ in range(2):
                assert main(["--list-checks"]) == 0
            assert calls == [(-3, 1 << 20), (-1, MALLOC_TRIM_THRESHOLD)]
            monkeypatch.setattr(ctypes, "pythonapi", types.SimpleNamespace())
            _set_malloc_policy.cache_clear()
            assert main(["--list-checks"]) == 0
            assert len(calls) == 2
        finally:
            _set_malloc_policy.cache_clear()  # the next call sets the real policy again
        capsys.readouterr()

    def test_reused_parser_keeps_no_state_between_calls(self, capsys):
        assert main(["enumerate", "--families", "e1e1", "--disable-check", "HODGE"]) == 0
        ablated = capsys.readouterr().out
        assert main(["enumerate", "--families", "e1e1"]) == 0
        default = capsys.readouterr().out
        fresh = render_csv(
            [("e1e1", search_mod.enumerate_family("e1e1"))],
            build_golden_index(golden_mod.golden_for_family("e1e1")),
        )
        assert default == fresh
        assert ablated != fresh


# The commands of the output-stream matrix: each subcommand, and --list-checks.
STREAM_COMMANDS = {
    "list-checks": ["--list-checks"],
    "enumerate": ["enumerate", "--families", "e5e5"],
    "enumerate-trace": ["enumerate", "--families", "e5e5", "--trace-rejections"],
    "verify": ["verify", "--families", "e5e5"],
    "explain": ["explain", "e5e5", "row", "1"],
}
STREAMS = {"stdout": 1, "stderr": 2}
BREAKS = ("closed pipe", "closed fd")
OUT_PATHS = {"missing": "missing/out.csv", "empty": "", "directory": "."}


def _run_cli(argv: list[str], cwd: str, broken: str | None = None, how: str | None = None):
    """Run the CLI in a fresh interpreter in cwd, with stdout or stderr broken as how says.

    A closed pipe has no reader left, so a write to it fails; a closed fd is
    closed by the shell before the interpreter starts.  Returns the exit
    code and the captured bytes of each stream that is not broken.
    """
    command = [sys.executable, "-m", "fanolink.cli", *argv]
    env = {**os.environ, "PYTHONPATH": str(Path(fanolink.__file__).parents[1])}
    pipes = {name: subprocess.PIPE for name in STREAMS}
    if how == "closed fd":
        command = ["sh", "-c", f'exec "$@" {STREAMS[broken]}>&-', "sh", *command]
    elif how == "closed pipe":
        read, pipes[broken] = os.pipe()
        os.close(read)
    try:
        done = subprocess.run(command, cwd=cwd, env=env, timeout=120, **pipes)
    finally:
        if how == "closed pipe":
            os.close(pipes[broken])
    return done.returncode, done.stdout or b"", done.stderr or b""


@functools.cache
def _stream_matrix() -> dict[tuple, tuple]:
    """Every matrix case's run and every --out case's, four at a time, in an empty directory."""
    cases = [(name, s, how) for name in STREAM_COMMANDS for s in STREAMS for how in BREAKS]
    cases += [("out", path, None) for path in OUT_PATHS]
    with tempfile.TemporaryDirectory() as cwd, ThreadPoolExecutor(4) as pool:

        def run(case):
            name, broken, how = case
            if name == "out":
                argv = ["enumerate", "--families", "e5e5", "--out", OUT_PATHS[broken]]
                return _run_cli(argv, cwd)
            return _run_cli(STREAM_COMMANDS[name], cwd, broken, how)

        return dict(zip(cases, pool.map(run, cases)))


class TestOutputStreams:
    """A closed or broken stdout or stderr ends in exit 0 or 3, never in an escaped exception.

    A command exits 0 when it writes nothing to the broken stream, and 3,
    with the failure on stderr if stderr works, when a write to it fails.
    """

    @pytest.mark.parametrize("how", BREAKS)
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("name", STREAM_COMMANDS)
    def test_each_command_with_a_broken_stream(self, capsys, name, stream, how):
        code, out, err = _stream_matrix()[name, stream, how]
        for text in (out, err):
            assert b"Traceback" not in text and b"Exception ignored" not in text
        assert main(STREAM_COMMANDS[name]) == 0
        whole = capsys.readouterr()
        whole_out, whole_err = whole.out.encode(), whole.err.encode()
        trace = b"reject[domain] (1, 2) failed=KX3_RANGE\n" if "trace" in name else b""
        assert whole_out and whole_err == trace
        if stream == "stderr" and not whole_err:
            assert (code, out) == (0, whole_out)  # nothing to write to the broken stream
        elif stream == "stderr":
            assert (code, out) == (3, b"")  # the trace is written before the table
        else:
            reason = "stdout is closed" if how == "closed fd" else "[Errno 32] Broken pipe"
            assert (code, err) == (3, whole_err + f"internal error: {reason}\n".encode())

    @pytest.mark.parametrize("path", OUT_PATHS)
    def test_unwritable_out_paths(self, path):
        reason = {
            "missing": "[Errno 2] No such file or directory: 'missing/out.csv'",
            "empty": "[Errno 2] No such file or directory: ''",
            "directory": "[Errno 21] Is a directory: '.'",
        }[path]
        assert _stream_matrix()["out", path, None] == (
            3, b"", f"internal error: {reason}\n".encode()
        )
