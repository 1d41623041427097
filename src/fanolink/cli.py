"""Command-line interface.

Three subcommands cover the engine's workflow:

* ``enumerate`` runs the closed-form search and prints the candidate sets
  (csv, json, markdown or latex), optionally with individual checks
  disabled and rejected tuples traced to stderr.
* ``verify`` re-enumerates the requested families and diffs them against
  the packaged golden tables, exiting 1 on any discrepancy.
* ``explain`` derives every intermediate quantity for one candidate,
  named either by its golden row number or by a raw data tuple, and
  prints the full check report whether or not the candidate is admitted.

Exit codes: 0 success (and exact match for verify), 1 verification
mismatch, 2 usage error, 3 internal error (bad packaged data, I/O
failure, including a closed or broken stdout or stderr that the command
writes to, arithmetic guard).

The tool reads no network and writes nothing except an explicit --out
file.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from . import checks as checks_mod
from . import golden as golden_mod
from . import render as render_mod
from . import search as search_mod
from .formulas import basis_decomposition_numerators
from .model import FAMILIES
from .rational import RationalOverflowError, as_integer, audit_magnitude, render_exact

# Trace lines per write to stderr: every write but the last carries exactly
# this many, at most about 250 kB, under the 1 MiB mmap threshold main() sets
# (README, "Memory").
TRACE_CHUNK_LINES = 4096


class _ClosedStream:
    """Stands in for a standard stream the process started without: a write fails, naming it."""

    def __init__(self, name: str) -> None:
        self.name = name

    def write(self, text: str) -> int:
        raise OSError(f"{self.name} is closed")

    def flush(self) -> None:
        pass


def _report(message: str) -> None:
    """Print an error message to stderr; a stderr that fails to take it is left as it is."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


def _parse_families(value: str) -> list[str]:
    requested = [part.strip() for part in value.split(",") if part.strip()]
    if not requested:
        raise ValueError("no families given")
    unknown = sorted(set(requested) - {*search_mod.FAMILY_IDS, "all"})
    if unknown:
        raise ValueError(
            f"unknown families: {', '.join(unknown)} "
            f"(choose from {', '.join(search_mod.FAMILY_IDS)} or all)"
        )
    if "all" in requested:
        return list(search_mod.FAMILY_IDS)
    # Canonical order, duplicates collapsed.
    return [family for family in search_mod.FAMILY_IDS if family in requested]


# glibc's allocator policy, set once per process by main (README, "Memory"):
# every block of 1 MiB or more gets its own mapping, M_MMAP_THRESHOLD (-3),
# and up to this much free heap top stays mapped between calls, M_TRIM_THRESHOLD (-1).
MALLOC_TRIM_THRESHOLD = 8 << 20


@functools.cache
def _set_malloc_policy() -> None:
    """Call glibc's mallopt once per process; skipped where the C library has none."""
    mallopt = getattr(__import__("ctypes").pythonapi, "mallopt", None)
    if mallopt is not None:
        for param, value in ((-3, 1 << 20), (-1, MALLOC_TRIM_THRESHOLD)):
            mallopt(param, value)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanolink",
        description="Exact enumeration of two-sided divisorial link candidates.",
    )
    parser.add_argument(
        "--list-checks", action="store_true", help="list the admission checks and exit"
    )
    sub = parser.add_subparsers(dest="command")

    enum_p = sub.add_parser("enumerate", help="run the search and print candidate sets")
    enum_p.add_argument("--families", default="all", help="comma-separated family ids or 'all'")
    enum_p.add_argument("--format", default="csv", choices=tuple(render_mod.RENDERERS))
    enum_p.add_argument("--out", default=None, help="write output to this file instead of stdout")
    enum_p.add_argument(
        "--disable-check",
        action="append",
        default=[],
        metavar="CHECK",
        help="disable one admission check (repeatable)",
    )
    enum_p.add_argument(
        "--trace-rejections",
        action="store_true",
        help="stream rejected tuples with their failing checks to stderr",
    )

    verify_p = sub.add_parser("verify", help="diff enumerated candidates against golden tables")
    verify_p.add_argument("--families", default="all", help="comma-separated family ids or 'all'")

    explain_p = sub.add_parser("explain", help="derive and check a single candidate")
    explain_p.add_argument("family", help="family id, e.g. e1e1")
    explain_p.add_argument(
        "key",
        nargs="+",
        help="'row N' (golden row number) or a data tuple: "
        "e1e1 (kx3,r,d,g,r+,d+,g+); E1-point (kx3,r,d,g,alpha+,beta+); symmetric (kx3,alpha)",
    )
    return parser


def _print_check_listing(stream) -> None:
    width = max(len(name) for name in checks_mod.REGISTRY)
    for name, check in checks_mod.REGISTRY.items():
        print(f"{name:<{width}}  {check.description}", file=stream)


@functools.cache
def _cell_suffixes(cells: tuple, checks: tuple[str, ...]) -> tuple[str, ...]:
    """The "d, g) failed=..." suffix of each cell, once per process per cells and checks."""
    return tuple(f"{d}, {g}) failed={','.join(checks)}\n" for d, g in cells)


class _TraceSink:
    """The --trace-rejections hook: one ``reject[stage] data failed=...`` line per rejection.

    A block (search.TraceFn) is written as a head such as ``reject[side-left]
    (kx3, r, `` joined with its events' ``d, g) failed=...`` suffixes.  Like
    the side lists, these are built once per process: the cells' per cells
    and checks (_cell_suffixes), the events' picked per cells, verdicts and
    failed (_events, shared by every sink; keyed by the cells' id, an entry
    keeps the cells alive).  Pending output is text pieces and their line
    count: a block queues two pieces, its head and its events joined by the
    head, and one that crosses a chunk boundary is split on its suffixes.
    The pieces are written when a chunk is full, and the rest at the end.
    """

    _events: dict[tuple, tuple] = {}

    def __init__(self) -> None:
        self._pieces: list[str] = []  # pending text, self._lines lines in all
        self._lines = 0

    def __call__(self, stage: str, data: tuple, failed: tuple[str, ...]) -> None:
        self._pieces.append("reject[%s] %r failed=%s\n" % (stage, data, ",".join(failed)))
        self._lines += 1
        if self._lines == TRACE_CHUNK_LINES:
            self.write()

    def block(self, stage, data, cells, verdicts, failed, start, stop) -> None:
        key = (id(cells), verdicts, failed)  # the events' suffixes, picked from the cells'
        entry = self._events.get(key)
        if entry is None:
            tails = [c and _cell_suffixes(cells, c) for c in failed]
            events = [tails[v][i] for i, v in enumerate(verdicts) if v]
            entry = self._events[key] = (cells, events, 0 in verdicts)
        _, events, sparse = entry
        if sparse:  # count the events before start and stop, not the cells
            start, stop = start - verdicts.count(0, 0, start), stop - verdicts.count(0, 0, stop)
        head = f"reject[{stage}] (" + ("%s, " * len(data)) % data
        while start < stop:  # queue the head and suffix lines, split where a chunk fills
            end = start + TRACE_CHUNK_LINES - self._lines
            end = stop if stop < end else end
            self._pieces += head, head.join(events[start:end])
            self._lines += end - start
            start = end
            if self._lines == TRACE_CHUNK_LINES:
                self.write()

    def write(self) -> None:
        """Write the pending pieces: a full chunk, or at the end of a run the rest."""
        if self._pieces:
            sys.stderr.write("".join(self._pieces))
            self._pieces, self._lines = [], 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        families = _parse_families(args.families)
        checks_mod.validate_check_ids(args.disable_check)
    except ValueError as exc:
        _report(f"error: {exc}")
        return 2
    enabled = frozenset(checks_mod.DEFAULT_CHECKS - set(args.disable_check))

    trace = _TraceSink() if args.trace_rejections else None
    sections = []
    golden_rows = []
    try:
        for family in families:
            sections.append((family, search_mod.enumerate_family(family, enabled, trace=trace)))
            golden_rows.extend(golden_mod.golden_for_family(family))
    finally:
        if trace is not None:
            trace.write()
    golden_index = render_mod.build_golden_index(golden_rows)
    text = render_mod.render_dispatch(args.format, sections, golden_index)

    if args.out is None:
        sys.stdout.write(text)
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        families = _parse_families(args.families)
    except ValueError as exc:
        _report(f"error: {exc}")
        return 2
    any_mismatch = False
    for family in families:
        candidates = search_mod.enumerate_family(family)
        golden = golden_mod.golden_for_family(family)
        report = golden_mod.diff(candidates, golden)
        if report.empty:
            print(f"{family}: exact match ({len(candidates)} rows)")
        else:
            any_mismatch = True
            print(f"{family}: MISMATCH")
            print(report.describe())
    return 1 if any_mismatch else 0


def _integers(texts: list[str], error: str) -> tuple[int, ...]:
    """The texts as ints, each ASCII -?[0-9]+ (else ValueError(error)): explain's one rule."""
    if all(re.fullmatch("-?[0-9]+", text) for text in texts):
        try:
            return tuple(map(int, texts))
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(error)


def _explain_values(family: str, key_tokens: list[str]) -> tuple[int, ...]:
    """The family's tuple, in explain_fields order, of a golden row number or a raw tuple."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r} (choose from {', '.join(FAMILIES)})")
    names = FAMILIES[family].explain_fields
    text = " ".join(key_tokens).strip()
    if text.lower().startswith("row"):
        number_text = text[3:].strip()
        (number,) = _integers([number_text], f"bad row number: {number_text!r}")
        for row in golden_mod.golden_for_family(family):
            if row["row"] == number:
                return tuple(as_integer(row[name]) for name in names)
        raise ValueError(f"no golden row {number} in family {family}")
    parts = [part.strip() for part in text.strip("()").split(",") if part.strip()]
    values = _integers(parts, f"cannot parse tuple: {text!r}")
    if len(values) != len(names):
        raise ValueError(f"{family} tuple is ({', '.join(names)})")
    for value in values:
        audit_magnitude(value)
    if values[0] <= 0:  # kx3 leads every family's tuple
        raise ValueError(f"central degree kx3 must be positive, got {values[0]}")
    return values


def _cmd_explain(args: argparse.Namespace) -> int:
    # Every number printed below is held to the 64-bit contract first: the
    # candidate's by search.build_candidate, the decompositions' here.
    try:
        values = _explain_values(args.family, args.key)
        candidate = search_mod.build_candidate(search_mod.record(args.family, values))
        decompositions = []
        for role, side, pair, plus in (
            ("left", candidate.left, candidate.pair, ""),
            ("right", candidate.right, candidate.pair_plus, "_plus"),
        ):
            if side.is_e1:
                lead, diff_term, den = basis_decomposition_numerators(pair, side.r)
                values = (Fraction(lead, den), Fraction(diff_term, den))
                decompositions.append((role, plus, tuple(map(audit_magnitude, values))))
    except (ValueError, RationalOverflowError) as exc:
        _report(f"error: {exc}")
        return 2

    coeffs = candidate.coeffs
    print(f"family: {candidate.family}")
    print(f"central degree -K_X^3: {candidate.kx3}")
    for role, side, sig, ky3 in (
        ("left", candidate.left, candidate.sigma_left, candidate.kY3_left),
        ("right", candidate.right, candidate.sigma_right, candidate.kY3_right),
    ):
        if side.is_e1:
            datum = f"E1 (r={side.r}, d={side.d}, g={side.g})"
        else:
            datum = side.ctype.value
        print(f"{role} side: {datum}, sigma={sig}, target degree {render_exact(ky3)}")
    print(
        "coefficients: "
        f"alpha={render_exact(coeffs.alpha)}, beta={render_exact(coeffs.beta)}, "
        f"alpha_plus={render_exact(coeffs.alpha_plus)}, beta_plus={render_exact(coeffs.beta_plus)}"
    )
    cube_left, cube_right = Fraction(*candidate.etilde3_left), Fraction(*candidate.etilde3_right)
    print(f"flopped divisor cubes: left={render_exact(cube_left)}, right={render_exact(cube_right)}")
    defect_left = "non-integral" if candidate.defect_e is None else str(candidate.defect_e)
    defect_right = "non-integral" if candidate.defect_e_plus is None else str(candidate.defect_e_plus)
    norm = candidate.e_over_r3
    norm_text = "non-integral" if norm is None else render_exact(norm)
    print(f"defects: e={defect_left}, e_plus={defect_right}, e/r^3={norm_text}")
    for role, plus, (lead, diff_term) in decompositions:
        print(
            f"{role}-basis decomposition (alpha{plus}*r{plus}, beta{plus}-alpha{plus}): "
            f"({render_exact(lead)}, {render_exact(diff_term)})"
        )
    print("checks:")
    reports = checks_mod.run_checks(candidate)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"  {status} {report.name}: {report.detail}")
    print(f"verdict: {'admitted' if checks_mod.admitted(reports) else 'rejected'}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    _set_malloc_policy()
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:  # the process started with that descriptor closed
            setattr(sys, name, _ClosedStream(name))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors.
        return int(exc.code or 0)
    if args.command is None and not args.list_checks:
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.list_checks:
            _print_check_listing(sys.stdout)
            code = 0
        elif args.command == "enumerate":
            code = _cmd_enumerate(args)
        elif args.command == "verify":
            code = _cmd_verify(args)
        else:
            code = _cmd_explain(args)
        # What is still buffered must reach its stream too, or fail here.
        sys.stdout.flush()
        sys.stderr.flush()
        return code
    except Exception as exc:  # noqa: BLE001 - contract: internal errors exit 3
        _report(f"internal error: {exc}")
        return 3


def entrypoint() -> None:
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            # The bytes left in a stream that failed would fail the
            # interpreter's exit flush again (exit 120): send them nowhere.
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
