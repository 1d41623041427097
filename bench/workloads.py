"""The four benchmark workloads: what one op runs and how its output is checked.

Every op's output is compared with values pinned in ``pins.json`` at
commit 37d433b (the reproduction's seed state).  The seed permutes the
family order that the ``verify`` and ``trace`` ops pass to the CLI; every
output is canonical, so the pinned values hold for every seed.  The
``ablation`` and ``oracle`` ops run E1-E1 alone and take no input.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fanolink import checks, cli, search

PINS_PATH = Path(__file__).with_name("pins.json")


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliRun:
    """One in-process ``fanolink`` invocation with both streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


# -- ops -------------------------------------------------------------------


def op_verify(order: list[str]) -> tuple[CliRun, CliRun]:
    families = ",".join(order)
    return (
        run_cli(["verify", "--families", families]),
        run_cli(["enumerate", "--families", families]),
    )


def check_verify(output: tuple[CliRun, CliRun], pins: dict) -> bool:
    verify, enum = output
    return (
        verify.code == 0
        and verify.stdout == pins["verify_stdout"]
        and enum.code == 0
        and sha256(enum.stdout) == pins["enumerate_all_csv_sha256"]
        and not verify.stderr
        and not enum.stderr
    )


def op_ablation(order: list[str]) -> CliRun:
    return run_cli(["enumerate", "--families", "e1e1", "--disable-check", "DIOPHANTINE"])


def check_ablation(output: CliRun, pins: dict) -> bool:
    return (
        output.code == 0
        and sha256(output.stdout) == pins["ablation_e1e1_csv_sha256"]
        and not output.stderr
    )


def op_oracle(order: list[str]) -> tuple[bool, int]:
    """Brute-force oracle against the enumerator, as sets, for E1-E1.

    E1-E1 is about 70% of the oracle's cost over all seven families; an
    all-family op (about 6 s) leaves too few ops in a run to give a steady
    median on a host whose speed drifts over tens of seconds.
    """
    oracle = search.brute_force_oracle("e1e1")
    primary = search.enumerate_family("e1e1")
    return set(oracle) == set(primary), len(primary)


def check_oracle(output: tuple[bool, int], pins: dict) -> bool:
    return output == (True, pins["oracle_rows"]["e1e1"])


def op_trace(order: list[str]) -> CliRun:
    return run_cli(["enumerate", "--families", ",".join(order), "--trace-rejections"])


def check_trace(output: CliRun, pins: dict) -> bool:
    return (
        output.code == 0
        and sha256(output.stdout) == pins["enumerate_all_csv_sha256"]
        and output.stderr.count("\n") == pins["trace_stderr_lines"]
        and sha256(output.stderr) == pins["trace_stderr_sha256"]
    )


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable[[list[str]], object]
    check: Callable[[object, dict], bool]
    # The enumeration configuration whose funnel the traced run reports.
    funnel_families: tuple[str, ...]
    funnel_enabled: frozenset[str]

    def inputs(self, rng: random.Random) -> list[str]:
        """The family order for one op, drawn from the seeded stream."""
        order = list(search.FAMILY_IDS)
        rng.shuffle(order)
        return order


_ALL = tuple(search.FAMILY_IDS)
_DEFAULT = checks.DEFAULT_CHECKS

WORKLOADS: dict[str, Workload] = {
    "verify": Workload("verify", op_verify, check_verify, _ALL, _DEFAULT),
    "ablation": Workload(
        "ablation", op_ablation, check_ablation, ("e1e1",), _DEFAULT - {"DIOPHANTINE"}
    ),
    "oracle": Workload("oracle", op_oracle, check_oracle, ("e1e1",), _DEFAULT),
    "trace": Workload("trace", op_trace, check_trace, _ALL, _DEFAULT),
}
