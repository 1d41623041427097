"""Layer spans and counters, recorded from outside the program.

``Tracer`` wraps public functions of the fanolink modules while an op
runs and restores them afterwards; nothing in ``src/`` knows about it.
Each wrapped call becomes a span ``(name, parent, start, end)`` kept in
memory until the op ends, when the spans are folded into per-layer call
counts, total times and self times (a span's duration minus the part its
child spans cover).

``Funnel`` folds the enumerator's own ``trace=`` events into per-family
counts: side prunes and pair-fast rejects by check, full rejects by first
failing check, and admitted rows.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

from fanolink import catalog, checks, golden, render, search

CHECK_NAMES: tuple[str, ...] = tuple(checks.REGISTRY)
# Per-family funnel counts reported as metrics; pruned checks on the two
# sides of a pair are merged (FANO_DEGREE_LEFT and _RIGHT become FANO_DEGREE).
FUNNEL_KEYS: tuple[str, ...] = (
    "side_prunes.SIGMA_POS",
    "side_prunes.FANO_DEGREE",
    "pair_fast_rejects",
    "full_rejects",
    "admitted",
)


class Tracer:
    """Spans and counters for one op at a time.

    ``install`` patches the module attributes the program looks up at call
    time; ``uninstall`` restores them and folds the op's spans into one
    dict of per-layer numbers, appended to ``ops``.
    """

    def __init__(self) -> None:
        self.ops: list[dict[str, float]] = []
        self._spans: list[tuple | None] = []
        self._open: list[int] = []
        self._counts: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, open_ = self._spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, perf_counter())
                open_.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self._counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_reports(self, reports) -> None:
        counts = self._counts
        counts["checks.reports"] += len(reports)
        for report in reports:
            if not report.passed:
                counts[f"checks.first_fail.{report.name}"] += 1
                return
        counts["checks.admitted"] += 1

    def _on_render(self, text: str) -> None:
        self._counts["render.bytes_out"] += len(text.encode("utf-8"))

    def _counting_enumerate(self, fn):
        """enumerate_family, with any caller-supplied trace hook counted."""
        signature = inspect.signature(fn)
        counts = self._counts

        def with_counted_trace(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            user_trace = bound.arguments.get("trace")
            if user_trace is not None:

                def counted(stage, data, failed):
                    counts["search.trace_events"] += 1
                    user_trace(stage, data, failed)

                bound.arguments["trace"] = counted
            return fn(*bound.args, **bound.kwargs)

        return with_counted_trace

    # -- install / fold ----------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        self._spans.clear()
        self._open.clear()
        self._counts.clear()
        for attr in dir(search):
            if attr.startswith("build_") and inspect.isfunction(getattr(search, attr)):
                self._patch(search, attr, lambda fn: self._span("search.build", fn))
        self._patch(search, "etilde_cubed", lambda fn: self._span("formulas.etilde", fn))
        self._patch(
            search, "run_checks", lambda fn: self._span("checks.run", fn, self._on_reports)
        )
        self._patch(
            search, "is_valid_fano_degree", lambda fn: self._span("catalog.degree", fn)
        )
        self._patch(catalog, "hodge_h12", lambda fn: self._count("catalog.hodge_calls", fn))
        self._patch(
            search,
            "enumerate_family",
            lambda fn: self._span("search.enumerate", self._counting_enumerate(fn)),
        )
        self._patch(search, "brute_force_oracle", lambda fn: self._span("search.oracle", fn))
        self._patch(golden, "golden_for_family", lambda fn: self._span("golden.load", fn))
        self._patch(golden, "diff", lambda fn: self._span("golden.diff", fn))
        self._patch(
            render, "render_dispatch", lambda fn: self._span("render.render", fn, self._on_render)
        )

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self.ops.append(self._fold())

    def _fold(self) -> dict[str, float]:
        calls: Counter[str] = Counter()
        total: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        spans = self._spans
        # Spans are indexed by start order, so a child's index exceeds its
        # parent's: walking backwards visits every child before its parent.
        for index in range(len(spans) - 1, -1, -1):
            name, parent, start, end = spans[index]
            duration = end - start
            calls[name] += 1
            total[name] += duration
            total[name + ".self"] += duration - child[index]
            if parent >= 0:
                child[parent] += duration
        spans.clear()
        run_calls = calls["checks.run"]
        op = {
            "golden.load_calls": calls["golden.load"],
            "golden.load_s": total["golden.load"],
            "golden.diff_s": total["golden.diff"],
            "render.render_s": total["render.render"],
            "render.bytes_out": self._counts["render.bytes_out"],
            "formulas.etilde_calls": calls["formulas.etilde"],
            "formulas.etilde_s": total["formulas.etilde"],
            "search.build_calls": calls["search.build"],
            "search.build_self_s": total["search.build.self"],
            "checks.run_calls": run_calls,
            "checks.run_s": total["checks.run"],
            "checks.reports": self._counts["checks.reports"],
            "checks.admit_ratio": (
                self._counts["checks.admitted"] / run_calls if run_calls else 0.0
            ),
        }
        for name in CHECK_NAMES:
            op[f"checks.first_fail.{name}"] = self._counts[f"checks.first_fail.{name}"]
        op.update(
            {
                "catalog.degree_calls": calls["catalog.degree"],
                "catalog.degree_s": total["catalog.degree"],
                "catalog.hodge_calls": self._counts["catalog.hodge_calls"],
                "search.enumerate_self_s": total["search.enumerate.self"],
                "search.oracle_s": total["search.oracle"],
                "search.oracle_scan_self_s": total["search.oracle.self"],
                "search.trace_events": self._counts["search.trace_events"],
            }
        )
        return op


class Funnel:
    """Per-family counts of the enumerator's trace events.

    Keys are ``<stage>.<check>``, where the check is the first failing one
    the event names, plus ``admitted`` for the rows returned.
    """

    def __init__(self) -> None:
        self.families: dict[str, Counter[str]] = {}

    def run(self, family: str, enabled: frozenset[str]) -> None:
        counts: Counter[str] = Counter()

        def hook(stage: str, data: tuple, failed: tuple[str, ...]) -> None:
            counts[f"{stage}.{failed[0]}"] += 1

        counts["admitted"] = len(search.enumerate_family(family, enabled, trace=hook))
        self.families[family] = counts

    def as_json(self) -> dict[str, dict[str, int]]:
        return {family: dict(sorted(c.items())) for family, c in sorted(self.families.items())}

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        totals: Counter[str] = Counter()
        for family in search.FAMILY_IDS:
            counts = self.families.get(family, Counter())
            summary = Counter()
            for key, value in counts.items():
                stage, _, check = key.partition(".")
                if stage.startswith("side"):
                    check = check.removesuffix("_LEFT").removesuffix("_RIGHT")
                    summary["side_prunes." + check] += value
                elif stage == "pair-fast":
                    summary["pair_fast_rejects"] += value
                elif stage == "full":
                    summary["full_rejects"] += value
            summary["admitted"] = counts["admitted"]
            for key in FUNNEL_KEYS:
                out[f"search.funnel.{family}.{key}"] = summary[key]
            totals.update(summary)
        reached = totals["pair_fast_rejects"] + totals["full_rejects"] + totals["admitted"]
        out["search.side_prunes.SIGMA_POS"] = totals["side_prunes.SIGMA_POS"]
        out["search.side_prunes.FANO_DEGREE"] = totals["side_prunes.FANO_DEGREE"]
        out["search.pair_fast_rejects"] = totals["pair_fast_rejects"]
        out["search.prune_ratio"] = totals["pair_fast_rejects"] / reached if reached else 0.0
        return out

