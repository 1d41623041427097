"""fanolink benchmark: one closed-loop client, single-threaded, in-process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads: verify, ablation, oracle, trace (see bench/README.md).  The
benchmark imports ``fanolink`` from the checkout's own ``src/``, removes
``SARKISOV_THREADS`` from its environment so the serial path is measured,
and checks every op's output against the values pinned in
``bench/pins.json``.

With ``--trace 0`` it reports the end-to-end metrics of untraced ops.  With
``--trace 1`` it alternates untraced and traced ops and reports per-layer
numbers from the traced ones (see ``tracing.py``).  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Fresh interpreters per run for setup_s and cli.import_s; one import
# sample varies by about 15%, so the metric is the median of several.
SETUP_SAMPLES = 11
PROBE_TIMEOUT_S = 60
# op_tail_s is the highest percentile with at least this many samples above it.
TAIL_BEYOND = 10

# Every end-to-end metric, printed by name.  On a shared 2-core VM, host
# speed swings by up to 2x over seconds to minutes, which moved a run's
# median op time by 15-45% from run to run.  op_p50_ref divides each op's
# time by the time of reference_work right after it, which cancels the
# swing; it, memory and set-up time are the metrics in GATED, which go
# into the JSON result.
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "op_p50_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
GATED = ("op_p50_ref", "peak_rss_mb", "setup_s")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the op-time tail.

    The highest nearest-rank percentile with at least TAIL_BEYOND samples
    above it; with fewer than 2 * TAIL_BEYOND samples that rank would fall
    below the median, so the median rank is used instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name == "bench.trace_overhead":
        return "ratio"
    if name == "render.bytes_out":
        return "bytes"
    return "count"


def git_revision() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class ProbeError(RuntimeError):
    """A fresh-interpreter set-up probe gave no sample."""


class SetupProbes:
    """Sequential fresh-interpreter set-up samples, spread over the run.

    An untimed first probe lets the interpreter write its bytecode cache,
    which users pay only once.  The SETUP_SAMPLES timed ones are taken
    between ops as the run goes on, so they see the same swings in host
    speed as the ops do.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.samples: list[dict] = []
        self._env = {k: v for k, v in os.environ.items() if k != "SARKISOV_THREADS"}
        self._command = [sys.executable, "-I", str(BENCH_DIR / "probe_setup.py"), str(SRC)]
        self._take()
        self.samples.clear()

    def _take(self) -> None:
        try:
            done = subprocess.run(
                self._command,
                env=self._env,
                capture_output=True,
                text=True,
                timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise ProbeError("set-up probe timed out") from None
        if done.returncode != 0:
            raise ProbeError(f"set-up probe failed: {done.stderr.strip()}")
        sample = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(sample["module"]).resolve().is_relative_to(SRC):
            raise ProbeError(f"set-up probe imported fanolink from {sample['module']}")
        self.samples.append(sample)

    def due(self, elapsed: float) -> None:
        """Take the probes whose share of the run has elapsed."""
        share = 1.0 if elapsed >= self.seconds else elapsed / self.seconds
        while len(self.samples) < int(SETUP_SAMPLES * share):
            self._take()


def reference_work() -> None:
    """Fixed pure-Python work, timed right after every untraced op.

    Exact-rational arithmetic with tuple and dict traffic, like the
    program's hot loops, and independent of the program.  Changing it
    rescales ``op_p50_ref``, so it must stay as it is.
    """
    seen = {}
    total = Fraction(0)
    for a in range(1, 400):
        for b in range(1, 12):
            x = Fraction(a, b) ** 2 - Fraction(b, a + 1)
            seen[(a, b)] = x
            total += x


def closed_loop(workload, rng, seconds: float, pins: dict, tracer=None, between=None):
    """Run ops back to back for about ``seconds``.

    A new op starts only while a typical op still fits in the time left,
    so a run of slow ops does not overrun by one op.  Every op's output is
    checked.  Each untraced op is followed by ``reference_work``, so that
    both see the same host speed.  With a tracer, ops alternate untraced
    and traced so drift in host speed reaches both alike, and the loop
    runs until each kind has one op.  ``between``, if given, is called
    with the elapsed time after each op.  Returns (untraced op times, their
    reference times, traced op times, failed ops).
    """
    times: dict[bool, list[float]] = {False: [], True: []}
    refs: list[float] = []
    failed = 0
    begin = perf_counter()
    while True:
        done = times[False] + times[True]
        if (
            done
            and perf_counter() - begin + statistics.median(done) > seconds
            and times[False]
            and (tracer is None or times[True])
        ):
            break
        traced = tracer is not None and len(done) % 2 == 1
        order = workload.inputs(rng)
        if traced:
            tracer.install()
        start = perf_counter()
        try:
            output = workload.op(order)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            traceback.print_exc()
            output = None
        times[traced].append(perf_counter() - start)
        if traced:
            tracer.uninstall()
        else:
            start = perf_counter()
            reference_work()
            refs.append(perf_counter() - start)
        if output is None or not workload.check(output, pins):
            failed += 1
            print(f"op {len(done) + 1} ({workload.name}): output check failed", file=sys.stderr)
        if between is not None:
            between(perf_counter() - begin)
    return times[False], refs, times[True], failed


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_funnel(funnel, workload):
    for family in workload.funnel_families:
        funnel.run(family, workload.funnel_enabled)
    return funnel


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fanolink" / "__init__.py").is_file():
        print(f"error: no fanolink package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SARKISOV_THREADS", None)
    sys.path.insert(0, str(SRC))

    import fanolink
    from tracing import Funnel, Tracer
    from workloads import WORKLOADS, load_pins

    if not Path(fanolink.__file__).resolve().is_relative_to(SRC):
        print(f"error: fanolink imported from {fanolink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    pins = load_pins()
    load_start = os.getloadavg()

    rng = random.Random(args.seed)
    tracer = Tracer() if args.trace else None
    funnels: list[Funnel] = []
    if tracer is not None:
        funnels.append(run_funnel(Funnel(), workload))
    try:
        probes = SetupProbes(args.seconds)
        untraced, refs, traced, failed = closed_loop(
            workload, rng, args.seconds, pins, tracer, between=probes.due
        )
        probes.due(args.seconds)
    except ProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = len(untraced) + len(traced)
    if tracer is not None:
        funnels.append(run_funnel(Funnel(), workload))
    load_end = os.getloadavg()
    setup_s = statistics.median(p["setup_s"] for p in probes.samples)
    import_s = statistics.median(p["import_s"] for p in probes.samples)

    print(
        f"# workload={workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"# env python={platform.python_version()} nproc={os.cpu_count()} "
        f"git={git_revision()} fanolink={Path(fanolink.__file__).parent}"
    )
    print(
        "# loadavg start={:.2f},{:.2f},{:.2f} end={:.2f},{:.2f},{:.2f}".format(
            *load_start, *load_end
        )
    )
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops failed)")

    correct = failed == 0
    if tracer is None:
        value, percentile, beyond = tail(untraced)
        metrics = {
            "ops_per_s": len(untraced) / sum(untraced),
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": value,
            "op_p50_ref": statistics.median(op / ref for op, ref in zip(untraced, refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        for name, value in metrics.items():
            note = ""
            if name == "op_tail_s":
                note = f" (p{percentile:.4g}, {beyond} of {len(untraced)} samples beyond)"
            elif name == "setup_s":
                note = f" (median of {len(probes.samples)} fresh interpreters)"
            print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}{note}")
        metrics = {name: metrics[name] for name in GATED}
        units = END_TO_END_UNITS
    else:
        first, last = (f.as_json() for f in funnels)
        repeated = first == last
        correct = correct and repeated
        print(f"funnel {json.dumps(first, sort_keys=True)}")
        seed_funnel = first == pins["funnel"][workload.name]
        print(
            f"funnel repeated exactly: {'yes' if repeated else 'NO'}; "
            f"equals the pinned seed funnel: {'yes' if seed_funnel else 'no'}"
        )
        metrics = {
            name: statistics.median(op[name] for op in tracer.ops) for name in tracer.ops[0]
        }
        metrics["cli.import_s"] = import_s
        metrics.update(funnels[0].metrics())
        metrics["bench.trace_overhead"] = (len(traced) / sum(traced)) / (
            len(untraced) / sum(untraced)
        )
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {layer_unit(name)}")
        units = {name: layer_unit(name) for name in metrics}

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
