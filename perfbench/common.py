"""Shared pieces of the benchmark: metric names, timing helpers, the
per-layer shim tracer, and the result record every workload returns.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Scratch space for fleet cache directories; inside the checkout and
#: listed in the root ``.gitignore``.
WORK_DIR = ROOT / ".perfbench_work"

#: End-to-end metrics: every workload reports every one (``--trace 0``).
#: Latency percentiles are not among them: on the host this benchmark
#: was defined on, fleet request percentiles spread by 25-40 % from run
#: to run, wider than any bound the benchmark may set, and per-query
#: sweep latency only restates ``throughput_per_s``. They are printed
#: in the readable report, and the fleet's are per-layer metrics.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SWEEP_LAYERS = {
    "hls.banking.self_s": "s",
    "hls.banking.calls": "count",
    "hls.banking.access_calls": "count",
    "hls.banking.distinct_ratio": "ratio",
    "types.check.self_s": "s",
    "types.check.calls": "count",
    "types.memo_hit_ratio": "ratio",
    "types.fn_reused_ratio": "ratio",
    "ir.substitute.self_s": "s",
    "ir.substitute.calls": "count",
    "suite.acceptance_key.self_s": "s",
    "suite.acceptance_key.calls": "count",
    "suite.kernel.self_s": "s",
    "hls.schedule.self_s": "s",
    "hls.resources.self_s": "s",
    "hls.bounds.self_s": "s",
    "dse.frontier.insert.self_s": "s",
    "dse.frontier.evaluated_ratio": "ratio",
    "dse.pareto.self_s": "s",
    "dse.engine.other_s": "s",
}

CLASSES = ("warm", "cold", "edit")
STAGES = ("resolve", "check", "kernel", "estimate", "compile")
TIERS = ("memory", "disk", "miss", "coalesced")

_SERVICE_LAYERS = {
    **{f"service.latency.{c}.{q}_ms": "ms"
       for c in CLASSES for q in ("p50", "p90")},
    **{f"service.outside_root_ms.{c}": "ms" for c in CLASSES},
    **{f"service.root_ms.{c}": "ms" for c in CLASSES},
    **{f"service.stage.{s}.self_ms": "ms" for s in STAGES},
    **{f"service.cache.{t}_share": "ratio" for t in TIERS},
    "service.session.reparsed_mean": "count",
    "service.shed": "count",
    "service.deadline_exceeded": "count",
    "service.worker_share_max": "ratio",
    "gen.late_p90_ms": "ms",
}

#: Per-layer metrics: every workload reports every one (``--trace 1``);
#: a layer the workload's traced path never enters reads 0.
PER_LAYER = {**_SWEEP_LAYERS, **_SERVICE_LAYERS,
             "trace.overhead_ratio": "ratio",
             "error_rate": "ratio"}


@dataclass
class Outcome:
    """What one workload run produced, before formatting."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Further figures shown in the human-readable report only.
    notes: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Warnings about a traced run whose breakdown does not add up;
    #: they mark the per-layer figures, not the program, as suspect.
    flags: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


#: Host speed calibration. The 2-vCPU VM this benchmark was defined on
#: shares its cores with other tenants, and its effective speed shifts
#: by up to 2x for minutes at a time, moving every timing alike. Each
#: run therefore times a fixed reference kernel next to its
#: measurements and reports timings at nominal host speed: raw time
#: divided by (reference time / REFERENCE_NOMINAL_S). The kernel uses
#: no ``repro`` code, so no program change moves it. Raw figures and the
#: measured slowdown are printed in the readable report.
REFERENCE_NOMINAL_S = 0.010


def reference_work() -> int:
    """The reference kernel: dict-heavy Python plus small numpy calls,
    like the estimator's inner loops (~10 ms on a quiet vCPU)."""
    table: dict[int, int] = {}
    total = 0
    for i in range(40000):
        table[i % 97] = table.get(i % 97, 0) + i
        total += i * 3 % 7
    values = np.arange(64)
    for _ in range(600):
        total += int(np.unique(values % 7).sum())
    return total


def host_slowdown(probes: int = 1) -> float:
    """Median reference-kernel time over ``probes`` runs, as a multiple
    of REFERENCE_NOMINAL_S (above 1: the host is slower than nominal)."""
    times = []
    for _ in range(probes):
        started = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - started)
    return statistics.median(times) / REFERENCE_NOMINAL_S


def timed_setups(setup: Callable[[], Any], repeats: int,
                 ) -> tuple[float, float, Any]:
    """Run ``setup`` ``repeats`` times, each after a host-speed probe.

    Returns (median seconds at nominal host speed, median raw seconds,
    last result); earlier results are handed to their ``close`` method.
    """
    nominal = []
    raw = []
    result = None
    for attempt in range(repeats):
        if result is not None and hasattr(result, "close"):
            result.close()
        slowdown = host_slowdown(3)
        started = time.perf_counter()
        result = setup()
        raw.append(time.perf_counter() - started)
        nominal.append(raw[-1] / slowdown)
    return statistics.median(nominal), statistics.median(raw), result


def child_env() -> dict[str, str]:
    """Environment for subprocesses that import ``repro`` from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_probe(args: list[str]) -> None:
    """Run a setup probe in a fresh interpreter; raise if it fails."""
    completed = subprocess.run([sys.executable, *args], env=child_env(),
                               cwd=ROOT, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, timeout=120)
    if completed.returncode != 0:
        raise RuntimeError(f"setup probe failed: "
                           f"{completed.stderr.decode()[-400:]}")


def rss_mb_of(pid: int, field: str = "VmHWM") -> float:
    """Peak (VmHWM) or current (VmRSS) resident set of a live process,
    in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for pid {pid}")


class LayerTracer:
    """Self-time spans around calls into each layer's public functions.

    ``wrap(name, fn)`` returns a shim that times ``fn``; time spent in
    nested shims is charged to the inner span, so ``self_s`` values
    never double count and their sum equals the time spent inside
    top-level shims (``covered_s``). Single-threaded by design: the
    traced sweeps run with ``workers=1``.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._child_s = [0.0]
        self.bank_keys: list[tuple] = []

    @property
    def covered_s(self) -> float:
        return self._child_s[0]

    def wrap(self, name: str, fn: Callable,
             observe: Callable | None = None) -> Callable:
        """``observe``, when given, sees each call's arguments before
        the timer starts (so its cost is charged to the caller)."""
        perf_counter = time.perf_counter
        stack = self._child_s

        def shim(*args: Any, **kwargs: Any) -> Any:
            if observe is not None:
                observe(*args, **kwargs)
            stack.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                nested = stack.pop()
                stack[-1] += elapsed
                self.self_s[name] += elapsed - nested
                self.calls[name] += 1

        return shim


def format_report(workload: str, outcome: Outcome, trace: bool,
                  units: dict[str, str]) -> list[str]:
    """Human-readable lines printed before the JSON result line."""
    lines = [f"workload {workload} (trace={int(trace)}): "
             f"attempted={outcome.attempted} failed={outcome.failed} "
             f"error_rate={outcome.error_rate:.6f} ratio"]
    for name, (value, unit) in sorted(outcome.notes.items()):
        lines.append(f"  {name} = {value:.6g} {unit}")
    for name in units:
        lines.append(f"  {name} = {outcome.metrics[name]:.6g} {units[name]}")
    for name, ok in sorted(outcome.checks.items()):
        lines.append(f"  check {name}: {'ok' if ok else 'FAILED'}")
    lines.extend(f"  FLAG {flag}" for flag in outcome.flags)
    return lines

