"""The two in-process DSE workloads: ``sweep-exhaustive`` and
``frontier-query``.

Both call the public engine entry point ``repro.dse.sweep`` with
``workers=1`` on seeded subsamples of the four DSE families, one
*query* per family per round:

* ``sweep-exhaustive`` — ``mode="exhaustive"`` plus the query's
  accepted-Pareto set (the Fig. 7/8 answer);
* ``frontier-query`` — ``mode="frontier"`` to convergence.

Traced runs install :class:`~common.LayerTracer` shims around the
public functions of each layer (module attributes and the builders
passed to ``sweep``) and remove them afterwards.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Iterator

import numpy as np

from common import (
    HERE,
    PER_LAYER,
    LayerTracer,
    Outcome,
    host_slowdown,
    p50,
    p90,
    rss_mb_of,
    run_probe,
    timed_setups,
)

#: Resident set before ``repro`` is imported: the interpreter, numpy
#: and the benchmark's own modules. ``peak_rss_mb`` counts only what
#: the program and its inputs add to it.
RSS_BEFORE_PROGRAM_MB = rss_mb_of(os.getpid(), "VmRSS")

from repro.dse import explore, sweep  # noqa: E402
from repro.suite.generators import (  # noqa: E402
    TEMPLATE_FAMILIES,
    resolve_family,
)

FAMILIES = ("gemm-blocked", "stencil2d", "md-knn", "md-grid")

#: Unroll parameters of each family: they set a point's estimator cost,
#: so every query draws the same number of points from each of their
#: combinations (the other parameters are drawn at random).
STRATA = {"gemm-blocked": ("u1", "u2", "u3"), "stencil2d": ("u1", "u2"),
          "md-knn": ("u1", "u2"), "md-grid": ("u1", "u2")}

#: Points per unroll combination in one query, sized so each family's
#: query costs about the same (~0.45 s exhaustive, ~0.35 s frontier on
#: one core of a 2-vCPU VM). Query sizes: exhaustive 250 / 405 / 192 /
#: 256 points, frontier 8000 / 1998 / 6016 / 8000.
PER_STRATUM = {
    "sweep-exhaustive": {"gemm-blocked": 2, "stencil2d": 45,
                         "md-knn": 3, "md-grid": 4},
    "frontier-query": {"gemm-blocked": 64, "stencil2d": 222,
                       "md-knn": 94, "md-grid": 125},
}
SMOKE_DIVISOR = 10
WARMUP_POINTS = 40
#: Set-ups timed per run (``setup_s`` is their median).
SETUPS = 9

#: Points per family compared against ``explore()`` point for point.
ORACLE_SLICE = 24

#: Layer spans each traced workload must enter: the layers its row of
#: the per-layer table names. A shim that never runs fails the run.
TRACED_LAYERS = {
    "sweep-exhaustive": ("hls.banking.kernel", "hls.banking.access",
                         "suite.kernel", "hls.schedule", "hls.resources",
                         "dse.pareto"),
    "frontier-query": ("suite.acceptance_key", "ir.substitute",
                       "types.check", "hls.bounds", "dse.frontier.insert",
                       "hls.banking.kernel", "hls.banking.access"),
}
#: Smallest share of the traced query time that the shims must cover;
#: below it the breakdown misses a hot path and the run is flagged.
MIN_COVERAGE = 0.5


@dataclass
class Query:
    family: str
    configs: list[dict[str, int]]
    indices: list[int]              # enumeration index of each config


def config_at(parameters: tuple, index: int) -> dict[str, int]:
    """The configuration at ``index`` in a space's enumeration order."""
    config = {}
    for name, values in reversed(parameters):
        index, position = divmod(index, len(values))
        config[name] = values[position]
    return {name: config[name] for name, _ in parameters}


def make_queries(workload: str, seed: int, smoke: bool) -> list[Query]:
    """One query per family: a stratified random subsample drawn from
    ``seed``, in enumeration order. Only the drawn configurations are
    built, so the inputs add no more to the process than they hold."""
    queries = []
    for position, family in enumerate(FAMILIES):
        space = resolve_family(family)[0]()
        per_stratum = PER_STRATUM[workload][family]
        if smoke:
            per_stratum = max(1, per_stratum // SMOKE_DIVISOR)
        strata: dict[tuple, list[int]] = {}
        for index in range(space.size):
            config = config_at(space.parameters, index)
            key = tuple(config[name] for name in STRATA[family])
            strata.setdefault(key, []).append(index)
        draw = random.Random(f"{workload}:{seed}:{position}")
        indices = sorted(index for members in strata.values()
                         for index in draw.sample(members, per_stratum))
        queries.append(Query(family, [config_at(space.parameters, i)
                                      for i in indices], indices))
    return queries


def prepare(workload: str) -> None:
    """Set-up: parse every template variant of every family, then run
    one small fixed query per family so per-process caches (the
    family's function-verdict store, numpy dispatch) are warm."""
    for family in FAMILIES:
        space, source, kernel = resolve_family(family)
        template_family = TEMPLATE_FAMILIES[family]
        for config in space():
            template_family.template_for(config)
        _run_query(workload, list(space().sample(WARMUP_POINTS, seed=0)),
                   source, kernel)


def _run_query(workload: str, configs: list[dict[str, int]], source: Any,
               kernel: Any) -> tuple[Any, list[int]]:
    """One query; returns the engine result and its accepted-Pareto
    positions (into ``configs``)."""
    if workload == "sweep-exhaustive":
        result = sweep(configs, source, kernel, workers=1)
        return result, result.accepted_pareto_indices
    result = sweep(configs, source, kernel, workers=1, mode="frontier")
    return result, result.frontier_indices


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def load_oracle() -> dict[str, dict[int, tuple[float, ...]]]:
    """Pinned accepted points per family (see ``pin_oracle.py``)."""
    pinned = json.loads((HERE / "oracle.json").read_text())
    return {family: dict(zip(entry["indices"],
                             map(tuple, entry["objectives"])))
            for family, entry in pinned.items()}


def expected_frontier(accepted: dict[int, tuple[float, ...]],
                      indices: list[int]) -> set[int]:
    """Brute-force accepted-Pareto set (ties kept) of a subsample."""
    members = [i for i in indices if i in accepted]
    if not members:
        return set()
    matrix = np.array([accepted[i] for i in members], dtype=float)
    keep = set()
    for row, index in zip(matrix, members):
        dominated = (np.all(matrix <= row, axis=1)
                     & np.any(matrix < row, axis=1)).any()
        if not dominated:
            keep.add(index)
    return keep


def verify(workload: str, query: Query, result: Any, answer: list[int],
           oracle: dict[str, dict[int, tuple[float, ...]]],
           outcome: Outcome) -> None:
    stats = result.stats
    outcome.check("memo_accounting",
                  stats.checker_runs + stats.memo_hits == len(query.configs))
    accepted = oracle[query.family]
    expected = expected_frontier(accepted, query.indices)
    if workload == "sweep-exhaustive":
        got_accepted = {query.indices[i]: point.objectives
                        for i, point in enumerate(result.points)
                        if point.accepted}
        outcome.check("accepted_matches_oracle", got_accepted == {
            i: accepted[i] for i in query.indices if i in accepted})
        got = {query.indices[i] for i in answer}
    else:
        outcome.check("frontier_converged", result.converged)
        got = {query.indices[i] for i in answer}
        outcome.check("frontier_objectives_match_oracle", all(
            point.objectives == accepted.get(query.indices[i])
            for i, point in zip(result.frontier_indices, result.frontier)))
    outcome.check("pareto_matches_oracle", got == expected)


def verify_against_explore(query: Query, result: Any, seed: int,
                           size: int, outcome: Outcome) -> None:
    """Seeded slice of an exhaustive query vs the sequential oracle."""
    size = max(2, size)
    draw = random.Random(f"explore:{seed}:{query.family}")
    picks = sorted(draw.sample(range(len(query.configs)),
                               min(size, len(query.configs))))
    _, source, kernel = resolve_family(query.family)
    reference = explore([query.configs[i] for i in picks], source, kernel)
    outcome.check("explore_parity", all(
        result.points[i] == ref for i, ref in zip(picks, reference.points)))


# ---------------------------------------------------------------------------
# Per-layer shims
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def installed_shims(tracer: LayerTracer) -> Iterator[None]:
    """Wrap each layer's public functions at the names the engine calls
    them by; restore the originals on exit."""
    import repro.dse.engine as engine
    import repro.dse.frontier as frontier
    import repro.dse.runner as runner
    import repro.hls.banking as banking
    import repro.hls.estimator as estimator
    from repro.dse.frontier import IncrementalFrontier
    from repro.ir.template import TemplateFamily

    def record_access(kernel: Any, access: Any, *rest: Any) -> None:
        tracer.bank_keys.append((kernel, access))

    targets = [
        (TemplateFamily, "instantiate", "ir.substitute", None),
        (engine, "check_acceptance_program", "types.check", None),
        (estimator, "analyze_kernel", "hls.banking.kernel", None),
        (banking, "analyze_access", "hls.banking.access", record_access),
        (estimator, "schedule", "hls.schedule", None),
        (estimator, "estimate_resources", "hls.resources", None),
        (frontier, "estimate_bounds", "hls.bounds", None),
        (IncrementalFrontier, "insert", "dse.frontier.insert", None),
        (runner, "pareto_indices", "dse.pareto", None),
        (frontier, "pareto_indices", "dse.pareto", None),
    ]
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, observe in targets:
            setattr(owner, attr,
                    tracer.wrap(name, getattr(owner, attr), observe))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def traced_builders(tracer: LayerTracer, family: str) -> tuple[Any, Any]:
    """The family's builders, with the acceptance key and kernel
    builder timed (the engine finds both through these objects)."""
    _, source, kernel = resolve_family(family)

    def traced_source(config: dict[str, int]) -> str:
        return source(config)

    traced_source.acceptance_key = tracer.wrap(
        "suite.acceptance_key", source.acceptance_key)
    traced_source.family = source.family
    return traced_source, tracer.wrap("suite.kernel", kernel)


def fold_bank_keys(tracer: LayerTracer, totals: list[int]) -> None:
    """Add one sweep's distinct (access, array spec, per-loop
    iterations/unroll) keys and its ``analyze_access`` calls to
    ``totals`` and start the next sweep's key list."""
    totals[0] += len({(access, kernel.array(access.array),
                       tuple((loop.iterations, loop.unroll)
                             for loop in kernel.loops))
                      for kernel, access in tracer.bank_keys})
    totals[1] += len(tracer.bank_keys)
    tracer.bank_keys.clear()


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def _reset_hwm() -> None:
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


@dataclass
class Timings:
    """Per-family query times, raw and at nominal host speed (each
    round scaled by the median of the host-speed probes taken before
    its queries), and the engine stats of each query."""

    raw: dict[str, list[float]]
    nominal: dict[str, list[float]]
    slowdowns: list[float] = field(default_factory=list)
    stats: list[Any] = field(default_factory=list)

    @staticmethod
    def flat(per_family: dict[str, list[float]]) -> list[float]:
        return [t for times in per_family.values() for t in times]

    @staticmethod
    def throughput(per_family: dict[str, list[float]],
                   queries: list[Query]) -> float:
        """Points per second of one round at each family's median query
        time, so a burst of host noise in a minority of rounds does not
        move it."""
        points = sum(len(query.configs) for query in queries)
        return points / sum(median(per_family[query.family])
                            for query in queries)


def _timed_rounds(workload: str, queries: list[Query], seconds: float,
                  outcome: Outcome, oracle: dict, *,
                  rounds: int | None = None, builders: Any = None,
                  first_round: Any = None,
                  after_query: Any = None) -> Timings:
    """Repeat the round of ``queries`` until ``seconds`` of query time
    would be exceeded (at least once), or exactly ``rounds`` times.
    Only the queries are timed; each result is verified as it arrives
    and then dropped, so memory does not grow with the round count.
    ``first_round(query, result)`` sees the first round's results and
    ``after_query()`` runs after every query, untimed."""
    timings = Timings({query.family: [] for query in queries},
                      {query.family: [] for query in queries})
    spent = 0.0
    round_no = 0
    while rounds is None or round_no < rounds:
        if rounds is None and round_no and spent * (round_no + 1) \
                / round_no > seconds:
            break
        probes = []
        elapsed_by_family = {}
        for query in queries:
            source, kernel = (builders(query.family) if builders
                              else resolve_family(query.family)[1:])
            probes.append(host_slowdown())
            outcome.attempted += len(query.configs)
            started = time.perf_counter()
            try:
                result, answer = _run_query(workload, query.configs,
                                            source, kernel)
            except Exception:                     # noqa: BLE001 — counted
                outcome.failed += len(query.configs)
                outcome.check("no_query_raised", False)
                continue
            elapsed = time.perf_counter() - started
            spent += elapsed
            elapsed_by_family[query.family] = elapsed
            timings.stats.append(result.stats)
            verify(workload, query, result, answer, oracle, outcome)
            if after_query is not None:
                after_query()
            if first_round is not None and round_no == 0:
                first_round(query, result)
        slowdown = median(probes)
        timings.slowdowns.append(slowdown)
        for family, elapsed in elapsed_by_family.items():
            timings.raw[family].append(elapsed)
            timings.nominal[family].append(elapsed / slowdown)
        round_no += 1
    return timings


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> Outcome:
    outcome = Outcome()
    setup_s, setup_raw_s, _ = timed_setups(
        lambda: run_probe([str(HERE / "run.py"), "--probe", workload]),
        repeats=SETUPS)
    prepare(workload)
    oracle = load_oracle()
    queries = make_queries(workload, seed, smoke)

    if not trace:
        def against_explore(query: Query, result: Any) -> None:
            if workload == "sweep-exhaustive":
                verify_against_explore(
                    query, result, seed,
                    ORACLE_SLICE // (SMOKE_DIVISOR if smoke else 1),
                    outcome)

        _reset_hwm()
        timings = _timed_rounds(workload, queries, seconds, outcome, oracle,
                                first_round=against_explore)
        peak_mb = rss_mb_of(os.getpid()) - RSS_BEFORE_PROGRAM_MB
        latencies = Timings.flat(timings.nominal)
        outcome.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": Timings.throughput(timings.nominal, queries),
            "peak_rss_mb": peak_mb,
        }
        raw = Timings.flat(timings.raw)
        outcome.notes.update({
            "query_p50_ms": (p50(latencies) * 1000.0, "ms"),
            "query_p90_ms": (p90(latencies) * 1000.0, "ms"),
            "raw.setup_s": (setup_raw_s, "s"),
            "raw.points_per_s": (Timings.throughput(timings.raw, queries),
                                 "1/s"),
            "raw.query_p50_ms": (p50(raw) * 1000.0, "ms"),
            "raw.query_p90_ms": (p90(raw) * 1000.0, "ms"),
            "host_slowdown": (median(timings.slowdowns), "x"),
            "queries": (len(raw), "count"),
            "raw.peak_rss_mb": (rss_mb_of(os.getpid()), "MB"),
        })
        return outcome

    # Traced run: untraced rounds for half the budget, then as many
    # rounds again under the shims.
    plain = _timed_rounds(workload, queries, seconds / 2, outcome, oracle)
    tracer = LayerTracer()
    builder_cache: dict[str, tuple] = {}

    def builders(family: str) -> tuple:
        if family not in builder_cache:
            builder_cache[family] = traced_builders(tracer, family)
        return builder_cache[family]

    bank_totals = [0, 0]               # distinct keys, access calls
    with installed_shims(tracer):
        traced = _timed_rounds(
            workload, queries, seconds, outcome, oracle,
            rounds=len(plain.slowdowns), builders=builders,
            after_query=lambda: fold_bank_keys(tracer, bank_totals))
    wall = sum(Timings.flat(traced.raw))
    outcome.metrics = layer_metrics(workload, tracer, traced.stats, wall)
    outcome.metrics["trace.overhead_ratio"] = (
        sum(Timings.flat(traced.nominal)) / sum(Timings.flat(plain.nominal)))
    outcome.metrics["hls.banking.distinct_ratio"] = (
        bank_totals[0] / bank_totals[1] if bank_totals[1] else 0.0)
    for layer in TRACED_LAYERS[workload]:
        outcome.check(f"trace_enters_{layer}", tracer.calls[layer] > 0)
    coverage = tracer.covered_s / wall
    outcome.notes["trace.coverage"] = (coverage, "ratio")
    if coverage < MIN_COVERAGE:
        outcome.flags.append(f"shims cover {coverage:.2f} of the traced "
                             f"query time (< {MIN_COVERAGE})")
    return outcome


def layer_metrics(workload: str, tracer: LayerTracer, stats: list[Any],
                  wall: float) -> dict[str, float]:
    metrics = {name: 0.0 for name in PER_LAYER}
    s, calls = tracer.self_s, tracer.calls
    points = sum(st.points for st in stats)
    fn_total = sum(st.fn_checked + st.fn_reused for st in stats)
    metrics.update({
        "hls.banking.self_s": s["hls.banking.kernel"]
        + s["hls.banking.access"],
        "hls.banking.calls": calls["hls.banking.kernel"],
        "hls.banking.access_calls": calls["hls.banking.access"],
        "types.check.self_s": s["types.check"],
        "types.check.calls": calls["types.check"],
        "types.memo_hit_ratio": sum(st.memo_hits for st in stats) / points,
        "types.fn_reused_ratio": (sum(st.fn_reused for st in stats)
                                  / fn_total if fn_total else 0.0),
        "ir.substitute.self_s": s["ir.substitute"],
        "ir.substitute.calls": calls["ir.substitute"],
        "suite.acceptance_key.self_s": s["suite.acceptance_key"],
        "suite.acceptance_key.calls": calls["suite.acceptance_key"],
        "suite.kernel.self_s": s["suite.kernel"],
        "hls.schedule.self_s": s["hls.schedule"],
        "hls.resources.self_s": s["hls.resources"],
        "hls.bounds.self_s": s["hls.bounds"],
        "dse.frontier.insert.self_s": s["dse.frontier.insert"],
        "dse.pareto.self_s": s["dse.pareto"],
        "dse.engine.other_s": wall - tracer.covered_s,
    })
    if workload == "frontier-query":
        metrics["dse.frontier.evaluated_ratio"] = sum(
            st.points_evaluated for st in stats) / points
    return metrics
