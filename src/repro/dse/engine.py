"""High-throughput DSE sweep engine.

The paper's headline experiments (§5.2–5.3) are exhaustive sweeps over
32,000 / 16,384 / 21,952-point spaces. :func:`repro.dse.explore` is the
sequential reference implementation; this module is the production
path. It produces **bit-identical results** (acceptance flags,
rejection kinds, estimator reports, point order) while being much
faster, via three mechanisms:

1. **Parallel fan-out** — configurations are split into deterministic,
   order-preserving chunks and dispatched to a ``multiprocessing``
   pool. A worker initializer installs the builders once per process;
   chunk results are consumed in order, so the output is independent of
   scheduling.

2. **Acceptance memoization** — the type checker is a deterministic
   function of the generated source, so identical sources need one
   checker run. Where the source builder exposes an
   ``acceptance_key(config)`` projection (see
   :mod:`repro.suite.generators`), configurations that agree on the
   acceptance-relevant parameters (unroll/banking divisibility) share a
   single checker run even though their sources differ in resource
   parameters — collapsing thousands of configurations to a few hundred
   typechecker invocations. Keys must determine the checker verdict;
   the test suite validates the shipped projections against the real
   checker.

   **Parse-free checking** — where the source builder additionally
   exposes a backing :class:`~repro.ir.TemplateFamily` (attribute
   ``family``), the checker runs that survive memoization consume
   *substituted ASTs*: the family template is parsed once per
   structural variant and each design point's program is produced by
   AST substitution. The ``parses`` stat records how few lex+parse
   invocations a sweep actually performed (= the variant count, not
   the point or key count).

3. **Structure-of-arrays results** — the returned
   :class:`~repro.dse.runner.DseResult` carries a cached objective
   matrix, so Pareto computation is a single vectorized numpy skyline.

Estimator reports are *never* memoized: resource estimates depend on
every parameter, and the paper's methodology estimates each point.
What is shared is the bank-conflict layer underneath them: each sweep
call owns one access-profile memo (per worker process on the pool
path), so an access context repeated across design points is analyzed
once — exactly, see :func:`repro.hls.banking.analyze_kernel`. The memo
is never module-global: concurrent sweeps in service threads each get
their own, and it dies with the call.
"""

from __future__ import annotations

import collections
import contextlib
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from ..hls.estimator import estimate
from ..types.checker import FunctionVerdictStore
from ..util import telemetry
from ..util.faults import fault_point
from ..util.hashing import source_digest
from .runner import (
    DesignPoint,
    DseResult,
    KernelBuilder,
    SourceBuilder,
    check_acceptance,
    check_acceptance_program,
)
from .space import ParameterSpace

#: Attribute looked up on source builders for the memoization key.
ACCEPTANCE_KEY_ATTR = "acceptance_key"

#: Attribute looked up on source builders for a backing
#: :class:`~repro.ir.TemplateFamily`. When present, acceptance checks
#: substitute design points into the once-parsed family template and
#: check the AST directly — zero re-parses per design point.
FAMILY_ATTR = "family"

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Row produced per configuration: (accepted, rejection, report).
_Row = tuple[bool, "str | None", Any]


@dataclass(frozen=True)
class EngineStats:
    """Throughput accounting for one engine sweep."""

    points: int
    elapsed_s: float
    workers: int
    chunk_size: int
    checker_runs: int                 # actual typecheck invocations
    memo_hits: int                    # points served from the memo table
    parses: int = 0                   # lex+parse invocations (template
                                      # path: once per variant, not per
                                      # point; source path: one per run)
    fn_checked: int = 0               # per-function checker shards run
    fn_reused: int = 0                # shards replayed from the verdict
                                      # store (hole-free helpers shared
                                      # across a sweep's design points)
    requeued: int = 0                 # chunks re-dispatched after a
                                      # worker death, hang, or error
    lost_workers: int = 0             # pool workers that died or were
                                      # terminated mid-sweep
    points_proposed: int = 0          # frontier mode: candidates sent
                                      # to full evaluation batches
    points_evaluated: int = 0         # frontier mode: full estimates
                                      # actually run (≤ points)
    frontier_versions: int = 0        # frontier mode: skyline mutations
    bank_analyses: int = 0            # exhaustive mode: access bank
                                      # analyses actually run
    bank_memo_hits: int = 0           # exhaustive mode: accesses served
                                      # from the sweep's profile memo
                                      # (analyses + hits == accesses)

    @property
    def points_per_sec(self) -> float:
        return self.points / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "points": self.points,
            "elapsed_s": round(self.elapsed_s, 4),
            "points_per_sec": round(self.points_per_sec, 2),
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "checker_runs": self.checker_runs,
            "memo_hits": self.memo_hits,
            "parses": self.parses,
            "fn_checked": self.fn_checked,
            "fn_reused": self.fn_reused,
            "requeued": self.requeued,
            "lost_workers": self.lost_workers,
            "points_proposed": self.points_proposed,
            "points_evaluated": self.points_evaluated,
            "frontier_versions": self.frontier_versions,
            "bank_analyses": self.bank_analyses,
            "bank_memo_hits": self.bank_memo_hits,
        }


def resolve_workers(workers: int | None) -> int:
    """Worker count: explicit argument, else $REPRO_WORKERS, else #CPUs."""
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV, "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            pass                         # non-integer: fall through
    return os.cpu_count() or 1


def default_chunk_size(n_points: int, workers: int) -> int:
    """Deterministic chunk size: ~8 chunks per worker, clamped.

    Small enough for load balancing and progress granularity, large
    enough to amortize per-task IPC.
    """
    if n_points <= 0:
        return 1
    target = -(-n_points // max(1, workers * 8))
    return max(1, min(256, target))


def _run_checker(source_builder: SourceBuilder,
                 family: Any,
                 config: dict[str, int],
                 source: str | None = None,
                 fn_store: FunctionVerdictStore | None = None,
                 ) -> tuple[tuple[bool, str | None], int]:
    """One checker run for ``config``; returns (verdict, parses).

    With a template family the design point's AST is produced by
    substitution into the once-parsed variant template — the parse
    count only grows when a new variant's template is first built —
    and, given a verdict store, the check is function-grained:
    substitution leaves hole-free helper ``def``s object-identical
    across points, so their per-function verdicts are checked once per
    sweep and replayed thereafter. Without a family, the generated
    source is parsed (one parse per run).
    """
    if family is not None:
        before = family.parse_count
        verdict = check_acceptance_program(family.instantiate(config),
                                           store=fn_store)
        return verdict, family.parse_count - before
    if source is None:
        source = source_builder(config)
    return check_acceptance(source), 1


#: Attribute caching a per-process function-verdict store on the
#: family object itself, so its lifetime is bounded by the family's
#: (a module-level registry would retain every sweep's verdicts for
#: the process lifetime, and id()-keying could alias recycled ids).
_FAMILY_STORE_ATTR = "_fn_verdict_store"


def _family_store(family: Any) -> FunctionVerdictStore:
    store = getattr(family, _FAMILY_STORE_ATTR, None)
    if store is None:
        store = FunctionVerdictStore()
        setattr(family, _FAMILY_STORE_ATTR, store)
    return store


def _check_config(source_builder: SourceBuilder,
                  config: dict[str, int],
                  ) -> tuple[tuple[bool, str | None], int, int, int]:
    family = getattr(source_builder, FAMILY_ATTR, None)
    fn_store = None
    if family is not None:
        fn_store = _family_store(family)
    checked = fn_store.checked if fn_store is not None else 0
    reused = fn_store.reused if fn_store is not None else 0
    verdict, parses = _run_checker(source_builder, family, config,
                                   fn_store=fn_store)
    if fn_store is not None:
        checked = fn_store.checked - checked
        reused = fn_store.reused - reused
    return verdict, parses, checked, reused


#: Work counters one chunk reports, named after the
#: :class:`EngineStats` fields they are summed into.
_COUNTERS = ("checker_runs", "memo_hits", "parses", "fn_checked",
             "fn_reused", "bank_analyses", "bank_memo_hits")


def _evaluate_chunk(configs: Sequence[dict[str, int]],
                    source_builder: SourceBuilder,
                    kernel_builder: KernelBuilder,
                    key_fn: Callable[[dict[str, int]], Any] | None,
                    memo: dict[Any, tuple[bool, str | None]] | None,
                    fn_store: FunctionVerdictStore | None,
                    bank_memo: dict,
                    ) -> tuple[list[_Row], dict[str, int]]:
    """Evaluate configurations in order; returns the rows and the
    chunk's ``_COUNTERS``.

    The memo key is the builder's ``acceptance_key`` projection when
    available (collapsing configurations that agree on the
    acceptance-relevant parameters), else the content digest of the
    generated source (:func:`repro.util.hashing.source_digest`) — sound
    for any deterministic checker, but only collapsing exact
    duplicates. The source is built at most once per point, and with a
    template family it is never parsed — checker runs consume
    substituted ASTs, function-grained when a verdict store is given.

    Every estimate shares ``bank_memo``, the sweep's access-profile
    memo (:func:`repro.hls.banking.analyze_kernel`): an access context
    seen before in the sweep costs a dict lookup, not a bank analysis.
    """
    family = getattr(source_builder, FAMILY_ATTR, None)
    rows: list[_Row] = []
    checker_runs = 0
    memo_hits = 0
    parses = 0
    accesses = 0
    analyses = len(bank_memo)
    fn_checked = fn_store.checked if fn_store is not None else 0
    fn_reused = fn_store.reused if fn_store is not None else 0
    for config in configs:
        if memo is None:
            (accepted, rejection), ran_parses = _run_checker(
                source_builder, family, config, fn_store=fn_store)
            checker_runs += 1
            parses += ran_parses
        else:
            source: str | None = None
            if key_fn is not None:
                key = key_fn(config)
            else:
                source = source_builder(config)
                key = source_digest(source)
            cached = memo.get(key)
            if cached is None:
                (accepted, rejection), ran_parses = _run_checker(
                    source_builder, family, config, source, fn_store)
                memo[key] = (accepted, rejection)
                checker_runs += 1
                parses += ran_parses
            else:
                accepted, rejection = cached
                memo_hits += 1
        kernel = kernel_builder(config)
        accesses += len(kernel.accesses)
        report = estimate(kernel, memo=bank_memo)
        rows.append((accepted, rejection, report))
    if fn_store is not None:
        fn_checked = fn_store.checked - fn_checked
        fn_reused = fn_store.reused - fn_reused
    else:
        fn_checked = fn_reused = 0
    analyses = len(bank_memo) - analyses      # every miss adds one entry
    return rows, {"checker_runs": checker_runs, "memo_hits": memo_hits,
                  "parses": parses, "fn_checked": fn_checked,
                  "fn_reused": fn_reused, "bank_analyses": analyses,
                  "bank_memo_hits": accesses - analyses}


def _record_counts(span: Any, counts: dict[str, int]) -> None:
    """Attach a chunk's work counters to its ``dse.chunk`` span."""
    for name, value in counts.items():
        span.set_attr(name, value)


# ---------------------------------------------------------------------------
# Worker-process state (populated by the pool initializer).
# ---------------------------------------------------------------------------

_worker: dict[str, Any] = {}


def _init_worker(source_builder: SourceBuilder,
                 kernel_builder: KernelBuilder,
                 memoize: bool,
                 verdicts: dict[Any, tuple[bool, str | None]],
                 ) -> None:
    key_fn = getattr(source_builder, ACCEPTANCE_KEY_ATTR, None)
    _worker["source_builder"] = source_builder
    _worker["kernel_builder"] = kernel_builder
    _worker["key_fn"] = key_fn
    _worker["memo"] = dict(verdicts) if memoize else None
    # Per-worker function-verdict store: hole-free helper defs shared
    # across a sweep's design points are checked once per process.
    _worker["fn_store"] = FunctionVerdictStore() if memoize else None
    # Per-worker access-profile memo; the worker lives for one sweep.
    _worker["bank_memo"] = {}


def _run_chunk(configs: Sequence[dict[str, int]],
               ) -> tuple[list[_Row], dict[str, int]]:
    return _evaluate_chunk(
        configs, _worker["source_builder"], _worker["kernel_builder"],
        _worker["key_fn"], _worker["memo"], _worker["fn_store"],
        _worker["bank_memo"])


def _chunk_worker_main(conn: Any,
                       source_builder: SourceBuilder,
                       kernel_builder: KernelBuilder,
                       memoize: bool,
                       verdicts: dict[Any, tuple[bool, str | None]],
                       ) -> None:
    """Sweep-worker loop: receive ``(chunk_id, configs)``, send results.

    The ``dse.worker`` fault point fires before each chunk, so a plan
    can model a worker that dies, hangs, or errors mid-sweep; the
    parent supervisor requeues whatever the worker was holding. An
    exception escapes as an ``("err", ...)`` message (the worker stays
    up); a kill fault or crash closes the pipe and the parent notices.

    When the parent sweep is traced, the inherited
    ``$REPRO_TRACE_CONTEXT`` (set by :func:`telemetry.propagate_env`
    around the fan-out, over both ``fork`` and ``spawn``) makes each
    chunk a ``dse.chunk`` span parented on the sweep span; finished
    span records ride home as the last element of each result message
    for the supervisor to stitch in. A killed worker's spans die with
    it — the parent's requeue event records the loss instead.
    """
    _init_worker(source_builder, kernel_builder, memoize, verdicts)
    trace_context = telemetry.env_context()
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            chunk_id = task[0]
            payload: tuple | None = None
            error: str | None = None
            with telemetry.adopted(trace_context) as collect:
                with telemetry.span("dse.chunk", chunk=chunk_id,
                                    points=len(task[1])) as chunk_span:
                    try:
                        fault_point("dse.worker")
                        payload = _run_chunk(task[1])
                        _record_counts(chunk_span, payload[1])
                    except Exception as exc:          # noqa: BLE001
                        error = f"{type(exc).__name__}: {exc}"
                        telemetry.add_event("error", message=error)
            spans = collect()
            if error is not None:
                conn.send(("err", chunk_id, error, spans))
            else:
                conn.send(("ok", chunk_id, payload, spans))
    except (EOFError, OSError, KeyboardInterrupt):
        return


@dataclass
class _WorkerHandle:
    process: Any
    conn: Any
    chunk_id: int | None = None       # chunk currently on this worker
    assigned_at: float = 0.0


def _supervised_fan_out(chunks: Sequence[Sequence[dict[str, int]]],
                        context: Any,
                        used_workers: int,
                        source_builder: SourceBuilder,
                        kernel_builder: KernelBuilder,
                        key_fn: Callable[[dict[str, int]], Any] | None,
                        memoize: bool,
                        verdicts: dict[Any, tuple[bool, str | None]],
                        *,
                        max_requeues: int,
                        chunk_timeout_s: float | None,
                        progress: Callable[[int], None] | None,
                        ) -> tuple[dict[int, tuple], int, int]:
    """Run every chunk to completion on a crash-tolerant worker fleet.

    Unlike ``Pool.imap``, a worker death does not poison the sweep: the
    supervisor polls worker pipes with
    :func:`multiprocessing.connection.wait`, requeues the chunk a dead
    (or hung, past ``chunk_timeout_s``) worker was holding, and
    respawns the worker. A chunk requeued more than ``max_requeues``
    times is considered poisoned by scheduling bad luck and is
    evaluated inline in the parent — with the same prefilled memo, so
    the results and accounting match a worker run — guaranteeing
    termination for any fault pattern. Pipes are always drained
    *before* a dead worker's chunk is requeued, so a result that made
    it onto the wire is never recomputed (or double-counted).

    Returns ``(results by chunk_id, requeued, lost_workers)``.
    """
    from multiprocessing import connection as mp_connection

    results: dict[int, tuple] = {}
    pending: collections.deque = collections.deque(enumerate(chunks))
    attempts: collections.Counter = collections.Counter()
    requeued = 0
    lost_workers = 0
    completed_points = 0
    fallback_memo = dict(verdicts) if memoize else None
    fallback_store = FunctionVerdictStore() if memoize else None
    fallback_bank_memo: dict = {}

    def spawn() -> _WorkerHandle:
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_chunk_worker_main,
            args=(child_conn, source_builder, kernel_builder, memoize,
                  verdicts),
            daemon=True)
        process.start()
        child_conn.close()
        return _WorkerHandle(process=process, conn=parent_conn)

    def record(payload: tuple, chunk_id: int) -> None:
        nonlocal completed_points
        if chunk_id in results:
            return
        results[chunk_id] = payload
        completed_points += len(payload[0])
        if progress is not None:
            progress(completed_points)

    def drain(handle: _WorkerHandle) -> None:
        """Consume every message already on the wire from ``handle``."""
        with contextlib.suppress(EOFError, OSError):
            while handle.conn.poll():
                message = handle.conn.recv()
                chunk_id = message[1]
                if len(message) > 3 and message[3]:
                    # Worker span records: stitch them into the sweep
                    # trace (no-op when nothing is being traced).
                    telemetry.attach_spans(message[3])
                if message[0] == "ok":
                    record(message[2], chunk_id)
                elif chunk_id not in results:  # "err": requeue it
                    attempts[chunk_id] += 1
                    pending.append((chunk_id, chunks[chunk_id]))
                    _bump_requeued()
                    telemetry.add_event("dse.requeue", chunk=chunk_id,
                                        reason="worker-error",
                                        detail=str(message[2]))
                if handle.chunk_id == chunk_id:
                    handle.chunk_id = None

    def _bump_requeued() -> None:
        nonlocal requeued
        requeued += 1

    def retire(handle: _WorkerHandle) -> None:
        """Drain, requeue the in-flight chunk, and reap the process."""
        nonlocal lost_workers
        drain(handle)
        if handle.chunk_id is not None and handle.chunk_id not in results:
            attempts[handle.chunk_id] += 1
            pending.appendleft((handle.chunk_id,
                                chunks[handle.chunk_id]))
            _bump_requeued()
            telemetry.add_event("dse.requeue", chunk=handle.chunk_id,
                                reason="lost-worker")
        telemetry.add_event("dse.lost_worker",
                            pid=getattr(handle.process, "pid", None))
        handle.chunk_id = None
        with contextlib.suppress(OSError):
            handle.conn.close()
        handle.process.join(timeout=5.0)
        lost_workers += 1

    fleet = [spawn() for _ in range(used_workers)]
    try:
        while len(results) < len(chunks):
            # 1) Hand out work. Chunks past the requeue budget run
            #    inline — the parent cannot die of an injected worker
            #    fault, so this terminates the retry loop.
            while pending:
                chunk_id, configs = pending[0]
                if chunk_id in results:
                    pending.popleft()
                    continue
                if attempts[chunk_id] > max_requeues:
                    pending.popleft()
                    with telemetry.span("dse.chunk", chunk=chunk_id,
                                        points=len(configs),
                                        inline=True) as chunk_span:
                        payload = _evaluate_chunk(
                            configs, source_builder, kernel_builder,
                            key_fn, fallback_memo, fallback_store,
                            fallback_bank_memo)
                        _record_counts(chunk_span, payload[1])
                    record(payload, chunk_id)
                    continue
                idle = next((h for h in fleet
                             if h.chunk_id is None
                             and h.process.is_alive()), None)
                if idle is None:
                    break
                pending.popleft()
                try:
                    idle.conn.send((chunk_id, configs))
                except (BrokenPipeError, OSError):
                    # Died between is_alive() and send(); the liveness
                    # pass below will requeue and respawn.
                    idle.chunk_id = chunk_id
                    continue
                idle.chunk_id = chunk_id
                idle.assigned_at = time.monotonic()
            if len(results) >= len(chunks):
                break

            # 2) Wait for any worker to produce a message.
            conns = {h.conn: h for h in fleet}
            ready = mp_connection.wait(list(conns), timeout=0.1)
            for conn in ready:
                drain(conns[conn])

            # 3) Liveness and hang sweep. Draining happened first, so
            #    a completed-but-unread chunk is never double-run.
            now = time.monotonic()
            for index, handle in enumerate(fleet):
                hung = (chunk_timeout_s is not None
                        and handle.chunk_id is not None
                        and now - handle.assigned_at > chunk_timeout_s)
                if handle.process.is_alive() and not hung:
                    continue
                if hung and handle.process.is_alive():
                    handle.process.terminate()
                retire(handle)
                if len(results) < len(chunks):
                    fleet[index] = spawn()
    finally:
        for handle in fleet:
            with contextlib.suppress(OSError):
                handle.conn.send(None)
            with contextlib.suppress(OSError):
                handle.conn.close()
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():     # pragma: no cover — stuck
                handle.process.terminate()
                handle.process.join(timeout=5.0)
    return results, requeued, lost_workers


def _pool_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:                               # pragma: no cover
        return multiprocessing.get_context()


def sweep(space: ParameterSpace | Iterable[dict[str, int]],
          source_builder: SourceBuilder,
          kernel_builder: KernelBuilder,
          *,
          workers: int | None = None,
          chunk_size: int | None = None,
          memoize: bool = True,
          progress: Callable[[int], None] | None = None,
          max_requeues: int = 2,
          chunk_timeout_s: float | None = None,
          mode: str = "exhaustive",
          budget: int | None = None,
          batch_size: int | None = None,
          on_frontier_update: Callable[[dict[str, Any]], None] | None = None,
          ):
    """Run a sweep through the high-throughput engine (traced).

    ``mode="exhaustive"`` (the default) evaluates every point and
    returns a :class:`~repro.dse.runner.DseResult` — see :func:`_sweep`
    for the engine contract. ``mode="frontier"`` runs the adaptive
    frontier-guided search (:func:`repro.dse.frontier.frontier_sweep`)
    and returns a :class:`~repro.dse.frontier.FrontierResult` whose
    ``stats`` extend :class:`EngineStats` with
    ``points_proposed``/``points_evaluated``/``frontier_versions``;
    ``budget`` caps full evaluations and ``on_frontier_update``
    observes every frontier version advance. ``budget``, ``batch_size``
    and ``on_frontier_update`` are frontier-only and rejected in
    exhaustive mode.

    When a trace is active the exhaustive sweep is a ``dse.sweep``
    span carrying the final engine stats, with per-chunk ``dse.chunk``
    child spans stitched in from the worker fleet; untraced, the span
    layer is a no-op.
    """
    if mode == "frontier":
        from .frontier import frontier_sweep

        return frontier_sweep(space, source_builder, kernel_builder,
                              budget=budget, batch_size=batch_size,
                              workers=workers, memoize=memoize,
                              progress=progress,
                              on_update=on_frontier_update)
    if mode != "exhaustive":
        raise ValueError(f"unknown sweep mode {mode!r} "
                         f"(choose from: exhaustive, frontier)")
    if budget is not None or batch_size is not None \
            or on_frontier_update is not None:
        raise ValueError("budget/batch_size/on_frontier_update require "
                         "mode='frontier'")
    with telemetry.span("dse.sweep") as sweep_span:
        result = _sweep(space, source_builder, kernel_builder,
                        workers=workers, chunk_size=chunk_size,
                        memoize=memoize, progress=progress,
                        max_requeues=max_requeues,
                        chunk_timeout_s=chunk_timeout_s)
        stats = result.stats
        if stats is not None:
            for attr in ("points", "workers", "chunk_size",
                         "checker_runs", "memo_hits", "parses",
                         "requeued", "lost_workers", "bank_analyses",
                         "bank_memo_hits"):
                sweep_span.set_attr(attr, getattr(stats, attr))
        return result


def _sweep(space: ParameterSpace | Iterable[dict[str, int]],
           source_builder: SourceBuilder,
           kernel_builder: KernelBuilder,
           *,
           workers: int | None = None,
           chunk_size: int | None = None,
           memoize: bool = True,
           progress: Callable[[int], None] | None = None,
           max_requeues: int = 2,
           chunk_timeout_s: float | None = None) -> DseResult:
    """Run a full sweep through the high-throughput engine.

    Drop-in replacement for :func:`repro.dse.explore` with identical
    results: point order follows the space's enumeration order, and
    every point carries the same acceptance flag, rejection kind, and
    estimator report the sequential reference produces.

    ``progress`` is called with the running completed-point count
    after each completed chunk (monotonic, and guaranteed to observe
    the final total). The result's ``stats`` field carries an
    :class:`EngineStats`.

    The parallel path is crash-tolerant: a sweep worker that dies,
    errors, or (past ``chunk_timeout_s``) hangs loses only the chunk
    it was holding, which is requeued up to ``max_requeues`` times —
    and evaluated inline in the parent beyond that — so the sweep
    always completes with the exact same points. ``stats.requeued``
    and ``stats.lost_workers`` report how eventful the run was.

    Memoization scope: with a builder ``acceptance_key`` the parent
    resolves verdicts once per unique key and shares them with every
    worker. The source-digest fallback dedups within each worker
    process only — prefilling it would serialize source generation in
    the parent — so duplicate sources may be re-checked once per
    worker. The shipped generators all carry key projections.

    The access-profile memo is always on and exact: one dict for the
    inline path, one per pool worker and one for the parent's inline
    fallback, all discarded when the call returns. ``bank_analyses``
    and ``bank_memo_hits`` in the stats split the estimated accesses
    between them.
    """
    configs = list(space)
    n_workers = resolve_workers(workers)
    size = (chunk_size if chunk_size and chunk_size > 0
            else default_chunk_size(len(configs), n_workers))
    chunks = [configs[i:i + size] for i in range(0, len(configs), size)]

    started = time.perf_counter()
    rows: list[_Row] = []
    totals: collections.Counter = collections.Counter()
    requeued = 0
    lost_workers = 0

    if n_workers <= 1 or len(chunks) <= 1:
        # Inline path — same memoization, no pool overhead. The
        # access-profile memo lives for this call only.
        used_workers = 1
        key_fn = getattr(source_builder, ACCEPTANCE_KEY_ATTR, None)
        memo: dict[Any, tuple[bool, str | None]] | None = (
            {} if memoize else None)
        fn_store = FunctionVerdictStore() if memoize else None
        bank_memo: dict = {}
        for index, chunk in enumerate(chunks):
            with telemetry.span("dse.chunk", chunk=index,
                                points=len(chunk),
                                inline=True) as chunk_span:
                chunk_rows, counts = _evaluate_chunk(
                    chunk, source_builder, kernel_builder, key_fn, memo,
                    fn_store, bank_memo)
                _record_counts(chunk_span, counts)
            rows.extend(chunk_rows)
            totals.update(counts)
            if progress is not None:
                progress(len(rows))
        if progress is not None and not chunks:
            progress(0)
    else:
        # Memo tables are per worker process, so without care each
        # worker would re-check every key it sees. With a builder key
        # projection the parent resolves all verdicts up front — one
        # checker run per unique key, fanned across the pool — and
        # prefills every worker's memo, keeping checker runs at the
        # unique-key count for any worker count.
        key_fn = getattr(source_builder, ACCEPTANCE_KEY_ATTR, None)
        family = getattr(source_builder, FAMILY_ATTR, None)
        if family is not None:
            # Build every touched variant's template in the parent
            # *before* the pools fork, so workers inherit the warm
            # cache and the sweep-wide parse count stays at the
            # variant count for any worker count (on fork platforms;
            # a spawn fallback re-parses per worker and the stat
            # reports it honestly).
            before = family.parse_count
            for config in configs:
                family.template_for(config)
            totals["parses"] += family.parse_count - before
        verdicts: dict[Any, tuple[bool, str | None]] = {}
        if memoize and key_fn is not None:
            reps: dict[Any, dict[str, int]] = {}
            for config in configs:
                reps.setdefault(key_fn(config), config)
            with telemetry.span("dse.prefill", keys=len(reps)):
                outcomes = parallel_map(
                    partial(_check_config, source_builder),
                    reps.values(), workers=n_workers)
            verdicts = dict(zip(reps.keys(),
                                (verdict for verdict, *_ in outcomes)))
            for _, ran_parses, fnc, fnr in outcomes:
                totals.update(parses=ran_parses, fn_checked=fnc,
                              fn_reused=fnr)
        context = _pool_context()
        used_workers = min(n_workers, len(chunks))
        # Workers spawned inside this scope (including supervisor
        # respawns after a crash) inherit the sweep's trace context
        # through the environment, over both fork and spawn.
        with telemetry.propagate_env():
            results, requeued, lost_workers = _supervised_fan_out(
                chunks, context, used_workers, source_builder,
                kernel_builder, key_fn, memoize, verdicts,
                max_requeues=max_requeues,
                chunk_timeout_s=chunk_timeout_s,
                progress=progress)
        # Chunks complete in whatever order the fleet manages; results
        # are keyed by chunk id, so assembly restores enumeration
        # order exactly.
        for chunk_id in range(len(chunks)):
            chunk_rows, counts = results[chunk_id]
            assert chunk_id * size == len(rows), "chunk order broken"
            rows.extend(chunk_rows)
            totals.update(counts)
        # With a prefilled memo every point is a hit; fold the parent's
        # per-key runs back in so the accounting matches the inline
        # path (runs + hits == points).
        totals.update(checker_runs=len(verdicts))
        totals.subtract(memo_hits=len(verdicts))

    elapsed = time.perf_counter() - started
    points = [DesignPoint(config=config, accepted=accepted,
                          rejection=rejection, report=report)
              for config, (accepted, rejection, report)
              in zip(configs, rows)]
    return DseResult(points=points, stats=EngineStats(
        points=len(points), elapsed_s=elapsed, workers=used_workers,
        chunk_size=size, requeued=requeued, lost_workers=lost_workers,
        **{name: totals[name] for name in _COUNTERS}))


# ---------------------------------------------------------------------------
# Generic ordered parallel map (used by the non-sweep benchmarks).
# ---------------------------------------------------------------------------

_map_state: dict[str, Any] = {}


def _init_map_worker(function: Callable[[Any], Any]) -> None:
    _map_state["function"] = function


def _run_map_item(item: Any) -> Any:
    return _map_state["function"](item)


def parallel_map(function: Callable[[Any], Any],
                 items: Iterable[Any],
                 *,
                 workers: int | None = None,
                 chunk_size: int | None = None) -> list[Any]:
    """Order-preserving parallel map over picklable items.

    Falls back to an inline loop for a single worker (or a single
    item), so results are identical regardless of the worker count.
    """
    materialized = list(items)
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(materialized) <= 1:
        return [function(item) for item in materialized]
    size = (chunk_size if chunk_size and chunk_size > 0
            else default_chunk_size(len(materialized), n_workers))
    context = _pool_context()
    with context.Pool(processes=min(n_workers, len(materialized)),
                      initializer=_init_map_worker,
                      initargs=(function,)) as pool:
        return list(pool.imap(_run_map_item, materialized,
                              chunksize=size))
