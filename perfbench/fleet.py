"""The ``fleet-mix`` workload: traffic against a real
``serve --workers 2`` fleet, in two phases of equal length.

Both phases mix three classes of request:

* ``warm`` — ``/check`` and ``/estimate`` of bodies the set-up already
  sent (cache reads);
* ``cold`` — ``/estimate`` and ``/compile`` of never-seen sources
  (compute, then memory and disk tier writes);
* ``edit`` — one-def edits to a 12-def program over ``/session``
  (incremental frontend plus check).

The *open-loop* phase sends a seeded schedule of Poisson arrivals at
:data:`RATE` requests per second: at most ``nproc`` sender threads (2
here) take requests in due order from one shared cursor and time each
from its due time; it gives the per-class latencies. The
*closed-loop* phase gives the fleet's capacity: every keep-alive
connection sends the next request of a seeded stream with the same mix
as soon as its previous one is answered. Every client uses
``retries=0``; each edit session belongs to one thread, so a session's
versions arrive in order.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from common import (
    CLASSES,
    PER_LAYER,
    STAGES,
    TIERS,
    WORK_DIR,
    Outcome,
    child_env,
    host_slowdown,
    p50,
    p90,
    rss_mb_of,
    timed_setups,
)
from sweeps import FAMILIES, config_at, load_oracle

from repro.service.client import ServiceClient
from repro.service.server import DahliaService, encode_payload
from repro.suite.generators import resolve_family

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from benchmarks.bench_incremental import make_source  # noqa: E402

#: Offered rate (requests/s): well under the 2-worker fleet's capacity.
RATE = 12.0
#: Class shares of the traffic, in both phases.
MIX = {"warm": 0.70, "cold": 0.15, "edit": 0.15}
#: The closed-loop stream draws its classes in blocks of this many
#: requests holding exact MIX counts.
MIX_BLOCK = 20
SENDERS = max(1, min(2, os.cpu_count() or 1))
#: Keep-alive connections per sender, used round-robin, so traffic
#: spreads over both workers whichever worker accepts each socket.
CONNECTIONS = 8
WARM_BODIES = 8
EDIT_DEFS = 12
#: Traced phase cap: the fleet keeps the newest 256 traces.
TRACED_REQUESTS = 200
SETUPS = 7
#: Share of ``--seconds`` given to the open-loop phase of an untraced
#: run; the closed loop gets the rest, in bursts of BURST_S seconds. A
#: traced run spends all of ``--seconds`` in the open loop.
OPEN_SHARE = 0.25
BURST_S = 1.0
#: Largest share by which median root + median outside-root time may
#: miss the median client latency before the traced run is flagged.
RECONCILE_SHARE = 0.10


@dataclass
class Request:
    offset_s: float
    cls: str
    endpoint: str                    # check / estimate / compile / edit
    source: str | None = None        # warm and cold bodies
    edit: tuple[int, float] | None = None   # (def index, new constant)


@dataclass
class Sent:
    request: Request
    status: int | None
    body: bytes
    latency_ms: float                # from the due time (closed loop: send)
    client_ms: float                 # from the send time
    late_ms: float                   # send time minus due time
    request_id: str | None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_inputs(seed: int, open_s: float,
                ) -> tuple[list[str], list[Request], Iterator[Request]]:
    """Warm bodies, the open-loop schedule (``open_s`` long) and the
    closed-loop stream, all drawn from ``seed``.

    Sources are DSE-family programs at accepted configurations (from
    the pinned oracle), shuffled per family; the warm set takes an
    equal share from each family. Cold sources take the families in
    turn and the configurations of each in order, cycling; each is
    made never-seen by a leading declaration with a unique name, which
    changes its structural digest and hence every cache key.
    """
    rng = random.Random(f"fleet-mix:{seed}")
    oracle = load_oracle()
    pools = {family: sorted(oracle[family]) for family in FAMILIES}
    for pool in pools.values():
        rng.shuffle(pool)
    builders = {family: resolve_family(family) for family in FAMILIES}

    def source_of(family: str, index: int) -> str:
        space, source, _ = builders[family]
        return source(config_at(space().parameters, index))

    per_family = WARM_BODIES // len(FAMILIES)
    warm = [source_of(family, index) for family in FAMILIES
            for index in pools[family][:per_family]]
    def fresh_sources() -> Iterator[str]:
        for turn in itertools.count():
            family = FAMILIES[turn % len(FAMILIES)]
            pool = pools[family][per_family:]
            index = pool[turn // len(FAMILIES) % len(pool)]
            yield (f"decl cold{turn}: bit<32>[2];\n"
                   + source_of(family, index))

    fresh = fresh_sources()

    def request(offset_s: float, cls: str) -> Request:
        if cls == "warm":
            return Request(offset_s, cls, rng.choice(("check", "estimate")),
                           source=rng.choice(warm))
        if cls == "cold":
            return Request(offset_s, cls, rng.choice(("estimate", "compile")),
                           source=next(fresh))
        return Request(offset_s, cls, "edit", edit=(
            rng.randrange(EDIT_DEFS), float(rng.randrange(2, 10 ** 6))))

    def shuffled_classes(count: int) -> list[str]:
        classes = [cls for cls, share in MIX.items()
                   for _ in range(round(share * count))]
        classes += ["warm"] * (count - len(classes))
        rng.shuffle(classes)
        return classes

    # Open loop: Poisson arrivals, with the gaps rescaled so that
    # exactly RATE * open_s requests fall in the phase, and the class of
    # each drawn as a shuffle of exact MIX counts, whatever the seed.
    count = max(1, round(RATE * open_s))
    gaps = [rng.expovariate(RATE) for _ in range(count)]
    scale = open_s / sum(gaps)
    schedule = []
    offset = 0.0
    for gap, cls in zip(gaps, shuffled_classes(count)):
        offset += gap * scale
        schedule.append(request(offset, cls))

    def stream() -> Iterator[Request]:
        while True:
            for cls in shuffled_classes(MIX_BLOCK):
                yield request(0.0, cls)

    return warm, schedule, stream()


def _delta(old: str, new: str) -> dict[str, Any]:
    """The single {start, end, text} range edit turning old into new."""
    start = 0
    limit = min(len(old), len(new))
    while start < limit and old[start] == new[start]:
        start += 1
    tail = 0
    while (tail < limit - start
           and old[len(old) - 1 - tail] == new[len(new) - 1 - tail]):
        tail += 1
    return {"start": start, "end": len(old) - tail,
            "text": new[start:len(new) - tail]}


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------


class Fleet:
    """One ``serve --workers 2`` subprocess with a fresh cache dir."""

    def __init__(self, trace_sample: float, tag: str) -> None:
        self.cache_dir = WORK_DIR / f"{os.getpid()}-{tag}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        self.log = open(self.cache_dir / "server.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
             "--port", "0", "--cache-dir", str(self.cache_dir / "cache"),
             "--trace-sample", str(trace_sample)],
            env=child_env(), stdout=subprocess.PIPE, stderr=self.log)
        try:
            self.port = self._read_port()
            self.admin = ServiceClient(port=self.port, retries=0,
                                       timeout=30.0)
            self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _read_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                raise RuntimeError("fleet did not report its port")
            chunk = os.read(self.process.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError("fleet exited before listening")
            line += chunk
        address = line.decode().split("http://", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def health(self) -> dict:
        status, body = self.admin.raw("GET", "/healthz")
        return json.loads(body)

    def _wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("fleet exited during start-up")
            try:
                health = self.health()
                if health.get("ok") and len(health.get("workers", [])) == 2:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("fleet not ready in time")

    def metrics(self) -> dict:
        return json.loads(self.admin.raw("GET", "/metrics")[1])

    def rss_mb(self) -> float:
        pids = [self.process.pid] + [w["pid"] for w in
                                     self.health()["workers"]]
        return sum(rss_mb_of(pid) for pid in pids)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
        self.process.stdout.close()
        self.log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


@dataclass
class Sender:
    """One sender thread's connections and edit session.

    Edits always use the first connection, as an editor holding one
    connection would; warm and cold requests take all of them in turn.
    """

    clients: list[ServiceClient]
    session: str
    constants: dict[int, float] = field(default_factory=dict)
    version: int = 0
    turn: int = 0
    #: Every session call in order: (path, body, status, response).
    log: list[tuple[str, dict, int | None, bytes]] = field(
        default_factory=list)

    def client(self, request: Request) -> ServiceClient:
        if request.cls == "edit":
            return self.clients[0]
        self.turn += 1
        return self.clients[self.turn % len(self.clients)]

    def text(self) -> str:
        return make_source(EDIT_DEFS, self.constants)

    def _session_call(self, path: str, body: dict,
                      ) -> tuple[int | None, bytes]:
        try:
            status, response = self.clients[0].raw("POST", path, body)
        except OSError:
            status, response = None, b""
        self.log.append((path, body, status, response))
        return status, response

    def open_session(self) -> int | None:
        """Open (or reopen) the edit session on the current text;
        returns the status, None on a connection error."""
        self.version = 0
        return self._session_call("/session", {
            "source": self.text(), "session": self.session})[0]

    def exchange(self, request: Request) -> tuple[Sent, float]:
        """Send ``request`` now; returns its record (latencies from the
        send time) and the time the response arrived."""
        client = self.client(request)
        if request.cls == "edit":
            old = self.text()
            stage, constant = request.edit
            self.constants[stage] = constant
            body = {"version": self.version + 1,
                    "edits": [_delta(old, self.text())]}
            sent = time.perf_counter()
            status, response = self._session_call(
                f"/session/{self.session}", body)
        else:
            sent = time.perf_counter()
            try:
                status, response = client.raw(
                    "POST", f"/{request.endpoint}",
                    {"source": request.source})
            except OSError:
                status, response = None, b""
        done = time.perf_counter()
        if request.cls == "edit":
            if status == 200:
                self.version += 1
            else:
                # Resynchronise: reopen the session, under a new id, on
                # the text the generator believes in (the failure is
                # already counted).
                self.session += "r"
                self.open_session()
        latency_ms = (done - sent) * 1000.0
        return Sent(request, status, response, latency_ms, latency_ms, 0.0,
                    client.last_request_id), done

    def close(self) -> None:
        for client in self.clients:
            client.close()


@dataclass
class Deployment:
    fleet: Fleet
    senders: list[Sender]

    def close(self) -> None:
        for sender in self.senders:
            sender.close()
        self.fleet.close()


def deploy(trace_sample: float, tag: str, warm: list[str]) -> Deployment:
    """Set-up: spawn the fleet, connect, prefill the warm set over every
    connection, and open one edit session per sender."""
    fleet = Fleet(trace_sample, tag)
    try:
        senders = []
        for index in range(SENDERS):
            clients = [ServiceClient(port=fleet.port, retries=0,
                                     timeout=30.0)
                       for _ in range(CONNECTIONS)]
            sender = Sender(clients, session=f"bench-{tag}-{index}")
            senders.append(sender)
            for client in clients:
                for body in warm:
                    for endpoint in ("check", "estimate"):
                        status, _ = client.raw("POST", f"/{endpoint}",
                                               {"source": body})
                        if status != 200:
                            raise RuntimeError(f"prefill got {status}")
            status = sender.open_session()
            if status != 200:
                raise RuntimeError(f"session open got {status}")
        return Deployment(fleet, senders)
    except BaseException:
        fleet.close()
        raise


# ---------------------------------------------------------------------------
# The two phases
# ---------------------------------------------------------------------------


def drive(deployment: Deployment, schedule: list[Request]) -> list[Sent]:
    """Open loop: send ``schedule`` at its due times; returns one record
    per request, latencies counted from the due time."""
    results: list[Sent | None] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender_loop(sender: Sender) -> None:
        while True:
            with lock:
                position = next(cursor, None)
            if position is None:
                return
            request = schedule[position]
            due = start + request.offset_s
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            record, done = sender.exchange(request)
            record.latency_ms = (done - due) * 1000.0
            record.late_ms = record.latency_ms - record.client_ms
            results[position] = record

    _run_threads(sender_loop, deployment.senders)
    return [sent for sent in results if sent is not None]


def open_loopers(deployment: Deployment) -> list[Sender]:
    """One closed-loop sender per connection of the deployment, each
    with an edit session of its own."""
    loopers = [Sender([client], session=f"{sender.session}-c{index}")
               for sender in deployment.senders
               for index, client in enumerate(sender.clients)]
    for looper in loopers:
        if looper.open_session() != 200:
            raise RuntimeError("closed-loop session open failed")
    return loopers


def saturate(loopers: list[Sender], stream: Iterator[Request],
             seconds: float) -> tuple[list[Sent], float]:
    """Closed loop: every looper sends the next request of ``stream``
    as soon as its previous one is answered, for ``seconds``. Returns
    every record and the successful responses per second that arrived
    in time."""
    records: list[tuple[Sent, float]] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def looper_loop(looper: Sender) -> None:
        while time.perf_counter() < deadline:
            with lock:
                request = next(stream)
            records.append(looper.exchange(request))

    _run_threads(looper_loop, loopers)
    completed = sum(1 for record, done in records
                    if record.status == 200 and done <= deadline)
    return [record for record, _ in records], completed / seconds


def _run_threads(target: Any, senders: list[Sender]) -> None:
    threads = [threading.Thread(target=target, args=(sender,))
               for sender in senders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------------
# Correctness and accounting
# ---------------------------------------------------------------------------


def verify(sent: list[Sent], senders: list[Sender],
           outcome: Outcome) -> None:
    """Every 200 response equals in-process ``DahliaService`` for the
    same body, byte for byte: warm and cold requests against
    ``respond``, and each sender's session calls replayed in order
    against ``handle``."""
    reference = DahliaService()
    expected: dict[tuple[str, str], bytes] = {}
    for record in sent:
        request = record.request
        if record.status != 200 or request.cls == "edit":
            continue
        key = (request.endpoint, request.source)
        if key not in expected:
            expected[key] = encode_payload(
                reference.respond(request.endpoint, {"source": request.source}))
        outcome.check(f"{request.cls}_bytes_match_in_process",
                      record.body == expected[key])
    for sender in senders:
        for path, body, status, response in sender.log:
            if status != 200:
                continue        # counted as failed; the session is reopened
            _, payload = reference.handle("POST", path,
                                          json.dumps(body).encode())
            outcome.check("session_bytes_match_in_process",
                          response == encode_payload(payload))


def _account(sent: list[Sent], outcome: Outcome) -> None:
    outcome.attempted += len(sent)
    outcome.failed += sum(1 for record in sent if record.status != 200)


def _counter_deltas(before: dict, after: dict) -> dict[str, float]:
    share = 0.0
    per_before = before.get("workers", {}).get("per_worker", {})
    per_after = after.get("workers", {}).get("per_worker", {})
    served = {worker: row["requests"]
              - per_before.get(worker, {}).get("requests", 0)
              for worker, row in per_after.items()}
    if sum(served.values()) > 0:
        share = max(served.values()) / sum(served.values())
    return {
        "service.shed": after["resilience"]["shed"]
        - before["resilience"]["shed"],
        "service.deadline_exceeded": after["resilience"]["deadline_exceeded"]
        - before["resilience"]["deadline_exceeded"],
        "service.worker_share_max": share,
    }


def _check_alive(fleet: Fleet, outcome: Outcome) -> None:
    health = fleet.health()
    outcome.check("fleet_alive_at_end", bool(health.get("ok")) and all(
        worker["alive"] for worker in health.get("workers", [])))


def _phase(deployment: Deployment, schedule: list[Request],
           outcome: Outcome) -> tuple[list[Sent], dict[str, float]]:
    """Drive one open-loop schedule; returns the records and the
    ``/metrics`` counter deltas."""
    before = deployment.fleet.metrics()
    sent = drive(deployment, schedule)
    after = deployment.fleet.metrics()
    _account(sent, outcome)
    _check_alive(deployment.fleet, outcome)
    return sent, _counter_deltas(before, after)


def _closed_loop(deployment: Deployment, stream: Iterator[Request],
                 seconds: float,
                 ) -> tuple[list[Sent], list[Sender], float, float, float]:
    """The closed-loop phase, as bursts of BURST_S seconds (at least
    one), each after a host-speed probe taken while the fleet is idle.

    Returns the records, the loopers, the median burst capacity at
    nominal host speed (each burst's capacity times its probe's
    slowdown, like the sweeps' timings), the median raw burst capacity
    and the median slowdown.
    """
    loopers = open_loopers(deployment)
    bursts = max(1, round(seconds / BURST_S))
    records: list[Sent] = []
    nominal, raw, slowdowns = [], [], []
    for _ in range(bursts):
        slowdowns.append(host_slowdown(3))
        burst, capacity = saturate(loopers, stream, seconds / bursts)
        records += burst
        raw.append(capacity)
        nominal.append(capacity * slowdowns[-1])
    return records, loopers, p50(nominal), p50(raw), p50(slowdowns)


def _latencies_ms(sent: list[Sent], cls: str | None = None) -> list[float]:
    """Latencies of successful requests (of ``cls``, if given).

    Unlike the sweeps these are not scaled to nominal host speed: the
    reference kernel tracks CPU-bound work, while a few-millisecond
    request is dominated by scheduling and loopback transport, and
    scaling them made the run-to-run spread wider, not narrower.
    """
    return [r.latency_ms for r in sent if r.status == 200
            and (cls is None or r.request.cls == cls)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> Outcome:
    outcome = Outcome()
    open_s = seconds if trace else seconds * OPEN_SHARE
    warm, schedule, stream = make_inputs(seed, open_s)
    setup_s, setup_raw_s, deployment = timed_setups(
        _Setup(0.0, warm).next, repeats=1 if smoke or trace else SETUPS)
    loop: list[Sent] = []
    loopers: list[Sender] = []
    try:
        sent, counters = _phase(deployment, schedule, outcome)
        # Peak RSS over the fixed open-loop work: the closed loop's
        # work, and with it the fleet's cache, grows with its speed.
        rss_mb = deployment.fleet.rss_mb()
        if not trace:
            loop, loopers, capacity, raw_capacity, slowdown = _closed_loop(
                deployment, stream, seconds - open_s)
            _account(loop, outcome)
            _check_alive(deployment.fleet, outcome)
    finally:
        deployment.close()
    verify(sent + loop, deployment.senders + loopers, outcome)
    latency = {}
    for cls in CLASSES:
        values = _latencies_ms(sent, cls)
        outcome.notes[f"{cls}_samples"] = (len(values), "count")
        for name, stat in (("p50", p50), ("p90", p90)):
            latency[f"service.latency.{cls}.{name}_ms"] = (
                stat(values) if values else 0.0)
    ok = _latencies_ms(sent)
    outcome.notes.update({
        "offered_rate": (RATE, "1/s"),
        "raw.setup_s": (setup_raw_s, "s"),
        "p50_ms": (p50(ok), "ms"),
        "p90_ms": (p90(ok), "ms"),
    })
    if not trace:
        outcome.notes.update({
            "closed_loop.requests": (len(loop), "count"),
            "closed_loop.p50_ms": (p50(_latencies_ms(loop)), "ms"),
            "raw.throughput_per_s": (raw_capacity, "1/s"),
            "host_slowdown": (slowdown, "x"),
            "gen.late_p90_ms": (p90([r.late_ms for r in sent]), "ms"),
        })
        outcome.notes.update({name: (value, "ms")
                              for name, value in latency.items()})
        outcome.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": capacity,
            "peak_rss_mb": rss_mb,
        }
        return outcome

    # Traced phase: a fresh fleet sampling every request, the same
    # schedule (capped to what the trace spool keeps), then every
    # request's trace fetched after the timed stream ends.
    traced_schedule = schedule[:TRACED_REQUESTS]
    deployment = _Setup(1.0, warm).next()
    try:
        traced, traced_counters = _phase(deployment, traced_schedule,
                                         outcome)
        traces = {r.request_id: _fetch_trace(deployment.fleet, r.request_id)
                  for r in traced if r.status == 200}
    finally:
        deployment.close()
    verify(traced, deployment.senders, outcome)
    outcome.metrics = service_layers(sent, traced, traces, counters,
                                     traced_counters, outcome)
    outcome.metrics.update(latency)
    outcome.metrics["trace.overhead_ratio"] = (
        p50(_latencies_ms(traced)) / p50(_latencies_ms(sent[:len(traced)])))
    return outcome


class _Setup:
    """Numbered deployments, so repeated set-ups use fresh cache dirs."""

    def __init__(self, trace_sample: float, warm: list[str]) -> None:
        self.trace_sample = trace_sample
        self.warm = warm
        self.count = 0

    def next(self) -> Deployment:
        self.count += 1
        return deploy(self.trace_sample,
                      f"t{int(self.trace_sample)}-{self.count}", self.warm)


def _fetch_trace(fleet: Fleet, request_id: str | None) -> dict | None:
    if request_id is None:
        return None
    status, body = fleet.admin.raw("GET", f"/trace?id={request_id}")
    return json.loads(body)["trace"] if status == 200 else None


def _span_tree(trace: dict) -> tuple[dict | None, dict[str, list[dict]]]:
    spans = trace.get("spans", [])
    children: dict[str, list[dict]] = {}
    root = None
    for span in spans:
        if span.get("parent_id") is None:
            root = span
        else:
            children.setdefault(span["parent_id"], []).append(span)
    return root, children


def service_layers(plain: list[Sent], traced: list[Sent],
                   traces: dict[str, dict | None],
                   counters: dict[str, float],
                   traced_counters: dict[str, float],
                   outcome: Outcome) -> dict[str, float]:
    metrics = {name: 0.0 for name in PER_LAYER}
    root_ms: dict[str, list[float]] = {cls: [] for cls in CLASSES}
    outside_ms: dict[str, list[float]] = {cls: [] for cls in CLASSES}
    client_ms: dict[str, list[float]] = {cls: [] for cls in CLASSES}
    stage_self: dict[str, list[float]] = {stage: [] for stage in STAGES}
    tiers = {tier: 0 for tier in TIERS}
    missing = 0
    for record in traced:
        if record.status != 200:
            continue
        trace = traces.get(record.request_id)
        root, children = _span_tree(trace) if trace else (None, {})
        if root is None:
            missing += 1
            continue
        cls = record.request.cls
        root_duration = root["duration_s"] * 1000.0
        root_ms[cls].append(root_duration)
        outside_ms[cls].append(record.client_ms - root_duration)
        client_ms[cls].append(record.client_ms)
        for span in trace["spans"]:
            name = span["name"]
            tier = span.get("attrs", {}).get("cache")
            if tier in tiers:
                tiers[tier] += 1
            if name.startswith("stage:") and name[6:] in stage_self:
                nested = sum(child["duration_s"]
                             for child in children.get(span["span_id"], []))
                stage_self[name[6:]].append(
                    (span["duration_s"] - nested) * 1000.0)
    outcome.check("every_traced_request_has_a_root_span", missing == 0)
    # Reconciliation: the median root span plus the median time outside
    # it must account for the median client latency within
    # RECONCILE_SHARE, for warm and cold requests.
    for cls in ("warm", "cold"):
        if not client_ms[cls]:
            continue
        total = p50(client_ms[cls])
        parts = p50(root_ms[cls]) + p50(outside_ms[cls])
        if abs(parts - total) > RECONCILE_SHARE * total:
            outcome.flags.append(
                f"{cls}: root {p50(root_ms[cls]):.3f} ms + outside "
                f"{p50(outside_ms[cls]):.3f} ms vs client {total:.3f} ms")
        outcome.check("root_within_client_latency",
                      min(outside_ms[cls]) >= 0.0)
    for cls in CLASSES:
        if root_ms[cls]:
            metrics[f"service.root_ms.{cls}"] = p50(root_ms[cls])
            metrics[f"service.outside_root_ms.{cls}"] = p50(outside_ms[cls])
    for stage, values in stage_self.items():
        if values:
            metrics[f"service.stage.{stage}.self_ms"] = \
                sum(values) / len(values)
    tier_total = sum(tiers.values())
    for tier, count in tiers.items():
        metrics[f"service.cache.{tier}_share"] = (count / tier_total
                                                  if tier_total else 0.0)
    reparsed = [json.loads(r.body)["reparsed"] for r in plain + traced
                if r.request.cls == "edit" and r.status == 200]
    metrics["service.session.reparsed_mean"] = (sum(reparsed) / len(reparsed)
                                                if reparsed else 0.0)
    metrics["service.shed"] = (counters["service.shed"]
                               + traced_counters["service.shed"])
    metrics["service.deadline_exceeded"] = (
        counters["service.deadline_exceeded"]
        + traced_counters["service.deadline_exceeded"])
    metrics["service.worker_share_max"] = counters["service.worker_share_max"]
    metrics["gen.late_p90_ms"] = p90([r.late_ms for r in plain])
    return metrics
