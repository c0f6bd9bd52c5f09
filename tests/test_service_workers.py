"""End-to-end tests for multi-process serving (``serve --workers N``).

A real ``dahlia-py serve --workers 2`` subprocess (prefork pool +
shared disk tier) must:

* pass the same 260-request concurrent byte-parity stress the
  single-process server passes;
* aggregate ``/metrics`` across workers and report per-worker
  liveness on ``/healthz``;
* after a full restart, serve previously-compiled sources from the
  persistent tier (disk hits > 0) byte-identically.
"""

import os
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.service import CompilerPipeline, ServiceClient, encode_payload

REPO_ROOT = Path(__file__).resolve().parent.parent

GOOD = """
decl A: float[8 bank 2];
for (let i = 0..8) unroll 2 {
  A[i] := 1.0;
}
"""

BAD = """
decl A: float[8];
let x = A[0];
A[1] := 1.0
"""


def make_source(value: int) -> str:
    return (f"decl A: float[8 bank 2];\n"
            f"for (let i = 0..8) unroll 2 {{\n"
            f"  A[i] := {value}.0;\n"
            f"}}\n")


def spawn_server(cache_dir: str, workers: int = 2):
    """Start ``serve`` as a real subprocess; returns (process, client)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", "")).rstrip(
                             os.pathsep)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(workers), "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=REPO_ROOT, env=env)
    banner = process.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    assert match, f"no address in serve banner: {banner!r}"
    client = ServiceClient(port=int(match.group(1)))
    client.wait_ready(timeout=60)
    return process, client


def stop_server(process) -> None:
    process.stdout.close()
    process.terminate()
    process.wait(timeout=30)


def wait_for_fleet(client: ServiceClient, workers: int,
                   timeout: float = 30.0) -> list[dict]:
    """Wait until every worker has published its first heartbeat.

    Uses ``raw`` because an incomplete fleet answers 503 (by design)
    and the typed ``health()`` helper raises on non-200.
    """
    import json

    deadline = time.monotonic() + timeout
    while True:
        _, body = client.raw("GET", "/healthz")
        report = json.loads(body.decode()).get("workers", [])
        if len(report) >= workers:
            return report
        if time.monotonic() >= deadline:
            raise AssertionError(f"only {len(report)}/{workers} workers "
                                 f"ever appeared on the board")
        time.sleep(0.1)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("worker-cache"))
    process, client = spawn_server(cache_dir, workers=2)
    try:
        yield client, cache_dir
    finally:
        stop_server(process)


def test_dead_worker_turns_healthz_503(tmp_path):
    """A board entry with a dead pid degrades /healthz to 503."""
    import json as json_module

    from repro.service import DahliaService, WorkerBoard

    board = WorkerBoard(tmp_path, worker=0)
    board.publish({"metrics": {}})                 # this (live) process
    dead = dict(json_module.loads(board.path_for(0).read_text()))
    dead.update(worker=1, pid=2 ** 22 + 99999)     # beyond pid_max
    board.path_for(1).write_text(json_module.dumps(dead))

    service = DahliaService(board=board)
    health = service.health()
    assert health["ok"] is False
    assert [w["alive"] for w in sorted(health["workers"],
                                       key=lambda w: w["worker"])] \
        == [True, False]
    status, _ = service.handle("GET", "/healthz", b"")
    assert status == 503


def test_board_drops_a_snapshot_older_than_the_one_written(tmp_path):
    """A publisher that lost the race to a later ticket must not
    overwrite the newer counters; untagged publishes always write."""
    import json as json_module

    from repro.service import WorkerBoard

    board = WorkerBoard(tmp_path, worker=0)

    def written():
        return json_module.loads(board.path_for(0).read_text())["n"]

    board.publish({"n": 2}, ticket=2)
    board.publish({"n": 1}, ticket=1)
    assert written() == 2
    board.publish({"n": 3}, ticket=3)
    assert written() == 3
    board.publish({"n": 4})
    assert written() == 4


def test_slow_publisher_cannot_leave_a_stale_snapshot(tmp_path):
    """A thread that took its snapshot first but writes last must not
    overwrite the newer counters another thread already wrote."""
    import json as json_module
    import threading

    from repro.service import DahliaService, WorkerBoard

    snapshot_taken = threading.Event()
    newer_written = threading.Event()

    class SlowFirstBoard(WorkerBoard):
        def publish(self, payload, *rest):
            if not snapshot_taken.is_set():
                snapshot_taken.set()
                newer_written.wait(timeout=10)
            super().publish(payload, *rest)

    board = SlowFirstBoard(tmp_path, worker=0)
    service = DahliaService(board=board)

    def slow_client():
        service.handle("GET", "/healthz", b"")
        service.publish_stats()

    slow = threading.Thread(target=slow_client)
    slow.start()
    assert snapshot_taken.wait(timeout=10)
    service.handle("GET", "/healthz", b"")
    service.publish_stats()
    newer_written.set()
    slow.join(timeout=10)
    assert not slow.is_alive()
    record = json_module.loads(board.path_for(0).read_text())
    assert record["metrics"]["endpoints"]["/healthz"]["requests"] == 2


def test_banner_reports_workers_and_tier(tmp_path):
    process, client = spawn_server(str(tmp_path), workers=2)
    try:
        assert client.health()["service"] == "dahlia-py"
    finally:
        stop_server(process)


def test_healthz_reports_per_worker_liveness(fleet):
    client, _ = fleet
    workers = wait_for_fleet(client, workers=2)
    assert sorted(worker["worker"] for worker in workers) == [0, 1]
    assert all(worker["alive"] for worker in workers)
    assert all(worker["pid"] > 0 for worker in workers)
    assert client.health()["ok"] is True


def test_concurrent_stress_parity_across_workers(fleet):
    """The 260-request mixed stress, against a 2-worker fleet."""
    client, _ = fleet
    wait_for_fleet(client, workers=2)
    direct = CompilerPipeline(capacity=4096)

    requests = []                          # (path, body, stage, options)
    for i in range(60):
        source = make_source(i % 20)       # mix of fresh and repeated
        requests.append(("/check", {"source": source},
                         "check_payload", {}))
        requests.append(("/estimate", {"source": source},
                         "estimate_payload", {}))
        requests.append(("/compile",
                         {"source": source, "kernel_name": f"k{i % 7}"},
                         "compile_payload", {"kernel_name": f"k{i % 7}"}))
        requests.append(("/interp", {"source": source},
                         "interp_payload", {}))
    for i in range(20):
        requests.append(("/check", {"source": BAD + f"\n// {i % 5}"},
                         "check_payload", {}))

    expected = [encode_payload(direct.run(stage, body["source"], options))
                for _, body, stage, options in requests]

    def fire(index):
        path, body, _, _ = requests[index]
        return client.raw("POST", path, body)

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(fire, range(len(requests))))

    assert len(outcomes) == 260
    for (status, body), want in zip(outcomes, expected):
        assert status == 200
        assert body == want

    # Board snapshots are eventually consistent, bounded by the 2 s
    # heartbeat: poll until the aggregate covers every answered
    # request rather than racing the last worker's publish.
    deadline = time.monotonic() + 10.0
    while True:
        metrics = client.metrics()
        per_worker = metrics["workers"]["per_worker"]
        total = sum(row["requests"] for row in per_worker.values())
        if total >= 260 or time.monotonic() >= deadline:
            break
        time.sleep(0.25)

    assert metrics["endpoints"]["/check"]["requests"] >= 80
    assert metrics["endpoints"]["/estimate"]["requests"] >= 60
    assert metrics["cache"]["hits"] > 0
    assert metrics["workers"]["count"] == 2
    # The kernel balances connections; both workers must see traffic,
    # and the aggregate must cover every request that was answered.
    assert all(row["requests"] > 0 for row in per_worker.values())
    assert total >= 260


def test_workers_share_the_disk_tier(fleet):
    """A source compiled by one worker is a disk hit for the other."""
    client, _ = fleet
    source = make_source(777_001)          # unseen by other tests
    first = client.estimate(source)
    # Hammer the same source: whichever worker did NOT compute it
    # serves it from the shared directory instead of recomputing.
    for _ in range(6):
        assert client.estimate(source) == first
    disk = client.metrics()["cache"]["disk"]
    assert disk["writes"] > 0
    assert disk["root"]                    # points at the shared tier


def test_restarted_fleet_serves_from_disk_tier(tmp_path):
    """Warm → full restart → byte-identical answers, hits from disk."""
    cache_dir = str(tmp_path)
    sources = [make_source(888_000 + i) for i in range(4)]

    process, client = spawn_server(cache_dir, workers=2)
    try:
        warm_bodies = []
        for source in sources:
            status, body = client.raw("POST", "/estimate",
                                      {"source": source})
            assert status == 200
            warm_bodies.append(body)
    finally:
        stop_server(process)

    process, client = spawn_server(cache_dir, workers=2)
    try:
        for source, want in zip(sources, warm_bodies):
            status, body = client.raw("POST", "/estimate",
                                      {"source": source})
            assert status == 200
            assert body == want            # byte-identical post-restart
        disk = client.metrics()["cache"]["disk"]
        assert disk["hits"] > 0            # served from the tier,
        assert disk["writes"] == 0         # nothing recomputed
    finally:
        stop_server(process)
