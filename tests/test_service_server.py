"""End-to-end tests for the compiler service.

The headline contracts:

* **Byte parity** — the HTTP response body for every POST endpoint is
  byte-identical to ``encode_payload`` of the direct library call
  (a fresh ``CompilerPipeline`` run of the same payload stage);
* **Concurrent stress** — hundreds of mixed requests from a thread
  pool all come back matching direct calls, with sane metrics.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.service import (
    BackgroundServer,
    CompilerPipeline,
    DahliaService,
    ServiceClient,
    encode_payload,
)
from repro.service.client import ServiceError

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
    """A family of distinct-but-valid sources (distinct cache keys)."""
    return (f"decl A: float[8 bank 2];\n"
            f"for (let i = 0..8) unroll 2 {{\n"
            f"  A[i] := {value}.0;\n"
            f"}}\n")


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(DahliaService(capacity=4096)) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port)


# ---------------------------------------------------------------------------
# basic endpoints
# ---------------------------------------------------------------------------

def test_healthz(client):
    payload = client.health()
    assert payload["ok"] is True
    assert payload["service"] == "dahlia-py"


def test_stages_lists_the_figure1_flow(client):
    stages = client.stages()["stages"]
    assert stages["check"]["deps"] == ["parse"]
    assert set(stages["compile"]["options"]) == {"erase", "kernel_name"}
    for name in ("parse", "check", "estimate", "compile", "rtl",
                 "interp"):
        assert name in stages


def test_check_accepts(client):
    payload = client.check(GOOD)
    assert payload == {"ok": True, "memories": 1, "max_replication": 2}


def test_check_rejects_with_diagnostic(client):
    payload = client.check(BAD)
    assert payload["ok"] is False
    diagnostic = payload["diagnostic"]
    assert diagnostic["kind"] == "already-consumed"
    assert diagnostic["snippet"].endswith("^^^^")


def test_unknown_endpoint_404(client):
    status, body = client.raw("GET", "/nope")
    assert status == 404
    status, body = client.raw("POST", "/frobnicate", {"source": GOOD})
    assert status == 404


def test_method_not_allowed(client):
    status, _ = client.raw("PUT", "/check", {"source": GOOD})
    assert status == 405


def test_malformed_json_body_is_400(server):
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=30)
    try:
        connection.request("POST", "/check", body=b"{nope",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        payload = json.loads(response.read())
        assert "JSON" in payload["error"]
    finally:
        connection.close()


def test_oversized_request_line_is_400(server):
    import socket

    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        # Longer than asyncio's 64 KiB StreamReader line limit.
        sock.sendall(b"GET /" + b"a" * 200_000 + b" HTTP/1.1\r\n\r\n")
        head = sock.recv(4096).split(b"\r\n")[0]
    assert head == b"HTTP/1.1 400 Bad Request"


def test_oversized_header_block_is_400(server):
    import socket

    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        sock.sendall(b"POST /check HTTP/1.1\r\n")
        filler = b"X-Filler: " + b"a" * 1000 + b"\r\n"
        for _ in range(100):              # ~100 KB of headers
            sock.sendall(filler)
        head = sock.recv(4096).split(b"\r\n")[0]
    assert head == b"HTTP/1.1 400 Bad Request"


def test_health_probe_answers_while_slots_are_held(server):
    # GET probes bypass the in-flight semaphore: even with every slot
    # occupied by slow POSTs, /healthz must answer promptly.
    import threading

    slow_client = ServiceClient(port=server.port, timeout=120)
    barrier = threading.Barrier(9)

    def occupy():
        barrier.wait()
        slow_client.dse("stencil2d", sample=200, workers=1)

    threads = [threading.Thread(target=occupy) for _ in range(8)]
    for thread in threads:
        thread.start()
    barrier.wait()                         # all 8 POSTs in flight
    probe = ServiceClient(port=server.port, timeout=10)
    assert probe.health()["ok"] is True
    for thread in threads:
        thread.join()


def test_unknown_paths_share_one_metrics_bucket(server, client):
    for i in range(5):
        client.raw("GET", f"/probe-{i}")
    endpoints = client.metrics()["endpoints"]
    assert "(unknown)" in endpoints
    assert endpoints["(unknown)"]["requests"] >= 5
    assert not any(path.startswith("/probe-") for path in endpoints)


def test_missing_source_is_400(client):
    with pytest.raises(ServiceError) as exc:
        client.request("POST", "/check", {"sauce": GOOD})
    assert exc.value.status == 400


def test_dse_worker_request_is_clamped_to_operator_cap(client):
    # A client cannot force the threaded server to fork a pool: the
    # requested worker count is capped at the operator's --dse-workers
    # (1 for the test fixture).
    payload = client.dse("stencil2d", sample=20, workers=8)
    assert payload["engine"]["workers"] == 1


def test_dse_unknown_space_is_400(client):
    with pytest.raises(ServiceError) as exc:
        client.dse("warp-drive", sample=10)
    assert exc.value.status == 400
    assert "unknown DSE space" in str(exc.value)


# ---------------------------------------------------------------------------
# byte parity with direct library calls
# ---------------------------------------------------------------------------

PARITY_CASES = [
    ("/check", "check_payload", {"source": GOOD}, {}),
    ("/check", "check_payload", {"source": BAD}, {}),
    ("/estimate", "estimate_payload", {"source": GOOD}, {}),
    ("/compile", "compile_payload",
     {"source": GOOD, "erase": True, "kernel_name": "widget"},
     {"erase": True, "kernel_name": "widget"}),
    ("/rtl", "rtl_payload", {"source": GOOD, "module_name": "accel"},
     {"module_name": "accel"}),
    ("/interp", "interp_payload", {"source": GOOD}, {}),
]


@pytest.mark.parametrize("path,stage,request_body,options", PARITY_CASES)
def test_served_bytes_match_direct_library_call(client, path, stage,
                                                request_body, options):
    status, body = client.raw("POST", path, request_body)
    assert status == 200
    direct = CompilerPipeline().run(stage, request_body["source"], options)
    assert body == encode_payload(direct)


def test_served_dse_matches_direct_call(client):
    from repro.service.pipeline import dse_summary

    payload = client.dse("stencil2d", sample=40, workers=1)
    direct = {"ok": True, **dse_summary("stencil2d", sample=40,
                                        workers=1)}
    # Engine wall-clock timings legitimately differ between runs;
    # everything else must be byte-identical.
    served_engine = payload.pop("engine")
    direct_engine = direct.pop("engine")
    assert encode_payload(payload) == encode_payload(direct)
    for key in ("points", "workers", "chunk_size", "checker_runs",
                "memo_hits"):
        assert served_engine[key] == direct_engine[key]


def test_warm_requests_hit_the_artifact_cache(server):
    client = ServiceClient(port=server.port)
    source = make_source(940_123)          # unseen by other tests
    cold = client.metrics()["cache"]["hits"]
    first = client.estimate(source)
    warm = client.estimate(source)
    assert first == warm
    assert client.metrics()["cache"]["hits"] > cold


# ---------------------------------------------------------------------------
# concurrent stress: hundreds of mixed requests match direct calls
# ---------------------------------------------------------------------------

def test_concurrent_mixed_requests_match_direct_calls(server):
    client = ServiceClient(port=server.port)
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

    metrics = server.service.metrics()
    assert metrics["endpoints"]["/check"]["requests"] >= 60
    assert metrics["cache"]["hits"] > 0
    assert metrics["inflight_limit"] == 8


# ---------------------------------------------------------------------------
# CLI integration (serve plumbing + --server mode)
# ---------------------------------------------------------------------------

@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.fuse"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.fuse"
    path.write_text(BAD)
    return str(path)


def test_cli_check_via_server_matches_local(server, good_file, capsys):
    assert main(["check", good_file]) == 0
    local = capsys.readouterr().out
    addr = f"127.0.0.1:{server.port}"
    assert main(["check", good_file, "--server", addr]) == 0
    assert capsys.readouterr().out == local


def test_cli_estimate_via_server_matches_local(server, good_file, capsys):
    assert main(["estimate", good_file]) == 0
    local = capsys.readouterr().out
    addr = f"127.0.0.1:{server.port}"
    assert main(["estimate", good_file, "--server", addr]) == 0
    assert capsys.readouterr().out == local


def test_cli_compile_via_server_matches_local(server, good_file, capsys):
    argv = ["compile", good_file, "--kernel-name", "widget"]
    assert main(argv) == 0
    local = capsys.readouterr().out
    assert main(argv + ["--server", f"127.0.0.1:{server.port}"]) == 0
    assert capsys.readouterr().out == local


def test_cli_run_via_server_matches_local(server, good_file, capsys):
    assert main(["run", good_file]) == 0
    local = capsys.readouterr().out
    assert main(["run", good_file, "--server",
                 f"127.0.0.1:{server.port}"]) == 0
    assert capsys.readouterr().out == local


def test_cli_check_rejection_via_server_matches_local(server, bad_file,
                                                      capsys):
    assert main(["check", bad_file]) == 1
    local = capsys.readouterr().err
    assert main(["check", bad_file, "--server",
                 f"127.0.0.1:{server.port}"]) == 1
    assert capsys.readouterr().err == local


def test_cli_dse_via_server_reports_summary(server, capsys):
    assert main(["dse", "stencil2d", "--sample", "30", "--json",
                 "--server", f"127.0.0.1:{server.port}"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["points"] == 30
    assert "ok" not in summary             # CLI strips the wire flag


def test_cli_server_connection_failure_is_graceful(good_file, capsys):
    assert main(["check", good_file, "--server", "127.0.0.1:1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_client_address_parsing():
    client = ServiceClient.from_address("http://localhost:9000/")
    assert (client.host, client.port) == ("localhost", 9000)
    client = ServiceClient.from_address("10.0.0.2:8081")
    assert (client.host, client.port) == ("10.0.0.2", 8081)
    with pytest.raises(ValueError):
        ServiceClient.from_address("nonsense")


def test_cli_json_rejection_via_server_matches_local(server, bad_file,
                                                     capsys):
    assert main(["check", bad_file, "--json"]) == 1
    local = capsys.readouterr()
    assert main(["check", bad_file, "--json", "--server",
                 f"127.0.0.1:{server.port}"]) == 1
    remote = capsys.readouterr()
    assert json.loads(local.err)["kind"] == "already-consumed"
    assert (remote.out, remote.err) == (local.out, local.err)


@pytest.mark.parametrize("argv", [
    ["compile", "{file}", "--erase"],
    ["run", "{file}", "--no-check"],
])
def test_cli_forwarded_options_via_server_match_local(server, good_file,
                                                      capsys, argv):
    argv = [good_file if token == "{file}" else token for token in argv]
    assert main(argv) == 0
    local = capsys.readouterr()
    assert main(argv + ["--server", f"127.0.0.1:{server.port}"]) == 0
    assert capsys.readouterr() == local


def test_cli_session_via_server_matches_local(server, good_file, capsys,
                                              monkeypatch):
    import io

    script = ("line 4   A[i] := 2.0;\n"
              "line 4   A[i] :=\n"
              "show\n"
              "bogus\n"
              "quit\n")
    outputs = []
    for extra in ([], ["--server", f"127.0.0.1:{server.port}"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["session", good_file, *extra]) == 0
        outputs.append(capsys.readouterr())
    local, remote = outputs
    assert "v2:" in local.out and "ERROR" in local.out
    assert (remote.out, remote.err) == (local.out, local.err)


# ---------------------------------------------------------------------------
# The route table: one match on the query-stripped path
# ---------------------------------------------------------------------------

def test_budget_factor_is_looked_up_on_the_bare_path():
    from repro.service.server import (
        DSE_BUDGET_FACTOR,
        Request,
        ServiceServer,
    )

    request = Request.parse("POST", "/dse?tag=1", b"{}")
    assert request.route is not None
    assert request.route.budget == DSE_BUDGET_FACTOR
    server = ServiceServer(DahliaService(), request_timeout=1.0)
    assert server._budget(request) == DSE_BUDGET_FACTOR
    assert server._budget(Request.parse("POST", "/check?x=1", b"")) == 1.0


def test_shed_request_with_query_lands_in_its_route_row():
    """Hold the only in-flight slot, then a POST with a query string is
    shed; its 429 must count under its route's row, the same row a
    served request of that route counts under."""
    import asyncio

    with BackgroundServer(DahliaService(), max_inflight=1,
                          queue_depth=0) as background:
        loop, transport = background._loop, background.server
        asyncio.run_coroutine_threadsafe(
            transport._semaphore.acquire(), loop).result(timeout=10)
        client = ServiceClient(port=background.port)
        try:
            status, _ = client.raw("POST", "/check?x=1", {"source": GOOD})
        finally:
            client.close()
            loop.call_soon_threadsafe(transport._semaphore.release)
        rows = background.service.local_metrics()["endpoints"]
    assert status == 429
    assert rows["/check"]["errors"] == 1
    assert "(unknown)" not in rows
