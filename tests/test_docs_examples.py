"""Compile-checked documentation: every fenced example must be true.

Every fenced code block in ``docs/*.md`` and ``README.md`` is
extracted and validated against the real toolchain, so the docs cannot
rot:

* ``dahlia`` fences must parse and type-check; ``dahlia reject=KIND``
  fences must be rejected with exactly that diagnostic kind;
* ``json`` fences must parse; ``json request=/path`` fences are
  replayed against a live server and the paired ``json response``
  fence must match the served body **byte for byte** (after canonical
  re-encoding, so the docs may show real Unicode where the wire
  carries ASCII escapes); ``json response=/path`` byte-checks a GET;
* ``python`` fences must compile;
* ``sh`` fences: every ``repro.cli`` command line must parse against
  the real argument parser, safe subcommands are actually executed,
  and ``curl`` targets must name documented routes;
* the documented route table and stage graph are compared against a
  live server's ``/stages`` and route set — both directions.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import DahliaError
from repro.frontend.parser import parse
from repro.service import BackgroundServer, DahliaService, encode_payload
from repro.service.server import KNOWN_PATHS
from repro.types.checker import check_program

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATHS = sorted((REPO_ROOT / "docs").glob("*.md")) \
    + [REPO_ROOT / "README.md"]

GOOD_FILE_SOURCE = """\
decl A: float[8 bank 2];
for (let i = 0..8) unroll 2 {
  A[i] := 1.0;
}
"""

BAD_FILE_SOURCE = """\
decl A: float[8];
let x = A[0];
let y = A[1];
"""

#: Subcommands safe to really execute from ``sh`` fences (no servers,
#: no long-running sweeps beyond the engine's sampled default).
EXECUTABLE_SUBCOMMANDS = {
    "check", "compile", "run", "estimate", "fmt", "analyze", "desugar",
    "rtl", "pipeline", "bench", "fuse", "dse",
}


@dataclass(frozen=True)
class Fence:
    """One fenced code block: where it is and what it claims to be."""

    path: Path
    line: int
    lang: str
    attrs: dict[str, str | None]
    text: str

    @property
    def where(self) -> str:
        return f"{self.path.relative_to(REPO_ROOT)}:{self.line}"


def extract_fences(path: Path) -> list[Fence]:
    fences = []
    lines = path.read_text().splitlines()
    inside: list[str] | None = None
    info = ""
    opened = 0
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if inside is None:
            if stripped.startswith("```") and stripped != "```":
                info, inside, opened = stripped[3:].strip(), [], number
            elif stripped == "```":
                info, inside, opened = "", [], number
        elif stripped != "```":
            inside.append(line)
        else:
            tokens = info.split()
            attrs: dict[str, str | None] = {}
            for token in tokens[1:]:
                key, eq, value = token.partition("=")
                attrs[key] = value if eq else None
            fences.append(Fence(path, opened, tokens[0] if tokens else "",
                                attrs, "\n".join(inside) + "\n"))
            inside = None
    assert inside is None, f"unclosed fence at {path}:{opened}"
    return fences


ALL_FENCES = [fence for path in DOC_PATHS for fence in extract_fences(path)]


def fences_of(lang: str) -> list[Fence]:
    return [fence for fence in ALL_FENCES if fence.lang == lang]


def fence_id(fence: Fence) -> str:
    return fence.where


def test_docs_exist_and_have_examples():
    assert (REPO_ROOT / "docs" / "architecture.md").exists()
    assert (REPO_ROOT / "docs" / "language.md").exists()
    assert (REPO_ROOT / "docs" / "http-api.md").exists()
    assert len(fences_of("dahlia")) >= 15
    assert len(fences_of("json")) >= 8
    assert len(fences_of("sh")) >= 3


# ---------------------------------------------------------------------------
# dahlia fences: accepted examples check, rejected ones reject as said
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fence", fences_of("dahlia"), ids=fence_id)
def test_dahlia_examples_have_their_documented_verdict(fence):
    expected = fence.attrs.get("reject")
    try:
        check_program(parse(fence.text))
    except DahliaError as error:
        assert expected is not None, \
            f"{fence.where}: documented as accepted but rejected " \
            f"with [{error.kind}] {error}"
        assert error.kind == expected, \
            f"{fence.where}: documented kind {expected!r}, " \
            f"actual {error.kind!r}"
    else:
        assert expected is None, \
            f"{fence.where}: documented as rejected ({expected}) " \
            f"but the checker accepts it"


# ---------------------------------------------------------------------------
# json / python fences parse or compile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fence", fences_of("json"), ids=fence_id)
def test_json_examples_parse(fence):
    json.loads(fence.text)


@pytest.mark.parametrize("fence", fences_of("python"), ids=fence_id)
def test_python_examples_compile(fence):
    compile(fence.text, str(fence.path), "exec")


# ---------------------------------------------------------------------------
# sh fences: command lines are real, safe ones actually run
# ---------------------------------------------------------------------------

def cli_argvs(fence: Fence) -> list[list[str]]:
    """The ``repro.cli`` argument vectors a shell fence contains."""
    argvs = []
    for line in fence.text.splitlines():
        line = line.split("#", 1)[0].strip()
        if "repro.cli" in line:
            tokens = shlex.split(line)
            argvs.append(tokens[tokens.index("repro.cli") + 1:])
    return argvs


SH_FENCES = fences_of("sh")


@pytest.mark.parametrize("fence", SH_FENCES, ids=fence_id)
def test_sh_cli_lines_parse_against_the_real_flag_surface(fence):
    parser = build_parser()
    for argv in cli_argvs(fence):
        try:
            parser.parse_args(argv)
        except SystemExit as error:
            raise AssertionError(
                f"{fence.where}: documented command "
                f"`dahlia-py {' '.join(argv)}` does not parse under "
                f"the current CLI") from error


@pytest.mark.parametrize("fence", SH_FENCES, ids=fence_id)
def test_sh_curl_targets_are_documented_routes(fence):
    for match in re.finditer(r"localhost:\d+(/[A-Za-z_]\w*)", fence.text):
        assert match.group(1) in KNOWN_PATHS, \
            f"{fence.where}: {match.group(1)} is not a served route"


def test_sh_safe_commands_actually_run(tmp_path, monkeypatch):
    """Execute every runnable documented command in a sandbox."""
    monkeypatch.chdir(tmp_path)
    ran = 0
    for fence in SH_FENCES:
        for argv in cli_argvs(fence):
            if argv[0] not in EXECUTABLE_SUBCOMMANDS or "--server" in argv:
                continue
            for token in argv[1:]:
                if token.endswith(".fuse") and not Path(token).exists():
                    source = (BAD_FILE_SOURCE if "bad" in token
                              else GOOD_FILE_SOURCE)
                    Path(token).write_text(source)
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = main(argv)
            expect = {1} if any("bad" in t for t in argv) else {0}
            assert code in expect, \
                f"{fence.where}: `dahlia-py {' '.join(argv)}` exited " \
                f"{code}:\n{sink.getvalue()}"
            ran += 1
    assert ran >= 8                        # the quickstarts really ran


# ---------------------------------------------------------------------------
# http-api.md against a live server
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def server():
    with BackgroundServer(DahliaService(capacity=1024)) as background:
        yield background


def raw_request(server, method: str, path: str,
                body: bytes | None) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=60)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def request_response_pairs() -> list[tuple[Fence, Fence]]:
    """Each ``json request=/path`` fence with its response fence."""
    pairs = []
    for index, fence in enumerate(ALL_FENCES):
        if fence.lang == "json" and "request" in fence.attrs:
            follower = ALL_FENCES[index + 1] \
                if index + 1 < len(ALL_FENCES) else None
            assert follower is not None \
                and follower.path == fence.path \
                and follower.lang == "json" \
                and "response" in follower.attrs, \
                f"{fence.where}: request fence must be followed by a " \
                f"`json response` fence in the same file"
            pairs.append((fence, follower))
    return pairs


@pytest.mark.parametrize("request_fence,response_fence",
                         request_response_pairs(),
                         ids=lambda f: getattr(f, "where", None))
def test_documented_exchanges_are_byte_exact(server, request_fence,
                                             response_fence):
    path = request_fence.attrs["request"]
    want_status = int(request_fence.attrs.get("status") or 200)
    status, body = raw_request(server, "POST", path,
                               request_fence.text.encode())
    assert status == want_status, \
        f"{request_fence.where}: POST {path} answered {status}, " \
        f"documented {want_status}"
    documented = encode_payload(json.loads(response_fence.text))
    assert body == documented, \
        f"{response_fence.where}: served body for POST {path} differs " \
        f"from the documented response"


GET_FENCES = [fence for fence in ALL_FENCES
              if fence.lang == "json" and fence.attrs.get("response")]


@pytest.mark.parametrize("fence", GET_FENCES, ids=fence_id)
def test_documented_get_bodies_are_byte_exact(server, fence):
    path = fence.attrs["response"]
    status, body = raw_request(server, "GET", path, None)
    assert status == 200
    assert body == encode_payload(json.loads(fence.text)), \
        f"{fence.where}: served body for GET {path} differs from the " \
        f"documented response"


def documented_routes() -> set[tuple[str, str]]:
    text = (REPO_ROOT / "docs" / "http-api.md").read_text()
    return {(method, path) for method, path in
            re.findall(r"^#{2,4}\s+(GET|POST)\s+(/\S+)", text,
                       flags=re.MULTILINE)}


def test_every_documented_route_exists_and_vice_versa(server):
    documented = documented_routes()
    assert {path for _, path in documented} == set(KNOWN_PATHS), \
        "docs/http-api.md route headings drifted from the server"
    for method, path in sorted(documented):
        body = b"{}" if method == "POST" else None
        status, _ = raw_request(server, method, path, body)
        assert status not in (404, 405), \
            f"documented route {method} {path} is not served"


def curl_requests(text: str) -> list[tuple[str, str]]:
    """``(method, bare path)`` of every ``curl … localhost:N/path``."""
    requests = []
    for line in text.replace("\\\n", " ").splitlines():
        tokens = shlex.split(line, comments=True)
        if "curl" not in tokens:
            continue
        args = tokens[tokens.index("curl") + 1:]
        method, path = None, None
        for flag, value in zip(args, args[1:] + [""]):
            if flag == "-X":
                method = value
            elif flag in ("-d", "--data", "--data-binary") \
                    and method is None:
                method = "POST"
        for token in args:
            match = re.match(r"(?:https?://)?localhost:\d+(/[^?#]*)", token)
            if match:
                path = match.group(1)
        assert path is not None, f"curl without a localhost target: {line}"
        requests.append((method or "GET", path))
    return requests


def test_documented_curl_requests_resolve_to_route_methods():
    """Every documented ``curl`` names a route that serves its method
    (``-X``, else POST with a body, else GET), and the route set the
    docs check against is the route table itself."""
    from repro.service.server import ROUTES, match_route

    assert KNOWN_PATHS == {route.metric for route in ROUTES}
    requests = [(fence.where, method, path) for fence in SH_FENCES
                for method, path in curl_requests(fence.text)]
    assert {method for _, method, _ in requests} \
        >= {"GET", "POST", "PUT", "DELETE"}
    for where, method, path in requests:
        route, _, _ = match_route(method, path)
        assert route is not None, \
            f"{where}: curl {method} {path} matches no served route"


def test_every_live_stage_is_documented(server):
    status, body = raw_request(server, "GET", "/stages", None)
    assert status == 200
    stages = json.loads(body.decode())["stages"]
    architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
    for stage in stages:
        assert stage in architecture, \
            f"pipeline stage {stage!r} is missing from architecture.md"


# ---------------------------------------------------------------------------
# README cross-links (quickstart drift guard)
# ---------------------------------------------------------------------------

def test_readme_links_the_docs_suite():
    readme = (REPO_ROOT / "README.md").read_text()
    for target in ("docs/architecture.md", "docs/language.md",
                   "docs/http-api.md", "PERFORMANCE.md"):
        assert target in readme, f"README does not link {target}"
        assert (REPO_ROOT / target).exists()
    for path in DOC_PATHS:
        assert "PERFORMANCE.md" in path.read_text() \
            or path.name != "architecture.md"
