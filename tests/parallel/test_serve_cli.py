"""End-to-end test of ``python -m repro serve``: ephemeral port, concurrent
HTTP clients, bitwise parity with EnsemblePredictor, the one-write response
path, a JSON-only stderr, clean SIGTERM exit."""

import contextlib
import http.client
import io
import json
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.api import EnsemblePredictor
from repro.parallel import serving
from repro.parallel.server import MAX_BODY_BYTES, _make_handler, _Server
from repro.utils.parallel import cpu_count
from tests.procs import child_pids, residue, shm_entries

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn_serve(saved_artifact, *extra):
    """Start ``repro serve`` on an ephemeral port; ``(process, banner)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--artifact",
            str(saved_artifact),
            "--port",
            "0",
            "--workers",
            "2",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = json.loads(proc.stdout.readline())
        assert banner["event"] == "serving"
    except BaseException:
        proc.kill()
        proc.wait(timeout=10)
        raise
    return proc, banner


def _stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture(scope="module")
def server(saved_artifact):
    proc, banner = _spawn_serve(saved_artifact)
    try:
        import repro

        assert banner["version"] == repro.__version__
        assert banner["mode"] == "pool"
        yield proc, banner["url"]
    finally:
        _stop(proc)


@pytest.fixture(scope="module")
def queue_server(saved_artifact):
    """Queue mode with the front as its one consumer."""
    proc, banner = _spawn_serve(
        saved_artifact, "--mode", "queue", "--workers", "1",
        "--min-consumers", "1", "--max-consumers", "1",
    )
    try:
        assert banner["mode"] == "queue"
        yield proc, banner["url"]
    finally:
        _stop(proc)


def _post(url, payload, timeout=60):
    request = urllib.request.Request(
        url + "/predict",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def test_serve_round_trip_concurrent(server, saved_artifact, serial_result):
    _, url = server
    reference = EnsemblePredictor.load(saved_artifact)
    x = serial_result.dataset.x_test

    with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
        health = json.loads(response.read())
    assert health["status"] == "ok"
    assert health["alive_workers"] == 2

    with urllib.request.urlopen(url + "/info", timeout=30) as response:
        info = json.loads(response.read())
    assert info["workers"] == 2
    assert info["num_members"] == len(reference.ensemble)
    assert info["mode"] == "pool"
    assert info["uptime_seconds"] > 0
    assert "p99" in info["request_latency_seconds"]
    assert (info["max_batch"], info["max_wait_ms"]) == (serving.MAX_BATCH, 2.0)

    results = []

    def client(i):
        batch = x[i * 3 : i * 3 + 4]
        out = _post(url, {"inputs": batch.tolist(), "proba": True})
        expected = reference.predict_proba(batch)
        # JSON carries exact float64 representations of the float32 values,
        # so equality (not approx) is the right check.
        results.append(np.array_equal(np.asarray(out["probabilities"]), expected))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(results) and len(results) == 12

    labels = _post(url, {"inputs": x[:10].tolist(), "method": "vote"})
    assert labels["predictions"] == reference.predict(x[:10], method="vote").tolist()


@pytest.mark.parametrize("mode", ["pool", "queue"])
def test_info_shows_each_lanes_inference_threads(request, mode, saved_artifact, serial_result):
    """A lane's forwards run on its share of the cores — a pool worker's is
    cpu_count() // workers, a consumer's cpu_count() // max_consumers — and a
    request of several shards answers with the bits of a one-thread predictor."""
    _, url = request.getfixturevalue("server" if mode == "pool" else "queue_server")
    with urllib.request.urlopen(url + "/info", timeout=30) as response:
        info = json.loads(response.read())
    if mode == "pool":
        assert info["inference_threads"] == [max(1, cpu_count() // 2)] * 2
    else:
        assert info["inference_threads"] == {"front-0": cpu_count()}
    x = serial_result.dataset.x_test
    x = np.resize(x, (300,) + x.shape[1:])
    with EnsemblePredictor.load(saved_artifact, threads=1) as reference:
        expected = reference.predict_proba(x)
    out = _post(url, {"inputs": x.tolist(), "proba": True})
    np.testing.assert_array_equal(np.asarray(out["probabilities"]), expected)


def test_serve_metrics_endpoint_exposes_prometheus_text(server):
    """GET /metrics must be valid Prometheus text exposition with the core
    serving series populated by the traffic the earlier tests generated."""
    _, url = server
    # Generate at least one request in case this test runs in isolation.
    _post(url, {"inputs": [[0.0] * 12]})
    request = urllib.request.Request(url + "/metrics")
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200
        content_type = response.headers.get("Content-Type", "")
        body = response.read().decode("utf-8")
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    lines = body.splitlines()
    assert 'repro_serve_requests_total{status="ok"}' in body
    assert "# TYPE repro_serve_request_latency_seconds histogram" in lines
    assert 'repro_serve_request_latency_seconds_bucket{le="+Inf"}' in body
    assert "repro_serve_request_latency_seconds_count" in body
    assert "repro_serve_workers_alive 2" in lines
    assert "# TYPE repro_serve_worker_restarts_total counter" in lines
    assert "repro_http_requests_total" in body
    assert "repro_process_cpu_seconds_total" in body
    # Counters populated by real traffic, not just declared.
    ok_line = next(
        line for line in lines if line.startswith('repro_serve_requests_total{status="ok"}')
    )
    assert float(ok_line.rsplit(" ", 1)[1]) >= 1


def test_serve_rejects_malformed_requests(server):
    _, url = server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, {"inputs": [[1.0, 2.0]]})
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(url, {})
    assert excinfo.value.code == 400
    # A flag that is not a JSON boolean is refused, not coerced: "false" is a
    # non-empty string, and used to ask for probabilities.
    with urllib.request.urlopen(url + "/info", timeout=30) as response:
        shape = json.loads(response.read())["input_shape"]
    row = np.zeros([1] + shape).tolist()
    for flag, value in (("proba", "false"), ("proba", 1), ("async", "false"), ("async", None)):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, {"inputs": row, flag: value})
        assert excinfo.value.code == 400, (flag, value)
    assert "predictions" in _post(url, {"inputs": row, "proba": False, "async": False})


@pytest.mark.parametrize("proba", [True, False])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("mode", ["pool", "queue"])
def test_non_finite_inputs_are_a_400(request, mode, token, proba):
    """Python's ``json`` reads ``NaN``, ``Infinity`` and an overflowing
    ``1e999`` as floats.  They used to be served: probabilities went back as
    bare ``NaN`` tokens, which are not JSON, and labels as class 0."""
    _, url = request.getfixturevalue("server" if mode == "pool" else "queue_server")
    with urllib.request.urlopen(url + "/info", timeout=30) as response:
        shape = json.loads(response.read())["input_shape"]
    row = json.dumps(np.zeros([1] + shape).tolist()).replace("0.0", token, 1)
    body = f'{{"inputs": {row}, "proba": {json.dumps(proba)}}}'.encode()
    post = urllib.request.Request(
        url + "/predict", data=body, headers={"Content-Type": "application/json"}
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(post, timeout=60)
    assert excinfo.value.code == 400
    assert "finite" in json.loads(excinfo.value.read())["error"]


def _keepalive_exchange(url, body):
    """POST ``body`` to /predict, then GET /healthz on the same connection:
    ``(status, reply)`` of the POST once the connection proved usable."""
    host, port = url[len("http://") :].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        conn.request("POST", "/predict", body=body, headers={"Content-Type": "application/json"})
        sock = conn.sock
        response = conn.getresponse()
        status, reply = response.status, json.loads(response.read())
        conn.request("GET", "/healthz")
        assert conn.sock is sock  # http.client would have reopened a closed connection
        health = conn.getresponse()
        assert health.status == 200 and json.loads(health.read())["status"] in ("ok", "degraded")
    finally:
        conn.close()
    return status, reply


@pytest.mark.parametrize("proba", [True, False])
@pytest.mark.parametrize("token", ['"0.5"', "true", "false", "null", "{}"])
@pytest.mark.parametrize("mode", ["pool", "queue"])
def test_non_numeric_inputs_are_a_400(request, mode, token, proba):
    """numpy parses a JSON string and casts a boolean: ``"0.5"`` and ``true``
    among the inputs used to be served as 0.5 and 1.0, and ``null`` answered
    a 400 that blamed a non-finite value."""
    _, url = request.getfixturevalue("server" if mode == "pool" else "queue_server")
    with urllib.request.urlopen(url + "/info", timeout=30) as response:
        shape = json.loads(response.read())["input_shape"]
    row = json.dumps(np.full([1] + shape, 0.25).tolist()).replace("0.25", token, 1)
    body = f'{{"inputs": {row}, "proba": {json.dumps(proba)}}}'.encode()
    status, reply = _keepalive_exchange(url, body)
    assert status == 400
    assert "non-numeric" in reply["error"]


@pytest.mark.parametrize("mode", ["pool", "queue"])
def test_an_integer_past_the_float64_range_is_a_400(request, mode):
    """A 401-digit integer is a JSON number no float64 holds: converting it
    raised ``OverflowError`` past the handler's ``except`` clauses, so the
    client lost its connection and the log got an ``http.handler_error``."""
    _, url = request.getfixturevalue("server" if mode == "pool" else "queue_server")
    with urllib.request.urlopen(url + "/info", timeout=30) as response:
        shape = json.loads(response.read())["input_shape"]
    row = json.dumps(np.zeros([1] + shape).tolist()).replace("0.0", "1" + "0" * 400, 1)
    status, reply = _keepalive_exchange(url, f'{{"inputs": {row}}}'.encode())
    assert status == 400
    assert "finite" in reply["error"]


def _http_replies(url, path, code="400"):
    with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
        page = response.read().decode()
    sample = f'repro_http_requests_total{{path="{path}",code="{code}"}} '
    return sum(float(line[len(sample):]) for line in page.splitlines() if line.startswith(sample))


def _head_only_post(url, path, length):
    """Send a POST head declaring ``Content-Length: length`` and no body; the
    reply, read until the server hangs up (within 2 s, or the read fails)."""
    host, port = url[len("http://") :].split(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {length}\r\n\r\n".encode()
        )
        sock.settimeout(2.0)  # answered promptly, although we never hang up
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply  # the server closed the connection
            reply += chunk


@pytest.mark.parametrize("length", ["-1", "many"])
@pytest.mark.parametrize("path", ["/predict", "/admin/swap"])
def test_bad_content_length_is_refused_before_reading(server, path, length):
    """``read(int("-1"))`` reads to end of stream: a keep-alive client that
    sends a negative Content-Length and then just stays connected would pin
    its handler thread for as long as it likes.  The server must answer 400
    without reading, and hang up itself — it cannot know where that body
    ends."""
    _, url = server
    refused_before = _http_replies(url, path)
    reply = _head_only_post(url, path, length)
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
    assert b"Content-Length must be" in reply
    assert _http_replies(url, path) == refused_before + 1
    # ...and the next request, on a fresh connection, is served.
    with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
        assert json.loads(response.read())["status"] in ("ok", "degraded")


@pytest.mark.parametrize("length", [10**12, MAX_BODY_BYTES + 1])
@pytest.mark.parametrize("mode", ["pool", "queue"])
def test_an_oversized_body_is_a_413(request, mode, length):
    """``rfile.read(n)`` reserves ``n`` bytes before the first one arrives: a
    ``Content-Length`` of 10**12 used to end in a ``MemoryError`` and an
    empty reply, and any length that fit was reserved up front.  Past
    ``MAX_BODY_BYTES`` the server answers 413 without reading the body,
    hangs up, and goes on serving."""
    _, url = request.getfixturevalue("server" if mode == "pool" else "queue_server")
    refused_before = _http_replies(url, "/predict", "413")
    reply = _head_only_post(url, "/predict", length)
    assert reply.startswith(b"HTTP/1.1 413 "), reply[:80]
    assert b"limit" in reply
    assert _http_replies(url, "/predict", "413") == refused_before + 1
    with urllib.request.urlopen(url + "/info", timeout=30) as response:
        shape = json.loads(response.read())["input_shape"]
    out = _post(url, {"inputs": np.zeros([2] + shape).tolist(), "proba": True})
    assert len(out["probabilities"]) == 2


def test_a_chunked_body_is_a_411_and_the_connection_closes():
    """Only ``Content-Length`` frames a body: a chunked POST was read as an
    empty body (400 "needs an inputs array"), its chunk-size line then parsed
    as the next request (an HTML 400), and a request pipelined behind it
    never answered.  It is one JSON 411, and the server hangs up — saying so
    with ``Connection: close``, as the 400 for a bad ``Content-Length`` and
    the 413 do, so a client does not pipeline onto a connection going away."""
    payload = json.dumps({"inputs": [[0.0] * 12], "proba": True}).encode("utf-8")
    chunked = (
        b"POST /predict HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n%s\r\n0\r\n\r\n" % (len(payload), payload)
        + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    refusals = [
        (chunked, b"411"),
        (b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n", b"400"),
        (
            b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n"
            % (MAX_BODY_BYTES + 1),
            b"413",
        ),
    ]
    with _serving_in_process(_make_handler(_FakePool(), "pool", time.monotonic())) as url:
        for request, status in refusals:
            with socket.create_connection(("127.0.0.1", int(url.rsplit(":", 1)[1])), 30) as sock:
                sock.sendall(request)
                sock.settimeout(5.0)
                reply = b""
                while chunk := sock.recv(65536):  # until the server hangs up
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 " + status + b" "), reply[:80]
            assert b"\r\nConnection: close" in head, head
            assert json.loads(body)["error"]  # one response, nothing after it
        with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
            assert json.loads(response.read()) == {"status": "ok"}


@pytest.mark.parametrize("body", [b"[1,2,3]", b"3", b'"x"'])
@pytest.mark.parametrize("path", ["/predict", "/admin/swap"])
def test_json_body_that_is_not_an_object_is_a_400(server, path, body):
    """Valid JSON, wrong type: ``body.get`` used to raise ``AttributeError``
    past both ``except`` tuples, so the client saw a dropped connection and
    the log a handler traceback.  It is a 400 like any other bad request, and
    the keep-alive connection goes on to serve the next one."""
    _, url = server
    host, port = url[len("http://") :].split(":")
    refused_before = _http_replies(url, path)
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        sock = conn.sock
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read()) == {"error": "request body must be a JSON object"}
        conn.request("GET", "/healthz")
        assert conn.sock is sock  # http.client would have reopened a closed connection
        health = conn.getresponse()
        assert health.status == 200 and json.loads(health.read())["status"] in ("ok", "degraded")
    finally:
        conn.close()
    assert _http_replies(url, path) == refused_before + 1


def _timed_post(conn, body):
    start = time.perf_counter()
    conn.request(
        "POST", "/predict", body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    response.read()
    seconds = time.perf_counter() - start
    assert response.status == 200
    return seconds


def test_keepalive_request_costs_what_a_fresh_connection_costs(server):
    """A reply split over two writes stalls a keep-alive client for the
    kernel's fixed 40 ms delayed-ACK timer (50 vs 6 ms before the one-write
    path, ~5 vs ~6 ms after): both thresholds keep >= 15 ms of margin."""
    _, url = server
    host, port = url[len("http://") :].split(":")
    body = json.dumps({"inputs": [[0.0] * 12], "proba": True}).encode("utf-8")

    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        _timed_post(conn, body)
        keepalive = [_timed_post(conn, body) for _ in range(40)]
    finally:
        conn.close()
    fresh = []
    for _ in range(40):
        one = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            fresh.append(_timed_post(one, body))
        finally:
            one.close()
    assert statistics.median(keepalive) < 0.025, sorted(keepalive)
    assert abs(statistics.median(keepalive) - statistics.median(fresh)) < 0.010


class _RecordingSocket:
    """Stands in for an accepted connection: serves the request bytes, keeps
    every ``sendall`` (one per ``wfile.write``) and every socket option."""

    def __init__(self, request_bytes):
        self._rfile = io.BytesIO(request_bytes)
        self.writes = []
        self.options = []

    def makefile(self, mode, bufsize):
        assert mode == "rb"
        return self._rfile

    def sendall(self, data):
        self.writes.append(bytes(data))

    def setsockopt(self, *option):
        self.options.append(option)


class _FakePool:
    def healthz(self):
        return {"status": "ok"}

    def predict_proba(self, x, method=None):
        return np.full((x.shape[0], 4), 0.25, dtype=np.float32)


def test_every_response_leaves_in_one_write():
    def request(method, path, body=b""):
        head = f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
        return head.encode("ascii") + body

    predict = json.dumps({"inputs": [[0.0] * 12], "proba": True}).encode("utf-8")
    sock = _RecordingSocket(
        request("POST", "/predict", predict)
        + request("GET", "/healthz")
        + request("GET", "/metrics")
        + request("POST", "/predict", b"{}")  # no "inputs": a 400
    )
    _make_handler(_FakePool(), "pool", time.monotonic())(sock, ("127.0.0.1", 0), None)

    assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in sock.options
    statuses = []
    for write in sock.writes:  # one write == one whole response
        head, _, body = write.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        statuses.append(int(lines[0].split()[1]))
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert int(headers["Content-Length"]) == len(body)
    assert statuses == [200, 200, 200, 400]
    assert json.loads(sock.writes[0].partition(b"\r\n\r\n")[2]) == {
        "probabilities": [[0.25] * 4]
    }


@contextlib.contextmanager
def _serving_in_process(handler):
    """The serve front's HTTP server on a thread of this process; its URL."""
    httpd = _Server(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % httpd.server_address[1]
    finally:
        httpd.shutdown()
        thread.join(timeout=30)
        httpd.server_close()
        assert not thread.is_alive()


def test_accepted_connections_have_tcp_nodelay():
    nodelay = []

    class Probe(_make_handler(_FakePool(), "pool", time.monotonic())):
        def setup(self):
            super().setup()
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

    with _serving_in_process(Probe) as url:
        with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
            assert json.loads(response.read()) == {"status": "ok"}
    assert len(nodelay) == 1 and nodelay[0] != 0


def test_a_full_broker_queue_answers_503_not_400():
    """Shed load is the server's state, not a malformed request: a full
    broker queue answers 503 on sync and async predicts alike."""
    from repro.fleet import BrokerFull

    class Full(_FakePool):
        def _shed(self, *args, **kwargs):
            raise BrokerFull("the broker queue is at capacity (1 jobs)")

        predict_proba = predict = submit = _shed

    def status_of(url, payload):
        try:
            return 200, _post(url, payload, timeout=30)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    rows = [[0.0] * 12]
    with _serving_in_process(_make_handler(Full(), "queue", time.monotonic())) as url:
        for payload in ({"inputs": rows}, {"inputs": rows, "proba": True}, {"inputs": rows, "async": True}):
            status, reply = status_of(url, payload)
            assert status == 503, payload
            assert "at capacity" in reply["error"]
        status, reply = status_of(url, {"proba": True})
        assert status == 400
        assert '"inputs"' in reply["error"]


@pytest.mark.parametrize("mode", ["pool", "queue"])
def test_a_predict_past_the_request_timeout_answers_504(mode, train_events):
    """A backend's request timeout raises ``concurrent.futures.TimeoutError``
    (from Python 3.11 the builtin ``TimeoutError``, an ``OSError``) — which
    the handler once let escape, so the client got no response at all and
    the log an ``http.handler_error``.  It is a 504 on a connection that
    stays open for the next request."""
    from concurrent.futures import Future

    class Slow(_FakePool):
        def predict_proba(self, x, method=None):
            if x[0, 0] == 1.0:  # the backend's own timeout, as a pool or front meets it
                Future().result(timeout=0.01)
            return super().predict_proba(x, method)

        def predict(self, x, method=None):
            return self.predict_proba(x, method).argmax(axis=1)

    def post(conn, payload):
        conn.request("POST", "/predict", body=json.dumps(payload).encode("utf-8"))
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    with _serving_in_process(_make_handler(Slow(), mode, time.monotonic())) as url:
        conn = http.client.HTTPConnection(url[len("http://"):], timeout=30)
        try:
            status, reply = post(conn, {"inputs": [[1.0] * 12], "proba": True})
            assert status == 504 and "timeout" in reply["error"]
            sock = conn.sock
            assert post(conn, {"inputs": [[1.0] * 12]})[0] == 504
            assert post(conn, {"inputs": [[0.0] * 12], "proba": True}) == (
                200,
                {"probabilities": [[0.25] * 4]},
            )
            assert conn.sock is sock  # one connection throughout
        finally:
            conn.close()
    assert not [fields for event, fields in train_events if event == "http.handler_error"]


def test_a_swap_the_server_could_not_carry_out_answers_500():
    """A refused swap is the client's error (400) and one already running a
    conflict (409); a swap the server tried and failed to carry out — rolled
    back, the old generation serving — is the server's error (500)."""

    class Failing(_FakePool):
        def swap(self, generation=None):
            raise self.error

    backend = Failing()
    cases = [
        (ValueError("cannot hot-swap to generation 1: its input_shape differs"), 400),
        (RuntimeError("swap already in progress"), 409),
        (RuntimeError("worker 0 failed to load generation 1 during swap"), 500),
    ]
    with _serving_in_process(_make_handler(backend, "pool", time.monotonic())) as url:
        for backend.error, expected in cases:
            request = urllib.request.Request(url + "/admin/swap", data=b'{"generation": 1}')
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(request, timeout=30)
            assert refused.value.code == expected, backend.error
            assert json.loads(refused.value.read()) == {"error": str(backend.error)}


@pytest.mark.parametrize("mode", ["pool", "queue"])
def test_a_swap_generation_must_be_a_json_integer(mode):
    """``int()`` used to turn ``true``, ``1.7`` or ``"1"`` into generation 1
    and swap to it; anything but a JSON integer is a 400 and swaps nothing."""

    class Recording(_FakePool):
        def __init__(self):
            self.swaps = []

        def swap(self, generation=None):
            self.swaps.append(generation)
            return {"generation": generation}

    def swap(url, body):
        request = urllib.request.Request(url + "/admin/swap", data=body)
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status
        except urllib.error.HTTPError as refused:
            return refused.code

    backend = Recording()
    with _serving_in_process(_make_handler(backend, mode, time.monotonic())) as url:
        for value in (b"true", b"1.7", b"1.0", b'"1"', b"[1]"):
            assert swap(url, b'{"generation": ' + value + b"}") == 400, value
        assert backend.swaps == []
        assert swap(url, b'{"generation": 2}') == 200
        assert swap(url, b"{}") == 200
    assert backend.swaps == [2, None]


def test_handler_failure_is_one_event_carrying_the_traceback(train_events, capfd):
    class Broken(_FakePool):
        def healthz(self):
            raise KeyError("boom")

    handler = _make_handler(Broken(), "pool", time.monotonic())
    with _serving_in_process(handler) as url:
        with pytest.raises((OSError, http.client.HTTPException)):
            urllib.request.urlopen(url + "/healthz", timeout=30)
    errors = [fields for event, fields in train_events if event == "http.handler_error"]
    assert len(errors) == 1
    assert errors[0]["path"] == "/healthz"
    assert "KeyError: 'boom'" in errors[0]["traceback"]
    # socketserver's own report starts with a dashed rule and this sentence.
    assert "Exception occurred during processing" not in capfd.readouterr().err


def test_failure_outside_the_handler_is_an_event_too(train_events, capfd):
    class Unready(_make_handler(_FakePool(), "pool", time.monotonic())):
        def setup(self):
            raise OSError("no such connection")

    with _serving_in_process(Unready) as url:
        with pytest.raises((OSError, http.client.HTTPException)):
            urllib.request.urlopen(url + "/healthz", timeout=30)
    errors = [fields for event, fields in train_events if event == "http.handler_error"]
    assert len(errors) == 1
    assert errors[0]["path"] is None
    assert "no such connection" in errors[0]["traceback"]
    assert "Exception occurred during processing" not in capfd.readouterr().err


def test_client_reset_mid_response_stays_on_the_json_log(
    saved_artifact, serial_result
):
    """A client that sends a 256-row request and resets the connection
    (``SO_LINGER 0``) used to cost 23 lines of raw ``socketserver`` traceback
    on a stderr documented as one JSON object per line, and a request no
    counter saw."""
    proc, banner = _spawn_serve(saved_artifact)
    url = banner["url"]
    try:
        x = np.tile(serial_result.dataset.x_test, (4, 1))[:256]
        body = json.dumps({"inputs": x.tolist(), "proba": True}).encode("utf-8")
        head = (
            "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        for _ in range(3):
            sock = socket.create_connection((banner["host"], banner["port"]), timeout=30)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(head + body)
            sock.close()  # linger 0: RST, while the server is still working

        gone = 'repro_http_requests_total{path="/predict",code="499"} 3'
        deadline = time.monotonic() + 30.0
        while True:
            with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
                metrics = response.read().decode("utf-8")
            if gone in metrics.splitlines() or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        assert gone in metrics.splitlines(), metrics

        # The next client, on a new connection, is answered bitwise-correctly.
        out = _post(url, {"inputs": x.tolist(), "proba": True})
        expected = EnsemblePredictor.load(saved_artifact).predict_proba(x)
        assert np.array_equal(np.asarray(out["probabilities"]), expected)
    finally:
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    events = [json.loads(line) for line in err.splitlines()]  # every line is JSON
    gone_events = [e for e in events if e.get("event") == "http.client_gone"]
    assert len(gone_events) == 3
    assert all(e["path"] == "/predict" for e in gone_events)


def test_serve_healthz_degrades_and_recovers_after_worker_sigkill(server):
    """SIGKILL a pool worker through its advertised pid: /healthz must report
    'degraded' during the gap and return to 'ok' once the supervisor's
    respawned worker is warm; /metrics must count the restart.

    Runs last against the shared server — recovery restores full capacity.
    """
    _, url = server

    def get(path):
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return json.loads(response.read())

    info = get("/info")
    assert len(info["worker_pids"]) == 2
    os.kill(info["worker_pids"][0], signal.SIGKILL)

    def wait_status(value, timeout):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if get("/healthz")["status"] == value:
                return True
            time.sleep(0.05)
        return get("/healthz")["status"] == value

    assert wait_status("degraded", timeout=15.0)
    assert wait_status("ok", timeout=90.0)
    health = get("/healthz")
    assert health["alive_workers"] == 2
    assert health["restarts"] >= 1

    with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
        body = response.read().decode("utf-8")
    restarts = next(
        line
        for line in body.splitlines()
        if line.startswith("repro_serve_worker_restarts_total ")
    )
    assert float(restarts.rsplit(" ", 1)[1]) >= 1

    # The recovered pool still answers.
    out = _post(url, {"inputs": [[0.0] * 12], "proba": True})
    assert len(out["probabilities"]) == 1


def test_serve_shuts_down_cleanly_on_sigterm(saved_artifact):
    proc, _ = _spawn_serve(saved_artifact)
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"event": "stopped"}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="procfs + /dev/shm")
def test_workers_do_not_outlive_a_sigkilled_server(saved_artifact):
    """kill -9 the server: it runs no cleanup, so its pool workers must notice
    the parent is gone and leave.  Left to themselves they would sit on
    their request pipes under PID 1 forever.  The pool ships rows inline:
    no ``repro-shm`` entry appears at any point."""
    shm_before = shm_entries()
    proc, banner = _spawn_serve(saved_artifact)
    try:
        with urllib.request.urlopen(banner["url"] + "/info", timeout=30) as response:
            worker_pids = json.loads(response.read())["worker_pids"]
        assert len(worker_pids) == 2 and shm_entries() == shm_before
        children = child_pids(proc.pid)
        assert set(worker_pids) == set(children)  # no resource tracker
        proc.kill()
        proc.wait(timeout=30)
        assert residue(children, shm_before, timeout=5.0) == ([], [])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="procfs")
def test_a_worker_wedged_mid_inference_leaves_with_its_sigkilled_server(
    saved_artifact, monkeypatch
):
    """The same kill -9 while a worker is stuck inside an inference: it never
    reads its request pipe again (an idle worker leaves on that pipe's EOF),
    so only its lifeline tells it the server is gone."""
    monkeypatch.setenv("REPRO_FAULTS", "serve_hang:seconds=600")
    proc, banner = _spawn_serve(saved_artifact)
    body = json.dumps({"inputs": [[0.0] * 12]}).encode()
    sock = socket.create_connection((banner["host"], banner["port"]), timeout=30)
    try:
        children = child_pids(proc.pid)
        assert len(children) == 2
        sock.sendall(
            b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body
        )
        deadline = time.monotonic() + 30
        while True:  # until the request is in a worker's hands
            with urllib.request.urlopen(banner["url"] + "/metrics", timeout=30) as response:
                page = response.read().decode()
            if any(
                line.startswith("repro_serve_dispatches_total{") and float(line.split()[-1]) >= 1
                for line in page.splitlines()
            ):
                break
            assert time.monotonic() < deadline, "the request was never dispatched"
            time.sleep(0.05)
        time.sleep(0.2)
        proc.kill()
        proc.wait(timeout=30)
        assert residue(children, set(), timeout=5.0)[0] == []
    finally:
        sock.close()
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="procfs")
def test_a_consumer_wedged_mid_job_leaves_with_its_sigkilled_front(
    saved_artifact, monkeypatch
):
    """Queue mode's counterpart: kill -9 the front while its local consumer
    is stuck inside a job.  Its lease thread never returns and its main
    thread only watches that thread, so only a lifeline tells it the front
    is gone."""
    monkeypatch.setenv("REPRO_FAULTS", "fleet_consume_hang:consumer=local-0:seconds=600")
    proc, banner = _spawn_serve(
        saved_artifact, "--mode", "queue", "--workers", "1",
        "--min-consumers", "2", "--max-consumers", "2",
    )
    children = []

    def get(path):
        with urllib.request.urlopen(banner["url"] + path, timeout=30) as response:
            return json.loads(response.read())

    try:
        deadline = time.monotonic() + 120
        while len(get("/info")["queue"]["consumers"]) < 2:
            assert time.monotonic() < deadline, "local-0 never attached"
            time.sleep(0.1)
        children = child_pids(proc.pid)
        assert len(children) == 1
        # front-0 answers a job in milliseconds: a job still leased with
        # nothing queued, twice half a second apart, is local-0's.
        held = 0
        while held < 2:
            assert time.monotonic() < deadline, "local-0 never leased a job"
            queue = get("/info")["queue"]
            if queue["inflight"] and not queue["depth"]:
                held += 1
            else:
                held = 0
                _post(banner["url"], {"inputs": [[0.0] * 12], "async": True})
            time.sleep(0.5)
        proc.kill()
        proc.wait(timeout=30)
        assert residue(children, set(), timeout=5.0)[0] == []
    finally:
        if proc.poll() is None:
            proc.kill()
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.stdout.close()
        proc.stderr.close()
