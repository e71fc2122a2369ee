"""Lightweight HTTP front for the multi-worker serving pool.

``python -m repro serve`` exposes a prediction backend over a threaded
stdlib HTTP server — no third-party web stack.  Two backends share the same
endpoint surface:

* ``--mode pool`` (default) — a local
  :class:`~repro.parallel.serving.PoolPredictor`;
* ``--mode queue`` — a :class:`~repro.fleet.front.FleetFront`: requests are
  published as jobs on a one-queue broker and answered by consumers — the
  front's own ``front-0`` thread, the child processes it supervises and
  autoscales, plus any ``repro fleet-worker`` attached from elsewhere.

Endpoints
---------

* ``GET /healthz`` — health: ``{"status": "ok" | "degraded" | "down", ...}``.
  ``degraded`` means running below capacity (a pool worker died and its
  respawn is warming up; a fleet has fewer consumers attached than
  ``min_consumers``); ``down`` (HTTP 503) means nothing can answer.  Queue
  mode includes queue depth and redelivery counts.
* ``GET /info`` — the backend's ``info()`` (worker pids and restart counts
  in pool mode; broker queue stats, consumer fleet, and autoscaler state
  in queue mode) plus ``uptime_seconds``.
* ``GET /metrics`` — Prometheus text exposition of the process-wide metrics
  registry: request counters and latency histograms, dispatch batch sizes,
  worker lifecycle counters, process gauges.  In queue mode the consumers
  ship registry deltas back with their acks, so this aggregates the fleet.
* ``POST /predict`` — body ``{"inputs": [[...], ...], "method": "average",
  "proba": false}``; answers ``{"predictions": [...]}`` (labels) or
  ``{"probabilities": [[...], ...]}`` when ``proba`` is true.  Outputs are
  bitwise identical to a single-process ``EnsemblePredictor`` on the same
  batch.  In queue mode, ``"async": true`` returns ``202 {"job_id": ...}``
  immediately instead of blocking, and a full broker queue answers ``503``
  (sync or async) — load to shed, not a malformed request (``400``).  A
  predict the backend did not answer within its request timeout answers
  ``504``, and the connection stays open for the next request.  A
  ``Content-Length`` over :data:`MAX_BODY_BYTES` (64 MiB) answers ``413``
  and a chunked body (``Transfer-Encoding``) ``411``, here and on
  ``/admin/swap``, without reading the body, and closes the connection.
* ``GET /result/<job_id>`` (queue mode) — poll an async job: ``200`` with
  the result once done (the result is consumed), ``202`` while pending,
  ``404`` for unknown/expired ids.
* ``POST /admin/swap`` — zero-downtime hot-swap onto a new artifact
  generation: body ``{}`` re-resolves the store's ``CURRENT`` pointer,
  ``{"generation": N}`` pins an explicit generation.  Every serving lane
  reloads its predictor in place between two answers — pool workers one at
  a time, fleet consumers once the broker's target generation moves.
  ``400`` for a malformed body, a generation that is not a JSON integer, an
  unknown generation or one whose shapes differ; ``409`` while another swap
  is in progress; ``500`` when the swap could not be carried out (it was
  rolled back: the old generation serves).

Each HTTP connection is handled on its own thread
(``ThreadingHTTPServer``); the pool's loop coalesces concurrent
requests into micro-batches across those threads.

Write path: every response this module builds leaves in **one write** —
status line, headers and body joined into one buffer — and every accepted
connection has ``TCP_NODELAY`` set.  Headers and body as two small writes is
the textbook Nagle x delayed-ACK stall: the kernel holds the second segment
until the client acknowledges the first, and a keep-alive client that has
nothing to send delays that ACK by a fixed 40 ms.  One handler serves pool
and queue mode, so the rule holds for both.

JSON codec: ``orjson`` parses every request body and writes every JSON
reply.  At 256 rows a body is ~1 MB of 17-digit decimals, which the stdlib
parser reads in ~30 ms on 2 vCPUs, longer than the ensemble's forward takes;
``orjson`` reads it in ~6 ms.  It reads each decimal to the same float64
as ``json.loads``, and a reply is ``proba.tolist()`` (float64 values, never
a float32 array spelled natively), so served bits do not move.  A body
``orjson`` refuses is parsed again with the stdlib ``json``, on that error
path only: its extensions (``NaN``, ``Infinity``, ``1e999`` read as
infinity) still reach the "must be finite" 400, and every other malformed
body keeps the stdlib's message.  Every leaf of ``inputs`` must be a JSON
number; numpy would parse a string and cast a boolean, so those answer 400.

Logging on the serve front is structured: one JSON object per line on
stderr (``repro.obs.events``), machine-ingestable without regexes
(``--log-format text`` for the classic format; the CLI configures it).
That includes connections that fail: a client that resets mid-response is an
``http.client_gone`` event (and ``repro_http_requests_total{code="499"}``),
any other handler failure an ``http.handler_error`` event carrying the
traceback as a field — never ``socketserver``'s raw traceback.
"""

from __future__ import annotations

import json
import logging
import signal
import sys
import threading
import time
import traceback
from concurrent.futures import TimeoutError as FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np
import orjson

from repro.obs.events import log_event
from repro.obs.exposition import CONTENT_TYPE, render_prometheus
from repro.obs.metrics import get_registry
from repro.obs.process import update_process_metrics
from repro.parallel.supervision import STARTUP_TIMEOUT
from repro.utils.logging import get_logger

logger = get_logger("parallel.server")

_metrics = get_registry()
_HTTP_REQUESTS = _metrics.counter(
    "repro_http_requests_total", "HTTP requests served.", ("path", "code")
)
_HTTP_LATENCY = _metrics.histogram(
    "repro_http_request_latency_seconds", "HTTP request handling latency.", ("path",)
)

#: Endpoints tracked as metric label values; anything else counts as "other"
#: so arbitrary probe paths cannot blow up the label cardinality.  Every
#: ``/result/<job_id>`` poll collapses into the single "/result" label.
_KNOWN_PATHS = ("/predict", "/admin/swap", "/info", "/healthz", "/metrics")

#: Largest request body read, in bytes; a longer ``Content-Length`` answers
#: 413.  ``rfile.read(n)`` reserves ``n`` bytes before the first one arrives,
#: and a 1024-row request of the benchmark's shape is ~4 MB of JSON.
MAX_BODY_BYTES = 64 * 1024 * 1024


def _log_connection_failure(exc: BaseException, path: Optional[str]) -> None:
    """One event for a connection that ended in ``exc`` (being handled);
    ``path`` is the metric path of the request it hit, if any."""
    if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
        log_event("http.client_gone", path=path, error=str(exc))
        if path is not None:
            _HTTP_REQUESTS.labels(path, "499").inc()
    else:
        log_event(
            "http.handler_error",
            level=logging.ERROR,
            path=path,
            error=repr(exc),
            traceback=traceback.format_exc(),
        )


def _json_flag(body: dict, name: str) -> bool:
    """``body[name]`` when it is a JSON boolean, ``False`` when absent;
    anything else (``"false"`` is a non-empty string) is the client's error."""
    value = body.get(name, False)
    if not isinstance(value, bool):
        raise ValueError(f'"{name}" must be true or false, got {value!r}')
    return value


def _json_object(raw: bytes) -> dict:
    """The request body as a JSON object; an empty body is ``{}``.  Valid JSON
    of another type (``[1, 2]``, ``3``, ``"x"``) is the client's error, not a
    handler failure.  A body ``orjson`` refuses is read by the stdlib parser,
    which accepts ``NaN`` and friends or raises the stdlib's message."""
    raw = raw or b"{}"
    try:
        body = orjson.loads(raw)
    except orjson.JSONDecodeError:
        body = json.loads(raw)
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    return body


_NUMBERS = frozenset((int, float))


def _leaves(nested, depth: int):
    leaves = (nested,)
    for _ in range(depth):
        leaves = chain.from_iterable(leaves)
    return leaves


def _input_rows(inputs) -> np.ndarray:
    """``inputs`` as a float64 array, each leaf a JSON number.  The bits are
    those of ``np.asarray(inputs, dtype=np.float64)``, but that call parses a
    string (``"0.5"``) and casts a boolean, so the leaves are decoded without
    a dtype first."""
    x = np.asarray(inputs)
    if x.dtype.kind in "iuf":
        # numpy keeps no trace of a boolean among numbers but its value,
        # 0 or 1: walk the leaves only when such a value occurs.
        numeric = not ((x == 0) | (x == 1)).any() or _NUMBERS.issuperset(
            map(type, _leaves(inputs, x.ndim))
        )
    else:
        # A string keeps the array text; null, an object or an integer
        # past 64 bits (the stdlib parser keeps it whole) makes it object.
        numeric = x.dtype == object and _NUMBERS.issuperset(map(type, x.flat))
    if not numeric:
        raise ValueError(
            "input values must be JSON numbers; got non-numeric values "
            "(a string, true/false, null or an object)"
        )
    try:
        return x.astype(np.float64, copy=False)
    except OverflowError:
        raise ValueError(
            "input values must be finite (an integer is past the float64 range)"
        ) from None


class _Server(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` whose failed connections stay on the event log
    (the stdlib's ``handle_error`` prints a raw traceback to stderr).  The
    handler reports its own failures, knowing the request; what reaches this
    one failed outside ``handle()``."""

    def handle_error(self, request, client_address) -> None:
        _log_connection_failure(sys.exc_info()[1], None)


def _make_handler(pool, mode: str, started_at: float):
    queue_mode = mode == "queue"
    # A full broker queue is shed load (503), not a malformed request (400).
    # Pool mode sheds nothing, and leaves the fleet package unimported.
    shed: tuple = ()
    if queue_mode:
        from repro.fleet.broker import BrokerFull

        shed = (BrokerFull,)

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY on every accepted connection: the replies the stdlib
        # writes itself (send_error: head, then body) cannot stall either.
        disable_nagle_algorithm = True

        def handle_one_request(self) -> None:
            # No request in progress until parse_request() fills this in, so
            # a keep-alive connection reset while idle is not blamed on the
            # request answered before it.
            self.path = None
            super().handle_one_request()

        def handle(self) -> None:
            try:
                super().handle()
            except Exception as exc:
                _log_connection_failure(exc, self._metric_path() if self.path else None)

        def _metric_path(self) -> str:
            if self.path.startswith("/result/"):
                return "/result"
            return self.path if self.path in _KNOWN_PATHS else "other"

        def _reply(self, status: int, payload: dict, close: bool = False) -> None:
            # An int key is written as a JSON string key, not refused.
            body = orjson.dumps(payload, option=orjson.OPT_NON_STR_KEYS)
            self._reply_raw(status, body, "application/json", close)

        def _reply_raw(
            self, status: int, body: bytes, content_type: str, close: bool = False
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if close:  # sets close_connection too
                self.send_header("Connection", "close")
            if self.request_version == "HTTP/0.9":  # bare "GET /path": no head
                self.wfile.write(body)
            else:
                # end_headers() would flush the head on its own; the body
                # joins it so the response is a single write.
                self._headers_buffer += (b"\r\n", body)
                self.flush_headers()
            _HTTP_REQUESTS.labels(self._metric_path(), str(status)).inc()

        def do_GET(self):  # noqa: N802 - stdlib API name
            with _HTTP_LATENCY.labels(self._metric_path()).time():
                if self.path == "/healthz":
                    health = pool.healthz()
                    self._reply(503 if health["status"] == "down" else 200, health)
                elif self.path == "/info":
                    info = pool.info()
                    info["mode"] = mode
                    info["uptime_seconds"] = round(time.monotonic() - started_at, 3)
                    self._reply(200, info)
                elif self.path == "/metrics":
                    update_process_metrics()
                    body = render_prometheus().encode("utf-8")
                    self._reply_raw(200, body, CONTENT_TYPE)
                elif self.path.startswith("/result/"):
                    self._get_result(self.path[len("/result/"):])
                else:
                    self._reply(404, {"error": f"unknown path {self.path!r}"})

        def _get_result(self, job_id: str) -> None:
            if not queue_mode:
                self._reply(
                    404, {"error": "/result is only available in queue mode"}
                )
                return
            status, proba, error, want_proba = pool.poll(job_id)
            if status == "unknown":
                self._reply(
                    404,
                    {"error": f"unknown job id {job_id!r} (expired or fetched?)"},
                )
            elif status == "pending":
                self._reply(202, {"job_id": job_id, "status": "pending"})
            elif error is not None:
                self._reply(500, {"job_id": job_id, "error": error})
            elif want_proba:
                self._reply(
                    200, {"job_id": job_id, "probabilities": proba.tolist()}
                )
            else:
                self._reply(
                    200,
                    {"job_id": job_id, "predictions": proba.argmax(axis=1).tolist()},
                )

        def _read_body(self) -> Optional[bytes]:
            """The request body — or ``None``, refused (:meth:`_refuse`): 411
            for a ``Transfer-Encoding`` body (its chunk framing would be read
            as the body and the next request), 400 for a ``Content-Length``
            that is not a non-negative integer (``read(-1)`` blocks until the
            peer hangs up), 413 past :data:`MAX_BODY_BYTES`."""
            if "Transfer-Encoding" in self.headers:
                return self._refuse(411, "send the body with a Content-Length, not chunked")
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError
            except ValueError:
                return self._refuse(400, "Content-Length must be a non-negative integer")
            if length > MAX_BODY_BYTES:
                return self._refuse(413, f"request body over the {MAX_BODY_BYTES}-byte limit")
            return self.rfile.read(length)

        def _refuse(self, status: int, error: str) -> None:
            """Answer ``error`` and hang up, saying so (``Connection: close``):
            the body is unread, so nothing after it on the connection parses."""
            self._reply(status, {"error": error}, close=True)

        def _admin_swap(self) -> None:
            raw = self._read_body()
            if raw is None:
                return
            try:
                body = _json_object(raw)
                generation = body.get("generation")
                # int() would make true and 1.7 generation 1 (a JSON true is
                # a bool, an int subclass).
                if generation is not None and type(generation) is not int:
                    raise ValueError(f'"generation" must be an integer, got {generation!r}')
                summary = pool.swap(generation=generation)
            except (json.JSONDecodeError, TypeError, ValueError, FileNotFoundError) as exc:
                self._reply(400, {"error": str(exc)})
            except RuntimeError as exc:
                in_progress = "already in progress" in str(exc)
                self._reply(409 if in_progress else 500, {"error": str(exc)})
            else:
                self._reply(200, summary)

        def do_POST(self):  # noqa: N802 - stdlib API name
            with _HTTP_LATENCY.labels(self._metric_path()).time():
                if self.path == "/admin/swap":
                    self._admin_swap()
                    return
                if self.path != "/predict":
                    self._reply(404, {"error": f"unknown path {self.path!r}"})
                    return
                raw = self._read_body()
                if raw is None:
                    return
                try:
                    body = _json_object(raw)
                    inputs = body.get("inputs")
                    if inputs is None:
                        raise ValueError('request body needs an "inputs" array')
                    x = _input_rows(inputs)
                    method = body.get("method")
                    want_proba = _json_flag(body, "proba")
                    if _json_flag(body, "async"):
                        if not queue_mode:
                            raise ValueError(
                                'async predict ("async": true) needs '
                                "--mode queue"
                            )
                        job_id = pool.submit(x, method=method, want_proba=want_proba)
                        self._reply(
                            202,
                            {
                                "job_id": job_id,
                                "status": "pending",
                                "result_url": f"/result/{job_id}",
                            },
                        )
                    elif want_proba:
                        proba = pool.predict_proba(x, method=method)
                        self._reply(200, {"probabilities": proba.tolist()})
                    else:
                        labels = pool.predict(x, method=method)
                        self._reply(200, {"predictions": labels.tolist()})
                except shed as exc:
                    self._reply(503, {"error": str(exc)})
                except FutureTimeout:
                    # The backend's request timeout ran out: the server's
                    # failure to answer in time, on a connection still fine.
                    # Not the builtin TimeoutError: that is the same class
                    # only from Python 3.11 on.
                    self._reply(504, {"error": "no answer within the backend's request timeout"})
                except (ValueError, TypeError, RuntimeError, json.JSONDecodeError) as exc:
                    self._reply(400, {"error": str(exc)})

        def log_message(self, fmt, *args):  # pragma: no cover - quiet server
            # send_response calls this for every response: format nothing
            # unless DEBUG is on.
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug("%s - %s", self.address_string(), fmt % args)

    return Handler


def run_server(
    backend,
    artifact: Union[str, Path],
    mode: str = "pool",
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    method: str = "average",
) -> int:
    """Serve ``backend`` over HTTP until SIGINT/SIGTERM; returns the process
    exit code.  The backend is the caller's to build — a
    :class:`~repro.parallel.serving.PoolPredictor` (``mode="pool"``) or a
    :class:`~repro.fleet.front.FleetFront` (``mode="queue"``) — and this
    function's to close, on every way out.

    Prints one machine-readable JSON line (``{"event": "serving", ...}``)
    once the backend is warm and the socket is bound — with ``--port 0``
    this is how callers learn the ephemeral port (and, in queue mode, the
    broker address fleet workers attach to).  ``artifact``, ``workers`` and
    ``method`` are only reported, there and in the ``serve.started`` event.
    Lifecycle transitions (start, worker death/respawn, stop) are structured
    events on the log the caller configured.

    A queue-mode front that spawns its own consumers gets up to
    ``STARTUP_TIMEOUT`` seconds for ``min_consumers`` of them to attach
    before readiness is announced; one served purely by external ``repro
    fleet-worker`` processes is announced at once.
    """
    from repro import __version__

    started_at = time.monotonic()
    try:
        if mode not in ("pool", "queue"):
            raise ValueError(f"unknown serve mode {mode!r}; expected 'pool' or 'queue'")
        if mode == "queue" and backend.spawn_local:
            backend.wait_ready(timeout=STARTUP_TIMEOUT)
        server = _Server((host, int(port)), _make_handler(backend, mode, started_at))
    except BaseException:
        backend.close()
        raise
    bound_port = server.server_address[1]

    def _shutdown(*_args):
        # serve_forever blocks the main thread; shutdown() must come from
        # another thread or it deadlocks.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_handlers = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[sig] = signal.signal(sig, _shutdown)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            pass

    banner = {
        "event": "serving",
        "version": __version__,
        "mode": mode,
        "url": f"http://{host}:{bound_port}",
        "host": host,
        "port": bound_port,
        "workers": workers,
        "method": method,
        "artifact": str(artifact),
    }
    if mode == "queue":
        banner["broker"] = (
            f"{backend.broker_address[0]}:{backend.broker_address[1]}"
        )
    print(json.dumps(banner), flush=True)
    log_event(
        "serve.started",
        url=f"http://{host}:{bound_port}",
        version=__version__,
        mode=mode,
        workers=workers,
        artifact=str(artifact),
    )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        backend.close()
        for sig, handler in previous_handlers.items():
            try:
                signal.signal(sig, handler)
            except ValueError:  # pragma: no cover
                pass
        log_event("serve.stopped", artifact=str(artifact))
        print(json.dumps({"event": "stopped"}), flush=True)
    return 0
