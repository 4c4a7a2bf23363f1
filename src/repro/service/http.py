"""Stdlib-only threaded HTTP front end for the encode service.

    POST /encode     raw BMP or binary PGM/PPM body -> .j2c codestream
    POST /decode     raw .j2c codestream body -> binary PGM/PPM image
    GET  /healthz    liveness (200 until the service starts closing)
    GET  /metrics    JSON metrics snapshot (counters/gauges/histograms)
    GET  /stats      pool / cache / admission rollup

Coding parameters ride on the ``/encode`` query string, one key per
:data:`repro.jpeg2000.params.CODING_FIELDS` field that changes the
codestream, spelled like its CLI flag: ``lossy=1``, ``rate=0.1``,
``levels=5``, ``codeblock=64``, ``tile=256``, ``precinct=128``,
``progression=rpcl``; plus ``priority=5`` and ``verify=1``.  Booleans
are ``1/0``, ``true/false`` or ``yes/no``.  How the shared pool executes
an encode is the server's choice, so execution fields (``workers``,
``tier1_backend``, ``dwt_backend``) answer 400 like any unknown key, as
do the retired ``dwt_chunk`` and ``mem_budget``.  ``verify=1`` round-trips the served bytes
through the decoder first; a failed check returns 422 with a structured
JSON body instead of bad bytes.  ``/decode`` takes no query keys and
answers 400 with the typed error name for malformed codestreams.

Each connection is handled on its own thread (``ThreadingHTTPServer``);
every encode and decode gets a lane of the service's Tier-1 pool, whose
threads interleave the lanes group by group, so one huge upload cannot
starve small ones.  A group that raises fails only its own request.  A
client read that waits longer than :data:`READ_TIMEOUT_S` drops the
connection (408 if a body was still coming), and so does a body that
takes longer than :data:`BODY_DEADLINE_S`, so a stalled or trickling
client cannot hold a drain open.

``run_server`` (the ``python -m repro serve`` entry) installs SIGTERM /
SIGINT handlers that stop accepting connections, let in-flight requests
finish, drain the Tier-1 threads, and exit 0 — a clean drain that the CI
smoke job asserts, also when a second signal arrives during it.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.image import ImageFormatError, parse_image
from repro.jpeg2000.params import CODING_FIELDS, EncoderParams, parse_bool
from repro.service import EncodeService, PoolClosed, ServiceConfig
from repro.service.admission import QueueFullError
from repro.verify.roundtrip import VerificationError

#: Largest accepted upload; a 3072x3072x3 BMP (the paper's image) is ~28 MB.
MAX_BODY_BYTES = 128 * 2**20

#: Longest wait, in seconds, for one read from a client: a body that
#: stops arriving answers 408 and an idle keep-alive connection closes.
READ_TIMEOUT_S = 10.0

#: Longest time, in seconds, for a whole body, however it trickles in:
#: ``MAX_BODY_BYTES`` at about 2 MB/s.
BODY_DEADLINE_S = 60.0


#: ``/encode`` query key -> coding field: only fields that change the
#: codestream are on the wire.
_QUERY_FIELDS = {
    f.wire: f for f in CODING_FIELDS if f.affects_bytes and f.wire
}


def _parse_key(key: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"bad query parameter {key}={text!r}: {exc}") from None


def params_from_query(query: str) -> tuple[EncoderParams, int, bool]:
    """Translate an ``/encode`` query string into (params, priority, verify)."""
    q = {k: v[-1] for k, v in parse_qs(query).items()}
    unknown = set(q) - set(_QUERY_FIELDS) - {"priority", "verify"}
    if unknown:
        raise ValueError(f"unknown query parameters: {sorted(unknown)}")
    values = {f.name: _parse_key(key, f.parse, q[key])
              for key, f in _QUERY_FIELDS.items() if key in q}
    if values.get("rate") is not None:
        values.setdefault("lossless", False)  # a target rate implies lossy
    priority = _parse_key("priority", int, q.get("priority", "0"))
    verify = _parse_key("verify", parse_bool, q.get("verify", "0"))
    return EncoderParams(**values), priority, verify


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded server bound to one :class:`EncodeService`.

    A shard front end (:mod:`repro.service.sharding.frontend`) overrides
    ``metrics_provider`` / ``stats_provider`` with cluster-wide
    aggregations and sets ``shard_id`` so every response says which shard
    served it; standalone servers keep the per-service defaults.
    """

    # Join handler threads in server_close(): that *is* the graceful drain.
    daemon_threads = False
    allow_reuse_address = True
    # The stdlib default backlog of 5 drops connections under a concurrent
    # burst (SYNs reset once the queue overflows); accepting is cheap.
    request_queue_size = 128

    #: Optional cluster hooks (set by the shard front end).
    metrics_provider = None
    stats_provider = None
    shard_id: int | None = None

    def __init__(self, address, service: EncodeService, quiet: bool = False,
                 bind_and_activate: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(
            address, ServiceRequestHandler,
            bind_and_activate=bind_and_activate,
        )


class ServiceRequestHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def setup(self) -> None:
        self.timeout = READ_TIMEOUT_S  # per socket read; looked up per connection
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            super().log_message(format, *args)

    def _respond(self, status: int, body: bytes, content_type: str,
                 extra_headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.server.shard_id is not None:
            self.send_header("X-Shard", str(self.server.shard_id))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _json(self, status: int, payload: dict,
              extra_headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode() + b"\n"
        self._respond(status, body, "application/json", extra_headers)

    def _error(self, status: int, message: str,
               extra_headers: dict[str, str] | None = None) -> None:
        self._json(status, {"error": message}, extra_headers)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:
        path = urlparse(self.path).path
        service = self.server.service
        if path == "/healthz":
            if service.healthy():
                self._json(200, {"status": "ok"})
            else:
                self._error(503, "service is shutting down")
        elif path == "/metrics":
            provider = self.server.metrics_provider
            self._json(
                200, provider() if provider else service.metrics.snapshot()
            )
        elif path == "/stats":
            provider = self.server.stats_provider
            self._json(200, provider() if provider else service.stats())
        else:
            self._error(404, f"no such endpoint: {path}")

    def do_POST(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/encode":
            handler = self._post_encode
            empty_hint = "empty body; POST raw BMP or binary PGM/PPM bytes"
        elif parsed.path == "/decode":
            handler = self._post_decode
            empty_hint = "empty body; POST raw .j2c codestream bytes"
        else:
            self._error(404, f"no such endpoint: {parsed.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "bad Content-Length")
            return
        if length <= 0:
            self._error(400, empty_hint)
            return
        if length > MAX_BODY_BYTES:
            self._error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return
        try:
            body = self._read_body(length)
        except TimeoutError:
            self._error(408, "request body did not arrive in time",
                        {"Connection": "close"})
            return
        handler(parsed, body)

    def _read_body(self, length: int) -> bytes:
        """Up to ``length`` body bytes, read against one deadline; raises
        ``TimeoutError`` past it or past one read's timeout."""
        deadline = time.monotonic() + BODY_DEADLINE_S
        chunks = []
        try:
            while length > 0:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("request body deadline passed")
                self.connection.settimeout(min(READ_TIMEOUT_S, left))
                chunk = self.rfile.read1(length)
                if not chunk:
                    break
                chunks.append(chunk)
                length -= len(chunk)
        finally:
            self.connection.settimeout(self.timeout)
        return b"".join(chunks)

    def _post_encode(self, parsed, body: bytes) -> None:
        service = self.server.service
        try:
            params, priority, verify = params_from_query(parsed.query)
            image = parse_image(body)
        except ImageFormatError as exc:
            # Typed rejection of unsupported upload bytes: structured 4xx
            # (reason slug + message), never a generic 500.
            self._json(400, {"error": str(exc), "reason": exc.reason})
            return
        except ValueError as exc:
            self._error(400, str(exc))
            return
        try:
            response = service.encode_image(
                image, params, priority=priority, verify=verify
            )
        except QueueFullError as exc:
            # ShedError carries a Retry-After derived from the live p99;
            # a plain full queue keeps the old fixed one-second hint.
            retry_after = getattr(exc, "retry_after_s", None)
            self._error(
                503, str(exc),
                {"Retry-After": str(int(retry_after)) if retry_after else "1"},
            )
            return
        except PoolClosed:
            self._error(503, "service is shutting down")
            return
        except VerificationError as exc:
            # The encode ran but its bytes failed the round-trip check:
            # the request was well-formed, the entity is not servable.
            self._json(422, {"error": str(exc), "verify": exc.details})
            return
        except ValueError as exc:
            self._error(400, str(exc))
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"encode failed: {exc!r}")
            return
        headers = {
            "X-Cache": "HIT" if response.cache_hit else "MISS",
            "X-Queue-Wait-Seconds": f"{response.queue_wait_s:.6f}",
            "X-Encode-Seconds": f"{response.encode_s:.6f}",
        }
        if response.cache_source is not None:
            headers["X-Cache-Source"] = response.cache_source
        if verify:
            headers["X-Verified"] = "roundtrip"
        self._respond(
            200, response.codestream, "image/x-jpeg2000-codestream", headers
        )

    def _post_decode(self, parsed, body: bytes) -> None:
        # Local import: /encode-only deployments never touch the decoder.
        from repro.image.pnm import dump_pnm
        from repro.jpeg2000.errors import CodestreamError

        service = self.server.service
        unknown = sorted(parse_qs(parsed.query))
        if unknown:
            self._error(400, f"unknown query parameters: {unknown}")
            return
        try:
            response = service.decode_image(body)
        except QueueFullError as exc:
            retry_after = getattr(exc, "retry_after_s", None)
            self._error(
                503, str(exc),
                {"Retry-After": str(int(retry_after)) if retry_after else "1"},
            )
            return
        except PoolClosed:
            self._error(503, "service is shutting down")
            return
        except CodestreamError as exc:
            self._error(400, f"{type(exc).__name__}: {exc}")
            return
        except ValueError as exc:
            self._error(400, str(exc))
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"decode failed: {exc!r}")
            return
        image = response.image
        headers = {
            "X-Cache": "HIT" if response.cache_hit else "MISS",
            "X-Decode-Seconds": f"{response.decode_s:.6f}",
        }
        if image.dtype.itemsize > 2:
            # PNM tops out at 16-bit samples; the decode itself succeeded,
            # the entity just has no wire format.
            self._error(422, f"decoded image is {image.dtype}, larger than "
                             "the 16-bit PGM/PPM response format")
            return
        content_type = ("image/x-portable-graymap" if image.ndim == 2
                        else "image/x-portable-pixmap")
        self._respond(200, dump_pnm(image), content_type, headers)


def make_server(
    service: EncodeService, host: str = "127.0.0.1", port: int = 0,
    quiet: bool = False,
) -> ServiceHTTPServer:
    """Bind (but do not run) a server; ``port=0`` picks a free port."""
    return ServiceHTTPServer((host, port), service, quiet=quiet)


def run_server(
    config: ServiceConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    quiet: bool = False,
) -> int:
    """Run until SIGTERM/SIGINT, then drain gracefully.  Returns 0."""
    service = EncodeService(config)
    server = make_server(service, host, port, quiet=quiet)

    def _request_shutdown(signum, frame):
        # shutdown() blocks until serve_forever() exits, and the handler
        # runs on the main thread *inside* serve_forever — hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _request_shutdown)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    bound_port = server.server_address[1]
    print(
        f"repro encode service on http://{host}:{bound_port}  "
        f"(workers={service.pool.workers}, "
        f"cache={service.cache.max_bytes // 2**20} MiB, "
        f"max-queue={service.admission.max_queue})",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        # The handlers stay until the drain is over: a second signal
        # during it only repeats the shutdown request, where the default
        # action would kill the process halfway.
        server.server_close()  # joins in-flight request threads
        service.close(drain=True)
        print("repro encode service: drained cleanly", flush=True)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0
