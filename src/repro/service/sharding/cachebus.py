"""Cross-shard result cache: a tiny cache server on a Unix socket.

Each shard process keeps its own in-process :class:`ResultCache`, but a
miss there used to mean a full re-encode even when a sibling shard had
just produced the identical codestream.  The bus closes that gap: one
cache-server thread (in the supervisor process) owns a content-addressed
LRU of codestream values.  Shards talk to it over a Unix-domain socket
with a one-line JSON header; the value bytes of a ``put`` or a hit
follow the header inline on the same socket.

Single-flight extends across shards through leases:

* ``lease(key)`` on a cold key marks the caller *leader* — it encodes and
  must either ``put`` the result (which also stores it) or ``release``.
* concurrent ``lease`` calls for the same key park server-side until the
  leader resolves, then return the stored bytes (or leadership, if the
  leader released without data).  A departed leader is covered by the
  waiter's timeout: the waiter is promoted and encodes itself —
  correctness never depends on the bus, only deduplication does.

Shards also publish their metrics/stats blobs here (``publish`` /
``stats``), which is how any shard can answer ``GET /metrics`` with a
cluster-wide aggregate.  Every client call fails open: a dead bus makes
shards independent again, never broken.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import OrderedDict

from repro.service.cache import ENTRY_OVERHEAD_BYTES

#: Default client-side I/O timeout per bus operation (seconds).
OP_TIMEOUT_S = 10.0

#: Default time a lease waiter parks before being promoted to leader.
LEASE_WAIT_S = 30.0

#: Leases older than this are presumed orphaned (leader crashed without
#: releasing) and may be stolen by the next lease() call.
LEASE_TTL_S = 120.0

_MAX_HEADER = 1 << 16


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise ConnectionError("bus peer closed mid-message")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_header(sock: socket.socket) -> dict:
    buf = bytearray()
    while not buf.endswith(b"\n"):
        if len(buf) > _MAX_HEADER:
            raise ConnectionError("bus header too large")
        chunk = sock.recv(1)
        if not chunk:
            raise ConnectionError("bus peer closed mid-header")
        buf += chunk
    return json.loads(buf.decode())


def _send(sock: socket.socket, header: dict, payload: bytes = b"") -> None:
    sock.sendall(json.dumps(header).encode() + b"\n" + payload)


def _cost(key: str, data: bytes) -> int:
    """What one cached value charges the byte budget."""
    return len(data) + len(key) + ENTRY_OVERHEAD_BYTES


class CacheBusServer:
    """Threaded Unix-socket cache server; one per shard cluster.

    Runs as a thread in the supervisor process (it is I/O-bound
    bookkeeping, not encode work).
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 64 * 2**20,
        lease_ttl_s: float = LEASE_TTL_S,
    ) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self.lease_ttl_s = lease_ttl_s
        self._cond = threading.Condition()
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._bytes = 0
        self._leases: dict[str, float] = {}  # key -> monotonic grant time
        self._shard_blobs: dict[int, dict] = {}  # shard id -> stats blob
        self._closed = False
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self.stats = {
            "hits": 0, "misses": 0, "puts": 0, "evictions": 0,
            "leases_granted": 0, "lease_waits": 0, "lease_steals": 0,
            "wait_timeouts": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "CacheBusServer":
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.path)
        listener.listen(128)
        self._listener = listener
        accept = threading.Thread(
            target=self._accept_loop, name="cachebus-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self

    def stop(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        try:
            os.unlink(self.path)
        except OSError:
            pass
        with self._cond:
            self._entries.clear()
            self._bytes = 0

    # -- request handling --------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            t = threading.Thread(
                target=self._handle, args=(conn,),
                name="cachebus-conn", daemon=True,
            )
            t.start()

    def _handle(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(OP_TIMEOUT_S + LEASE_WAIT_S)
            req = _recv_header(conn)
            op = req.get("op")
            if op == "ping":
                _send(conn, {"ok": True})
            elif op == "get":
                self._reply_value(conn, req["key"])
            elif op == "put":
                data = _recv_exact(conn, int(req["size"]))
                stored = self._store(req["key"], data)
                _send(conn, {"ok": True, "stored": stored})
            elif op == "lease":
                self._handle_lease(conn, req)
            elif op == "release":
                self._release(req["key"])
                _send(conn, {"ok": True})
            elif op == "publish":
                blob = json.loads(_recv_exact(conn, int(req["size"])))
                with self._cond:
                    self._shard_blobs[int(req["shard"])] = {
                        "time": time.time(), "payload": blob,
                    }
                _send(conn, {"ok": True})
            elif op == "stats":
                payload = json.dumps(self._stats_payload()).encode()
                _send(conn, {"ok": True, "size": len(payload)}, payload)
            else:
                _send(conn, {"error": f"unknown op: {op!r}"})
        except (OSError, ConnectionError, ValueError, KeyError):
            pass  # client went away or spoke garbage; drop the connection
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _reply_value(self, conn, key: str) -> None:
        """Reply with the cached value, inline after the header, if present.

        The socket write happens outside the lock — a stalled client must
        not be able to wedge every shard's bus operations.
        """
        header, payload = {"hit": False}, b""
        with self._cond:
            data = self._entries.get(key)
            if data is not None:
                self._entries.move_to_end(key)
                self.stats["hits"] += 1
                header, payload = {"hit": True, "size": len(data)}, data
            else:
                self.stats["misses"] += 1
        _send(conn, header, payload)

    def _handle_lease(self, conn, req: dict) -> None:
        key = req["key"]
        timeout = float(req.get("timeout", LEASE_WAIT_S))
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if key in self._entries:
                    break  # hit — reply outside the loop
                # Lease ages must be measured on the same monotonic clock
                # as the wait deadline: stamping holders with wall-clock
                # time let an NTP step instantly expire (or immortalize)
                # every outstanding lease.
                now = time.monotonic()
                holder = self._leases.get(key)
                if holder is None:
                    self._leases[key] = now
                    self.stats["leases_granted"] += 1
                    _send(conn, {"lead": True})
                    return
                if now - holder > self.lease_ttl_s:
                    self._leases[key] = now
                    self.stats["lease_steals"] += 1
                    _send(conn, {"lead": True})
                    return
                self.stats["lease_waits"] += 1
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    self.stats["wait_timeouts"] += 1
                    _send(conn, {"timeout": True})
                    return
        self._reply_value(conn, key)

    # -- storage -----------------------------------------------------------

    def _store(self, key: str, data: bytes) -> bool:
        cost = _cost(key, data)
        with self._cond:
            self.stats["puts"] += 1
            self._leases.pop(key, None)  # the leader delivered
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= _cost(key, old)
            stored = cost <= self.max_bytes
            if stored:
                self._entries[key] = data
                self._bytes += cost
                while self._bytes > self.max_bytes:
                    evicted_key, evicted = self._entries.popitem(last=False)
                    self._bytes -= _cost(evicted_key, evicted)
                    self.stats["evictions"] += 1
            self._cond.notify_all()
        return stored

    def _release(self, key: str) -> None:
        with self._cond:
            self._leases.pop(key, None)
            self._cond.notify_all()

    def _stats_payload(self) -> dict:
        with self._cond:
            return {
                "cache": {
                    "entries": len(self._entries),
                    "bytes_used": self._bytes,
                    "max_bytes": self.max_bytes,
                    "active_leases": len(self._leases),
                    **self.stats,
                },
                "shards": {
                    str(sid): blob for sid, blob in self._shard_blobs.items()
                },
            }


class CacheBusClient:
    """Per-shard client; one short-lived connection per operation.

    Every method fails open (returns a miss / ``False``) on any socket
    error, counting it in ``errors`` — the bus is an optimization, and a
    shard must keep serving if the supervisor's cache thread dies.
    """

    def __init__(self, path: str, timeout: float = OP_TIMEOUT_S) -> None:
        self.path = path
        self.timeout = timeout
        self._lock = threading.Lock()
        self.ops = 0
        self.errors = 0

    def _connect(self, timeout: float | None = None) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout if timeout is not None else self.timeout)
        sock.connect(self.path)
        return sock

    def _count(self, error: bool) -> None:
        with self._lock:
            self.ops += 1
            if error:
                self.errors += 1

    def _read_value_reply(self, sock: socket.socket, reply: dict):
        if not reply.get("hit"):
            return None
        return _recv_exact(sock, int(reply["size"]))

    def ping(self) -> bool:
        try:
            with self._connect() as sock:
                _send(sock, {"op": "ping"})
                ok = bool(_recv_header(sock).get("ok"))
            self._count(error=False)
            return ok
        except (OSError, ConnectionError, ValueError):
            self._count(error=True)
            return False

    def get(self, key: str) -> bytes | None:
        try:
            with self._connect() as sock:
                _send(sock, {"op": "get", "key": key})
                value = self._read_value_reply(sock, _recv_header(sock))
            self._count(error=False)
            return value
        except (OSError, ConnectionError, ValueError):
            self._count(error=True)
            return None

    def lease(self, key: str, wait_timeout: float = LEASE_WAIT_S):
        """Returns ``("hit", bytes)``, ``("lead", None)``, or ``("miss", None)``.

        ``lead`` obliges the caller to eventually :meth:`put` or
        :meth:`release` the key.  ``miss`` (bus down, or the parked wait
        timed out) means: encode locally, publish best-effort.
        """
        try:
            with self._connect(self.timeout + wait_timeout) as sock:
                _send(sock, {"op": "lease", "key": key,
                             "timeout": wait_timeout})
                reply = _recv_header(sock)
                if reply.get("lead"):
                    self._count(error=False)
                    return "lead", None
                value = self._read_value_reply(sock, reply)
            self._count(error=False)
            if value is None:
                return "miss", None
            return "hit", value
        except (OSError, ConnectionError, ValueError):
            self._count(error=True)
            return "miss", None

    def put(self, key: str, data: bytes) -> bool:
        try:
            with self._connect() as sock:
                _send(sock, {"op": "put", "key": key, "size": len(data)},
                      data)
                stored = bool(_recv_header(sock).get("stored"))
            self._count(error=False)
            return stored
        except (OSError, ConnectionError, ValueError):
            self._count(error=True)
            return False

    def release(self, key: str) -> None:
        try:
            with self._connect() as sock:
                _send(sock, {"op": "release", "key": key})
                _recv_header(sock)
            self._count(error=False)
        except (OSError, ConnectionError, ValueError):
            self._count(error=True)

    def publish_stats(self, shard_id: int, payload: dict) -> bool:
        try:
            blob = json.dumps(payload).encode()
            with self._connect() as sock:
                _send(sock, {"op": "publish", "shard": shard_id,
                             "size": len(blob)}, blob)
                ok = bool(_recv_header(sock).get("ok"))
            self._count(error=False)
            return ok
        except (OSError, ConnectionError, ValueError):
            self._count(error=True)
            return False

    def fetch_stats(self) -> dict | None:
        try:
            with self._connect() as sock:
                _send(sock, {"op": "stats"})
                reply = _recv_header(sock)
                payload = _recv_exact(sock, int(reply["size"]))
            self._count(error=False)
            return json.loads(payload)
        except (OSError, ConnectionError, ValueError, KeyError):
            self._count(error=True)
            return None

    def snapshot(self) -> dict:
        with self._lock:
            return {"path": self.path, "ops": self.ops, "errors": self.errors}
