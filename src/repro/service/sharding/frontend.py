"""Pre-fork shard supervisor: N service processes accept on one port.

One :class:`~repro.service.EncodeService` process is GIL-bound on its
front half — accept/parse, scheduling, small serial encodes.  The fix is
the classic pre-fork shape: a supervisor process owns the port and the
cross-shard cache bus, and forks N *shard* processes, each running a full
service (Tier-1 thread pool + local cache + its own metrics).

The supervisor binds and listens one socket, non-blocking, before it
forks; every shard, a respawned one too, wraps the inherited FD and
``accept()``s on it (the kernel hands each connection to exactly one
accepter).  Several shards' polls can wake for one connection; the
losers' ``accept()`` raises ``BlockingIOError``, which ``socketserver``
reads as "no request", so no shard ever sleeps in ``accept()`` where it
would miss ``shutdown()``.  While a shard respawns, its connections wait
in the one backlog.

The supervisor's monitor thread respawns any shard that dies outside an
orderly shutdown: a crash inside native code costs one shard's
requests, never the port.  ``stop(graceful=True)`` SIGTERMs every shard; each
drains exactly like the single-process server — stop accepting, finish
in-flight requests, drain the Tier-1 threads — and the supervisor prints the same
``drained cleanly`` line the CI smoke jobs grep for.

Shards are forked, not spawned: they inherit the listening FD.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace

from repro.service import EncodeService, ServiceConfig
from repro.service.http import ServiceHTTPServer

#: Seconds a SIGTERMed shard gets to drain before SIGKILL.
DRAIN_TIMEOUT_S = 90.0

#: Seconds between shard liveness checks in the monitor thread.
MONITOR_INTERVAL_S = 0.2

#: Seconds between a shard's metrics/stats publications to the bus.
HEARTBEAT_S = 1.0


@dataclass(frozen=True)
class ShardClusterConfig:
    """Knobs of one :class:`ShardCluster` (CLI ``serve --shards`` flags)."""

    shards: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    service: ServiceConfig = field(default_factory=ServiceConfig)
    quiet: bool = False
    #: Cross-shard result-cache budget (bus-owned, shared by all shards).
    bus_cache_bytes: int = 64 * 2**20
    heartbeat_s: float = HEARTBEAT_S

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")


# -- shard child process ------------------------------------------------------


def _shard_main(
    shard_id: int,
    cluster: ShardClusterConfig,
    listen_sock: socket.socket,
    bus_path: str,
) -> None:
    """Entry point of one forked shard: serve until SIGTERM, then drain."""
    from repro.service.sharding.cachebus import CacheBusClient

    service_cfg = replace(
        cluster.service, shard_id=shard_id, bus_path=bus_path
    )
    service = EncodeService(service_cfg)

    server = _InheritedSocketHTTPServer(
        listen_sock, service, quiet=cluster.quiet
    )

    bus = CacheBusClient(bus_path)
    _install_aggregation(server, service, bus, shard_id)

    # Forked children inherit the supervisor's signal handlers; replace
    # them before serving so a cluster-wide SIGTERM drains this shard
    # instead of re-running the supervisor's shutdown logic per process.
    stop_publishing = threading.Event()

    def _publish_once() -> None:
        bus.publish_stats(str(shard_id), {
            "pid": os.getpid(),
            "metrics": service.metrics.state(),
            "stats": service.stats(),
        })

    def _heartbeat() -> None:
        # Publish-then-wait: the first publication lands immediately, so
        # cluster-wide /metrics counts every live shard from the start.
        while True:
            try:
                _publish_once()
            except Exception:
                pass  # bus gone during shutdown: nothing to report to
            if stop_publishing.wait(cluster.heartbeat_s):
                return

    publisher = threading.Thread(
        target=_heartbeat, name=f"shard-{shard_id}-heartbeat", daemon=True
    )
    publisher.start()

    def _request_shutdown(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _request_shutdown)

    if not cluster.quiet:
        print(
            f"repro shard {shard_id} (pid {os.getpid()}) on "
            f"http://{cluster.host}:{server.server_address[1]}",
            flush=True,
        )
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()  # joins in-flight request threads
        service.close(drain=True)
        stop_publishing.set()
        try:
            _publish_once()  # final numbers survive in the bus
        except Exception:
            pass
        if not cluster.quiet:
            print(f"repro shard {shard_id}: drained cleanly", flush=True)


def _listen(host: str, port: int) -> socket.socket:
    """The cluster's one listening socket, non-blocking, ready to fork.

    Non-blocking because every shard polls the same queue: a shard
    whose poll woke for a connection a sibling already took gets
    ``BlockingIOError`` from ``accept()`` and returns to its loop.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(ServiceHTTPServer.request_queue_size)
    sock.setblocking(False)
    return sock


class _InheritedSocketHTTPServer(ServiceHTTPServer):
    """Shard accepting on the supervisor's already-listening socket."""

    def __init__(self, listen_sock: socket.socket, service,
                 quiet: bool = False) -> None:
        super().__init__(
            listen_sock.getsockname(), service, quiet=quiet,
            bind_and_activate=False,
        )
        # Swap out the fresh unbound socket TCPServer made for the
        # inherited one; it is already bound and listening, so neither
        # server_bind nor server_activate runs.
        self.socket.close()
        self.socket = listen_sock
        self.server_address = listen_sock.getsockname()


def _install_aggregation(server, service, bus, shard_id: int) -> None:
    """Point the server's /metrics and /stats at cluster-wide views.

    Aggregation runs on-demand in whichever shard got the request: the
    shard merges its own *live* metric state with every other shard's
    last-published state from the bus (its own stale publication is
    replaced by the live one, never double-counted).
    """
    from repro.service.metrics import merge_metric_states

    def metrics_provider() -> dict:
        local_state = service.metrics.state()
        published = {}
        try:
            published = bus.fetch_stats().get("shards", {})
        except Exception:
            pass
        states = {str(shard_id): local_state}
        for sid, entry in published.items():
            if sid == str(shard_id):
                continue
            state = (entry.get("payload") or {}).get("metrics")
            if state:
                states[sid] = state
        aggregate = merge_metric_states(list(states.values()))
        # Summing gauges is right for depths but not for ratios: rebuild
        # the cluster hit ratio from the merged counters instead.
        if "cache_hit_ratio" in aggregate:
            requests = aggregate.get("requests_total", {}).get("value", 0)
            hits = (
                aggregate.get("cache_hits_total", {}).get("value", 0)
                + aggregate.get("remote_cache_hits_total", {}).get("value", 0)
            )
            aggregate["cache_hit_ratio"]["value"] = (
                hits / requests if requests else 0.0
            )
        return {
            "shard_id": shard_id,
            "shards_reporting": len(states),
            "shard": service.metrics.snapshot(),
            "aggregate": aggregate,
        }

    def stats_provider() -> dict:
        bus_stats: dict = {}
        shard_stats: dict = {}
        try:
            fetched = bus.fetch_stats()
            bus_stats = fetched.get("cache", {})
            for sid, entry in fetched.get("shards", {}).items():
                payload = entry.get("payload") or {}
                if "stats" in payload:
                    shard_stats[sid] = payload["stats"]
        except Exception:
            pass
        shard_stats[str(shard_id)] = service.stats()  # live beats published
        return {
            "shard_id": shard_id,
            "shard": shard_stats[str(shard_id)],
            "cluster": {
                "cache_bus": bus_stats,
                "bus_client": bus.snapshot(),
                "shards": shard_stats,
            },
        }

    server.metrics_provider = metrics_provider
    server.stats_provider = stats_provider
    server.shard_id = shard_id


# -- supervisor ---------------------------------------------------------------


class ShardCluster:
    """Supervisor owning the port, the cache bus, and N shard processes."""

    def __init__(self, config: ShardClusterConfig) -> None:
        self.config = config
        self.port: int | None = None
        self._listener: socket.socket | None = None
        self._bus = None
        self._bus_dir: tempfile.TemporaryDirectory | None = None
        self.bus_path: str | None = None
        self._procs: dict[int, object] = {}  # shard_id -> mp.Process
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self.respawns = 0
        import multiprocessing

        self._ctx = multiprocessing.get_context("fork")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardCluster":
        from repro.service.sharding.cachebus import CacheBusServer

        cfg = self.config
        self._bus_dir = tempfile.TemporaryDirectory(prefix="repro-shards-")
        self.bus_path = os.path.join(self._bus_dir.name, "cachebus.sock")
        self._bus = CacheBusServer(
            self.bus_path, max_bytes=cfg.bus_cache_bytes
        ).start()

        self._listener = _listen(cfg.host, cfg.port)
        self.port = self._listener.getsockname()[1]

        for shard_id in range(cfg.shards):
            self._spawn(shard_id)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, shard_id: int) -> None:
        proc = self._ctx.Process(
            target=_shard_main,
            args=(
                shard_id,
                self.config,
                self._listener,  # fork: inherited by memory, not pickled
                self.bus_path,
            ),
            name=f"repro-shard-{shard_id}",
        )
        proc.start()
        self._procs[shard_id] = proc

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(MONITOR_INTERVAL_S):
            with self._lock:
                dead = [
                    (sid, proc)
                    for sid, proc in self._procs.items()
                    if not proc.is_alive()
                ]
                for sid, proc in dead:
                    if self._stopping.is_set():
                        return
                    code = proc.exitcode
                    print(
                        f"repro shard {sid} died (exit {code}); respawning",
                        file=sys.stderr, flush=True,
                    )
                    self.respawns += 1
                    self._spawn(sid)

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM-drain (or SIGKILL) every shard, then release the port."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        with self._lock:
            procs = dict(self._procs)
        sig = signal.SIGTERM if graceful else signal.SIGKILL
        for proc in procs.values():
            if proc.is_alive():
                try:
                    os.kill(proc.pid, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + (DRAIN_TIMEOUT_S if graceful else 5.0)
        for proc in procs.values():
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in procs.values():
            if proc.is_alive():  # drain overran its budget: stop waiting
                proc.kill()
                proc.join(timeout=5.0)
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._bus is not None:
            self._bus.stop()
            self._bus = None
        if self._bus_dir is not None:
            self._bus_dir.cleanup()
            self._bus_dir = None

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(graceful=exc_type is None)

    # -- observability -----------------------------------------------------

    def alive_pids(self) -> dict[int, int]:
        with self._lock:
            return {
                sid: proc.pid
                for sid, proc in self._procs.items()
                if proc.is_alive()
            }

    def snapshot(self) -> dict:
        return {
            "shards": self.config.shards,
            "port": self.port,
            "alive": sorted(self.alive_pids()),
            "respawns": self.respawns,
            "bus": self._bus.snapshot() if self._bus is not None else None,
        }


def run_sharded_server(
    config: ShardClusterConfig | None = None,
) -> int:
    """Run a shard cluster until SIGTERM/SIGINT; drain; return 0."""
    cfg = config or ShardClusterConfig()
    cluster = ShardCluster(cfg)
    cluster.start()
    stop = threading.Event()

    def _request_shutdown(signum, frame):
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_shutdown)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    svc = cfg.service
    print(
        f"repro encode service on http://{cfg.host}:{cluster.port}  "
        f"(shards={cfg.shards}, "
        f"workers/shard={svc.workers or 'auto'}, "
        f"bus-cache={cfg.bus_cache_bytes // 2**20} MiB)",
        flush=True,
    )
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        cluster.stop(graceful=True)
        print("repro encode service: drained cleanly", flush=True)
    return 0
