"""The ``serve`` workload: HTTP traffic against ``python -m repro serve``.

The server runs with its default flags (one process, a persistent pool of
one worker per core).  One asyncio thread generates load with at most
``cores`` connections open, a fresh connection per request.  Open-loop
blocks at a fixed rate alternate with closed-loop blocks of ``cores``
requests in flight, so a slow spell of the host lands on both.  Every
reply is compared byte for byte with an in-process encode or decode of the
same body, computed before the server starts.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from harness import SETUP_REPEATS, BenchError, process_tree, tree_hwm_mib
from library import LOSSY_RATE, THUMB_CLASSES, ImageClass, class_image
from measures import (
    geomean_mpix_per_s,
    median,
    mpix_per_s,
    share,
    split_by_class,
    tail,
)

from repro.image import parse_image
from repro.image.pnm import dump_pnm
from repro.jpeg2000.decoder import decode
from repro.jpeg2000.encoder import encode

#: Open-loop arrival rate.  One request in four is a fresh encode, so the
#: server gets a fresh encode every 2 s and is about a quarter busy.  At
#: half load, queueing amplified every slow spell of the host into 25-35%
#: run-to-run spreads; here most requests find the server idle, so latency
#: tracks service time.  Repeats and decodes are cheap, so they are sent
#: three times as often as encodes: their latencies are short and need the
#: samples.
OPEN_RATE = 2.0
#: Interleaved blocks: open, closed, open, closed, ...
BLOCKS = 3
#: Share of the run's seconds spent in open-loop blocks.
OPEN_SHARE = 0.8
#: Requests per closed-loop block: two patterns, so the closed-loop blocks
#: together carry one cycle of the fresh-encode classes.
#: The mix, repeated: two fresh encodes, three repeats, three decodes.
#: Decodes sit 1-1.5 s after an encode, by when most encodes are done: a
#: 40 ms decode queued behind a 1 s encode measures the encode.
PATTERN = ("encode", "hit", "decode", "decode",
           "encode", "hit", "hit", "decode")
CLOSED_PER_BLOCK = 2 * len(PATTERN)
#: Decodes in the closed-loop warm-up (of warm-up codestreams).
WARM_DECODES = 2
REQUEST_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0


@dataclass
class Request:
    cls: str                # "encode" | "hit" | "decode" (latency class)
    path: str
    body: bytes
    expect: bytes
    pixels: int
    lossless: bool = True
    # Filled in by the load generator.
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    headers: dict = field(default_factory=dict)
    ok: bool = False
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its full reply."""
        return self.done - self.due


def encode_path(cls: ImageClass) -> str:
    if cls.lossless:
        return f"/encode?codeblock={cls.cb}"
    return f"/encode?codeblock={cls.cb}&rate={LOSSY_RATE}"


# -- HTTP client -------------------------------------------------------------


async def http_post(port: int, path: str, body: bytes,
                    timeout: float) -> tuple[int, dict, bytes]:
    """One POST on a fresh connection; returns (status, headers, body).

    Keep-alive is avoided on purpose: a reused connection stalls on the
    peer's delayed ACK, which would add tens of milliseconds that belong to
    neither the client nor the server.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection("127.0.0.1", port), timeout
    )
    try:
        head = (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head_b, _, payload = raw.partition(b"\r\n\r\n")
    lines = head_b.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        k, sep, v = line.partition(":")
        if sep:
            headers[k.strip().lower()] = v.strip()
    length = headers.get("content-length")
    if length is not None and int(length) != len(payload):
        raise ConnectionError(f"short body: {len(payload)} of {length} bytes")
    return status, headers, payload


async def _issue(port: int, req: Request, timeout: float) -> None:
    loop = asyncio.get_running_loop()
    req.sent = loop.time()
    try:
        req.status, req.headers, payload = await http_post(
            port, req.path, req.body, timeout
        )
    except (OSError, asyncio.TimeoutError, ValueError, IndexError) as exc:
        req.error = repr(exc)
        payload = b""
    req.done = loop.time()
    if req.error:
        return
    if req.status != 200:
        req.error = f"HTTP {req.status}"
    elif payload != req.expect:
        req.error = "reply differs from the in-process result"
    else:
        req.ok = True


async def open_loop(port: int, reqs: list[Request], rate: float, slots: int,
                    timeout: float = REQUEST_TIMEOUT_S) -> None:
    """Send ``reqs`` on a fixed schedule, at most ``slots`` in flight.

    A request that falls due while every slot is busy waits for one, and
    that wait is part of its latency (measured from ``due``).  Later
    requests keep their own due times, so a stall delays them too.
    """
    loop = asyncio.get_running_loop()
    sem = asyncio.Semaphore(slots)
    start = loop.time() + 0.01
    tasks = []

    async def one(req: Request) -> None:
        try:
            await _issue(port, req, timeout)
        finally:
            sem.release()

    for i, req in enumerate(reqs):
        req.due = start + i / rate
        delay = req.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        await sem.acquire()
        tasks.append(asyncio.create_task(one(req)))
    await asyncio.gather(*tasks)


async def closed_loop(port: int, reqs: list[Request], slots: int,
                      timeout: float = REQUEST_TIMEOUT_S) -> float:
    """``slots`` callers each send their next request on the last reply.

    Returns the block's wall time.
    """
    loop = asyncio.get_running_loop()
    pending = iter(reqs)

    async def caller() -> None:
        for req in pending:
            req.due = loop.time()
            await _issue(port, req, timeout)

    t0 = loop.time()
    await asyncio.gather(*(caller() for _ in range(slots)))
    return loop.time() - t0


# -- server lifecycle ----------------------------------------------------------


def _healthz(port: int) -> bool:
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=5
        ) as resp:
            return resp.status == 200
    except (urllib.error.URLError, OSError):
        return False


class Server:
    """``python -m repro serve`` on a free port, with its default flags."""

    def __init__(self) -> None:
        t0 = time.perf_counter()
        # stderr goes to a file: a pipe nobody reads could fill and block.
        self.log = tempfile.NamedTemporaryFile("w+", prefix="server-",
                                               suffix=".log", delete=False)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            if "http://" not in banner:
                raise BenchError(f"server did not start: {self.stderr()}")
            self.port = int(banner.split("http://", 1)[1].split()[0]
                            .rsplit(":", 1)[1])
            deadline = t0 + SERVER_START_TIMEOUT_S
            while not _healthz(self.port):
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise BenchError("server never passed /healthz")
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - t0
        self.tree: list[int] = []

    def stderr(self) -> str:
        self.log.seek(0)
        return self.log.read()[-2000:]

    def snapshot(self) -> float:
        """Remember the process tree; return its summed VmHWM in MiB."""
        self.tree = process_tree(self.proc.pid)
        return tree_hwm_mib(self.proc.pid)

    def stop(self) -> list[int]:
        """Drain with SIGTERM; return pids of the tree still alive after.

        Survivors are orphans, a failure of the run; they are killed so the
        benchmark never leaves processes behind.
        """
        if not self.tree:
            self.tree = process_tree(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not drain within 30 s")
        self.log.close()
        deadline = time.monotonic() + 5
        alive = [p for p in self.tree if _alive(p)]
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [p for p in alive if _alive(p)]
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return alive

    def kill(self) -> None:
        if self.proc.poll() is None:
            for pid in reversed(process_tree(self.proc.pid)):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.proc.communicate()
        self.log.close()


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# -- traffic -------------------------------------------------------------------


@dataclass
class Fresh:
    cls: ImageClass
    body: bytes
    codestream: bytes
    decoded: bytes      # PNM reply expected from POST /decode of codestream
    pixels: int
    encode_s: float
    parse_s: float


def _fresh(cls: ImageClass, seed: int) -> Fresh:
    image = class_image(cls, seed)
    body = dump_pnm(image)
    t0 = time.perf_counter()
    parsed = parse_image(body)
    parse_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cs = encode(parsed, cls.params(1)).codestream
    encode_s = time.perf_counter() - t0
    decoded = body if cls.lossless else dump_pnm(decode(cs))
    return Fresh(cls, body, cs, decoded, image.shape[0] * image.shape[1],
                 encode_s, parse_s)


@dataclass
class Traffic:
    warm: list[Request]
    blocks: list[tuple[str, list[Request]]]   # ("open"|"closed", requests)
    fresh: list[Fresh]


def build_traffic(seed: int, seconds: float) -> Traffic:
    """The run's requests: counts, classes and schedule depend only on
    ``seconds``; the seed changes pixels only.

    Fresh encodes cycle through the thumbs classes in a fixed order, so
    every run carries the same class mix on the same schedule and a seed
    cannot move a figure by reshuffling which request queues behind which.
    Repeats re-send a warm-up image, which was answered before timing
    began.  Decodes post codestreams encoded for this run, each once, so
    none has been decoded before.
    """
    # Blocks hold whole multiples of the pattern, at least two: 12 open-loop
    # encodes, the fewest a tail with ten samples beyond it rests on.  At
    # the default 30 s they are exactly one cycle of the classes.
    unit = len(PATTERN)
    per_open = unit * max(2, round(OPEN_RATE * seconds * OPEN_SHARE
                                   / BLOCKS / unit))
    n_open, n_closed = per_open * BLOCKS, CLOSED_PER_BLOCK * BLOCKS
    kinds = [PATTERN[i % len(PATTERN)] for i in range(n_open + n_closed)]
    n_fresh = kinds.count("encode")
    base = seed * 7919
    nc = len(THUMB_CLASSES)
    warm_fresh = [_fresh(c, base + i) for i, c in enumerate(THUMB_CLASSES)]
    fresh = [_fresh(THUMB_CLASSES[i % nc], base + nc + i)
             for i in range(n_fresh)]

    def enc(f: Fresh, cls: str) -> Request:
        return Request(cls, encode_path(f.cls), f.body, f.codestream,
                       f.pixels, f.cls.lossless)

    def dec(f: Fresh) -> Request:
        return Request("decode", "/decode", f.codestream, f.decoded, f.pixels,
                       f.cls.lossless)

    warm = [enc(f, "encode") for f in warm_fresh]
    warm += [dec(f) for f in warm_fresh[:WARM_DECODES]]
    reqs = []
    fresh_it = iter(fresh)
    # Decodes walk the fresh images from the other end of the class cycle,
    # so a decode and the encode next to it are of different classes, then
    # the warm-up images not decoded during warm-up.
    sources = fresh[::-1] + warm_fresh[WARM_DECODES:]
    n_decodes = kinds.count("decode")
    sources += [_fresh(THUMB_CLASSES[i % nc], base + nc + n_fresh + i)
                for i in range(max(0, n_decodes - len(sources)))]
    decode_src = iter(sources)
    hits = 0
    for kind in kinds:
        if kind == "encode":
            reqs.append(enc(next(fresh_it), "encode"))
        elif kind == "hit":
            reqs.append(enc(warm_fresh[(5 * hits) % nc], "hit"))
            hits += 1
        else:
            reqs.append(dec(next(decode_src)))
    blocks = []
    for b in range(BLOCKS):
        blocks.append(("open", reqs[b * per_open:(b + 1) * per_open]))
        lo = n_open + b * CLOSED_PER_BLOCK
        blocks.append(("closed", reqs[lo:lo + CLOSED_PER_BLOCK]))
    return Traffic(warm, blocks, fresh + warm_fresh)


def _server_seconds(req: Request) -> float:
    h = req.headers
    if req.path.startswith("/decode"):
        return float(h.get("x-decode-seconds", 0.0))
    return (float(h.get("x-queue-wait-seconds", 0.0))
            + float(h.get("x-encode-seconds", 0.0)))


def run_serve(seed: int, seconds: float, cores: int) -> dict:
    """Set up, warm up, drive the blocks, tear down; return raw results."""
    traffic = build_traffic(seed, seconds)
    shm_before = shm_entries()
    ready = []
    server = None
    try:
        for i in range(SETUP_REPEATS):
            server = Server()
            ready.append(server.ready_s)
            if i < SETUP_REPEATS - 1:
                leftover = server.stop()
                server = None
                if leftover:
                    raise BenchError(f"set-up server left processes {leftover}")

        async def drive() -> list[float]:
            await closed_loop(server.port, traffic.warm, cores)
            closed_walls = []
            for kind, reqs in traffic.blocks:
                if kind == "open":
                    await open_loop(server.port, reqs, OPEN_RATE, cores)
                else:
                    closed_walls.append(
                        await closed_loop(server.port, reqs, cores)
                    )
            return closed_walls

        closed_walls = asyncio.run(drive())
        rss_mib = server.snapshot()
        orphans = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    leaked = sorted(shm_entries() - shm_before)
    ready.sort()
    return {
        "traffic": traffic,
        "closed_walls": closed_walls,
        "setup_s": ready[len(ready) // 2],
        "setup_samples": ready,
        "rss_mib": rss_mib,
        "orphans": orphans,
        "leaked_shm": leaked,
    }


def _measured(out: dict) -> list[Request]:
    return [r for _k, reqs in out["traffic"].blocks for r in reqs]


def _open(out: dict) -> list[Request]:
    return [r for k, reqs in out["traffic"].blocks if k == "open" for r in reqs]


def _closed(out: dict) -> list[Request]:
    return [r for k, reqs in out["traffic"].blocks if k == "closed"
            for r in reqs]


def failures(out: dict) -> list[str]:
    errs = [f"{r.cls} {r.path}: {r.error}"
            for r in out["traffic"].warm + _measured(out) if not r.ok]
    if out["orphans"]:
        errs.append(f"orphaned processes after shutdown: {out['orphans']}")
    if out["leaked_shm"]:
        errs.append(f"leaked /dev/shm segments: {out['leaked_shm']}")
    return errs


def end_to_end(out: dict) -> dict:
    """Per-class throughput, each class where another class cannot set it.

    Encodes are taken in the closed-loop blocks: with ``cores`` requests in
    flight and no schedule, no queue builds up, whereas in the open loop a
    slow spell that stretches one encode past the next arrival doubles the
    latencies behind it.  Decodes are taken in the open-loop blocks, where
    they arrive 1-1.5 s after an encode and mostly find the server idle; in
    the closed loop a 40 ms decode shares the cores with an encode and
    measures the encode.
    """
    closed = split_by_class(r for r in _closed(out) if r.ok)
    opened = split_by_class(r for r in _open(out) if r.ok)
    enc = closed.get("encode", [])

    def rate(reqs):
        return geomean_mpix_per_s([r.pixels for r in reqs],
                                  [r.latency for r in reqs])

    serial = [f for f in out["traffic"].fresh if f.cls.lossless]
    return {
        "encode_serial_mpix_s": mpix_per_s([f.pixels for f in serial],
                                           [f.encode_s for f in serial]),
        "encode_lossless_mpix_s": rate([r for r in enc if r.lossless]),
        "encode_lossy_mpix_s": rate([r for r in enc if not r.lossless]),
        "decode_mpix_s": rate(opened.get("decode", [])),
    }


def per_layer(out: dict) -> dict:
    opened = _open(out)
    by = split_by_class([r for r in opened if r.ok])
    ms = 1000.0
    enc_lat = [r.latency * ms for r in by.get("encode", [])]
    tail_ms, tail_pct = tail(enc_lat)
    closed = _closed(out)
    misses = [r for r in by.get("encode", [])
              if r.headers.get("x-cache") == "MISS"]
    hits_sent = [r for r in opened + closed if r.cls == "hit"]
    measured = _measured(out)
    return {
        "lat_p50_ms.encode": median(enc_lat),
        "lat_tail_ms.encode": tail_ms,
        "lat_tail_pct.encode": tail_pct,
        "lat_samples.encode": len(enc_lat),
        "lat_p50_ms.hit": median(r.latency * ms for r in by.get("hit", [])),
        "lat_p50_ms.decode": median(r.latency * ms
                                    for r in by.get("decode", [])),
        "capacity_rps": sum(r.ok for r in closed) / sum(out["closed_walls"]),
        "image.parse_s": median(f.parse_s for f in out["traffic"].fresh),
        "service.queue_wait_ms.p50": median(
            float(r.headers.get("x-queue-wait-seconds", 0.0)) * ms
            for r in misses),
        "service.encode_ms.p50": median(
            float(r.headers.get("x-encode-seconds", 0.0)) * ms for r in misses),
        "service.decode_ms.p50": median(
            float(r.headers.get("x-decode-seconds", 0.0)) * ms
            for r in by.get("decode", [])),
        "http.overhead_ms.p50": median(
            ((r.done - r.sent) - _server_seconds(r)) * ms
            for r in opened if r.ok),
        "cache.hit_share": share(
            sum(r.headers.get("x-cache") == "HIT" for r in hits_sent),
            len(hits_sent)),
        "admission.rejected_share": share(
            sum(r.status == 503 for r in measured), len(measured)),
        "loadgen.lateness_ms": median((r.sent - r.due) * ms for r in opened),
        # The traced pass reads the same reply headers as the untraced one
        # and times parse_image before the server starts: it adds no work
        # inside the timed blocks.
        "trace.overhead_share": 0.0,
    }
