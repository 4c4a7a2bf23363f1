"""HTTP front end: end-to-end encodes over a real socket.

The server under test binds port 0 (ephemeral) and runs on a background
thread; requests go through ``urllib`` so the whole stack — request
parsing, image sniffing, pool lanes, cache, response headers — is
exercised exactly as a client sees it.
"""

from __future__ import annotations

import json
import struct
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.workpool import available_cores
from repro.image.bmp import write_bmp
from repro.image.pnm import write_pnm
from repro.image.synthetic import watch_face_image
from repro.jpeg2000.decoder import decode
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import CODING_FIELDS, EncoderParams
from repro.service import EncodeService, ServiceConfig
from repro.service.http import make_server, params_from_query


@pytest.fixture(scope="module")
def server():
    service = EncodeService(ServiceConfig(workers=2, max_queue=8))
    srv = make_server(service, port=0, quiet=True)
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    service.close()
    thread.join()


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


@pytest.fixture(scope="module")
def pgm_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("http") / "in.pgm"
    write_pnm(str(path), watch_face_image(48, 48, channels=1))
    return path.read_bytes()


def _post(url: str, body: bytes):
    req = urllib.request.Request(url, data=body, method="POST")
    return urllib.request.urlopen(req, timeout=60)


class TestEncodeEndpoint:
    def test_pgm_roundtrip_matches_offline(self, base_url, pgm_bytes):
        img = watch_face_image(48, 48, channels=1)
        offline = encode(img, EncoderParams(levels=3)).codestream
        with _post(f"{base_url}/encode?levels=3", pgm_bytes) as resp:
            body = resp.read()
            assert resp.status == 200
            assert resp.headers["X-Cache"] == "MISS"
            assert resp.headers["Content-Type"] == "image/x-jpeg2000-codestream"
        assert body == offline
        assert np.array_equal(decode(body), img)

    def test_second_request_hits_cache(self, base_url, pgm_bytes):
        with _post(f"{base_url}/encode?levels=3", pgm_bytes) as resp:
            first = resp.read()
        with _post(f"{base_url}/encode?levels=3", pgm_bytes) as resp:
            assert resp.headers["X-Cache"] == "HIT"
            assert resp.read() == first

    def test_bmp_body_and_lossy_params(self, base_url, tmp_path):
        img = watch_face_image(48, 48, channels=3)
        path = tmp_path / "in.bmp"
        write_bmp(str(path), img)
        offline = encode(img, EncoderParams(lossless=False, rate=0.3)).codestream
        with _post(f"{base_url}/encode?rate=0.3", path.read_bytes()) as resp:
            assert resp.read() == offline

    def test_tiled_encode_matches_offline(self, base_url, pgm_bytes):
        img = watch_face_image(48, 48, channels=1)
        offline = encode(
            img, EncoderParams(tile_size=16, progression="RPCL")
        ).codestream
        url = f"{base_url}/encode?tile=16&progression=rpcl"
        with _post(url, pgm_bytes) as resp:
            body = resp.read()
        assert body == offline
        assert np.array_equal(decode(body), img)

    def test_16bit_pgm_upload_encodes(self, base_url):
        from repro.image.pnm import dump_pnm

        img = (watch_face_image(32, 32, channels=1).astype(np.uint16) * 257)
        offline = encode(img, EncoderParams(levels=2)).codestream
        with _post(f"{base_url}/encode?levels=2", dump_pnm(img)) as resp:
            body = resp.read()
        assert body == offline
        out = decode(body)
        assert out.dtype == np.uint16
        assert np.array_equal(out, img)

    def test_bad_body_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/encode", b"this is not an image")
        assert err.value.code == 400
        payload = json.load(err.value)
        assert "unrecognized image format" in payload["error"]
        assert payload["reason"] == "bad-magic"

    def test_unsupported_maxval_is_structured_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/encode", b"P5\n2 2\n70000\n" + b"\0" * 8)
        assert err.value.code == 400
        assert json.load(err.value)["reason"] == "bad-maxval"

    def test_bad_bmp_palette_index_is_structured_400(self, base_url):
        # 4x4 8-bit BMP with a 2-entry palette but pixel index 255.
        palette = bytes((0, 0, 0, 0, 255, 255, 255, 0))
        offset = 14 + 40 + len(palette)
        body = (
            struct.pack("<2sIHHI", b"BM", offset + 16, 0, 0, offset)
            + struct.pack("<IiiHHIIiiII", 40, 4, 4, 1, 8, 0, 16, 0, 0, 2, 0)
            + palette + bytes([255]) * 16
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/encode", body)
        assert err.value.code == 400
        assert json.load(err.value)["reason"] == "bad-palette-index"

    def test_empty_body_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/encode", b"")
        assert err.value.code == 400

    def test_bad_params_are_400(self, base_url, pgm_bytes):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/encode?rate=7.0", pgm_bytes)
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/encode?bogus=1", pgm_bytes)
        assert err.value.code == 400

    def test_queue_full_is_503_with_retry_after(self, base_url, server):
        service = server.service
        # Saturate admission so the next uncached encode sheds.
        slots = 0
        while slots < service.admission.max_queue:
            service.admission.acquire()
            slots += 1
        try:
            unique = watch_face_image(40, 40, channels=1)
            header = b"P5\n40 40\n255\n"
            body = header + unique.tobytes()
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(f"{base_url}/encode?levels=2", body)
            assert err.value.code == 503
            assert err.value.headers["Retry-After"] == "1"
        finally:
            for _ in range(slots):
                service.admission.release()

    def test_unknown_paths_are_404(self, base_url, pgm_bytes):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base_url}/nope", timeout=10)
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/nope", pgm_bytes)
        assert err.value.code == 404


class TestVerifyParam:
    def test_verified_encode_succeeds(self, base_url, pgm_bytes):
        with _post(f"{base_url}/encode?levels=2&verify=1", pgm_bytes) as resp:
            assert resp.status == 200
            assert resp.headers["X-Verified"] == "roundtrip"
            body = resp.read()
        img = watch_face_image(48, 48, channels=1)
        assert np.array_equal(decode(body), img)

    def test_verify_counts_in_metrics(self, base_url, pgm_bytes):
        with _post(f"{base_url}/encode?levels=2&verify=1", pgm_bytes):
            pass
        with urllib.request.urlopen(f"{base_url}/metrics", timeout=30) as resp:
            metrics = json.load(resp)
        assert metrics["verified_total"]["value"] >= 1
        assert metrics["verify_failures_total"]["value"] == 0

    def test_verified_cache_hit_still_verifies(self, base_url, pgm_bytes):
        with _post(f"{base_url}/encode?levels=2&verify=1", pgm_bytes):
            pass
        with _post(f"{base_url}/encode?levels=2&verify=1", pgm_bytes) as resp:
            assert resp.headers["X-Cache"] == "HIT"
            assert resp.headers["X-Verified"] == "roundtrip"

    def test_unverified_requests_have_no_header(self, base_url, pgm_bytes):
        with _post(f"{base_url}/encode?levels=2", pgm_bytes) as resp:
            assert resp.headers.get("X-Verified") is None

    def test_failed_verification_is_422(self, base_url, pgm_bytes,
                                        monkeypatch):
        from repro.verify.roundtrip import VerificationError

        def boom(image, codestream, params=None, floor=None):
            raise VerificationError(
                "forced failure", {"kind": "lossy", "psnr_db": 1.0}
            )

        monkeypatch.setattr("repro.verify.roundtrip.verify_roundtrip", boom)
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/encode?levels=2&verify=1", pgm_bytes)
        assert err.value.code == 422
        payload = json.load(err.value)
        assert "forced failure" in payload["error"]
        assert payload["verify"]["kind"] == "lossy"

    def test_verify_failure_metric_increments(self, base_url, pgm_bytes,
                                              monkeypatch):
        from repro.verify.roundtrip import VerificationError

        def boom(image, codestream, params=None, floor=None):
            raise VerificationError("forced", {})

        monkeypatch.setattr("repro.verify.roundtrip.verify_roundtrip", boom)
        with pytest.raises(urllib.error.HTTPError):
            _post(f"{base_url}/encode?levels=2&verify=1", pgm_bytes)
        with urllib.request.urlopen(f"{base_url}/metrics", timeout=30) as resp:
            metrics = json.load(resp)
        assert metrics["verify_failures_total"]["value"] >= 1


class TestObservabilityEndpoints:
    def test_healthz(self, base_url):
        with urllib.request.urlopen(f"{base_url}/healthz", timeout=30) as resp:
            assert resp.status == 200
            assert json.load(resp) == {"status": "ok"}

    def test_metrics_shape(self, base_url, pgm_bytes):
        with _post(f"{base_url}/encode?levels=3", pgm_bytes):
            pass
        with urllib.request.urlopen(f"{base_url}/metrics", timeout=30) as resp:
            metrics = json.load(resp)
        assert metrics["requests_total"]["value"] >= 1
        lat = metrics["request_seconds"]
        assert lat["type"] == "histogram"
        assert lat["count"] >= 1
        assert lat["p95"] >= lat["p50"] >= 0
        assert any(b["le"] == "inf" for b in lat["buckets"])

    def test_stats_shape(self, base_url):
        with urllib.request.urlopen(f"{base_url}/stats", timeout=30) as resp:
            stats = json.load(resp)
        assert stats["pool"]["workers"] == 2
        assert "backend" not in stats["pool"]
        assert set(stats) >= {"pool", "cache", "admission"}
        assert "scheduler" not in stats
        assert "max_inflight" not in stats["pool"]
        assert "shedding" not in stats["admission"]
        assert stats["pool"]["open_lanes"] >= 0

    def test_serve_has_no_tier1_backend_flag(self, capsys):
        # The server picks the coder; a server-wide flag that nothing read
        # is gone, and so is the per-request query key.
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--tier1-backend", "reference"])
        assert exc.value.code == 2
        assert "--tier1-backend" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--batch-window", "--batch-max"])
    def test_serve_has_no_micro_batch_flags(self, flag, capsys):
        # Served encodes run on their request threads and the shared
        # Tier-1 threads; there is no batch to size.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestQueryParsing:
    def test_defaults(self):
        params, priority, verify = params_from_query("")
        assert params == EncoderParams.lossless_default()
        assert priority == 0 and verify is False

    def test_lossy_and_priority(self):
        params, priority, _ = params_from_query("lossy=1&levels=3&priority=7")
        assert params.lossless is False and params.levels == 3
        assert priority == 7

    def test_rate_implies_lossy(self):
        params, _, _ = params_from_query("rate=0.1")
        assert params.lossless is False and params.rate == 0.1

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown query"):
            params_from_query("speed=11")

    def test_verify_key_is_accepted(self):
        params, priority, verify = params_from_query("verify=1&levels=3")
        assert params.levels == 3 and priority == 0 and verify is True

    def test_tiling_keys(self):
        params, _, _ = params_from_query(
            "tile=256&precinct=512&progression=pcrl"
        )
        assert params.tile_size == 256
        assert params.precinct_size == 512
        assert params.progression == "PCRL"

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("0", False), ("true", True), ("FALSE", False),
        ("Yes", True), ("no", False),
    ])
    def test_strict_booleans(self, text, value):
        params, _, verify = params_from_query(f"lossy={text}&verify={text}")
        assert params.lossless is not value and verify is value

    @pytest.mark.parametrize("key", ["lossy", "verify"])
    @pytest.mark.parametrize("text", ["on", "2", "maybe", "t"])
    def test_loose_booleans_name_the_key(self, key, text):
        with pytest.raises(ValueError, match=f"bad query parameter {key}="):
            params_from_query(f"{key}={text}")

    def test_explicit_lossless_with_rate_is_rejected(self):
        with pytest.raises(ValueError, match="lossless=True cannot"):
            params_from_query("lossy=0&rate=0.1")


class TestFrontEndParity:
    """The CLI flags and the query keys derive from one field table."""

    #: One valid non-default wire value per field with a query key.
    WIRE_VALUES = {
        "lossy": "1", "rate": "0.25", "levels": "3", "codeblock": "16",
        "tile": "128", "progression": "rpcl", "precinct": "256",
    }

    def test_every_query_field_has_a_sample(self):
        wire = {f.wire for f in CODING_FIELDS if f.affects_bytes and f.wire}
        assert wire == set(self.WIRE_VALUES)

    @pytest.mark.parametrize("key", sorted(WIRE_VALUES))
    def test_cli_flag_and_query_key_agree(self, key):
        from repro.cli import _params, build_parser

        text = self.WIRE_VALUES[key]
        flag = ["--" + key.replace("_", "-")]
        if key != "lossy":  # booleans are bare flags on the CLI
            flag.append(text)
        args = build_parser().parse_args(["encode", "in.pgm", "out.j2c", *flag])
        from_query, _, _ = params_from_query(f"{key}={text}")
        assert _params(args) == from_query
        assert from_query != EncoderParams()

    @pytest.mark.parametrize(
        "key",
        # ``mem_budget`` was an execution field; retired, it stays unknown.
        [f.wire for f in CODING_FIELDS if not f.affects_bytes]
        + ["mem_budget"],
    )
    def test_execution_fields_are_not_query_keys(self, key):
        with pytest.raises(ValueError, match="unknown query parameters"):
            params_from_query(f"{key}=1")

    @pytest.mark.parametrize("query, key", [
        ("tier1_backend=reference", "tier1_backend"),
        ("dwt_backend=reference", "dwt_backend"),
        ("dwt_chunk=64", "dwt_chunk"),
        ("tile=128&mem_budget=4096", "mem_budget"),
    ])
    def test_execution_keys_are_400_over_http(self, base_url, pgm_bytes,
                                              query, key):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/encode?{query}", pgm_bytes)
        assert err.value.code == 400
        message = json.load(err.value)["error"]
        assert "unknown query parameters" in message and key in message

    def test_cache_key_fields_are_the_byte_fields(self):
        from repro.service.cache import CODESTREAM_FIELDS

        assert set(CODESTREAM_FIELDS) == {
            f.name for f in CODING_FIELDS if f.affects_bytes
        }


class TestDecodeEndpoint:
    @pytest.fixture(scope="class")
    def rgb_stream(self):
        img = watch_face_image(40, 56, channels=3)
        return img, encode(img, EncoderParams(levels=2)).codestream

    def test_decode_roundtrip(self, base_url, rgb_stream):
        from repro.image.pnm import parse_pnm

        img, cs = rgb_stream
        with _post(f"{base_url}/decode", cs) as resp:
            body = resp.read()
            assert resp.status == 200
            assert resp.headers["Content-Type"] == "image/x-portable-pixmap"
            assert float(resp.headers["X-Decode-Seconds"]) >= 0.0
        assert np.array_equal(parse_pnm(body), img)

    def test_second_decode_hits_cache(self, base_url, rgb_stream):
        _, cs = rgb_stream
        with _post(f"{base_url}/decode", cs) as resp:
            first = resp.read()
        with _post(f"{base_url}/decode", cs) as resp:
            assert resp.headers["X-Cache"] == "HIT"
            assert resp.read() == first

    def test_16bit_decode_served_as_16bit_pgm(self, base_url):
        from repro.image.pnm import parse_pnm

        img = (watch_face_image(24, 24, channels=1).astype(np.uint16) * 257)
        cs = encode(img, EncoderParams(levels=2)).codestream
        with _post(f"{base_url}/decode", cs) as resp:
            assert resp.headers["Content-Type"] == "image/x-portable-graymap"
            out = parse_pnm(resp.read())
        assert out.dtype == np.uint16
        assert np.array_equal(out, img)

    def test_grayscale_is_pgm(self, base_url):
        from repro.image.pnm import parse_pnm

        img = watch_face_image(32, 32, channels=1)
        cs = encode(img, EncoderParams(levels=2)).codestream
        with _post(f"{base_url}/decode", cs) as resp:
            assert resp.headers["Content-Type"] == "image/x-portable-graymap"
            assert np.array_equal(parse_pnm(resp.read()), img)

    def test_malformed_codestream_is_400_typed(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/decode", b"\x00" * 64)
        assert err.value.code == 400
        assert "Error" in json.load(err.value)["error"]  # typed class name

    def test_bad_backend_is_400(self, base_url, rgb_stream):
        # The server picks the decoder: even a valid backend is no key.
        _, cs = rgb_stream
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/decode?backend=batched", cs)
        assert err.value.code == 400
        assert "backend" in json.load(err.value)["error"]

    def test_unknown_query_key_is_400(self, base_url, rgb_stream):
        _, cs = rgb_stream
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/decode?speed=11", cs)
        assert err.value.code == 400

    def test_workers_query_is_400_and_forks_nothing(self, base_url,
                                                    rgb_stream):
        import multiprocessing

        _, cs = rgb_stream
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base_url}/decode?workers=2", cs)
        assert err.value.code == 400
        assert "workers" in json.load(err.value)["error"]
        assert {p.pid for p in multiprocessing.active_children()} == before

    def test_large_decode_runs_groups_on_the_pool(self, base_url, server):
        from repro.image.pnm import parse_pnm
        from repro.jpeg2000.decoder import decode_reference

        img = watch_face_image(96, 96, channels=3)
        cs = encode(img, EncoderParams(levels=3, codeblock_size=16)).codestream
        service = server.service
        before = service.pool.snapshot()["blocks_dispatched"]
        with _post(f"{base_url}/decode", cs) as resp:
            assert resp.headers["X-Cache"] == "MISS"
            out = parse_pnm(resp.read())
        assert np.array_equal(out, decode_reference(cs))
        dispatched = service.pool.snapshot()["blocks_dispatched"] - before
        if available_cores() > 1:  # else the single-core clamp keeps it inline
            assert dispatched >= 24  # ~ 3 x 48 blocks, past the serial clamp

    def test_decode_metrics_exported(self, base_url, rgb_stream):
        _, cs = rgb_stream
        with _post(f"{base_url}/decode", cs):
            pass
        with urllib.request.urlopen(f"{base_url}/metrics", timeout=30) as resp:
            metrics = json.load(resp)
        assert metrics["decode_requests_total"]["value"] >= 1
        assert metrics["images_decoded_total"]["value"] >= 1
        assert metrics["decode_seconds"]["count"] >= 1

    def test_verify_seconds_histogram(self, base_url, pgm_bytes):
        with _post(f"{base_url}/encode?levels=3&verify=1", pgm_bytes):
            pass
        with urllib.request.urlopen(f"{base_url}/metrics", timeout=30) as resp:
            metrics = json.load(resp)
        vs = metrics["verify_seconds"]
        assert vs["type"] == "histogram"
        assert vs["count"] >= 1


def _serve(*setup: str):
    """Start ``python -m repro serve`` on a free port after ``setup`` lines.

    Returns the process and its port, read from the banner.
    """
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    script = "\n".join(
        ["import sys", *setup, "from repro.cli import main",
         "sys.exit(main(sys.argv[1:]))"])
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "serve", "--port", "0",
         "--workers", "2", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def _read_all(sock) -> bytes:
    reply = b""
    while chunk := sock.recv(65536):
        reply += chunk
    return reply


class TestGracefulDrain:
    def test_second_sigterm_mid_drain_still_drains(self):
        # ``python -m repro serve`` gets SIGTERM while a request is still
        # uploading its body, then a second SIGTERM once the accept loop
        # has stopped: the request still gets its codestream, the server
        # prints its drain line and exits 0 instead of dying on the
        # second signal.
        import signal
        import socket
        import time

        from repro.image.pnm import dump_pnm

        proc, port = _serve()
        try:
            img = watch_face_image(64, 64, channels=1)
            body = dump_pnm(img)
            head = (b"POST /encode?levels=3 HTTP/1.1\r\nHost: localhost\r\n"
                    b"Connection: close\r\nContent-Length: %d\r\n\r\n"
                    % len(body))
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=60) as sock:
                sock.sendall(head + body[:16])
                time.sleep(0.5)  # a handler thread is reading the body
                proc.send_signal(signal.SIGTERM)
                time.sleep(0.5)  # the accept loop has stopped
                proc.send_signal(signal.SIGTERM)
                time.sleep(0.2)
                assert proc.poll() is None, "second SIGTERM killed the drain"
                sock.sendall(body[16:])
                reply = _read_all(sock)
            status, _, payload = reply.partition(b"\r\n\r\n")
            assert status.startswith(b"HTTP/1.1 200"), status
            assert payload == encode(img, EncoderParams(levels=3)).codestream
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "drained cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_stalled_upload_does_not_hold_the_drain(self):
        # One client sends half a body and stalls, another idles on a
        # keep-alive connection after one request.  SIGTERM still ends
        # in a clean drain: the stalled read answers 408 and the idle
        # connection closes, each after one read timeout.
        import signal
        import socket
        import time

        from repro.image.pnm import dump_pnm

        proc, port = _serve("from repro.service import http",
                            "http.READ_TIMEOUT_S = 0.5")
        try:
            body = dump_pnm(watch_face_image(64, 64, channels=1))
            head = (b"POST /encode HTTP/1.1\r\nHost: localhost\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body))
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=60) as stalled, \
                    socket.create_connection(("127.0.0.1", port),
                                             timeout=60) as idle:
                idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: localhost"
                             b"\r\n\r\n")
                reply = b""
                while not reply.endswith(b"}\n"):  # the whole response
                    reply += idle.recv(65536)
                assert reply.startswith(b"HTTP/1.1 200")
                stalled.sendall(head + body[: len(body) // 2])
                time.sleep(0.2)  # a handler thread is reading the body
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=30)
                assert proc.returncode == 0, out
                assert "drained cleanly" in out
                assert _read_all(stalled).startswith(b"HTTP/1.1 408")
                assert _read_all(idle) == b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_trickled_body_does_not_hold_the_drain(self):
        # A client sends its body one byte every 0.3 s, each read well
        # inside the 0.5 s read timeout.  The body's deadline still
        # answers 408, so SIGTERM ends in a clean drain within a bound
        # instead of lasting as long as the client keeps trickling.
        import signal
        import socket
        import threading
        import time

        proc, port = _serve("from repro.service import http",
                            "http.READ_TIMEOUT_S = 0.5",
                            "http.BODY_DEADLINE_S = 1.5")
        stop = threading.Event()
        try:
            head = (b"POST /encode HTTP/1.1\r\nHost: localhost\r\n"
                    b"Content-Length: 1000\r\n\r\n")
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=60) as sock:
                sock.sendall(head)

                def trickle():
                    end = time.monotonic() + 12.0
                    while time.monotonic() < end and not stop.wait(0.3):
                        try:
                            sock.sendall(b"P")
                        except OSError:
                            return

                sender = threading.Thread(target=trickle, daemon=True)
                sender.start()
                time.sleep(0.2)  # a handler thread is reading the body
                t0 = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=60)
                elapsed = time.monotonic() - t0
                stop.set()
                sender.join()
                assert proc.returncode == 0, out
                assert "drained cleanly" in out
                assert elapsed < 5.0, f"drain took {elapsed:.1f} s"
                assert _read_all(sock).startswith(b"HTTP/1.1 408")
        finally:
            stop.set()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
