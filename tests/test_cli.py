"""CLI tests: encode / decode / simulate subcommands."""

import numpy as np
import pytest

from repro.cli import main
from repro.image.bmp import read_bmp, write_bmp
from repro.image.synthetic import watch_face_image


@pytest.fixture()
def bmp_path(tmp_path):
    path = str(tmp_path / "in.bmp")
    write_bmp(path, watch_face_image(32, 32, channels=1))
    return path


class TestEncodeDecode:
    def test_roundtrip_via_cli(self, bmp_path, tmp_path, capsys):
        j2c = str(tmp_path / "out.j2c")
        out = str(tmp_path / "out.bmp")
        assert main(["encode", bmp_path, j2c, "--levels", "3"]) == 0
        assert main(["decode", j2c, out]) == 0
        assert np.array_equal(read_bmp(out), read_bmp(bmp_path))
        text = capsys.readouterr().out
        assert "bytes" in text

    def test_lossy_rate(self, bmp_path, tmp_path):
        j2c = str(tmp_path / "out.j2c")
        assert main(["encode", bmp_path, j2c, "--rate", "0.3",
                     "--levels", "3"]) == 0
        raw = 32 * 32
        import os
        assert os.path.getsize(j2c) <= raw * 0.3 * 1.05 + 8

    def test_pnm_output(self, bmp_path, tmp_path):
        j2c = str(tmp_path / "o.j2c")
        pgm = str(tmp_path / "o.pgm")
        main(["encode", bmp_path, j2c, "--levels", "2"])
        assert main(["decode", j2c, pgm]) == 0

    def test_unsupported_format_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["encode", str(tmp_path / "x.png"), str(tmp_path / "y.j2c")])


class TestSimulate:
    def test_exact_path(self, bmp_path, capsys):
        assert main(["simulate", bmp_path, "--levels", "2", "--spes", "4"]) == 0
        out = capsys.readouterr().out
        assert "tier1" in out and "4 SPE" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestVersionAndSummary:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_encode_summary_line(self, bmp_path, tmp_path, capsys):
        assert main(["encode", bmp_path, str(tmp_path / "o.j2c"),
                     "--levels", "3"]) == 0
        line = capsys.readouterr().out.strip()
        assert "bytes" in line
        assert "blocks" in line
        assert "worker(s)" in line
        assert line.endswith("s")  # wall time

    def test_serve_in_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2", "--cache-mb", "8",
             "--max-queue", "4", "--admission", "block"]
        )
        assert args.port == 0 and args.workers == 2
        assert args.cache_mb == 8 and args.max_queue == 4
        assert args.admission == "block"

    @pytest.mark.parametrize("command", ["encode", "decode", "serve"])
    def test_worker_counts(self, command):
        from repro.cli import build_parser

        files = [] if command == "serve" else ["in.pgm", "out.j2c"]
        parse = build_parser().parse_args
        for text, workers in (("3", 3), ("auto", None), ("0", None)):
            args = parse([command, *files, "--workers", text])
            assert args.workers == workers
        with pytest.raises(SystemExit):
            parse([command, *files, "--workers", "-1"])


class TestErrorExits:
    """Operational failures: exit 1, one ``error:`` line, no traceback."""

    def test_malformed_codestream_decode(self, tmp_path, capsys):
        bad = tmp_path / "bad.j2c"
        bad.write_bytes(b"\x00" * 64)
        assert main(["decode", str(bad), str(tmp_path / "o.bmp")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_truncated_codestream_decode(self, bmp_path, tmp_path, capsys):
        j2c = tmp_path / "t.j2c"
        assert main(["encode", bmp_path, str(j2c), "--levels", "2"]) == 0
        j2c.write_bytes(j2c.read_bytes()[:40])
        assert main(["decode", str(j2c), str(tmp_path / "o.bmp")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "byte offset" in err

    def test_malformed_bmp_encode(self, tmp_path, capsys):
        bad = tmp_path / "bad.bmp"
        bad.write_bytes(b"BMnot really a bitmap")
        assert main(["encode", str(bad), str(tmp_path / "o.j2c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_missing_input_still_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["encode", str(tmp_path / "none.bmp"),
                  str(tmp_path / "o.j2c")])


class TestSelfCheckFlag:
    def test_self_check_encode_passes(self, bmp_path, tmp_path):
        assert main(["encode", bmp_path, str(tmp_path / "o.j2c"),
                     "--levels", "2", "--self-check"]) == 0

    def test_self_check_failure_exits_one(self, bmp_path, tmp_path,
                                          capsys, monkeypatch):
        from repro.verify.roundtrip import VerificationError

        def boom(image, result):
            raise VerificationError("forced self-check failure")

        monkeypatch.setattr("repro.verify.roundtrip.verify_encode", boom)
        assert main(["encode", bmp_path, str(tmp_path / "o.j2c"),
                     "--levels", "2", "--self-check"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: forced self-check failure")


class TestVerifyAndFuzzCommands:
    def test_verify_quick(self, capsys):
        assert main(["verify", "--quick", "--rates", "0.25",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "round-trip checks: OK" in out

    def test_fuzz_small_run(self, capsys):
        assert main(["fuzz", "--cases", "30", "--seed", "11",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "30 cases (seed 11)" in out
        assert "crashes=0" in out

    def test_fuzz_writes_artifacts_on_crash(self, tmp_path, capsys,
                                            monkeypatch):
        # Force a contract violation to exercise the failure path
        # end-to-end: nonzero exit, artifact files, index.json.
        import repro.verify.fuzz as fuzz_mod

        def bad_classify(data, limits=None):
            return "RuntimeError", RuntimeError("forced crash")

        monkeypatch.setattr(fuzz_mod, "classify", bad_classify)
        art = tmp_path / "crashes"
        assert main(["fuzz", "--cases", "2", "--seed", "3", "--quiet",
                     "--artifacts", str(art)]) == 1
        err = capsys.readouterr().err
        assert "CRASH case 0" in err
        import json
        index = json.loads((art / "index.json").read_text())
        assert len(index["crashes"]) == 2
        assert index["crashes"][0]["exception"] == "RuntimeError"


class TestDwtBackendFlag:
    def test_stage_timings_line(self, bmp_path, tmp_path, capsys):
        assert main(["encode", bmp_path, str(tmp_path / "o.j2c"),
                     "--levels", "2"]) == 0
        out = capsys.readouterr().out
        stages = [ln for ln in out.splitlines() if ln.strip().startswith("stages:")]
        assert len(stages) == 1
        for label in ("frontend", "tier1", "tier2"):
            assert label in stages[0]

    def test_dwt_backend_flag_bytes_identical(self, bmp_path, tmp_path):
        ref, native = str(tmp_path / "r.j2c"), str(tmp_path / "n.j2c")
        assert main(["encode", bmp_path, ref, "--levels", "2",
                     "--dwt-backend", "reference"]) == 0
        assert main(["encode", bmp_path, native, "--levels", "2",
                     "--dwt-backend", "auto"]) == 0
        with open(ref, "rb") as fr, open(native, "rb") as ff:
            assert fr.read() == ff.read()

    def test_rejects_unknown_dwt_backend(self, bmp_path, tmp_path):
        with pytest.raises(SystemExit):
            main(["encode", bmp_path, str(tmp_path / "o.j2c"),
                  "--dwt-backend", "simd"])
