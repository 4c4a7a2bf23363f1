"""Every metric the benchmark reports: unit, direction, layer and target.

``python3 perfbench/run.py --list`` prints this table.  Every workload
reports every metric: the end-to-end ones in untraced runs, the per-layer
ones in traced runs.  A layer a workload does not reach reads 0 there
(see the ``on`` column for where each one is exercised).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str      # the end-to-end metric it should move ("" if it is one)
    on: str         # workloads where it is exercised
    definition: str


END_TO_END = (
    Metric("setup_s", "s", "lower", "process", "", "all",
           "median of 5 fresh starts to ready: an interpreter with the codec "
           "imported, native kernels loaded and one small call done "
           "(photo, thumbs); python -m repro serve spawned until /healthz "
           "passes with its pool warm (serve)"),
    Metric("encode_serial_mpix_s", "Mpix/s", "higher", "library", "", "all",
           "lossless encode at workers=1 in-process: the 1024^2 photo; the "
           "thumbs lossless classes; serve's lossless reference encodes, "
           "made before the server starts"),
    Metric("encode_lossless_mpix_s", "Mpix/s", "higher", "library/service",
           "", "all",
           "lossless encode at usable cores: photo and thumbs through the "
           "library (its cutovers decide whether the pool runs); serve "
           "through POST /encode in the closed-loop blocks"),
    Metric("encode_lossy_mpix_s", "Mpix/s", "higher", "library/service", "",
           "all",
           "lossy (rate 0.1) encode: photo at usable cores, thumbs at "
           "workers=1, serve through POST /encode in the closed-loop blocks"),
    Metric("decode_mpix_s", "Mpix/s", "higher", "library/service", "", "all",
           "decode at the library default (workers=1) of every codestream "
           "the run encoded; serve: POST /decode in the open-loop blocks, "
           "latency from due time"),
    Metric("peak_rss_mib", "MiB", "lower", "process", "", "all",
           "peak RSS (VmHWM) of the process calling the library (photo, "
           "thumbs); summed VmHWM of the server and its pool (serve)"),
    Metric("ok_share", "fraction", "higher", "checks", "", "all",
           "calls or requests that succeeded and passed their output check, "
           "over those attempted; orphaned processes and leaked shm "
           "segments count as failures"),
)

_E = "encode_serial_mpix_s"
PER_LAYER = (
    Metric("dwt_fast.frontend_s", "s", "lower", "dwt_fast",
           "encode_lossy_mpix_s", "photo, thumbs",
           "run_frontend time per round (photo) or pass (thumbs)"),
    Metric("tier1_batch.encode_s", "s", "lower", "tier1_batch",
           f"{_E}, encode_lossless_mpix_s", "photo, thumbs",
           "in-process encode_codeblocks_batched time per round/pass"),
    Metric("tier1_batch.blocks_per_group", "count", "lower", "tier1_batch",
           _E, "photo, thumbs",
           "mean code blocks per stacked geometry group (BatchOccupancy); "
           "the stacked working set behind the serial cliff"),
    Metric("tier1.coded_bytes", "count", "lower", "tier1", "", "photo, thumbs",
           "coded code-block bytes per round/pass; a sanity count that "
           "repeats exactly for a seed"),
    Metric("workpool.encode_s", "s", "lower", "core.workpool",
           "encode_lossless_mpix_s", "photo, thumbs",
           "Tier-1 through the process pool at usable cores per round/pass"),
    Metric("workpool.speedup", "x", "higher", "core.workpool",
           "encode_lossless_mpix_s", "photo, thumbs",
           "Tier-1 time of the workers=1 lossless encodes over that of the "
           "usable-cores lossless encodes of the same images"),
    Metric("rate.choose_s", "s", "lower", "rate", "encode_lossy_mpix_s",
           "photo, thumbs", "RateModel build + choose time per round/pass"),
    Metric("tier2.packets_s", "s", "lower", "tier2",
           f"{_E}, encode_lossy_mpix_s", "photo, thumbs",
           "encode_packet + packet_length time per round/pass"),
    Metric("codestream.parse_s", "s", "lower", "codestream", "decode_mpix_s",
           "photo, thumbs", "parse_codestream time per round/pass"),
    Metric("tier1_dec_vec.decode_s", "s", "lower", "tier1_dec_vec",
           "decode_mpix_s", "photo, thumbs",
           "decode_codeblocks_batched time per round/pass"),
    Metric("dwt_fast.inverse_s", "s", "lower", "dwt_fast", "decode_mpix_s",
           "photo, thumbs", "run_inverse_frontend time per round/pass"),
    Metric("unattributed_s.encode", "s", "lower", "jpeg2000.encoder",
           f"{_E}, encode_lossy_mpix_s", "photo, thumbs",
           "wall of the workers=1 encode() calls minus the layer spans "
           "inside them (planning, block reattachment, packet walks)"),
    Metric("unattributed_s.decode", "s", "lower", "jpeg2000.decoder",
           "decode_mpix_s", "photo, thumbs",
           "wall of the decode() calls minus the layer spans inside them"),
    Metric("image.parse_s", "s", "lower", "image", "encode_lossless_mpix_s",
           "serve", "median parse_image time of one request body"),
    Metric("service.queue_wait_ms.p50", "ms", "lower", "service.scheduler",
           "encode_lossless_mpix_s", "serve",
           "X-Queue-Wait-Seconds of open-loop encode misses, median"),
    Metric("service.encode_ms.p50", "ms", "lower", "service",
           "encode_lossless_mpix_s", "serve",
           "X-Encode-Seconds of open-loop encode misses, median"),
    Metric("service.decode_ms.p50", "ms", "lower", "service", "decode_mpix_s",
           "serve", "X-Decode-Seconds of open-loop decodes, median"),
    Metric("http.overhead_ms.p50", "ms", "lower", "service.http",
           "lat_p50_ms.hit", "serve",
           "client time from send to reply minus the server-reported time"),
    Metric("cache.hit_share", "fraction", "higher", "service.cache",
           "lat_p50_ms.hit", "serve", "X-Cache: HIT over repeats sent"),
    Metric("admission.rejected_share", "fraction", "lower",
           "service.admission", "ok_share", "serve", "503s over requests sent"),
    Metric("loadgen.lateness_ms", "ms", "lower", "load generator", "",
           "serve", "median of send time minus due time, open-loop blocks; "
           "includes waits for a free connection slot"),
    Metric("lat_p50_ms.encode", "ms", "lower", "service",
           "encode_lossless_mpix_s", "serve",
           "fresh-encode latency from due time, open-loop blocks, median"),
    Metric("lat_tail_ms.encode", "ms", "lower", "service", "", "serve",
           "same requests: the highest percentile with at least ten samples "
           "beyond it"),
    Metric("lat_tail_pct.encode", "%", "higher", "service", "", "serve",
           "the percentile lat_tail_ms.encode is taken at (fixed per run)"),
    Metric("lat_samples.encode", "count", "higher", "service", "", "serve",
           "fresh-encode samples the two encode latencies rest on"),
    Metric("lat_p50_ms.hit", "ms", "lower", "service.cache", "", "serve",
           "repeat-request latency from due time, open-loop blocks, median"),
    Metric("lat_p50_ms.decode", "ms", "lower", "service", "decode_mpix_s",
           "serve", "decode latency from due time, open-loop blocks, median"),
    Metric("capacity_rps", "req/s", "higher", "service", "", "serve",
           "completed requests per second in the closed-loop blocks"),
    Metric("trace.overhead_share", "fraction", "lower", "benchmark", "",
           "all", "traced over untraced round time, minus 1 (serve: 0, its "
           "traced pass adds no work inside the timed blocks)"),
)


def table() -> str:
    rows = [f"{'metric':30} {'unit':9} {'better':7} {'layer':18} "
            f"{'on':14} moves"]
    for kind, metrics in (("end-to-end", END_TO_END), ("per-layer", PER_LAYER)):
        rows.append(f"-- {kind}")
        for m in metrics:
            rows.append(f"{m.name:30} {m.unit:9} {m.better:7} {m.layer:18} "
                        f"{m.on:14} {m.moves}")
            rows.append(f"    {m.definition}")
    return "\n".join(rows)
