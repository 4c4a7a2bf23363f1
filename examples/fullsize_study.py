#!/usr/bin/env python
"""Price the paper's actual 28.3 MB image, end to end, without scaling.

Encodes a real 3072x3072x3 synthetic watch photograph exactly (a few
seconds with the native kernels) to extract its per-code-block statistics
— no statistics scaling — and prices it on every machine the paper
evaluates.

    python examples/fullsize_study.py [--small]

``--small`` uses 1024x1024 for a faster demonstration.
"""

import sys
import time

from repro.baselines.pentium4 import P4PipelineModel
from repro.cell.machine import CellMachine, QS20_BLADE, SINGLE_CELL
from repro.core.pipeline import PipelineModel
from repro.image.synthetic import watch_face_image
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams


def main() -> None:
    size = 1024 if "--small" in sys.argv else 3072
    print(f"synthesizing {size}x{size}x3 watch photograph "
          f"({size * size * 3 / 2**20:.1f} MB)...")
    image = watch_face_image(size, size, channels=3)

    for params, tag in (
        (EncoderParams.lossless_default(), "LOSSLESS"),
        (EncoderParams.lossy_rate(0.1), "LOSSY rate=0.1"),
    ):
        t0 = time.time()
        stats = encode(image, params).stats
        symbols = sum(b.total_symbols for b in stats.blocks)
        print(f"\n=== {tag}: workload extracted in {time.time() - t0:.1f} s "
              f"({len(stats.blocks)} blocks, {symbols / 1e6:.1f} M Tier-1 "
              f"decisions) ===")

        rows = [
            ("Pentium IV 3.2 GHz", P4PipelineModel(stats).simulate()),
            ("PPE only", PipelineModel(
                CellMachine(num_spes=0, num_ppe_threads=1), stats).simulate()),
            ("Cell 1 SPE + PPE", PipelineModel(
                CellMachine(num_spes=1), stats).simulate()),
            ("Cell 8 SPE + PPE", PipelineModel(SINGLE_CELL, stats).simulate()),
            ("QS20 16 SPE + 2 PPE", PipelineModel(QS20_BLADE, stats).simulate()),
        ]
        base = rows[0][1].total_s
        print(f"{'machine':<22} {'time (s)':>9} {'vs P4':>7}")
        for name, tl in rows:
            print(f"{name:<22} {tl.total_s:>9.3f} {base / tl.total_s:>7.2f}")
        best = rows[3][1]
        print(f"Cell 8-SPE stage split: tier1 {best.fraction('tier1'):.0%}, "
              f"dwt {best.fraction('dwt'):.0%}, "
              f"rate {best.fraction('rate_control'):.0%}")


if __name__ == "__main__":
    main()
