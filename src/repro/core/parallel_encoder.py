"""One-call facade: functionally encode an image *and* price the schedule.

This is what a user of the paper's library would call: it produces a real
JPEG2000 codestream (via :mod:`repro.jpeg2000`) and the simulated Cell/B.E.
execution timeline for the requested machine configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.cell.machine import CellMachine, SINGLE_CELL
from repro.cell.timeline import Timeline
from repro.core.pipeline import PipelineModel, PipelineOptions
from repro.jpeg2000.encoder import EncodeResult, encode
from repro.jpeg2000.params import EncoderParams


@dataclass
class ParallelEncodeResult:
    """Functional output plus simulated timing."""

    encode_result: EncodeResult
    timeline: Timeline
    machine: CellMachine

    @property
    def codestream(self) -> bytes:
        return self.encode_result.codestream

    @property
    def simulated_seconds(self) -> float:
        return self.timeline.total_s

    def report(self) -> str:
        er = self.encode_result
        head = (
            f"{er.stats.width}x{er.stats.height}x{er.stats.num_components} "
            f"{'lossless' if er.stats.lossless else 'lossy'} -> "
            f"{len(er.codestream)} bytes "
            f"(ratio {er.compression_ratio:.2f}:1)"
        )
        return head + "\n" + self.timeline.report()


@dataclass
class CellJPEG2000Encoder:
    """The paper's encoder: Jasper-equivalent codec + Cell parallelization.

    ``workers`` sets the *real* Tier-1 thread count used for the
    functional encode (see :mod:`repro.core.workpool`); the simulated
    timeline is still priced for ``machine``.  ``None`` defers to the
    ``EncoderParams`` passed to :meth:`encode`.
    """

    machine: CellMachine = SINGLE_CELL
    options: PipelineOptions = field(default_factory=PipelineOptions)
    workers: int | None = None

    def encode(
        self, image: np.ndarray, params: EncoderParams | None = None
    ) -> ParallelEncodeResult:
        """Encode ``image`` and simulate the machine's execution time."""
        if self.workers is not None:
            params = replace(params or EncoderParams.lossless_default(),
                             workers=self.workers)
        er = encode(image, params)
        timeline = self.simulate(er)
        return ParallelEncodeResult(encode_result=er, timeline=timeline,
                                    machine=self.machine)

    def simulate(self, encode_result: EncodeResult) -> Timeline:
        """Price an existing encode's workload on this machine."""
        model = PipelineModel(self.machine, encode_result.stats, self.options)
        return model.simulate()

    def scaling_study(
        self,
        encode_result: EncodeResult,
        spe_counts: list[int],
        ppe_threads: int = 1,
    ) -> dict[int, Timeline]:
        """Re-price one workload across SPE counts (Figures 4/5)."""
        out = {}
        for n in spe_counts:
            machine = self.machine.with_pes(n, ppe_threads)
            out[n] = PipelineModel(machine, encode_result.stats, self.options).simulate()
        return out
