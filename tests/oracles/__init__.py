"""Reference implementations that pin the production fast paths.

Each module here holds the slow, obviously-correct twin of one fast path in
``src/repro``.  The twins used to live next to their fast paths as runtime
options; they are test code now, so production has a single trace engine
and every comparison happens in the test suite (and in the ratio benches of
``benchmarks/test_microbenchmarks.py``):

* :mod:`.simulation` — :class:`LoopSimulator`, the per-gate loop that the
  fused :class:`~repro.simulation.compiled.CompiledNetlist` sweep must
  match on every net;
* :mod:`.power` — :class:`UnpackedPowerTraceGenerator`, the bool-matrix
  toggle extraction that the packed extraction of
  :meth:`~repro.power.traces.PowerTraceGenerator.generate` must match byte
  for byte, and :func:`generate_loop`, the per-gate power loop (exact
  Gaussian noise and explicit per-trace mask shares).

``polaris-lint`` rule PL002 checks that every twin still exists and that a
test compares it against its fast path.
"""

from .power import (
    UnpackedPowerTraceGenerator,
    add_noise,
    generate_loop,
    masked_power,
    unmasked_power,
)
from .sampling import chunk_seed_streams
from .simulation import LoopResult, LoopSimulator

__all__ = [
    "LoopResult",
    "LoopSimulator",
    "UnpackedPowerTraceGenerator",
    "add_noise",
    "chunk_seed_streams",
    "generate_loop",
    "masked_power",
    "unmasked_power",
]
