"""Reference implementations that pin the production fast paths.

Each module here holds the slow, obviously-correct twin of one fast path in
``src/repro``.  Production keeps a single path per layer; every oracle is
test code, and every comparison happens in the test suite (and in the ratio
benches of ``benchmarks/test_microbenchmarks.py``):

* :mod:`.simulation` — :class:`LoopSimulator`, the per-gate loop that the
  fused :class:`~repro.simulation.compiled.CompiledNetlist` sweep must
  match on every net;
* :mod:`.power` — :class:`UnpackedPowerTraceGenerator`, the bool-matrix
  toggle extraction that the packed extraction of
  :meth:`~repro.power.traces.PowerTraceGenerator.generate` must match byte
  for byte, and :func:`generate_loop`, the per-gate power loop (exact
  Gaussian noise and explicit per-trace mask shares);
* :mod:`.sampling` — :func:`chunk_seed_streams`, the retired per-chunk
  SeedSequence streams (the denominator of the sampler benches);
* :mod:`.moments` — :func:`update_batch_naive`, the pre-fusion
  ``delta**k`` chain of ``OnePassMoments.update_batch``;
* :mod:`.philox` — :func:`philox_blocks_reference`, the pure-numpy
  Philox-4x64-10 network behind the native counter words;
* :mod:`.tree` — :func:`predict_value` and :func:`decision_path`, the
  per-row node walk over a :func:`node_table` that the flat-array batch
  descent must match, and :class:`ScanTreeBuilder`, the per-feature
  sorted-scan split search that the histogram split search replaced
  (:func:`scan_split_search` grows ensemble fits with it);
* :mod:`.tree_shap` — :func:`expectation` and :class:`PerSampleTreeShap`,
  the recursive per-sample Tree SHAP behind
  ``TreeShapExplainer.explain_matrix``.

``polaris-lint`` rule PL002 checks that every twin still exists here and
that a test compares it against its fast path.
"""

from .moments import update_batch_naive
from .philox import philox_blocks_reference
from .power import (
    UnpackedPowerTraceGenerator,
    add_noise,
    generate_loop,
    masked_power,
    unmasked_power,
)
from .sampling import chunk_seed_streams
from .simulation import LoopResult, LoopSimulator
from .tree import (
    Node,
    ScanTreeBuilder,
    decision_path,
    node_table,
    predict_value,
    scan_split_search,
)
from .tree_shap import PerSampleTreeShap, expectation, output_table

__all__ = [
    "LoopResult",
    "LoopSimulator",
    "Node",
    "PerSampleTreeShap",
    "ScanTreeBuilder",
    "UnpackedPowerTraceGenerator",
    "add_noise",
    "chunk_seed_streams",
    "decision_path",
    "expectation",
    "generate_loop",
    "masked_power",
    "node_table",
    "output_table",
    "philox_blocks_reference",
    "predict_value",
    "scan_split_search",
    "unmasked_power",
    "update_batch_naive",
]
