"""The retired SeedSequence mask/noise sampler.

Production draws every chunk's masks and noise off Philox counter blocks
(:class:`repro.power.ctrsample.CounterStream`).  Before that, each chunk
walked its own ``numpy.random.SeedSequence`` stream, spawned per ``(seed,
class, group, chunk)``.  The spawn tree lives on here as the denominator of
the sampler ratio benches in ``benchmarks/test_microbenchmarks.py``: a
chunk's generator is ``numpy.random.default_rng(stream)`` and its traces
come from ``PowerTraceGenerator.generate(chunk, rng=...)``.  The two
samplers draw different bits by design, so this twin pins cost and
coordinate keying, not values.
"""

from __future__ import annotations

from typing import List

import numpy as np


def chunk_seed_streams(seed: int, class_index: int, group_index: int,
                       n_chunks: int) -> List[np.random.SeedSequence]:
    """Per-chunk mask/noise seed streams of one campaign group.

    Derived by nested ``numpy.random.SeedSequence.spawn``: the campaign
    root spawns one child per fixed class, each class one child per group
    and each group one child per trace chunk.  A chunk's stream is
    therefore a pure function of ``(seed, class, group, chunk index)``.
    """
    root = np.random.SeedSequence(seed)
    class_seq = root.spawn(class_index + 1)[class_index]
    group_seq = class_seq.spawn(group_index + 1)[group_index]
    return group_seq.spawn(n_chunks)
