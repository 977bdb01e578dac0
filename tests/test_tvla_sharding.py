"""Regression tests for sharded parallel TVLA campaigns.

The contract pinned down here is what makes sharding trustworthy:

* sharded assessments (any shard count, any executor) match the unsharded
  streaming path in t-values, for every configured TVLA order;
* fixed seeds give bit-identical reruns, independent of the executor;
* shard ranges are chunk-aligned, disjoint and cover the campaign;
* ``assess_many`` fans several designs through one pool and returns exactly
  what per-design sharded assessments return.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.masking import apply_masking, maskable_gates
from repro.tvla import (
    TvlaConfig,
    assess_leakage,
    assess_leakage_sharded,
    assess_many,
    campaign_schedule,
    shard_trace_ranges,
)

from tests.oracles import chunk_seed_streams

#: Small-but-chunked campaign: 600 traces in 128-trace chunks -> 5 chunks.
SHARD_TVLA = dict(n_traces=600, n_fixed_classes=2, seed=9, chunk_traces=128)


@pytest.fixture(scope="module")
def sharded_config() -> TvlaConfig:
    return TvlaConfig(**SHARD_TVLA)


class TestShardRanges:
    @pytest.mark.parametrize("n_traces,n_shards,chunk", [
        (600, 4, 128), (600, 8, 128), (100, 3, 100), (2048, 2, 512),
        (1, 1, 1), (999, 7, 64),
    ])
    def test_cover_disjoint_chunk_aligned(self, n_traces, n_shards, chunk):
        ranges = shard_trace_ranges(n_traces, n_shards, chunk)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_traces
        for (start, stop), (next_start, _) in zip(ranges, ranges[1:]):
            assert stop == next_start
        for start, stop in ranges:
            assert stop > start
            assert start % chunk == 0

    def test_shards_capped_at_chunk_count(self):
        # 5 chunks cannot feed 8 shards; surplus shards are dropped rather
        # than returned empty.
        assert len(shard_trace_ranges(600, 8, 128)) == 5

    def test_even_distribution(self):
        ranges = shard_trace_ranges(2048, 4, 256)
        assert [stop - start for start, stop in ranges] == [512] * 4

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            shard_trace_ranges(0, 1, 1)
        with pytest.raises(ValueError):
            shard_trace_ranges(10, 0, 1)
        with pytest.raises(ValueError):
            shard_trace_ranges(10, 1, 0)


class TestSeedStreams:
    def test_streams_are_layout_independent(self):
        # The stream of chunk k is a pure function of (seed, class, group,
        # k): generating 3 or 10 chunks' worth of streams must agree on the
        # shared prefix.
        short = chunk_seed_streams(7, 1, 0, 3)
        long = chunk_seed_streams(7, 1, 0, 10)
        for a, b in zip(short, long):
            assert a.generate_state(4).tolist() == b.generate_state(4).tolist()

    def test_streams_differ_across_axes(self):
        base = chunk_seed_streams(7, 0, 0, 2)[0].generate_state(4).tolist()
        assert chunk_seed_streams(8, 0, 0, 2)[0].generate_state(4).tolist() != base
        assert chunk_seed_streams(7, 1, 0, 2)[0].generate_state(4).tolist() != base
        assert chunk_seed_streams(7, 0, 1, 2)[0].generate_state(4).tolist() != base
        assert chunk_seed_streams(7, 0, 0, 2)[1].generate_state(4).tolist() != base


class TestShardedRegression:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_matches_unsharded_streaming(self, small_benchmark, sharded_config,
                                         n_shards, executor):
        # The headline regression: sharded == unsharded to ~1e-12 in
        # t-values, for both pool executors, at every shard count.
        reference = assess_leakage(small_benchmark, sharded_config)
        sharded = assess_leakage_sharded(small_benchmark, sharded_config,
                                         n_shards=n_shards, executor=executor)
        np.testing.assert_allclose(sharded.t_values, reference.t_values,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sharded.mean_abs_t, reference.mean_abs_t,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sharded.degrees_of_freedom,
                                   reference.degrees_of_freedom,
                                   rtol=1e-9, atol=1e-9)
        assert sharded.gate_names == reference.gate_names
        assert sharded.n_shards == min(n_shards, 5)

    def test_serial_executor_matches(self, small_benchmark, sharded_config):
        reference = assess_leakage(small_benchmark, sharded_config)
        sharded = assess_leakage_sharded(small_benchmark, sharded_config,
                                         n_shards=3, executor="serial")
        np.testing.assert_allclose(sharded.t_values, reference.t_values,
                                   rtol=1e-12, atol=1e-12)

    def test_fixed_seed_reruns_bit_identical(self, small_benchmark,
                                             sharded_config):
        runs = [
            assess_leakage_sharded(small_benchmark, sharded_config,
                                   n_shards=4, executor=executor)
            for executor in ("thread", "thread", "process", "serial")
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0].t_values, other.t_values)
            assert np.array_equal(runs[0].mean_abs_t, other.mean_abs_t)

    def test_shard_count_does_not_change_results(self, small_benchmark,
                                                 sharded_config):
        # Documented contract: for a given seed the verdict is independent
        # of the shard layout (chunk_traces fixed).
        by_shards = {
            n: assess_leakage_sharded(small_benchmark, sharded_config,
                                      n_shards=n, executor="serial")
            for n in (1, 2, 5)
        }
        for n in (2, 5):
            np.testing.assert_allclose(by_shards[n].t_values,
                                       by_shards[1].t_values,
                                       rtol=1e-12, atol=1e-12)

    def test_higher_orders_through_shards(self, small_benchmark):
        config = TvlaConfig(tvla_order=3, **SHARD_TVLA)
        reference = assess_leakage(small_benchmark, config)
        sharded = assess_leakage_sharded(small_benchmark, config, n_shards=4,
                                         executor="process")
        for order in (2, 3):
            np.testing.assert_allclose(sharded.order_t_values[order],
                                       reference.order_t_values[order],
                                       rtol=1e-12, atol=1e-12)

    def test_numpy_integer_order_accepted(self, tiny_netlist):
        config = TvlaConfig(n_traces=100, n_fixed_classes=1, seed=1,
                            tvla_order=int(np.int64(2)))
        assert config.moment_order() == 4
        from repro.tvla import moment_order_for_tvla
        assert moment_order_for_tvla(np.int64(3)) == 6

    def test_executor_instance_is_pluggable(self, small_benchmark,
                                            sharded_config):
        reference = assess_leakage(small_benchmark, sharded_config)
        with ThreadPoolExecutor(max_workers=2) as pool:
            sharded = assess_leakage_sharded(small_benchmark, sharded_config,
                                             n_shards=2, executor=pool)
        np.testing.assert_allclose(sharded.t_values, reference.t_values,
                                   rtol=1e-12, atol=1e-12)

    def test_schedule_reuse(self, small_benchmark, sharded_config):
        schedule = campaign_schedule(small_benchmark, sharded_config)
        direct = assess_leakage_sharded(small_benchmark, sharded_config,
                                        n_shards=2, executor="serial")
        reused = assess_leakage_sharded(small_benchmark, sharded_config,
                                        n_shards=2, executor="serial",
                                        campaigns=schedule)
        assert np.array_equal(direct.t_values, reused.t_values)

    def test_unknown_executor_rejected(self, small_benchmark, sharded_config):
        with pytest.raises(ValueError, match="executor"):
            assess_leakage_sharded(small_benchmark, sharded_config,
                                   executor="bogus")

    def test_invalid_schedule_rejected(self, tiny_netlist, small_benchmark,
                                       sharded_config):
        foreign = campaign_schedule(small_benchmark, sharded_config)
        with pytest.raises(ValueError, match="primary inputs"):
            assess_leakage_sharded(tiny_netlist, sharded_config,
                                   executor="serial", campaigns=foreign)


class TestAssessMany:
    def test_matches_per_design_sharded(self, small_benchmark, sharded_config):
        masked = apply_masking(small_benchmark,
                               maskable_gates(small_benchmark)).netlist
        results = assess_many([small_benchmark, masked], sharded_config,
                              n_shards=2, executor="thread")
        assert list(results) == [small_benchmark.name, masked.name]
        for netlist in (small_benchmark, masked):
            single = assess_leakage_sharded(netlist, sharded_config,
                                            n_shards=2, executor="serial")
            assert np.array_equal(results[netlist.name].t_values,
                                  single.t_values)

    def test_masked_design_improves(self, small_benchmark, sharded_config):
        masked = apply_masking(small_benchmark,
                               maskable_gates(small_benchmark)).netlist
        results = assess_many([small_benchmark, masked], sharded_config,
                              n_shards=2, executor="process")
        assert results[masked.name].mean_leakage < \
            results[small_benchmark.name].mean_leakage

    def test_duplicate_names_rejected(self, small_benchmark, sharded_config):
        with pytest.raises(ValueError, match="duplicate"):
            assess_many([small_benchmark, small_benchmark], sharded_config)
