"""Layer map of the traced run: span names -> per-layer metrics.

A span is named ``<module>.<qualname>`` with the leading ``repro.``
dropped (``power.traces.PowerTraceGenerator.generate``).  Each span's self
time goes to the first layer in :data:`LAYERS` with a matching pattern,
or else to the layer of its parent span.  Counts come from the hooks in
:data:`HOOKS`, which look at a call's arguments and result.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, List, Tuple

from tracer import child_ns

#: (metric, span-name patterns), first match wins.  A span no pattern
#: matches inherits the layer of its parent span, so shared helpers
#: (``Netlist.add_gate``, graph building, power-model tables) are charged
#: to the layer that called them; one with no matched ancestor goes to
#: ``trace.other_s``.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ml.tree_fit_s", ("ml.tree.DecisionTreeClassifier.fit",)),
    ("ml.predict_s", ("ml.*.predict*", "ml.*.decision_function",
                      "ml.*.positive_score", "ml.tree.*.leaf_indices")),
    ("ml.fit_s", ("ml.*.fit", "core.cognition.train_masking_model")),
    ("core.cognition_s", ("core.cognition.generate_cognition",)),
    ("core.rank_s", ("core.masking.*",)),
    ("xai.shap_s", ("core.pipeline.TrainedPolaris.explain", "xai.tree_shap.*",
                    "xai.explain.*")),
    ("xai.rules_s", ("core.pipeline.TrainedPolaris.extract_rules",
                     "xai.rules.*")),
    ("features.extract_s", ("features.*",)),
    ("masking.apply_s", ("masking.*",)),
    ("power.overhead_s", ("power.overhead.*",)),
    ("power.draws_s", ("power.ctrsample.*",)),
    ("power.generator_init_s", ("power.traces.PowerTraceGenerator.__init__",
                                "tvla.assessment.resolve_generator")),
    ("power.generate_s", ("power.traces.PowerTraceGenerator.generate",
                          "power.bitops.*",
                          "simulation.vectors.TraceCampaign.slice")),
    ("simulation.compile_s", ("simulation.compiled.CompiledNetlist.__init__",
                              "simulation.simulator.LogicSimulator.__init__")),
    ("simulation.sweep_s", ("simulation.simulator.LogicSimulator.evaluate",
                            "simulation.compiled.CompiledNetlist.execute*")),
    ("tvla.schedule_s", ("tvla.assessment.campaign_schedule",)),
    ("tvla.welch_s", ("tvla.welch.*",
                      "tvla.assessment.results_from_accumulators",
                      "tvla.assessment.aggregate_class_results")),
    ("tvla.moments_s", ("tvla.moments.*", "tvla.assessment.accumulate_*",
                        "tvla.sharding.*")),
    ("netlist.rebuild_s", ("campaign.spec.CampaignSpec.netlist",
                           "netlist.parser.parse_bench")),
    ("campaign.submit_s", ("campaign.runner.submit_campaign",)),
    ("campaign.put_s", ("campaign.queue.TaskQueue.put",)),
    ("campaign.claim_s", ("campaign.queue.TaskQueue.claim",)),
    ("campaign.ack_s", ("campaign.queue.TaskQueue.ack",
                        "campaign.queue.TaskQueue.fail")),
    ("campaign.idle_s", ("campaign.queue.run_worker",)),
    ("campaign.shard_s", ("campaign.runner.run_shard_task",)),
    ("campaign.store_get_s", ("campaign.store.ResultStore.get",
                              "campaign.store.ResultStore.has")),
    ("campaign.collect_s", ("campaign.runner.collect_result",)),
    ("reliability.atomic_write_s", ("reliability.atomic.*",)),
)

#: Self-time layers that are a per-assessment rebuild in the campaign path.
REBUILD_LAYERS = ("power.generator_init_s", "tvla.schedule_s",
                  "simulation.compile_s", "netlist.rebuild_s")

#: Counts that must repeat exactly between passes of one seed.
EXACT_COUNTS = ("ml.trees", "ml.nodes", "power.chunks", "simulation.sweeps",
                "tvla.assessments", "features.rows", "masking.gates_masked",
                "campaign.claims", "reliability.bytes_written")

#: Each workload's short user-facing step, in seconds (0 on the other
#: workloads): model scoring (train_paper), the suite's masking decision
#: (protect_suite) and one cached resubmit+collect (campaign_shards).
FAST_METRICS = ("ml.score_s", "core.decision_s", "campaign.cached_s")

#: Ratios and rates reported beside the self times.
DERIVED = ("power.traces_per_s", "campaign.claim_hit_ratio",
           "campaign.store_hit_ratio", "campaign.redeliveries")


def _count(name: str):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += 1
    return hook


def _tree_fit(tracer, args, kwargs, result):
    tracer.counts["ml.trees"] += 1
    tracer.counts["ml.nodes"] += result.tree_.n_nodes


def _generate(tracer, args, kwargs, result):
    tracer.counts["power.chunks"] += 1
    tracer.counts["power.traces"] += result.n_traces


def _masked(tracer, args, kwargs, result):
    tracer.counts["masking.gates_masked"] += result.n_masked


def _claim(tracer, args, kwargs, result):
    tracer.counts["campaign.claim_calls"] += 1
    if result is not None:
        tracer.counts["campaign.claims"] += 1
        tracer.counts["campaign.redeliveries"] += result.attempts > 1


def _store_get(tracer, args, kwargs, result):
    tracer.counts["campaign.store_gets"] += 1
    tracer.counts["campaign.store_hits"] += result is not None


def _bytes_written(tracer, args, kwargs, result):
    # Spec and shard-checkpoint writes only: a result-store object
    # (``publish_exclusive``) embeds a wall-clock timestamp and elapsed
    # time, so its length varies by a few bytes between runs.
    data = args[1] if len(args) > 1 else kwargs["data"]
    tracer.counts["reliability.bytes_written"] += len(data)


HOOKS = {
    "ml.tree.DecisionTreeClassifier.fit": _tree_fit,
    "power.traces.PowerTraceGenerator.generate": _generate,
    "simulation.simulator.LogicSimulator.evaluate": _count("simulation.sweeps"),
    "tvla.assessment.assess_leakage": _count("tvla.assessments"),
    "tvla.sharding._shard_moments_rebuilt": _count("tvla.assessments"),
    "features.structural.StructuralFeatureExtractor.extract":
        _count("features.rows"),
    "masking.transform.apply_masking": _masked,
    "campaign.queue.TaskQueue.claim": _claim,
    "campaign.store.ResultStore.get": _store_get,
    "reliability.atomic.atomic_write_bytes": _bytes_written,
}


def layer_names() -> List[str]:
    """Every self-time layer, ``trace.other_s`` last."""
    return [metric for metric, _ in LAYERS] + ["trace.other_s"]


def per_layer_names() -> List[str]:
    """Every per-layer metric the traced run reports, in a stable order."""
    return (layer_names() + list(FAST_METRICS) + list(EXACT_COUNTS)
            + list(DERIVED)
            + ["core.leakage_reduction_pct", "power.area_overhead_pct",
               "trace.coverage_pct", "trace.overhead_pct"])


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _match(span_name: str):
    for metric, patterns in LAYERS:
        if any(fnmatchcase(span_name, pattern) for pattern in patterns):
            return metric
    return None


def fold(spans: List[list], bench_prefix: str = "bench."
         ) -> Dict[str, Dict[str, float]]:
    """Sum span self time into layers, per measured region.

    ``spans`` are the tracer's ``[name, start_ns, end_ns, parent]``
    records; the benchmark's own spans (named ``bench_prefix...``) are
    the roots, one per measured region.  Returns ``region -> {layer ->
    seconds}``, where each region also carries ``wall_s`` (its span
    time) and ``traced_s`` (the self time of every traced span in it).
    """
    child = child_ns(spans)
    matched: Dict[str, object] = {}
    layer_of_span: List[str] = []
    root_of_span: List[str] = []
    regions: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if name.startswith(bench_prefix):
            layer_of_span.append("")
            root_of_span.append(name)
            if name not in regions:
                regions[name] = dict.fromkeys(layer_names(), 0.0)
                regions[name].update(wall_s=0.0, traced_s=0.0)
            regions[name]["wall_s"] += (end - start) * 1e-9
            continue
        if parent < 0:  # a call outside every measured region
            layer_of_span.append("")
            root_of_span.append("")
            continue
        if name not in matched:
            matched[name] = _match(name)
        layer = matched[name] or layer_of_span[parent] or "trace.other_s"
        layer_of_span.append(layer)
        root_of_span.append(root_of_span[parent])
        seconds = (end - start - child[index]) * 1e-9
        region = regions[root_of_span[parent]]
        region[layer] += seconds
        region["traced_s"] += seconds
    return regions


def exact_counts(counts: Dict[str, float]) -> Dict[str, int]:
    return {name: int(counts.get(name, 0)) for name in EXACT_COUNTS}


def derived(counts: Dict[str, float], generate_total_s: float
            ) -> Dict[str, float]:
    claim_calls = counts.get("campaign.claim_calls", 0)
    gets = counts.get("campaign.store_gets", 0)
    traces = counts.get("power.traces", 0)
    return {
        "power.traces_per_s": traces / generate_total_s
        if generate_total_s > 0 else 0.0,
        "campaign.claim_hit_ratio": counts.get("campaign.claims", 0)
        / claim_calls if claim_calls else 0.0,
        "campaign.store_hit_ratio": counts.get("campaign.store_hits", 0)
        / gets if gets else 0.0,
        "campaign.redeliveries": int(counts.get("campaign.redeliveries", 0)),
    }
