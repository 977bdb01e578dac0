"""The three closed-loop workloads of the POLARIS paper flow.

Every workload runs in one process, one operation at a time, at the
paper's sizing (``paper_configuration()``: 10,000 traces per group,
AdaBoost with 120 estimators, ``L = 7``, ``theta_r = 0.7``) on designs of
``scale=1.0``.  The workload seed feeds ``WorkloadConfig.seed``,
``PolarisConfig.seed`` and ``TvlaConfig.seed``; the program only ever
receives the generated netlists and configurations.

A workload has a set-up (:meth:`setup_inputs`, repeated to take a median,
plus :meth:`setup_once` for set-up too costly to repeat) and a measured
pass (:meth:`run_pass`) that returns a :class:`PassResult`.  Output checks
are recorded on a :class:`Checks` object; they run outside the timed
region.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, ContextManager, Dict, List

import numpy as np

from repro.campaign import (
    CampaignSpec,
    campaign_queue,
    collect_result,
    run_worker,
    submit_campaign,
)
from repro.core import (
    paper_configuration,
    polaris_mask,
    protect_design,
    train_polaris,
)
from repro.netlist.validate import validate_netlist
from repro.tvla import assess_leakage
from repro.workloads.suites import (
    WorkloadConfig,
    evaluation_designs,
    training_designs,
)

CAMPAIGN_DESIGNS = ("des3", "sin", "md5", "voter")
CAMPAIGN_TRACES = 4096
CAMPAIGN_CHUNK_TRACES = 256
CAMPAIGN_SHARDS = 8
#: Repeats of the trained model's scoring of its cognition matrix.
SCORE_REPEATS = 25
#: Extra runs of the suite's masking decision after each protect pass of
#: the traced run, which reports their median.  Timed runs make one, for
#: the same-gates check, and so fit more of the run's seconds.
DECISION_REPEATS = 4
#: Warm resubmit+collect rounds per pass; one round is ~20 ms, so a pass
#: yields 4 x 25 cache-hit samples.
WARM_ROUNDS = 25


def digest(*arrays) -> str:
    """Short sha256 over the raw bytes of ``arrays`` (order-sensitive)."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(str(array.dtype).encode())
        sha.update(str(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()[:16]


def polaris_config(seed: int):
    """``paper_configuration()`` with the workload seed threaded through."""
    config = paper_configuration()
    return replace(config, seed=seed, tvla=replace(config.tvla, seed=seed))


class Checks:
    """Counts operations and output checks; any failure is an error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verdicts: Dict[str, List[int]] = {}

    def operation(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, name: str, ok: bool) -> bool:
        passed, total = self.verdicts.get(name, [0, 0])
        self.verdicts[name] = [passed + bool(ok), total + 1]
        if not ok:
            self.failed += 1
        return bool(ok)

    def fail(self) -> None:
        self.failed += 1


@dataclass
class PassResult:
    """Measurements of one workload pass.

    ``pass_s`` is the workload's headline time; ``fast_s`` holds samples
    of its short user-facing step (named by the workload's
    ``fast_metric``); ``digests`` fingerprint every t-value and
    model-score vector the pass produced; ``quality`` holds deterministic
    output figures.
    """

    pass_s: float
    fast_s: List[float]
    digests: Dict[str, str]
    quality: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Common state: the seed, a scratch directory and the measure hook.

    ``measure(name)`` returns the context manager that brackets a timed
    region; the traced run swaps in one that records a ``bench.*`` span
    around it and turns tracing on only inside it.
    """

    name = ""
    #: Untimed passes run after set-up, before the first timed pass.
    warmup_passes = 0
    #: Set by the runner on a traced run.
    traced = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.config = polaris_config(seed)
        self.measure: Callable[[str], ContextManager] = \
            lambda name: contextlib.nullcontext()

    def setup_inputs(self) -> None:
        """Generate the workload's inputs (cheap; repeated for a median)."""

    def setup_once(self) -> None:
        """Set-up too costly to repeat, such as training a model."""


class TrainPaper(Workload):
    """``train_polaris(training_designs(), cfg)`` then ``extract_rules()``.

    The one-off training cost a user pays.  About two thirds of it is CART
    tree fitting, about a third cognition TVLA: the workload where
    ML-training work shows.  The fast path is scoring the cognition
    matrix with the trained model, the inference every later protection
    runs; it is repeated after the timed pass for a steady median.
    """

    name = "train_paper"
    pass_label = "train_s"
    fast_metric = "ml.score_s"

    def setup_inputs(self) -> None:
        self.designs = training_designs(WorkloadConfig(scale=1.0,
                                                       seed=self.seed))

    def run_pass(self, checks: Checks) -> PassResult:
        checks.operation()
        with self.measure("bench.pass"):
            start = time.perf_counter()
            trained = train_polaris(self.designs, self.config)
            rules = trained.extract_rules()
            end = time.perf_counter()
        dataset = trained.dataset
        score_s = []
        for _ in range(SCORE_REPEATS):
            started = time.perf_counter()
            scores = trained.model.positive_score(dataset.features)
            score_s.append(time.perf_counter() - started)
        checks.check("dataset has samples of both labels",
                     dataset.n_samples > 0
                     and 0.0 < dataset.positive_fraction() < 1.0)
        checks.check("model scores are finite probabilities",
                     bool(np.all((scores >= 0.0) & (scores <= 1.0))))
        checks.check("rule set is non-empty", len(rules) > 0)
        return PassResult(
            pass_s=end - start,
            fast_s=score_s,
            digests={
                "cognition_dataset": digest(dataset.features, dataset.labels),
                "model_scores": digest(scores),
                "rules": hashlib.sha256(
                    rules.describe().encode()).hexdigest()[:16],
            },
            quality={"positive_fraction": dataset.positive_fraction()})


class ProtectSuite(Workload):
    """``protect_design`` over the 11 ``evaluation_designs()``.

    The model is trained in set-up, so the measured pass does no tree
    fitting; most of it is before/after TVLA.  The workload where TVLA
    work shows and a training change must show none.  The fast path is
    the POLARIS decision time (paper Table II "Time (s)"), summed over
    the suite; the decision alone is re-run after the timed pass for more
    samples of that sum, and must select the same gates every time.
    """

    name = "protect_suite"
    pass_label = "protect_s"
    fast_metric = "core.decision_s"

    def setup_inputs(self) -> None:
        workload = WorkloadConfig(scale=1.0, seed=self.seed)
        self.training = training_designs(workload)
        self.designs = evaluation_designs(workload)

    def setup_once(self) -> None:
        self.trained = train_polaris(self.training, self.config)

    def run_pass(self, checks: Checks) -> PassResult:
        reports = []
        checks.operation(len(self.designs))
        with self.measure("bench.pass"):
            start = time.perf_counter()
            for design in self.designs:
                reports.append(protect_design(design, self.trained))
            elapsed = time.perf_counter() - start
        t_values, model_scores = [], []
        for report in reports:
            outcome = report.outcome
            checks.check("masked netlist passes validate_netlist",
                         validate_netlist(outcome.masked_netlist).is_valid)
            budget = min(report.before.n_leaky, len(outcome.scores))
            checks.check("n_masked equals the mask budget",
                         outcome.mask_budget == budget
                         and outcome.n_masked == budget)
            t_values += [report.before.t_values, report.after.t_values]
            model_scores.append(np.array(
                [score.model_score for score in outcome.scores]))
        decision_s = [sum(r.polaris_seconds for r in reports)]
        trained = self.trained
        repeats = DECISION_REPEATS if self.traced else 1
        checks.operation(repeats * len(self.designs))
        for _ in range(repeats):
            total = 0.0
            for design, report in zip(self.designs, reports):
                outcome = polaris_mask(design, trained.model,
                                       mask_budget=report.outcome.mask_budget,
                                       config=self.config,
                                       encoder=trained.encoder)
                total += outcome.inference_seconds
                checks.check("repeated decision selects the same gates",
                             outcome.selected_gates
                             == report.outcome.selected_gates)
            decision_s.append(total)
        return PassResult(
            pass_s=elapsed,
            fast_s=decision_s,
            digests={"t_values": digest(*t_values),
                     "model_scores": digest(*model_scores)},
            quality={
                "leakage_reduction_pct": float(np.mean(
                    [r.leakage_reduction_pct for r in reports])),
                "area_overhead_pct": float(np.mean(
                    [r.overheads["area_increase_pct"] for r in reports])),
            })


class CampaignShards(Workload):
    """Sharded durable campaigns: cold compute, then warm store hits.

    Four evaluation designs at 4,096 traces, 256-trace chunks, 8 shards
    each.  The cold pass submits them to a fresh root, drains the queue
    with one in-process worker and collects; per-shard rebuilds, queue,
    checkpoint and store operations are a large share of it.  The warm
    rounds resubmit (reported ``cached``) and collect again: the
    store-hit read path, which is the fast path.
    """

    name = "campaign_shards"
    pass_label = "campaign_s"
    fast_metric = "campaign.cached_s"
    # A cold pass is short, so one untimed pass costs little.
    warmup_passes = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.tvla = replace(self.config.tvla, n_traces=CAMPAIGN_TRACES,
                            chunk_traces=CAMPAIGN_CHUNK_TRACES)
        self.root = workdir / f"campaign-{os.getpid()}"

    def setup_inputs(self) -> None:
        self.designs = evaluation_designs(WorkloadConfig(
            scale=1.0, seed=self.seed, designs=CAMPAIGN_DESIGNS))
        # Serial reference of the exact campaign each spec describes.
        self.reference = {}
        for design in self.designs:
            spec = CampaignSpec.from_netlist(design, self.tvla,
                                             n_shards=CAMPAIGN_SHARDS,
                                             force_streaming=True)
            self.reference[spec.content_hash] = assess_leakage(
                spec.netlist(), spec.tvla)

    def _matches(self, spec_hash: str, assessment) -> bool:
        expected = self.reference.get(spec_hash)
        return (expected is not None
                and assessment.gate_names == expected.gate_names
                and assessment.t_values.tobytes()
                == expected.t_values.tobytes())

    def run_pass(self, checks: Checks) -> PassResult:
        """One cold pass and the warm rounds, on a fresh campaign root."""
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            return self._run(self.root, checks)
        finally:
            shutil.rmtree(self.root, ignore_errors=True)

    def _run(self, root: Path, checks: Checks) -> PassResult:
        checks.operation(2 * len(self.designs))
        with self.measure("bench.cold"):
            start = time.perf_counter()
            submitted = [submit_campaign(root, netlist=design,
                                         config=self.tvla,
                                         n_shards=CAMPAIGN_SHARDS)
                         for design in self.designs]
            run_worker(campaign_queue(root), drain=True)
            cold = [collect_result(root, outcome.spec_hash)
                    for outcome in submitted]
            cold_s = time.perf_counter() - start
        for outcome, assessment in zip(submitted, cold):
            checks.check("cold submit is fresh",
                         outcome.status == "submitted")
            checks.check("cold t-values equal the serial assessment bitwise",
                         self._matches(outcome.spec_hash, assessment))

        warm_s = []
        warm = []
        checks.operation(2 * WARM_ROUNDS * len(self.designs))
        with self.measure("bench.warm"):
            for _ in range(WARM_ROUNDS):
                for design in self.designs:
                    started = time.perf_counter()
                    outcome = submit_campaign(root, netlist=design,
                                              config=self.tvla,
                                              n_shards=CAMPAIGN_SHARDS)
                    assessment = collect_result(root, outcome.spec_hash)
                    warm_s.append(time.perf_counter() - started)
                    warm.append((outcome, assessment))
        for outcome, assessment in warm:
            checks.check("resubmit reports cached", outcome.status == "cached")
            checks.check("warm t-values equal the serial assessment bitwise",
                         self._matches(outcome.spec_hash, assessment))
        return PassResult(
            pass_s=cold_s,
            fast_s=warm_s,
            digests={"t_values": digest(*[a.t_values for a in cold])})


WORKLOADS = {cls.name: cls for cls in (TrainPaper, ProtectSuite,
                                       CampaignShards)}


def make_workload(name: str, seed: int, workdir: Path):
    """Instantiate the workload called ``name``."""
    return WORKLOADS[name](seed, workdir)
