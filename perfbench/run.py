"""Paper-flow benchmark of the POLARIS reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train_paper --seed 2025 \
        --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``train_paper``, ``protect_suite`` and
``campaign_shards``.  Each run sets up its inputs from ``--seed``, runs
the workload's untimed warm-up passes, then runs measured passes, one at
a time, while another pass fits in ``--seconds`` (at least two, so
outputs can be compared across passes), checks every output, prints a
human-readable report and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` wraps the public functions of every ``repro`` module (see
``tracer.py``), alternates untraced and traced passes, and reports the
per-layer metrics: self time per layer per pass, exact counts, ratios,
trace coverage and tracing overhead.  Its spans are written to
``perfbench/out/`` when the run ends.

The benchmark exits with a non-zero code, printing no result, when the
checkout holds no ``src/repro`` package to measure.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train_paper", "protect_suite", "campaign_shards")
#: Input set-up is repeated this many times and the median reported.
SETUP_REPEATS = 3
#: Outputs are compared across passes, so a run makes at least two.
MIN_PASSES = 2
#: No pass starts once a run has lasted this long: a run must end within
#: 180 seconds.
PASS_DEADLINE_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    # 2025 is the repository's default workload seed.
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Drives one workload: set-up, measured passes, checks, report."""

    def __init__(self, args, workloads) -> None:
        self.args = args
        self.workloads = workloads
        self.checks = workloads.Checks()
        self.workdir = HERE / "out"
        self.workdir.mkdir(exist_ok=True)
        self.workload = workloads.make_workload(args.workload, args.seed,
                                                self.workdir)
        self.workload.traced = bool(args.trace)

    # ------------------------------------------------------------------
    def setup(self, import_s: float) -> dict:
        repeats = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload.setup_inputs()
            repeats.append(time.perf_counter() - start)
        start = time.perf_counter()
        self.workload.setup_once()
        once_s = time.perf_counter() - start
        inputs_s = statistics.median(repeats)
        return {"import_s": import_s, "inputs_s": inputs_s,
                "once_s": once_s, "setup_s": import_s + inputs_s + once_s}

    def warm_up(self) -> None:
        """Untimed passes that fill caches before the first timed one."""
        for _ in range(self.workload.warmup_passes):
            self.one_pass()

    def one_pass(self):
        # Each pass starts from an empty young generation.
        gc.collect()
        try:
            return self.workload.run_pass(self.checks)
        except Exception:  # a raising pass counts against error_rate
            traceback.print_exc(file=sys.stderr)
            self.checks.fail()
            return None

    def keep_going(self, started: float, done: int, last_s: float) -> bool:
        """Whether to start another pass.

        Past ``MIN_PASSES``, a pass starts only if one as long as the last
        would end within ``--seconds``, so a run measures for about
        ``--seconds`` whatever the length of a pass.
        """
        now = time.perf_counter()
        if now - PROCESS_START > PASS_DEADLINE_S:
            return False
        return (done < MIN_PASSES
                or now - started + last_s <= self.args.seconds)

    def check_digests(self, results) -> None:
        first = results[0].digests
        for key in first:
            self.checks.check(
                f"digest {key} repeats across passes",
                all(r.digests.get(key) == first[key] for r in results))

    # ------------------------------------------------------------------
    def run_timed(self):
        results = []
        started = last = time.perf_counter()
        while self.keep_going(started, len(results),
                              time.perf_counter() - last):
            last = time.perf_counter()
            result = self.one_pass()
            if result is not None:
                results.append(result)
        return results

    def run_traced(self):
        """Alternate untraced and traced passes; fold spans per pass."""
        from layers import HOOKS, fold, exact_counts
        from tracer import Tracer

        tracer = Tracer(HOOKS)
        installed = tracer.install(callers=[self.workloads])

        plain, traced, passes = [], [], []
        started = last = time.perf_counter()
        while self.keep_going(started, len(traced),
                              time.perf_counter() - last):
            last = time.perf_counter()
            # One untraced pass per two traced ones gives the overhead.
            if len(plain) <= len(traced) // 2:
                result = self.one_pass()
                if result is not None:
                    plain.append(result)
                continue
            tracer.reset()
            plain_measure = self.workload.measure
            self.workload.measure = tracer.region
            try:
                result = self.one_pass()
            finally:
                self.workload.measure = plain_measure
            if result is None:
                continue
            traced.append(result)
            passes.append({"regions": fold(tracer.spans),
                           "counts": dict(tracer.counts),
                           "exact": exact_counts(tracer.counts),
                           "per_name": tracer.self_times(),
                           "spans": tracer.spans})
        tracer.uninstall()
        if passes:
            for p in passes[1:]:
                for key, value in p["exact"].items():
                    if value != passes[0]["exact"][key]:
                        print(f"count {key} differs between traced passes: "
                              f"{passes[0]['exact'][key]} != {value}",
                              file=sys.stderr)
            self.checks.check(
                "exact counts repeat across traced passes",
                all(p["exact"] == passes[0]["exact"] for p in passes))
        return plain, traced, passes, installed

    # ------------------------------------------------------------------
    def report_common(self, results, setup) -> float:
        """Print the human-readable summary; return the median pass_s."""
        workload = self.workload
        pass_times = [r.pass_s for r in results]
        fast = [value for r in results for value in r.fast_s]
        print(f"workload {workload.name} seed {self.args.seed} "
              f"passes {len(results)}")
        print(f"setup_s: {setup['setup_s']:.4f} s (import "
              f"{setup['import_s']:.3f} s + inputs median of "
              f"{SETUP_REPEATS} {setup['inputs_s']:.3f} s + once "
              f"{setup['once_s']:.3f} s)")
        print(f"{workload.pass_label}: {statistics.median(pass_times):.4f} s "
              f"(median of n={len(pass_times)}, max {max(pass_times):.4f})")
        print(f"{workload.fast_metric}: {statistics.median(fast):.6f} s "
              f"(median of n={len(fast)}, max {max(fast):.6f})")
        for key, value in sorted(results[0].quality.items()):
            print(f"{key}: {value:.6f}")
        for key, value in sorted(results[0].digests.items()):
            print(f"digest {key}: {value}")
        return statistics.median(pass_times)

    def finish(self, metrics: dict, units: dict) -> int:
        checks = self.checks
        for name, (passed, total) in sorted(checks.verdicts.items()):
            verdict = "ok" if passed == total else "FAILED"
            print(f"check {name}: {verdict} ({passed}/{total})")
        attempted = max(checks.attempted, 1)
        print(f"error_rate: {checks.failed / attempted:.6f} "
              f"({checks.failed} of {attempted})")
        print(f"peak_rss_mb: {rss_mb():.1f} MiB")
        print(json.dumps({
            "correct": checks.failed == 0,
            "attempted": attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads
    import_s = time.perf_counter() - PROCESS_START

    runner = Runner(args, workloads)
    setup = runner.setup(import_s)
    runner.warm_up()
    if args.trace:
        return report_traced(runner, setup)
    results = runner.run_timed()
    if not results:
        print("perfbench: every pass failed", file=sys.stderr)
        return 1
    runner.check_digests(results)
    pass_s = runner.report_common(results, setup)
    metrics = {"setup_s": setup["setup_s"], "pass_s": pass_s,
               "peak_rss_mb": rss_mb()}
    units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}
    return runner.finish(metrics, units)


def report_traced(runner: Runner, setup: dict) -> int:
    from layers import (DERIVED, EXACT_COUNTS, FAST_METRICS, REBUILD_LAYERS,
                        derived, layer_names, per_layer_names, unit_of)

    plain, traced, passes, installed = runner.run_traced()
    if not passes or not plain:
        print("perfbench: every traced pass failed", file=sys.stderr)
        return 1
    runner.check_digests(plain + traced)
    runner.report_common(traced, setup)
    n = len(passes)
    # Per-region means over the traced passes.
    regions = {}
    for region in passes[0]["regions"]:
        keys = passes[0]["regions"][region]
        regions[region] = {key: sum(p["regions"][region][key]
                                    for p in passes) / n for key in keys}
    layers = {name: sum(r[name] for r in regions.values())
              for name in layer_names()}
    wall_s = sum(r["wall_s"] for r in regions.values())
    traced_s = sum(r["traced_s"] for r in regions.values())
    generate_total = sum(
        p["per_name"].get("power.traces.PowerTraceGenerator.generate",
                          {"total_s": 0.0})["total_s"] for p in passes) / n
    quality = traced[0].quality
    overhead = (statistics.median(r.pass_s for r in traced)
                / statistics.median(r.pass_s for r in plain) - 1.0) * 100.0
    metrics = dict(layers)
    metrics.update(dict.fromkeys(FAST_METRICS, 0.0))
    # Untraced passes only: the warm campaign rounds run inside a traced
    # region on traced passes.
    metrics[runner.workload.fast_metric] = statistics.median(
        value for r in plain for value in r.fast_s)
    metrics.update(passes[0]["exact"])
    metrics.update(derived(passes[0]["counts"], generate_total))
    metrics["core.leakage_reduction_pct"] = quality.get(
        "leakage_reduction_pct", 0.0)
    metrics["power.area_overhead_pct"] = quality.get("area_overhead_pct", 0.0)
    metrics["trace.coverage_pct"] = 100.0 * traced_s / wall_s
    metrics["trace.overhead_pct"] = overhead

    print(f"traced passes {n}, untraced passes {len(plain)}, "
          f"{len(installed)} functions wrapped")
    for region, values in regions.items():
        print(f"{region}: wall {values['wall_s']:.4f} s per pass, traced "
              f"self time {values['traced_s']:.4f} s; self time by layer "
              "(share of the region's wall time):")
        for name in sorted(layer_names(), key=lambda k: -values[k]):
            if values[name] > 0:
                print(f"  {name:28s} {values[name]:9.4f} s "
                      f"{100.0 * values[name] / values['wall_s']:6.2f} %")
        rebuild = sum(values[name] for name in REBUILD_LAYERS)
        service = sum(values[name] for name in layer_names()
                      if name.startswith(("campaign.", "reliability.")))
        print(f"  per-assessment rebuilds {100.0 * rebuild / values['wall_s']:.2f} %, "
              f"campaign+reliability {100.0 * service / values['wall_s']:.2f} %")
    for name in EXACT_COUNTS + DERIVED:
        print(f"  {name:28s} {metrics[name]}")

    out = runner.workdir / f"trace-{runner.args.workload}-seed{runner.args.seed}.json"
    span_names = sorted({span[0] for p in passes for span in p["spans"]})
    index = {name: i for i, name in enumerate(span_names)}
    with open(out, "w") as handle:
        json.dump({"workload": runner.args.workload,
                   "seed": runner.args.seed,
                   "names": span_names,
                   "passes": [{"per_name": p["per_name"],
                               "spans": [[index[s[0]], s[1], s[2], s[3]]
                                         for s in p["spans"]]}
                              for p in passes]}, handle)
    print(f"spans written to {out.relative_to(ROOT)}")

    names = per_layer_names()
    return runner.finish({name: metrics[name] for name in names},
                         {name: unit_of(name) for name in names})


if __name__ == "__main__":
    sys.exit(main())
