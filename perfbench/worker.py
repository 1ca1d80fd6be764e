"""Run one benchmark workload in this process and print its result as JSON.

Started by ``run.py`` in a fresh process with a scrubbed environment, so
the peak RSS it reports belongs to this workload alone.  It drives only
the public entry points a user of ``repro simulate`` reaches:
``WorkloadSpec.trace`` and ``run_workload`` with default engine arguments.

An untraced run (``--trace 0``) times set-up several times and then the
timed operation -- one ``run_workload`` call, trace-cache load included --
until ``--seconds`` have passed.  A traced run (``--trace 1``) times one
set-up and the operation under :class:`layers.LayerTracer`, plus one
untraced operation to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from repro.core.config import ZEC12_CONFIG_1, ZEC12_CONFIG_2
from repro.engine.simulator import Simulator
from repro.experiments import common
from repro.sampling import SamplingPlan
from repro.workloads.catalog import workload_by_name

from layers import LayerTracer
from workloads import SETUPS, WORKLOADS

CONFIGS = {1: ZEC12_CONFIG_1, 2: ZEC12_CONFIG_2}
#: Added to every catalog seed per unit of benchmark seed; seed 0 is the
#: catalog trace itself.
SEED_STRIDE = 7919
#: Sampling provenance that differs between a warming and a resuming run of
#: the same plan; everything else in a result must match between them.
CHECKPOINT_TRAFFIC = ("checkpoints_loaded", "checkpoints_saved")
#: Iterations of the host-speed calibration loop (:func:`calibration_s`).
CALIBRATION_LOOPS = 200_000
#: :func:`calibration_s` on an unloaded 2-vCPU Intel Xeon VM under Python
#: 3.11.  Reported times are scaled to a host of this speed.
REFERENCE_CALIBRATION_S = 0.021
#: Calibration time after a timed span, as a share of the span's wall time.
CALIBRATION_SHARE = 0.05


def derive_spec(name: str, seed: int):
    """The catalog workload ``name`` with every generator seed moved."""
    spec = workload_by_name(name)
    offset = SEED_STRIDE * seed

    def moved(shape):
        return dataclasses.replace(shape, seed=shape.seed + offset)

    return dataclasses.replace(
        spec,
        shape=moved(spec.shape),
        profile=moved(spec.profile),
        mix_shape=moved(spec.mix_shape) if spec.mix_shape else None,
    )


class FinishCapture:
    """Keeps the last ``Simulator.finish`` result for the output digest.

    ``run_workload`` returns only a summary; the digest also covers every
    counter and structure statistic, which only the simulation result holds.
    One extra call per run.
    """

    def __init__(self) -> None:
        self.result = None
        original = Simulator.finish

        def finish(sim):
            self.result = original(sim)
            return self.result

        Simulator.finish = finish


def summarize(run, result) -> dict:
    """Every simulated output of one run, checkpoint traffic excluded."""
    sampling = None
    if run.sampling is not None:
        sampling = {key: value for key, value in run.sampling.items()
                    if key not in CHECKPOINT_TRAFFIC}
    return {
        "cpi": run.cpi,
        "bad_outcome_fraction": run.bad_fraction,
        "instructions": run.instructions,
        "branches": run.branches,
        "outcome_fractions": run.outcome_fractions,
        "preload_stats": run.preload_stats,
        "sampling": sampling,
        "counters": result.counters.state_dict(),
        "search_stats": result.search_stats,
        "btbp_stats": result.btbp_stats,
        "btb2_stats": result.btb2_stats,
        "icache_stats": result.icache_stats,
    }


def digest(summary: dict) -> str:
    text = json.dumps(summary, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class Bench:
    """One workload at one seed, in a private directory."""

    def __init__(self, name: str, seed: int, work: Path,
                 expected: str | None) -> None:
        #: Stored digest of this (workload, seed), when one is recorded.
        self.expected = expected
        self.workload = WORKLOADS[name]
        self.spec = derive_spec(self.workload.trace, seed)
        self.config = CONFIGS[self.workload.config]
        self.plan = SamplingPlan() if self.workload.sampled else None
        self.scale = self.workload.scale
        self.work = work
        self.capture = FinishCapture()
        self.records = self.spec.scaled_length(self.scale)
        self.intervals = (len(self.plan.intervals(self.records))
                          if self.plan else 0)
        self.checkpoint_dir: Path | None = None
        self.context_switches = 0
        #: Summary of the set-up's checkpoint-writing pass (resume only).
        self.setup_summary: dict | None = None
        self._setups = 0
        #: Output digest of every operation, in order.
        self.digests: list[str] = []

    def records_warmed(self) -> int:
        """Records the sampled runner hands to ``warm_run`` in one pass."""
        warmed, position = 0, 0
        for interval in self.plan.intervals(self.records):
            warmed += interval.warm_start - position
            position = interval.stop
        return warmed

    def setup(self) -> float:
        """Build the trace into a fresh cache; on resume, fill a store."""
        index = self._setups
        self._setups += 1
        trace_dir = self.work / f"trace{index}"
        checkpoint_dir = self.work / f"ckpt{index}"
        os.environ["REPRO_TRACE_CACHE"] = str(trace_dir)
        gc.collect()
        started = perf_counter()
        trace = self.spec.trace(self.scale)
        if self.workload.resume:
            run = common.run_workload(
                self.spec, self.config, scale=self.scale, sampling=self.plan,
                checkpoint_dir=str(checkpoint_dir))
            self.setup_summary = summarize(run, self.capture.result)
        elapsed = perf_counter() - started
        if len(trace) != self.records:
            raise RuntimeError(f"trace has {len(trace)} records, "
                               f"expected {self.records}")
        # Records that do not follow their predecessor: what the simulator
        # counts as context switches in detail and resynchronizes on warm.
        self.context_switches = sum(
            1 for before, record in zip(trace, trace[1:])
            if record.address != before.next_address)
        # Later operations use the newest set-up; drop the older ones.
        for stale in (self.work / f"trace{index - 1}",
                      self.work / f"ckpt{index - 1}"):
            shutil.rmtree(stale, ignore_errors=True)
        self.checkpoint_dir = checkpoint_dir if self.workload.resume else None
        return elapsed

    def operation(self) -> tuple[float, dict, list[str]]:
        """One timed ``run_workload`` call: (wall s, summary, problems)."""
        gc.collect()
        started = perf_counter()
        run = common.run_workload(
            self.spec, self.config, scale=self.scale, sampling=self.plan,
            checkpoint_dir=(str(self.checkpoint_dir)
                            if self.checkpoint_dir else None))
        elapsed = perf_counter() - started
        summary = summarize(run, self.capture.result)
        loaded = (run.sampling or {}).get("checkpoints_loaded", 0)
        return elapsed, summary, self.check(summary, loaded)

    def check(self, summary: dict, loaded: int) -> list[str]:
        """Reasons ``summary`` is wrong (empty when it is right)."""
        problems = []
        want_loaded = self.intervals if self.workload.resume else 0
        if loaded != want_loaded:
            problems.append(f"{loaded} checkpoints loaded, "
                            f"expected {want_loaded}")
        if summary["instructions"] != self.records:
            problems.append(f"{summary['instructions']} instructions, "
                            f"expected {self.records}")
        if self.setup_summary is not None and summary != self.setup_summary:
            problems.append("resumed estimates differ from the warming pass")
        output = digest(summary)
        if self.digests and output != self.digests[0]:
            problems.append(f"digest {output} differs from the first "
                            f"operation's {self.digests[0]}")
        self.digests.append(output)
        if self.expected is not None and output != self.expected:
            problems.append(f"digest {output} != stored {self.expected}")
        return problems


def checkpoint_bytes(directory: Path | None) -> int:
    if directory is None or not directory.exists():
        return 0
    return sum(path.stat().st_size for path in directory.iterdir())


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now."""
    table: dict[int, int] = {}
    total = 0
    started = perf_counter()
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
        table[i & 1023] = total
    return perf_counter() - started


class HostSpeed:
    """Slowdown of the shared host while one timed span ran.

    Neighbours on a shared host slow every instruction of this process for
    seconds to minutes at a time, by up to 2x; the simulator and the
    calibration loop of :func:`calibration_s` slow by about the same
    factor.  Between timed spans the loop runs for :data:`CALIBRATION_SHARE`
    of the previous span's wall time (at least once); a span's slowdown is
    the mean loop time on either side of it over
    :data:`REFERENCE_CALIBRATION_S`.
    """

    def __init__(self) -> None:
        self.last = self.calibrate(0.0)

    @staticmethod
    def calibrate(span_s: float) -> float:
        times = [calibration_s()]
        while sum(times) < CALIBRATION_SHARE * span_s:
            times.append(calibration_s())
        return statistics.fmean(times)

    def slowdown(self, span):
        """Run ``span()``; return its result and the host slowdown."""
        before = self.last
        started = perf_counter()
        result = span()
        self.last = self.calibrate(perf_counter() - started)
        return result, (before + self.last) / 2 / REFERENCE_CALIBRATION_S


def untraced(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics, in seconds of a host running at reference speed.

    Set-up runs :data:`SETUPS` times, then operations are timed until
    ``seconds`` have passed.
    """
    host = HostSpeed()
    setups, setup_walls = [], []
    for _ in range(SETUPS):
        wall, slowdown = host.slowdown(bench.setup)
        setup_walls.append(wall)
        setups.append(wall / slowdown)
    walls, rates, problems = [], [], []
    measuring = perf_counter()
    while not walls or perf_counter() - measuring < seconds:
        (wall, summary, bad), slowdown = host.slowdown(bench.operation)
        walls.append(wall)
        rates.append(bench.records * slowdown / wall)
        problems.append(bad)
    return {
        "metrics": {
            "sim_ips": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        },
        "samples": {"sim_ips": rates, "setup_s": setups,
                    "wall_sim_ips": [bench.records / wall for wall in walls],
                    "wall_setup_s": setup_walls},
        "digests": bench.digests,
        "problems": problems,
        "sanity": [],
        "summary": summary,
    }


def traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    tracer = LayerTracer()
    tracer.install()
    span = tracer.open_span("setup", None)
    bench.setup()
    tracer.close_span(span)
    setup = tracer.take()
    ckpt_bytes = checkpoint_bytes(bench.checkpoint_dir)

    tracer.uninstall()
    baseline, summary, bad = bench.operation()
    problems = [bad]

    tracer.install()
    walls = []
    measuring = perf_counter()
    while not walls or perf_counter() - measuring < seconds:
        span = tracer.open_span("operation", None)
        wall, summary, bad = bench.operation()
        tracer.close_span(span)
        walls.append(wall)
        problems.append(bad)
    ops = tracer.take()
    tracer.uninstall()
    tracer.write_spans(spans_path)

    n = len(walls)
    metrics = layer_metrics(bench, setup, ckpt_bytes, ops, n, summary)
    metrics["bench.trace_overhead"] = statistics.median(walls) / baseline
    metrics["bench.unattributed_s"] = (sum(walls) - ops.claimed) / n
    return {
        "metrics": metrics,
        "samples": {"traced_wall_s": walls, "untraced_wall_s": [baseline]},
        "digests": bench.digests,
        "problems": problems,
        "sanity": sanity(metrics, bench),
        "summary": summary,
        "spans": str(spans_path),
    }


def layer_metrics(bench: Bench, setup, ckpt_bytes: int, ops, n: int,
                  summary: dict) -> dict:
    """Per-layer metrics: set-up ones per set-up, the rest per operation."""
    preload = summary["preload_stats"]
    search = summary["search_stats"]
    btb2 = summary["btb2_stats"]
    warmed = bench.records_warmed() if bench.plan else 0
    warm_total = ops.total_of("Simulator.warm_run") / n
    load_total = ops.total_of("load_trace") / n
    advances = ops.calls_of("PreloadEngine.advance")

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "workloads.generate_s": setup.total_of("WorkloadSpec.generate"),
        "trace.save_s": setup.total_of("save_trace"),
        "trace.load_s": load_total,
        "trace.load_rps": ratio(bench.records, load_total),
        "trace.context_switches": bench.context_switches,
        "engine.detail_self_s": ops.self_of(
            "Simulator.run", "Simulator.step", "Simulator.begin_interval",
            "Simulator.finish") / n,
        "engine.detail_records": ops.calls_of("Simulator.step") / n,
        "engine.warm_self_s": ops.self_of("Simulator.warm_") / n,
        "engine.warm_rps": ratio(warmed, warm_total),
        "core.search_self_s": ops.self_of("LookaheadSearch.") / n,
        "core.hierarchy_self_s": ops.self_of("FirstLevelPredictor.") / n,
        "core.searches": search["searches"],
        "core.empty_search_frac": ratio(search["empty_searches"],
                                        search["searches"]),
        "core.miss_reports": search["miss_reports"],
        "btb.self_s": ops.layer_self("btb") / n,
        "btb.calls": ops.layer_calls("btb") / n,
        "btb.btb2_transfer_hits": btb2.get("transfer_hits", 0),
        "btb.btb2_occupancy": ratio(btb2.get("occupancy", 0),
                                    bench.config.btb2_capacity
                                    if bench.config.btb2_enabled else 0),
        "preload.self_s": ops.layer_self("preload") / n,
        "preload.advance_calls": advances / n,
        "preload.idle_advance_frac": ratio(ops.idle_advances, advances),
        "preload.rows_read": preload.get("rows_read", 0),
        "preload.entries_transferred": preload.get("entries_transferred", 0),
        "preload.entries_per_row": ratio(preload.get("entries_transferred", 0),
                                         preload.get("rows_read", 0)),
        "preload.dropped_miss_reports": preload.get("dropped_miss_reports", 0),
        "caches.self_s": ops.layer_self("caches") / n,
        "caches.icache_miss_rate": summary["icache_stats"]["miss_rate"],
        "sampling.self_s": ops.layer_self("sampling") / n,
        "sampling.ckpt_load_s": ops.total_of("CheckpointStore.load") / n,
        "sampling.state_restore_s": ops.total_of(
            "Simulator.load_state_dict") / n,
        "sampling.ckpt_loaded": ops.checkpoints_loaded / n,
        "sampling.ckpt_save_s": setup.total_of("CheckpointStore.save",
                                               "Simulator.state_dict"),
        "sampling.ckpt_bytes": ckpt_bytes,
        "experiments.self_s": ops.layer_self("experiments") / n,
    }


def sanity(metrics: dict, bench: Bench) -> list[str]:
    """Each workload provably exercises the layers it was picked for."""
    problems = []

    def need(ok: bool, text: str) -> None:
        if not ok:
            problems.append(f"sanity: {text}")

    workload = bench.workload
    if workload.config == 1:
        need(metrics["preload.self_s"] == 0,
             "preload.self_s is not zero without BTB2")
    else:
        need(metrics["preload.self_s"] > 0, "preload.self_s is zero")
    if not workload.sampled:
        need(metrics["engine.warm_self_s"] == 0,
             "engine.warm_self_s is not zero on a detailed run")
    expected_loaded = bench.intervals if workload.resume else 0
    need(metrics["sampling.ckpt_loaded"] == expected_loaded,
         f"sampling.ckpt_loaded is {metrics['sampling.ckpt_loaded']}, "
         f"expected {expected_loaded}")
    if workload.resume:
        need(metrics["engine.warm_self_s"] == 0,
             "engine.warm_self_s is not zero on a resumed run")
    elif workload.sampled:
        need(metrics["engine.warm_self_s"] > 0, "engine.warm_self_s is zero")
    if bench.spec.mix_shape is not None:
        need(metrics["trace.context_switches"] > 0,
             "no context switches on a time-sliced mix")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--digests", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    stored = json.loads(args.digests.read_text())
    expected = stored.get(args.workload, {}).get(str(args.seed))
    bench = Bench(args.workload, args.seed, args.work, expected)
    if args.trace:
        outcome = traced(bench, args.seconds, args.spans)
    else:
        outcome = untraced(bench, args.seconds)
    summary = outcome.pop("summary")
    outcome.update(
        workload=args.workload,
        seed=args.seed,
        records=bench.records,
        intervals=bench.intervals,
        cpi=summary["cpi"],
        bad_outcome_fraction=summary["bad_outcome_fraction"],
        expected_digest=expected,
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
