"""Benchmark of the ``repro`` simulator: host time, set-up time and memory.

Usage, from the root of a checkout::

    python3 perfbench/run.py --seed 0                 # all four workloads
    python3 perfbench/run.py --workload detail-btb2 --seed 3 --seconds 10
    python3 perfbench/run.py --workload sampled-warm --seed 3 --trace 1
    python3 perfbench/run.py --self-test

Each workload runs in a fresh process (``worker.py``) on one thread, with
a private trace cache and checkpoint directory under ``.perfbench/``, the
result cache off, and every ``REPRO_*`` variable removed from its
environment.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``sim_ips`` and ``setup_s`` are in seconds of a host running at a fixed
reference speed: a shared host slows this process by up to 2x for minutes
at a time, so ``worker.py`` times a fixed pure-Python loop between timed
spans and divides each span's wall time by the slowdown it shows.  The
uncorrected medians are printed alongside.

An operation fails when its simulated outputs differ from the digest
stored in ``digests.json`` for its (workload, seed), differ between
operations of one run, or -- on ``sampled-resume`` -- differ from the
warming pass that filled the checkpoint store.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
#: One workload's process is stopped after this many seconds.
CHILD_TIMEOUT = 170

UNITS = {
    "sim_ips": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    layer_map = json.loads((HERE / "interactions.json").read_text())
    return {name: entry["unit"]
            for name, entry in layer_map["per_layer"].items()}


def child_env(work: Path) -> dict[str, str]:
    """The environment of a workload process: no inherited ``REPRO_*``.

    ``REPRO_AUDIT`` would turn the auditor on and bypass cache reads,
    ``REPRO_SCALE``/``REPRO_JOBS``/``REPRO_BACKEND`` change what runs, and
    ``REPRO_RELAY``/``REPRO_STATUS`` attach observers.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_RESULTS_CACHE="off",
        REPRO_TRACE_CACHE=str(work / "trace"),
    )
    return env


def run_child(name: str, seed: int, seconds: float, trace: int,
              digests: Path, out: Path) -> dict:
    """Run one workload in a fresh process and return its parsed result."""
    work = out / f"work-{os.getpid()}-{name}"
    work.mkdir(parents=True)
    spans = out / f"spans-{name}-seed{seed}.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work", str(work),
        "--digests", str(digests), "--spans", str(spans),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(work),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tally(outcome: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one workload run."""
    problems = outcome["problems"]
    attempted = len(problems)
    failed = sum(1 for bad in problems if bad)
    if outcome["sanity"]:
        failed = attempted
    return attempted, failed


def report(outcome: dict, trace: int, units: dict[str, str]) -> None:
    """Print one workload's metrics by name, with units."""
    attempted, failed = tally(outcome)
    name, seed = outcome["workload"], outcome["seed"]
    print(f"{name} (seed {seed}, {outcome['records']} records): "
          f"cpi {outcome['cpi']!r}, "
          f"bad_outcome_fraction {outcome['bad_outcome_fraction']!r}")
    stored = outcome["expected_digest"]
    print(f"  digest {outcome['digests'][-1]} "
          f"({'stored ' + stored if stored else 'no stored digest'})")
    for bad in [*outcome["problems"], outcome["sanity"]]:
        for problem in bad:
            print(f"  FAILED: {problem}")
    if trace:
        for metric, value in outcome["metrics"].items():
            print(f"  {metric:30s} {value:.6g} {units[metric]}")
        return
    samples = outcome["samples"]
    rates = sorted(samples["sim_ips"])
    metrics = outcome["metrics"]
    # Throughput is worse when lower: the tail is the low end.
    tail = (f"p{100 * 10 / len(rates):.0f} {rates[10]:.1f}"
            if len(rates) >= 11
            else "no tail percentile: fewer than 11 samples")
    print(f"  sim_ips      {metrics['sim_ips']:.1f} records/s "
          f"(median of {len(rates)} operations; {tail})")
    print(f"  setup_s      {metrics['setup_s']:.4f} s "
          f"(median of {len(samples['setup_s'])} set-ups)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  uncorrected: sim_ips "
          f"{statistics.median(samples['wall_sim_ips']):.1f} records/s, "
          f"setup_s {statistics.median(samples['wall_setup_s']):.4f} s "
          f"(medians of wall time)")
    print(f"  failed_frac  {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} operations)")


def self_test(out: Path) -> int:
    """Plant a wrong digest and check that the run counts as failed."""
    name = "detail-nobtb2"
    planted = out / "planted-digests.json"
    stored = json.loads(DIGESTS.read_text())
    stored.setdefault(name, {})[str(DEFAULT_SEED)] = "0" * 20
    planted.write_text(json.dumps(stored))
    outcome = run_child(name, DEFAULT_SEED, 0.0, 0, planted, out)
    attempted, failed = tally(outcome)
    caught = attempted >= 1 and failed == attempted
    print(f"self-test: planted digest -> {failed} of {attempted} operations "
          f"failed: {'ok' if caught else 'NOT CAUGHT'}")
    return 0 if caught else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the repro simulator's user path.")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that a wrong stored digest fails the run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    if args.self_test:
        return self_test(out)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    units = _per_layer_units() if args.trace else UNITS
    for name in names:
        outcome = run_child(name, args.seed, args.seconds, args.trace,
                            DIGESTS, out)
        report(outcome, args.trace, units)
        runs, bad = tally(outcome)
        attempted += runs
        failed += bad
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in outcome["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
