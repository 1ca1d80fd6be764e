"""``Simulator.feed`` is one run, however the trace is split.

``run``, ``feed`` and ``step`` share one detailed record loop.  That loop
keeps its state in locals, defers the preload clock over quiet records and
remembers the ordering tracker's last sector, so every chunk boundary is a
place where hoisted state must be written back exactly.  These tests split
traces into arbitrary consecutive chunks — empty ones, single records, the
whole trace, lists and one-shot iterators — and require the final
``state_dict()`` and ``SimulationResult`` of one ``run``.  Observers attached
to both sides must see the same events and samples.

The sampled runner feeds each measured window as two pieces (warm-up, then
the measured part); its measurements must equal those of a per-record
reference of the same windows.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import Auditor
from repro.core.config import (
    FilterMode,
    PredictorConfig,
    ZEC12_CONFIG_1,
    ZEC12_CONFIG_2,
)
from repro.engine.params import DEFAULT_TIMING
from repro.engine.simulator import Simulator
from repro.isa.opcodes import BranchKind
from repro.sampling import SamplingPlan, run_sampled
from repro.sampling.runner import _diff_counters
from repro.telemetry import Telemetry
from repro.trace.record import TraceRecord
from repro.workloads.catalog import workload_by_name

SMALL = PredictorConfig(
    btb1_rows=16, btb1_ways=2, btbp_rows=8, btbp_ways=2,
    btb2_rows=64, btb2_ways=2, pht_entries=64, ctb_entries=64,
    fit_entries=4, surprise_bht_entries=64,
    ordering_table_sets=16, ordering_table_ways=2,
)
LINE_BYTES = DEFAULT_TIMING.icache_line_bytes
CONFIGS = {
    "config1": ZEC12_CONFIG_1,
    "config2": ZEC12_CONFIG_2,
    "small": SMALL,
    # Deliveries that start follow-up searches at the transfer clock, and
    # decode-time miss reports: both read preload state mid-branch.
    "small-follow": dataclasses.replace(SMALL, multi_block_transfer=True,
                                        decode_miss_reporting=True),
    # Armed BLOCK-mode waits make every advance count.
    "small-block": dataclasses.replace(SMALL, filter_mode=FilterMode.BLOCK),
}


@lru_cache(maxsize=None)
def _trace(name: str) -> tuple:
    """A short catalog trace, or one with context switches at its joins."""
    tpf = workload_by_name("TPF").trace(scale=0.02)
    if name == "TPF":
        return tuple(tpf[:3000])
    informix = workload_by_name("Informix").trace(scale=0.02)
    return tuple(tpf[:1200] + informix[:1200] + tpf[1200:2400])


def _result_view(result) -> dict:
    return {
        "config": result.config_name,
        "counters": result.counters.state_dict(),
        "search": result.search_stats,
        "btbp": result.btbp_stats,
        "btb2": result.btb2_stats,
        "preload": result.preload_stats,
        "icache": result.icache_stats,
    }


def _is_quiet(previous, record) -> bool:
    """A non-branch record reached sequentially inside the previous line."""
    return (previous is not None and record.kind is None
            and not previous.taken
            and previous.address + previous.length == record.address
            and previous.address // LINE_BYTES == record.address // LINE_BYTES)


def _assert_clock_current(sim, previous, record) -> None:
    """After a quiet record the transfer clock has reached decode time.

    The record loop defers the preload advances of quiet records; whatever
    a hook or a caller sees must not show the deferral.
    """
    if sim.preload is not None and _is_quiet(previous, record):
        assert sim.preload.transfer.clock >= int(sim._cycle)


class _ClockAuditor(Auditor):
    """An auditor that also checks the transfer clock at every record."""

    def __init__(self) -> None:
        super().__init__(interval=97)
        self._previous = None

    def after_step(self, simulator, record) -> None:
        _assert_clock_current(simulator, self._previous, record)
        self._previous = record
        super().after_step(simulator, record)


def _observers():
    return _ClockAuditor(), Telemetry.full(sample_interval=64)


def _observed_view(audit, telemetry) -> dict:
    return {
        "checks": dict(audit.checks_run),
        "events": telemetry.tracer.events,
        "samples": telemetry.sampler.columns,
    }


@lru_cache(maxsize=None)
def _whole_run(trace_name: str, config_name: str, observed: bool):
    audit, telemetry = _observers() if observed else (None, None)
    sim = Simulator(config=CONFIGS[config_name], audit=audit,
                    telemetry=telemetry)
    result = sim.run(_trace(trace_name))
    views = (_observed_view(audit, telemetry) if observed else None)
    return sim.state_dict(), _result_view(result), views


def _chunked_run(trace, cuts, as_iterators, config, engine_mode="object",
                 observed=False):
    audit, telemetry = _observers() if observed else (None, None)
    sim = Simulator(config=config, audit=audit, telemetry=telemetry,
                    engine_mode=engine_mode)
    bounds = [0, *sorted(min(cut, len(trace)) for cut in cuts), len(trace)]
    for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        chunk = list(trace[start:stop])
        if stop - start == 1 and index % 2:
            sim.step(chunk[0])
        else:
            sim.feed(iter(chunk) if as_iterators[index % len(as_iterators)]
                     else chunk)
        if 0 < stop <= len(trace):
            _assert_clock_current(sim, trace[stop - 2] if stop > 1 else None,
                                  trace[stop - 1])
    result = sim.finish()
    views = _observed_view(audit, telemetry) if observed else None
    return sim.state_dict(), _result_view(result), views


def cut_points(size: int):
    """Chunk boundaries: duplicates give empty chunks, neighbours single
    records, no cuts the whole trace."""
    return st.lists(st.integers(0, size), max_size=12)


def _check(trace_name, config_name, cuts, as_iterators, observed=False,
           engine_mode="object"):
    trace = _trace(trace_name)
    state, result, views = _chunked_run(
        trace, cuts, as_iterators, CONFIGS[config_name],
        engine_mode=engine_mode, observed=observed,
    )
    expected_state, expected_result, expected_views = _whole_run(
        trace_name, config_name, observed
    )
    assert result == expected_result
    assert state == expected_state
    assert views == expected_views


@settings(max_examples=30, deadline=None)
@given(config_name=st.sampled_from(sorted(CONFIGS)),
       trace_name=st.sampled_from(["TPF", "switches"]),
       cuts=cut_points(3600),
       as_iterators=st.lists(st.booleans(), min_size=1, max_size=3))
def test_any_split_equals_one_run(config_name, trace_name, cuts,
                                  as_iterators):
    _check(trace_name, config_name, cuts, as_iterators)


@settings(max_examples=12, deadline=None)
@given(config_name=st.sampled_from(sorted(CONFIGS)),
       cuts=cut_points(3600),
       as_iterators=st.lists(st.booleans(), min_size=1, max_size=3))
def test_any_split_equals_one_run_with_observers(config_name, cuts,
                                                 as_iterators):
    """Audit and telemetry see identical state at every record."""
    _check("switches", config_name, cuts, as_iterators, observed=True)


@settings(max_examples=12, deadline=None)
@given(config_name=st.sampled_from(sorted(CONFIGS)),
       cuts=cut_points(3600))
def test_batched_split_equals_object_run(config_name, cuts):
    _check("switches", config_name, cuts, [False], engine_mode="batched")


def test_context_switch_trace_switches():
    """The joined trace really exercises the context-switch path."""
    state, _, _ = _whole_run("switches", "config2", False)
    assert state["counters"]["context_switches"] >= 2


def test_single_records_and_empty_feeds():
    trace = _trace("switches")
    sim = Simulator(config=ZEC12_CONFIG_2)
    sim.feed(())
    for record in trace:
        sim.step(record)
        sim.feed([])
    result = sim.finish()
    expected_state, expected_result, _ = _whole_run("switches", "config2",
                                                    False)
    assert _result_view(result) == expected_result
    assert sim.state_dict() == expected_state


def test_step_loop_equals_run_with_followed_blocks():
    """Per-record ``step`` starts each record afresh; ``run`` carries the
    deferred preload state across all of them.

    Followed-block searches start at the transfer clock of the delivery,
    so a deferral past due work would show in the resulting state.
    """
    trace = workload_by_name("CB84").trace(scale=0.02)[:20000]
    config = CONFIGS["small-follow"]
    whole = Simulator(config=config)
    whole.run(trace)
    stepped = Simulator(config=config)
    for record in trace:
        stepped.step(record)
    stepped.finish()
    assert stepped.state_dict() == whole.state_dict()
    assert whole.preload.followed_blocks > 0


def test_taken_branch_without_target_raises_with_state_written_back():
    """The malformed record raises; the records before it are kept."""
    trace = list(_trace("TPF")[:500])
    bad = TraceRecord(address=trace[-1].next_address, length=4,
                      kind=BranchKind.COND, taken=True, target=None)
    for consume in (Simulator.feed, Simulator.warm_run):
        sim = Simulator(config=ZEC12_CONFIG_2)
        with pytest.raises(ValueError, match="has no target"):
            consume(sim, iter(trace + [bad]))
        reference = Simulator(config=ZEC12_CONFIG_2)
        consume(reference, trace)
        assert sim.state_dict() == reference.state_dict()


def _per_record_intervals(sim, trace, intervals):
    """The measured windows stepped one record at a time, as a reference."""
    measurements = []
    position = 0
    for interval in intervals:
        sim.warm_run(trace[position:interval.warm_start])
        sim.begin_interval(trace[interval.warm_start].address)
        for record in trace[interval.warm_start:interval.start]:
            sim.step(record)
        before = sim.counters.state_dict()
        cycle_before = sim._cycle
        for record in trace[interval.start:interval.stop]:
            sim.step(record)
        delta = _diff_counters(before, sim.counters.state_dict())
        delta["cycles"] = sim._cycle - cycle_before
        measurements.append((interval.index, interval.start, interval.stop,
                             delta))
        position = interval.stop
    return measurements


def test_sampled_windows_equal_per_record_reference():
    trace = workload_by_name("TPF").trace(scale=0.05)
    plan = SamplingPlan(interval=300, period=4000, warmup=250)
    sampled = run_sampled(trace, config=ZEC12_CONFIG_2, plan=plan)
    reference = Simulator(config=ZEC12_CONFIG_2)
    expected = _per_record_intervals(reference, trace,
                                     plan.intervals(len(trace)))
    assert [(m.index, m.start, m.stop, m.delta)
            for m in sampled.measurements] == expected
    assert sampled.detailed_records == sum(
        stop - start + plan.warmup for _, start, stop, _ in expected
    )
    reference_result = reference.finish()
    assert sampled.result.search_stats == reference_result.search_stats
    assert sampled.result.btb2_stats == reference_result.btb2_stats
    assert sampled.result.preload_stats == reference_result.preload_stats
