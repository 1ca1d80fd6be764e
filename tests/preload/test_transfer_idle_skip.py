"""The transfer engine's idle skip is exact.

``TransferEngine.advance`` returns at once while the clock is below the
next-event lower bound.  These tests drive random enqueue/advance
schedules and check that where and how often the engine is advanced
changes nothing observable: queue and in-flight state, the order and
completion cycles of row deliveries, and the installed entries.
"""

import math
import random

import pytest

from repro.btb.btb2 import BTB2
from repro.btb.entry import BTBEntry
from repro.preload.tracker import TrackerFile, TrackerState
from repro.preload.transfer import TransferEngine

BLOCK = 0x80_0000
HORIZON = 700


class _NoSkipEngine(TransferEngine):
    """Reference engine: every ``advance`` does the full issue/complete."""

    def advance(self, cycle: int) -> None:
        self._next_event = -math.inf
        super().advance(cycle)


class _RowLog:
    """Telemetry stand-in: records every row delivery."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, int, int]] = []

    def on_btb2_row(self, completion: int, row_address: int, hits: int) -> None:
        self.rows.append((completion, row_address, hits))


class Rig:
    """A transfer engine over a seeded BTB2, three trackers and logs."""

    def __init__(self, seed: int, engine_class=TransferEngine,
                 refill: bool = False) -> None:
        rng = random.Random(seed)
        self.btb2 = BTB2(rows=256, ways=2)
        for _ in range(400):
            self.btb2.install(BTBEntry(
                address=BLOCK + rng.randrange(0, 8192, 2), target=0x1
            ))
        self.trackers = TrackerFile(count=3)
        for slot, tracker in enumerate(self.trackers.trackers):
            tracker.state = TrackerState.FULL
            tracker.block = BLOCK + slot * 4096
        self.installed: list[int] = []
        self.drained: list[tuple[int, int]] = []
        self.refill = refill
        self.engine = engine_class(
            btb2=self.btb2,
            install=lambda entry: self.installed.append(entry.address),
            on_tracker_drained=self._drained,
        )
        self.rows = _RowLog()
        self.engine.telemetry = self.rows

    def _drained(self, tracker, cycle: int) -> None:
        self.drained.append((self.trackers.slot(tracker), cycle))
        if self.refill:
            # Like a partial search upgrading to a full one: enqueue more
            # work from inside the completion callback.
            self.engine.enqueue_sector(
                tracker, tracker.block + (cycle % 32) * 128,
                eligible_cycle=cycle + 7, priority=1,
            )

    def enqueue(self, event) -> None:
        _, slot, sector, priority, rows = event
        tracker = self.trackers.trackers[slot]
        self.engine.enqueue_sector(
            tracker, tracker.block + sector * 128,
            eligible_cycle=event[0] + 7, priority=priority, rows=rows,
        )

    def state(self) -> dict:
        """The engine snapshot with its heap lists in pop order.

        ``state_dict`` stores the heaps in their internal layout, which
        depends on push/pop history; pop order is total, so sorting gives
        the canonical form.
        """
        state = self.engine.state_dict(self.trackers.slot)
        return dict(state, queue=sorted(state["queue"]),
                    inflight=sorted(state["inflight"]))

    def observed(self) -> tuple:
        return (self.state(), self.rows.rows, self.installed, self.drained,
                self.trackers.state_dict(), self.btb2.state_dict())


def schedule(seed: int) -> list[tuple[int, int, int, int, int]]:
    """Sorted ``(cycle, slot, sector, priority, rows)`` enqueue events."""
    rng = random.Random(seed)
    return sorted(
        (rng.randrange(HORIZON - 200), rng.randrange(3), rng.randrange(32),
         rng.randrange(6), rng.randint(1, 4))
        for _ in range(rng.randint(5, 40))
    )


def run_sparse(rig: Rig, events, stops: set[int], checks=None) -> None:
    """Advance at every enqueue cycle and at ``stops``, then to the end."""
    by_cycle: dict[int, list] = {}
    for event in events:
        by_cycle.setdefault(event[0], []).append(event)
    for cycle in sorted(set(by_cycle) | stops | {HORIZON}):
        rig.engine.advance(cycle)
        if checks is not None:
            checks[cycle] = rig.state()
        for event in by_cycle.get(cycle, ()):
            rig.enqueue(event)
    rig.engine.drain()


@pytest.mark.parametrize("seed", range(12))
def test_sparse_advances_equal_advancing_every_cycle(seed):
    events = schedule(seed)
    rng = random.Random(1000 + seed)
    stops = {rng.randrange(HORIZON) for _ in range(rng.randint(0, 30))}

    dense = Rig(seed)
    dense_states = {}
    run_sparse(dense, events, set(range(HORIZON)), dense_states)
    sparse = Rig(seed)
    sparse_states = {}
    run_sparse(sparse, events, stops, sparse_states)

    assert sparse.observed() == dense.observed()
    for cycle, state in sparse_states.items():
        assert state == dense_states[cycle], cycle
    assert dense.engine.rows_read > 0


@pytest.mark.parametrize("seed", range(12))
def test_skip_matches_an_engine_that_never_skips(seed):
    """Also with reads enqueued from inside the completion callback."""
    events = schedule(seed)
    rng = random.Random(2000 + seed)
    stops = {rng.randrange(HORIZON) for _ in range(rng.randint(0, 60))}
    skipping = Rig(seed, refill=True)
    skipping_states = {}
    run_sparse(skipping, events, stops, skipping_states)
    reference = Rig(seed, _NoSkipEngine, refill=True)
    reference_states = {}
    run_sparse(reference, events, stops, reference_states)
    assert skipping.observed() == reference.observed()
    assert skipping_states == reference_states


@pytest.mark.parametrize("seed", range(8))
def test_restore_mid_transfer_continues_identically(seed):
    events = schedule(seed)
    rng = random.Random(3000 + seed)
    stops = {rng.randrange(HORIZON) for _ in range(rng.randint(0, 30))}
    whole = Rig(seed)
    whole_states = {}
    run_sparse(whole, events, stops, whole_states)

    # Stop at the first advance point with reads queued or in flight.
    first = Rig(seed)
    by_cycle: dict[int, list] = {}
    for event in events:
        by_cycle.setdefault(event[0], []).append(event)
    cycles = sorted(set(by_cycle) | stops | {HORIZON})
    split = None
    for position, cycle in enumerate(cycles):
        first.engine.advance(cycle)
        for event in by_cycle.get(cycle, ()):
            first.enqueue(event)
        if first.engine.busy and first.engine.inflight_rows:
            split = position + 1
            break
    assert split is not None

    resumed = Rig(seed)
    resumed.btb2.load_state_dict(first.btb2.state_dict())
    resumed.trackers.load_state_dict(first.trackers.state_dict())
    resumed.engine.load_state_dict(
        first.state(), lambda slot: resumed.trackers.trackers[slot]
    )
    resumed.rows.rows = list(first.rows.rows)
    resumed.installed = list(first.installed)
    resumed.drained = list(first.drained)
    for cycle in cycles[split:]:
        resumed.engine.advance(cycle)
        assert resumed.state() == whole_states[cycle], cycle
        for event in by_cycle.get(cycle, ()):
            resumed.enqueue(event)
    resumed.engine.drain()
    assert resumed.observed() == whole.observed()


def test_busy_tracks_queue_and_inflight():
    rig = Rig(0)
    assert not rig.engine.busy
    tracker = rig.trackers.trackers[0]
    rig.engine.enqueue_sector(tracker, tracker.block, eligible_cycle=5,
                              priority=0, rows=1)
    assert rig.engine.busy
    rig.engine.advance(5)
    assert rig.engine.pending_rows == 0 and rig.engine.inflight_rows == 1
    assert rig.engine.busy
    rig.engine.advance(13)
    assert not rig.engine.busy
