"""BTB2 bulk transfer engine (sections 3.6-3.7 timing).

"Upon a BTB1 miss, the fastest the BTB2 search can be started is in the b10
cycle.  This is 7 cycles after the miss is detected in the b3 cycle of the
search process.  The BTB2 search itself takes 8 cycles.  Accesses are
pipelined such that one BTB2 row is searched each cycle once searching is
underway.  Therefore, a full 4 KB bulk transfer takes 128 + 8 = 136 cycles."

The engine owns a priority queue of pending row reads (priority bands
implement the cross-block steering arbitration of 3.7), issues at most one
row per cycle, completes each read ``SEARCH_PIPELINE_CYCLES`` later, and on
completion moves every tag-matching BTB2 entry into the BTBP.

Time is advanced lazily: the simulator calls :meth:`advance` with its
current clock before any structure probe, so transferred entries become
visible exactly at their completion cycles.  Most of those calls find
nothing to do, so the engine keeps a lower bound on the cycle of its next
issue or completion (``_next_event``) and returns at once before it.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.btb.btb2 import BTB2
from repro.btb.entry import BTBEntry
from repro.core.config import ExclusivityMode
from repro.isa.address import ROW_BYTES
from repro.preload.tracker import SearchTracker

#: Delay from miss detection (b3) to the first BTB2 row read (b10).
MISS_TO_SEARCH_START = 7
#: Pipeline depth of one BTB2 row search.
SEARCH_PIPELINE_CYCLES = 8
#: Full 4 KB bulk transfer: 128 rows + pipeline depth.
FULL_BLOCK_TRANSFER_CYCLES = 128 + SEARCH_PIPELINE_CYCLES


class TransferEngine:
    """One-row-per-cycle pipelined BTB2 reader with priority arbitration."""

    def __init__(
        self,
        btb2: BTB2,
        install: Callable[[BTBEntry], None],
        exclusivity: ExclusivityMode = ExclusivityMode.SEMI_EXCLUSIVE,
        on_tracker_drained: Callable[[SearchTracker, int], None] | None = None,
    ) -> None:
        self.btb2 = btb2
        self.install = install
        self.exclusivity = exclusivity
        self.on_tracker_drained = on_tracker_drained
        # Queued reads: (priority, sequence, row_address, eligible_cycle,
        # tracker).  ``sequence`` is unique, so heap order never compares
        # trackers.
        self._queue: list[tuple[int, int, int, int, SearchTracker]] = []
        self._sequence = 0
        # In-flight reads: (completion_cycle, sequence, row_address, tracker).
        self._inflight: list[tuple[int, int, int, SearchTracker]] = []
        self._next_issue_cycle = 0
        # No issue or completion can happen before this cycle (infinity
        # when nothing is queued or in flight).
        self._next_event: float = math.inf
        self.clock = 0
        self.rows_read = 0
        self.entries_transferred = 0
        #: Optional :class:`repro.telemetry.Telemetry`; ``None`` = no tracing.
        self.telemetry = None
        #: Optional lockstep observer (:mod:`repro.oracle.differential`);
        #: ``None`` = no observation.
        self.probe = None

    # -- enqueue -------------------------------------------------------------

    def enqueue_sector(
        self,
        tracker: SearchTracker,
        sector_address: int,
        eligible_cycle: int,
        priority: int,
        rows: int = 4,
    ) -> int:
        """Queue ``rows`` sequential row reads starting at ``sector_address``.

        Rows already enqueued for this tracker activation are skipped (the
        partial-search rows are not re-read on upgrade to a full search).
        Returns the number of rows actually queued.
        """
        queued = 0
        for step in range(rows):
            row_address = sector_address + step * ROW_BYTES
            if row_address in tracker.enqueued_rows:
                continue
            tracker.enqueued_rows.add(row_address)
            tracker.outstanding_rows += 1
            self._sequence += 1
            heapq.heappush(
                self._queue,
                (priority, self._sequence, row_address, eligible_cycle,
                 tracker),
            )
            queued += 1
        if queued:
            # A lower bound: the new read may not be the head, in which
            # case the head issues no earlier than this anyway.
            self._next_event = min(
                self._next_event, max(self._next_issue_cycle, eligible_cycle)
            )
        return queued

    # -- time ----------------------------------------------------------------

    def advance(self, cycle: int) -> None:
        """Issue and complete row reads up to ``cycle`` (monotonic)."""
        if cycle > self.clock:
            self.clock = cycle
        if self.clock < self._next_event:
            return
        self._issue_until(self.clock)
        self._complete_until(self.clock)
        self._update_next_event()

    def _update_next_event(self) -> None:
        """Recompute ``_next_event`` exactly from the queue and in-flight."""
        upcoming = math.inf
        if self._queue:
            upcoming = max(self._next_issue_cycle, self._queue[0][3])
        if self._inflight and self._inflight[0][0] < upcoming:
            upcoming = self._inflight[0][0]
        self._next_event = upcoming

    @property
    def next_event(self) -> float:
        """No issue or completion can happen before this cycle.

        Infinity when nothing is queued or in flight.  Below it,
        :meth:`advance` only raises :attr:`clock`.
        """
        return self._next_event

    @property
    def busy(self) -> bool:
        """Whether any row read is queued or in flight."""
        return bool(self._queue or self._inflight)

    def _issue_until(self, cycle: int) -> None:
        queue = self._queue
        while queue:
            _, sequence, row_address, eligible, tracker = queue[0]
            issue = max(self._next_issue_cycle, eligible)
            if issue > cycle:
                break
            heapq.heappop(queue)
            self._next_issue_cycle = issue + 1
            self.rows_read += 1
            heapq.heappush(
                self._inflight,
                (issue + SEARCH_PIPELINE_CYCLES, sequence, row_address,
                 tracker),
            )

    def _complete_until(self, cycle: int) -> None:
        while self._inflight and self._inflight[0][0] <= cycle:
            completion, _, row_address, tracker = heapq.heappop(self._inflight)
            hits = self._deliver_row(row_address)
            tracker.transferred_entries += hits
            if self.telemetry is not None:
                self.telemetry.on_btb2_row(completion, row_address, hits)
            tracker.outstanding_rows -= 1
            if (
                tracker.outstanding_rows == 0
                and self.on_tracker_drained is not None
            ):
                self.on_tracker_drained(tracker, completion)

    def _deliver_row(self, row_address: int) -> int:
        """Read one BTB2 row and install every hit into the first level.

        Returns the number of entries installed.
        """
        hits = self.btb2.search_row(row_address)
        for entry in hits:
            if self.exclusivity is ExclusivityMode.INCLUSIVE:
                self.btb2.touch(entry)
            else:
                self.btb2.demote(entry)
            self.btb2.transfer_hits += 1
            self.entries_transferred += 1
            self.install(entry.clone())
        if self.probe is not None:
            self.probe.on_row_delivered(
                row_address, [entry.address for entry in hits]
            )
        return len(hits)

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self, slot_of: Callable[[SearchTracker], int]) -> dict:
        """Snapshot queue/in-flight state with trackers encoded by slot.

        Queued and in-flight reads hold live tracker references; ``slot_of``
        maps them to their stable :class:`~repro.preload.tracker.TrackerFile`
        slot indices so the snapshot is pure data.  Heap lists are stored in
        their internal order — pop order is total ((priority, sequence) /
        (completion, sequence)), so rebuilding the heaps from any order is
        behavior-identical.
        """
        return {
            "queue": [
                [priority, sequence, row_address, eligible_cycle,
                 slot_of(tracker)]
                for priority, sequence, row_address, eligible_cycle, tracker
                in self._queue
            ],
            "inflight": [
                [completion, sequence, row_address, slot_of(tracker)]
                for completion, sequence, row_address, tracker in self._inflight
            ],
            "sequence": self._sequence,
            "next_issue_cycle": self._next_issue_cycle,
            "clock": self.clock,
            "rows_read": self.rows_read,
            "entries_transferred": self.entries_transferred,
        }

    def load_state_dict(
        self, state: dict, tracker_at: Callable[[int], SearchTracker]
    ) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        ``tracker_at`` resolves slot indices back to live tracker objects.
        """
        self._queue = [
            (priority, sequence, row_address, eligible_cycle,
             tracker_at(slot))
            for priority, sequence, row_address, eligible_cycle, slot
            in state["queue"]
        ]
        heapq.heapify(self._queue)
        self._inflight = [
            (completion, sequence, row_address, tracker_at(slot))
            for completion, sequence, row_address, slot in state["inflight"]
        ]
        heapq.heapify(self._inflight)
        self._sequence = state["sequence"]
        self._next_issue_cycle = state["next_issue_cycle"]
        self.clock = state["clock"]
        self.rows_read = state["rows_read"]
        self.entries_transferred = state["entries_transferred"]
        self._update_next_event()

    # -- introspection ---------------------------------------------------------

    @property
    def pending_rows(self) -> int:
        """Rows queued but not yet issued."""
        return len(self._queue)

    @property
    def inflight_rows(self) -> int:
        """Rows issued but not yet completed."""
        return len(self._inflight)

    def drain(self) -> None:
        """Run the clock forward until no reads are queued or in flight.

        End-of-simulation cleanup: advances in full-block-transfer steps,
        so every pending read issues, completes, and installs its hits,
        and every tracker sees its drained callback.
        """
        horizon = self.clock
        while self.busy:
            horizon += FULL_BLOCK_TRANSFER_CYCLES
            self.advance(horizon)
