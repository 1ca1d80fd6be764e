"""Row-organized branch target buffer storage.

All three BTB levels share the same organization: a set-associative array
indexed by instruction-address bits ending at bit 58, so that "each row
covers 32 bytes of instruction space" (paper, 3.1).  A row can hold entries
for several *different* branches inside the same (or an aliasing) 32-byte
granule; full branch addresses serve as tags.

The index is computed as ``(address >> 5) % rows``, which is identical to the
paper's bit-range extraction (bits 49:58 / 52:58 / 47:58) for the architected
row counts and generalizes to the sizes swept in Figure 5.  Tests assert the
equivalence against :mod:`repro.isa.address`'s bit fields.

Ways are kept in MRU-first order; true LRU everywhere ("the LRU can be a
separate, smaller structure than the BTB2 array itself", 3.3 — we model the
ordering, not the encoding).
"""

from __future__ import annotations

from typing import Iterator

from repro.btb.entry import BTBEntry
from repro.isa.address import ROW_BYTES, row_address


class BranchTargetBuffer:
    """Set-associative, full-tagged branch target buffer."""

    def __init__(self, rows: int, ways: int, name: str = "btb") -> None:
        if rows <= 0 or rows & (rows - 1):
            raise ValueError(f"rows must be a positive power of two, got {rows}")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.rows = rows
        self.ways = ways
        self.name = name
        self._rows: list[list[BTBEntry]] = [[] for _ in range(rows)]
        self.installs = 0
        self.evictions = 0
        #: Optional :class:`repro.audit.Auditor`; ``None`` keeps every write
        #: path on the fast branch (one attribute test per mutation).
        self.audit = None
        #: Optional :class:`repro.telemetry.Telemetry`; ``None`` = no tracing.
        self.telemetry = None

    # -- geometry ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Total branch entries the structure can hold."""
        return self.rows * self.ways

    def row_index(self, address: int) -> int:
        """Row selected by ``address`` (32-byte granules, modulo rows)."""
        return (address >> 5) % self.rows

    # -- read paths -------------------------------------------------------

    def search_row(self, address: int) -> list[BTBEntry]:
        """All entries for branches in the 32-byte row holding ``address``.

        This is the per-cycle search primitive: entries are tag-matched to
        the row (aliasing rows in the same congruence class do not match)
        and returned in ascending branch-address order, the order in which
        the search pipeline would encounter them.
        """
        row_start = address & ~(ROW_BYTES - 1)
        entries = [
            entry
            for entry in self._rows[(address >> 5) % self.rows]
            if entry.address & ~(ROW_BYTES - 1) == row_start
        ]
        if len(entries) > 1:
            entries.sort(key=lambda entry: entry.address)
        return entries

    def first_in_row(self, address: int) -> BTBEntry | None:
        """The lowest-address entry at or after ``address`` in its row.

        The first element of ``search_row(address)`` at or after
        ``address``, found in one pass without building the list: the
        same tag match, and of two entries for one address the later way,
        as the stable sort there orders them.
        """
        best = None
        limit = address | (ROW_BYTES - 1)
        for entry in self._rows[(address >> 5) % self.rows]:
            entry_address = entry.address
            if address <= entry_address <= limit:
                best = entry
                limit = entry_address
        return best

    def lookup(self, branch_address: int) -> BTBEntry | None:
        """Exact-address probe, without touching LRU state."""
        for entry in self._rows[(branch_address >> 5) % self.rows]:
            if entry.address == branch_address:
                return entry
        return None

    def is_mru(self, entry: BTBEntry) -> bool:
        """True when ``entry`` occupies the most recently used way."""
        ways = self._rows[(entry.address >> 5) % self.rows]
        return bool(ways) and ways[0] is entry

    def row_ways(self, address: int) -> list[BTBEntry]:
        """Entries of the row indexed by ``address``, MRU-first.

        A read-only copy of the way list in replacement order — the
        differential oracle diffs this against its reference model to
        localize LRU/victim divergences to a single row.
        """
        return list(self._rows[(address >> 5) % self.rows])

    # -- write paths ------------------------------------------------------

    def install(self, entry: BTBEntry, *, make_mru: bool = True) -> BTBEntry | None:
        """Insert ``entry``; return the evicted victim, if any.

        An existing entry for the same branch address is replaced in place
        (no victim).  Otherwise the LRU way is evicted when the row is full.
        """
        ways = self._rows[(entry.address >> 5) % self.rows]
        for position, existing in enumerate(ways):
            if existing.address == entry.address:
                ways.pop(position)
                ways.insert(0 if make_mru else len(ways), entry)
                if self.audit is not None:
                    self.audit.on_btb_write(self, "install", ways)
                return None
        self.installs += 1
        victim = None
        if len(ways) >= self.ways:
            victim = ways.pop()
            self.evictions += 1
        ways.insert(0 if make_mru else len(ways), entry)
        if self.audit is not None:
            self.audit.on_btb_write(self, "install", ways)
        if self.telemetry is not None:
            self.telemetry.on_install(self.name, entry.address)
            if victim is not None:
                self.telemetry.on_evict(self.name, victim.address)
        return victim

    def install_lru(self, entry: BTBEntry) -> BTBEntry | None:
        """Insert ``entry`` into the LRU way *then* make it MRU.

        This is the BTB2 victim-install protocol of section 3.3: "the content
        that is evicted from the BTB1 is written into the LRU column in the
        BTB2 and made MRU" — the previous LRU occupant is displaced even if
        empty ways notionally exist elsewhere; with full-tag matching this is
        equivalent to a plain MRU install, kept separate for clarity and for
        the inclusive-design ablation.
        """
        return self.install(entry, make_mru=True)

    def touch(self, entry: BTBEntry) -> None:
        """Promote ``entry`` to MRU in its row.

        Matches by *identity*, consistent with :meth:`is_mru`: entries
        migrate between levels as clones that compare equal to their
        originals, and an equality match here could promote — or worse,
        replace — a resident entry with a distinct stale object.  An entry
        no longer resident (by identity) is a no-op.
        """
        ways = self._rows[(entry.address >> 5) % self.rows]
        for position, existing in enumerate(ways):
            if existing is entry:
                if position:
                    ways.pop(position)
                    ways.insert(0, entry)
                    if self.audit is not None:
                        self.audit.on_btb_write(self, "touch", ways)
                return

    def demote(self, entry: BTBEntry) -> None:
        """Demote ``entry`` to LRU in its row (BTB2 hit handling, 3.3).

        Identity-matched for the same reason as :meth:`touch`.
        """
        ways = self._rows[(entry.address >> 5) % self.rows]
        for position, existing in enumerate(ways):
            if existing is entry:
                if position != len(ways) - 1:
                    ways.pop(position)
                    ways.append(entry)
                    if self.audit is not None:
                        self.audit.on_btb_write(self, "demote", ways)
                return

    def remove(self, branch_address: int) -> BTBEntry | None:
        """Invalidate and return the entry for ``branch_address``, if present."""
        ways = self._rows[self.row_index(branch_address)]
        for position, existing in enumerate(ways):
            if existing.address == branch_address:
                victim = ways.pop(position)
                if self.audit is not None:
                    self.audit.on_btb_write(self, "remove", ways)
                return victim
        return None

    def clear(self) -> None:
        """Drop all entries (counters preserved)."""
        for ways in self._rows:
            ways.clear()

    # -- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot: occupied rows (MRU-first) + counters.

        Rows are stored sparsely as ``[index, [entry, ...]]`` pairs; way
        order is the LRU order, so a restore reproduces replacement behavior
        exactly.  Subclasses extend this with their own counters.
        """
        return {
            "rows": [
                [index, [entry.state_dict() for entry in ways]]
                for index, ways in enumerate(self._rows)
                if ways
            ],
            "installs": self.installs,
            "evictions": self.evictions,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        Entries are rebuilt as fresh objects, preserving the level
        object-exclusivity invariant (no object shared across structures).
        """
        for ways in self._rows:
            ways.clear()
        for index, ways in state["rows"]:
            self._rows[index] = [
                BTBEntry.from_state_dict(entry) for entry in ways
            ]
        self.installs = state["installs"]
        self.evictions = state["evictions"]

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._rows)

    def __iter__(self) -> Iterator[BTBEntry]:
        for ways in self._rows:
            yield from ways

    def __contains__(self, branch_address: int) -> bool:
        return self.lookup(branch_address) is not None

    def occupancy(self) -> float:
        """Fraction of ways currently valid."""
        return len(self) / self.capacity

    def covered_rows(self, start: int, count: int) -> Iterator[int]:
        """Row start addresses for ``count`` sequential rows from ``start``."""
        base = row_address(start)
        for step in range(count):
            yield base + step * ROW_BYTES
