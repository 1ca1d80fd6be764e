"""Compact on-disk trace format (reader side).

See :mod:`repro.trace.writer` for the format definition and version history.

Two access styles are provided:

* :func:`iter_trace` / :func:`load_trace` — forward streaming / full
  materialization over an already-open stream or a path.
* :func:`open_trace` / :class:`TraceFile` — random access over the file.
  Because every record is a fixed :data:`~repro.trace.writer.RECORD` size,
  ``TraceFile`` can seek straight to record *i* and stream any
  ``[start, stop)`` window without touching the rest of the file.  The
  sampled-simulation fast-forward path uses this so warming a trace never
  requires materializing millions of ``TraceRecord`` objects up front.

Every reader, :class:`TraceStreamDecoder` included, decodes through one
block decoder (:func:`_decode_block`).  It interns records: a dict maps
the raw 20 record bytes to the :class:`TraceRecord` they decode to, and
only a dict miss runs :func:`_decode`.  Traces are loops -- a few
hundred thousand records typically hold a few tens of thousands of
distinct ones -- so most records cost one slice and one dict probe.
Sharing instances is safe because ``TraceRecord`` is a frozen dataclass:
equal bytes decode to equal records, and nothing can mutate one.  The
record-level checks in :func:`_decode` also run on a miss only, since a
record that passed them once is the same record on every later hit.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Iterator

from repro.trace.record import TraceRecord
from repro.trace.writer import (
    CODE_KINDS,
    HEADER,
    MAGIC,
    RECORD,
    SUPPORTED_VERSIONS,
    TAKEN_BIT,
    TARGET_VALID_BIT,
    VERSION,
)


class TraceFormatError(ValueError):
    """Raised when a trace stream does not conform to the format."""


#: Records read per block by the file readers.
BLOCK_RECORDS = 4096

#: Distinct records an intern cache holds before it is emptied.  Bounds
#: the memory of a streaming reader over a trace that does not loop; the
#: benchmark traces hold well under this many distinct records.
INTERN_LIMIT = 1 << 16

#: Instruction lengths the trace format accepts, in bytes.
_LENGTHS = frozenset((2, 4, 6))


def read_header(stream: BinaryIO) -> tuple[int, int]:
    """Consume and validate the header; return ``(record count, version)``."""
    raw = stream.read(HEADER.size)
    if len(raw) != HEADER.size:
        raise TraceFormatError("truncated trace header")
    magic, version, count = HEADER.unpack(raw)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(f"unsupported trace version {version}")
    return count, version


def _decode(raw: bytes, version: int, index: int) -> TraceRecord:
    """Decode one packed record according to ``version``.

    ``index`` is the record's position in its stream, for error messages.
    Raises :class:`TraceFormatError` on a kind code no branch kind has, a
    length the format does not allow, or a taken bit on a non-branch.
    """
    meta, address, target = RECORD.unpack(raw)
    code = (meta >> 3) & 0x7
    if code not in CODE_KINDS:
        raise TraceFormatError(f"record {index}: unknown branch kind code {code}")
    kind = CODE_KINDS[code]
    length = meta & 0x7
    if length not in _LENGTHS:
        raise TraceFormatError(f"record {index}: illegal length {length}")
    taken = bool(meta & TAKEN_BIT)
    if taken and kind is None:
        raise TraceFormatError(f"record {index}: non-branch marked taken")
    if version >= 2:
        has_target = bool(meta & TARGET_VALID_BIT)
    else:
        # v1 wrote no target-valid bit; reconstruct with the historical
        # heuristic (lossy for not-taken branches carrying a target).
        has_target = bool(taken or (kind is not None and target))
    return TraceRecord(
        address=address,
        length=length,
        kind=kind,
        taken=taken,
        target=target if has_target else None,
    )


def _decode_block(body: bytes, version: int, cache: dict,
                  first: int) -> list[TraceRecord]:
    """Decode the whole records of ``body`` through the intern ``cache``.

    ``first`` is the stream index of the first record in ``body``.  The
    cache maps raw record bytes to decoded records and is emptied when it
    reaches :data:`INTERN_LIMIT` entries.
    """
    size = RECORD.size
    get = cache.get
    records: list[TraceRecord] = []
    append = records.append
    for offset in range(0, len(body), size):
        raw = body[offset:offset + size]
        record = get(raw)
        if record is None:
            if len(cache) >= INTERN_LIMIT:
                cache.clear()
            record = _decode(raw, version, first + offset // size)
            cache[raw] = record
        append(record)
    return records


def _read_records(stream: BinaryIO, version: int, start: int, stop: int,
                  total: int, cache: dict) -> Iterator[list[TraceRecord]]:
    """Yield records ``[start, stop)`` from ``stream`` in decoded blocks.

    ``stream`` must be positioned at record ``start``; ``total`` is the
    declared record count, for error messages.
    """
    size = RECORD.size
    index = start
    while index < stop:
        batch = min(BLOCK_RECORDS, stop - index)
        body = stream.read(batch * size)
        if len(body) != batch * size:
            raise TraceFormatError(
                f"truncated at record {index + len(body) // size}/{total}"
            )
        yield _decode_block(body, version, cache, index)
        index += batch


def iter_trace(stream: BinaryIO) -> Iterator[TraceRecord]:
    """Yield records from an open trace stream, validating the count.

    The stream must contain exactly the declared number of records: both a
    short read and trailing bytes after the last record raise
    :class:`TraceFormatError`.
    """
    count, version = read_header(stream)
    for block in _read_records(stream, version, 0, count, count, {}):
        yield from block
    if stream.read(1):
        raise TraceFormatError(
            f"trailing bytes after declared record count {count}"
        )


def load_trace(path) -> list[TraceRecord]:
    """Read the entire trace at ``path`` into memory."""
    with open(path, "rb") as stream:
        return list(iter_trace(stream))


class TraceFile:
    """Random-access view of an on-disk trace.

    Keeps only the open file handle; records are decoded on demand.  Usable
    as a context manager and as a sequence-like source of windows::

        with open_trace(path) as trace:
            for record in trace.iter_from(1_000_000, 1_010_000):
                ...
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._stream: BinaryIO | None = open(self.path, "rb")
        # Shared by every window, so re-reading a window costs dict hits.
        self._intern: dict[bytes, TraceRecord] = {}
        try:
            self.count, self.version = read_header(self._stream)
            expected = HEADER.size + self.count * RECORD.size
            actual = os.fstat(self._stream.fileno()).st_size
            if actual != expected:
                raise TraceFormatError(
                    f"file size {actual} != {expected} implied by "
                    f"record count {self.count}"
                )
        except BaseException:
            self._stream.close()
            self._stream = None
            raise

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "TraceFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    def _require_stream(self) -> BinaryIO:
        if self._stream is None:
            raise ValueError(f"trace file {self.path} is closed")
        return self._stream

    def record(self, index: int) -> TraceRecord:
        """Decode the single record at ``index``."""
        if not 0 <= index < self.count:
            raise IndexError(f"record {index} out of range [0, {self.count})")
        stream = self._require_stream()
        stream.seek(HEADER.size + index * RECORD.size)
        raw = stream.read(RECORD.size)
        if len(raw) != RECORD.size:
            raise TraceFormatError(f"truncated at record {index}/{self.count}")
        return _decode(raw, self.version, index)

    def iter_from(self, start: int = 0,
                  stop: int | None = None) -> Iterator[TraceRecord]:
        """Stream records in ``[start, stop)`` without loading the rest.

        Reads in blocks of :data:`BLOCK_RECORDS` so a multi-million-record
        fast-forward costs a handful of large sequential reads, not one
        syscall per record.
        """
        stop = self.count if stop is None else min(stop, self.count)
        if start < 0 or start > self.count:
            raise IndexError(f"start {start} out of range [0, {self.count}]")
        if stop <= start:
            return
        stream = self._require_stream()
        stream.seek(HEADER.size + start * RECORD.size)
        for block in _read_records(stream, self.version, start, stop,
                                   self.count, self._intern):
            yield from block

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.iter_from(0, self.count)


def open_trace(path) -> TraceFile:
    """Open the trace at ``path`` for streaming / random access."""
    return TraceFile(path)


class TraceStreamDecoder:
    """Incremental decoder for a byte stream of packed trace records.

    The network-facing sibling of :func:`iter_trace`: bytes arrive in
    arbitrary fragments (socket reads, HTTP chunks) and complete records
    are yielded as they become decodable, with any partial tail buffered
    until the next :meth:`feed`.  The stream is *headerless* — a live
    session has no up-front record count — and decoded with the current
    format version unless another supported one is requested.

    Used by the ``repro.service`` ingest path; also handy for piped
    "live" trace frontends (ROADMAP item 3).
    """

    def __init__(self, version: int = VERSION) -> None:
        if version not in SUPPORTED_VERSIONS:
            raise TraceFormatError(f"unsupported trace version {version}")
        self.version = version
        self._buffer = bytearray()
        # Bounded by INTERN_LIMIT, so a long-lived session's memory does
        # not grow with the distinct records it has seen.
        self._intern: dict[bytes, TraceRecord] = {}
        #: Complete records decoded so far.
        self.decoded = 0

    def feed(self, data: bytes) -> list[TraceRecord]:
        """Decode every complete record in ``buffered + data``.

        Returns the (possibly empty) list of newly complete records; a
        trailing partial record stays buffered for the next call.
        """
        self._buffer.extend(data)
        size = RECORD.size
        usable = len(self._buffer) - (len(self._buffer) % size)
        if not usable:
            return []
        records = _decode_block(bytes(self._buffer[:usable]), self.version,
                                self._intern, self.decoded)
        del self._buffer[:usable]
        self.decoded += len(records)
        return records

    @property
    def pending(self) -> int:
        """Bytes of an incomplete trailing record currently buffered."""
        return len(self._buffer)

    def finish(self) -> None:
        """Assert the stream ended on a record boundary.

        Raises :class:`TraceFormatError` when a partial record is still
        buffered — the sender stopped mid-record.
        """
        if self._buffer:
            raise TraceFormatError(
                f"stream ended mid-record: {len(self._buffer)} trailing "
                f"byte(s) after {self.decoded} complete record(s)"
            )
