"""The shared, interning record decoder behind every trace reader.

All four readers -- ``load_trace``, ``iter_trace``, ``TraceFile.iter_from``
and ``TraceStreamDecoder.feed`` -- must decode exactly as a plain
per-record decode would, reject corrupt records with a typed error that
names the record, and keep a streaming decoder's memory bounded.
"""

import io
import os
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.opcodes import BranchKind
from repro.trace import reader
from repro.trace.reader import (
    TraceFormatError,
    TraceStreamDecoder,
    iter_trace,
    load_trace,
    open_trace,
)
from repro.trace.record import TraceRecord
from repro.trace.writer import (
    CODE_KINDS,
    HEADER,
    MAGIC,
    RECORD,
    TAKEN_BIT,
    TARGET_VALID_BIT,
    VERSION,
    pack_record,
)


def reference_decode(raw: bytes) -> TraceRecord:
    """One v2 record, decoded field by field with no caching."""
    meta, address, target = RECORD.unpack(raw)
    return TraceRecord(
        address=address,
        length=meta & 0x7,
        kind=CODE_KINDS[(meta >> 3) & 0x7],
        taken=bool(meta & TAKEN_BIT),
        target=target if meta & TARGET_VALID_BIT else None,
    )


@st.composite
def records(draw):
    kind = draw(st.sampled_from([None, *BranchKind]))
    taken = kind is not None and (kind.always_taken or draw(st.booleans()))
    if taken:
        target = draw(st.integers(min_value=0, max_value=2**64 - 1))
    elif kind is not None:
        target = draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=2**64 - 1)))
    else:
        target = None
    return TraceRecord(
        address=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        length=draw(st.sampled_from([2, 4, 6])),
        kind=kind, taken=taken, target=target,
    )


@st.composite
def looping_bodies(draw):
    """Wire bytes of a trace drawn from a small pool, so records repeat."""
    pool = draw(st.lists(records(), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
    return b"".join(pack_record(pool[index]) for index in picks)


def with_header(body: bytes, version: int = VERSION) -> bytes:
    return HEADER.pack(MAGIC, version, len(body) // RECORD.size) + body


def expected(body: bytes) -> list[TraceRecord]:
    size = RECORD.size
    return [reference_decode(body[offset:offset + size])
            for offset in range(0, len(body), size)]


def feed_in_pieces(body: bytes, cuts) -> list[TraceRecord]:
    decoder = TraceStreamDecoder()
    out: list[TraceRecord] = []
    bounds = [0, *sorted(cuts), len(body)]
    for start, stop in zip(bounds, bounds[1:]):
        out.extend(decoder.feed(body[start:stop]))
    decoder.finish()
    return out


class TestEquivalence:
    # The real intern bound, and one small enough that the cache empties
    # many times per trace; small blocks so windows straddle them.
    @pytest.mark.parametrize("limit", [reader.INTERN_LIMIT, 3])
    @given(body=looping_bodies(), data=st.data())
    def test_every_reader_matches_a_per_record_decode(self, limit, body,
                                                      data):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reader, "INTERN_LIMIT", limit)
            patch.setattr(reader, "BLOCK_RECORDS", 7)
            self._check_readers(body, data)

    @staticmethod
    def _check_readers(body, data):
        want = expected(body)
        wire = with_header(body)
        assert list(iter_trace(io.BytesIO(wire))) == want
        cuts = data.draw(st.lists(st.integers(0, len(body)), max_size=8))
        assert feed_in_pieces(body, cuts) == want

        handle, path = tempfile.mkstemp(suffix=".ztrc")
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(wire)
            assert load_trace(path) == want
            start = data.draw(st.integers(0, len(want)))
            stop = data.draw(st.integers(0, len(want) + 3))
            with open_trace(path) as trace:
                assert list(trace.iter_from(start, stop)) == want[start:stop]
                # A second window over the same file reuses its cache.
                assert list(trace) == want
        finally:
            os.unlink(path)

    def test_equal_records_are_shared(self, tmp_path):
        record = TraceRecord(address=0x100, length=4)
        path = tmp_path / "loop.ztrc"
        path.write_bytes(with_header(pack_record(record) * 5))
        loaded = load_trace(path)
        assert loaded == [record] * 5
        assert all(item is loaded[0] for item in loaded)


def _corrupt_body(meta: int, index: int = 5) -> bytes:
    good = pack_record(TraceRecord(address=0x100, length=4))
    return good * index + RECORD.pack(meta, 0x200, 0) + good * 2


CORRUPT = [
    pytest.param(4 | (6 << 3), "kind code 6", id="kind-6"),
    pytest.param(4 | (7 << 3), "kind code 7", id="kind-7"),
    pytest.param(0x7c, "kind code 7", id="meta-0x7c"),
    pytest.param(0x3, "length 3", id="length-3"),
    pytest.param(0x0, "length 0", id="length-0"),
    pytest.param(6 | (1 << 3) | 1, "length 7", id="length-7"),
    pytest.param(4 | TAKEN_BIT, "non-branch marked taken", id="taken-plain"),
]


class TestCorruptRecords:
    """Each reader path names the first corrupt record."""

    @pytest.mark.parametrize("meta, message", CORRUPT)
    def test_iter_trace(self, meta, message):
        wire = with_header(_corrupt_body(meta))
        with pytest.raises(TraceFormatError, match=f"record 5: .*{message}"):
            list(iter_trace(io.BytesIO(wire)))

    @pytest.mark.parametrize("meta, message", CORRUPT)
    def test_load_trace(self, tmp_path, meta, message):
        path = tmp_path / "bad.ztrc"
        path.write_bytes(with_header(_corrupt_body(meta)))
        with pytest.raises(TraceFormatError, match=f"record 5: .*{message}"):
            load_trace(path)

    @pytest.mark.parametrize("meta, message", CORRUPT)
    def test_trace_file(self, tmp_path, meta, message):
        path = tmp_path / "bad.ztrc"
        path.write_bytes(with_header(_corrupt_body(meta)))
        with open_trace(path) as trace:
            assert list(trace.iter_from(0, 5)) == [
                TraceRecord(address=0x100, length=4)] * 5
            assert list(trace.iter_from(6)) == [
                TraceRecord(address=0x100, length=4)] * 2
            with pytest.raises(TraceFormatError,
                               match=f"record 5: .*{message}"):
                list(trace.iter_from(3))
            with pytest.raises(TraceFormatError,
                               match=f"record 5: .*{message}"):
                trace.record(5)

    @pytest.mark.parametrize("meta, message", CORRUPT)
    def test_stream_decoder_counts_across_feeds(self, meta, message):
        body = _corrupt_body(meta, index=3)
        decoder = TraceStreamDecoder()
        assert len(decoder.feed(body[:2 * RECORD.size])) == 2
        with pytest.raises(TraceFormatError, match=f"record 3: .*{message}"):
            decoder.feed(body[2 * RECORD.size:])


class TestStreamDecoderMemory:
    def test_intern_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(reader, "INTERN_LIMIT", 16)
        decoder = TraceStreamDecoder()
        distinct = [TraceRecord(address=4 * index, length=4)
                    for index in range(1000)]
        out = []
        for start in range(0, len(distinct), 37):
            out.extend(decoder.feed(
                b"".join(map(pack_record, distinct[start:start + 37]))))
            assert len(decoder._intern) <= 16
        assert out == distinct

    def test_default_bound_covers_a_looping_session(self):
        decoder = TraceStreamDecoder()
        loop = b"".join(pack_record(TraceRecord(address=4 * index, length=4))
                        for index in range(50))
        for _ in range(20):
            decoder.feed(loop)
        assert len(decoder._intern) == 50
        assert decoder.decoded == 1000
