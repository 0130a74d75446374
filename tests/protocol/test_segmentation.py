"""Segmentation and reassembly (paper Fig. 5 steps 1 and 4)."""

import pytest

from repro.protocol.headers import Sdu
from repro.protocol.segmentation import (
    DEFAULT_SDU_SIZE,
    MAX_SDU_SIZE,
    MIN_SDU_SIZE,
    DuplicateSduError,
    Reassembler,
    segment_message,
    validate_sdu_size,
)


class TestValidateSduSize:
    def test_bounds_accepted(self):
        assert validate_sdu_size(MIN_SDU_SIZE) == MIN_SDU_SIZE
        assert validate_sdu_size(MAX_SDU_SIZE) == MAX_SDU_SIZE

    @pytest.mark.parametrize("bad", [0, 1, MIN_SDU_SIZE - 1, MAX_SDU_SIZE + 1])
    def test_out_of_envelope_rejected(self, bad):
        with pytest.raises(ValueError, match="SDU size"):
            validate_sdu_size(bad)


class TestSegmentation:
    def test_exact_multiple(self):
        sdus = segment_message(1, 1, b"a" * (3 * DEFAULT_SDU_SIZE), DEFAULT_SDU_SIZE)
        assert len(sdus) == 3
        assert all(len(s.payload) == DEFAULT_SDU_SIZE for s in sdus)

    def test_remainder_in_last_sdu(self):
        sdus = segment_message(1, 1, b"a" * (DEFAULT_SDU_SIZE + 100), DEFAULT_SDU_SIZE)
        assert len(sdus) == 2
        assert len(sdus[1].payload) == 100

    def test_small_message_single_sdu(self):
        (sdu,) = segment_message(1, 1, b"tiny", DEFAULT_SDU_SIZE)
        assert sdu.header.end_bit
        assert sdu.header.total_sdus == 1

    def test_empty_message_still_framed(self):
        (sdu,) = segment_message(1, 1, b"", DEFAULT_SDU_SIZE)
        assert sdu.payload == b""
        assert sdu.header.end_bit

    def test_end_bit_only_on_last(self):
        sdus = segment_message(1, 1, b"x" * (4 * DEFAULT_SDU_SIZE), DEFAULT_SDU_SIZE)
        assert [s.header.end_bit for s in sdus] == [False, False, False, True]

    def test_sequence_numbers_ascending(self):
        sdus = segment_message(1, 9, b"x" * (3 * DEFAULT_SDU_SIZE), DEFAULT_SDU_SIZE)
        assert [s.header.seqno for s in sdus] == [0, 1, 2]
        assert all(s.header.msg_id == 9 for s in sdus)


class TestReassembly:
    def _segments(self, payload=None, msg_id=1):
        payload = payload if payload is not None else bytes(range(256)) * 64
        return payload, segment_message(5, msg_id, payload, DEFAULT_SDU_SIZE)

    def test_in_order_reassembly(self):
        payload, sdus = self._segments()
        reassembler = Reassembler()
        result = None
        for sdu in sdus:
            result = reassembler.add(sdu)
        assert result == payload

    def test_out_of_order_reassembly(self):
        payload, sdus = self._segments()
        reassembler = Reassembler()
        result = None
        for sdu in reversed(sdus):
            result = reassembler.add(sdu)
        assert result == payload

    def test_incomplete_returns_none(self):
        _, sdus = self._segments()
        reassembler = Reassembler()
        for sdu in sdus[:-1]:
            assert reassembler.add(sdu) is None
        assert reassembler.inflight_count == 1

    def test_duplicates_counted_not_harmful(self):
        payload, sdus = self._segments()
        reassembler = Reassembler()
        reassembler.add(sdus[0])
        reassembler.add(sdus[0])
        assert reassembler.duplicate_count == 1
        for sdu in sdus[1:]:
            result = reassembler.add(sdu)
        assert result == payload

    def test_corrupted_sdu_left_pending(self):
        payload, sdus = self._segments()
        reassembler = Reassembler()
        reassembler.add(sdus[0].corrupted_copy())
        assert reassembler.corrupted_count == 1
        state = reassembler.state_of(1)
        assert state.bitmap.is_pending(0)
        # Clean retransmission completes the message.
        for sdu in sdus:
            result = reassembler.add(sdu)
        assert result == payload

    def test_late_retransmit_of_completed_message(self):
        payload, sdus = self._segments()
        reassembler = Reassembler()
        for sdu in sdus:
            reassembler.add(sdu)
        # The whole message arrives again (lost ACK scenario).
        for sdu in sdus:
            assert reassembler.add(sdu) is None
        assert reassembler.duplicate_count == len(sdus)
        assert reassembler.inflight_count == 0

    def test_interleaved_messages(self):
        payload_a, sdus_a = self._segments(msg_id=1)
        payload_b = b"B" * (2 * DEFAULT_SDU_SIZE)
        sdus_b = segment_message(5, 2, payload_b, DEFAULT_SDU_SIZE)
        reassembler = Reassembler()
        results = {}
        for pair in zip(sdus_a, sdus_b):
            for sdu in pair:
                outcome = reassembler.add(sdu)
                if outcome is not None:
                    results[sdu.header.msg_id] = outcome
        for sdu in sdus_a[len(sdus_b):]:
            outcome = reassembler.add(sdu)
            if outcome is not None:
                results[sdu.header.msg_id] = outcome
        assert results[1] == payload_a
        assert results[2] == payload_b

    def test_inconsistent_total_rejected(self):
        _, sdus = self._segments()
        other = segment_message(5, 1, b"y" * DEFAULT_SDU_SIZE, DEFAULT_SDU_SIZE)
        reassembler = Reassembler()
        reassembler.add(sdus[0])
        with pytest.raises(DuplicateSduError):
            reassembler.add(other[0])

    def test_gc_reclaims_stale_messages(self):
        _, sdus = self._segments()
        reassembler = Reassembler(gc_timeout=1.0)
        reassembler.add(sdus[0], now=0.0)
        assert reassembler.gc(now=0.5) == []
        assert reassembler.gc(now=2.0) == [1]
        assert reassembler.inflight_count == 0

    def test_bitmap_for_completed_is_clear(self):
        payload, sdus = self._segments()
        reassembler = Reassembler()
        for sdu in sdus:
            reassembler.add(sdu)
        bitmap = reassembler.bitmap_for(1, len(sdus))
        assert bitmap.all_received()

    def test_bitmap_for_inflight_shows_missing(self):
        _, sdus = self._segments()
        reassembler = Reassembler()
        reassembler.add(sdus[1])
        bitmap = reassembler.bitmap_for(1, len(sdus))
        assert not bitmap.is_pending(1)
        assert bitmap.is_pending(0)

    def test_bitmap_for_large_message_is_allocation_free(self):
        """Regression for the per-ack bitmap round-trip copy: a 64 MB
        message is 16384 SDUs, and `bitmap_for` used to serialize and
        re-parse a 2 KB bitmap on *every* ACK.  The snapshot path must
        share the live bitmap's immutable backing int (O(1)) and stay
        flat under repeated per-ack queries."""
        import tracemalloc

        total_sdus = (64 << 20) // DEFAULT_SDU_SIZE  # 16384
        reassembler = Reassembler()
        # One arrived SDU of the giant message puts it in flight without
        # allocating 64 MB of payload.
        sdu = segment_message(5, 1, b"x" * DEFAULT_SDU_SIZE, DEFAULT_SDU_SIZE)[0]
        sdu = Sdu(
            sdu.header.replace(total_sdus=total_sdus, end_bit=False), sdu.payload
        )
        reassembler.add(sdu)
        live = reassembler.state_of(1).bitmap
        first = reassembler.bitmap_for(1, total_sdus)
        assert first._bits is live._bits  # shared, not round-tripped
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(1000):
            reassembler.bitmap_for(1, total_sdus)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # 1000 per-ack queries on a 16384-bit bitmap: the old code
        # allocated ~2 KB * 2 per call (~4 MB total); snapshots hold
        # steady (the only survivors are transient AckBitmap shells).
        assert after - before < 64 * 1024

    def test_bitmap_for_snapshot_is_isolated_from_later_arrivals(self):
        _, sdus = self._segments()
        reassembler = Reassembler()
        reassembler.add(sdus[0])
        snap = reassembler.bitmap_for(1, len(sdus))
        reassembler.add(sdus[1])
        assert snap.is_pending(1)  # frozen at query time
        assert not reassembler.bitmap_for(1, len(sdus)).is_pending(1)


class TestCompletedMemoryEviction:
    """Never-seen must not alias completed — including after eviction
    from the bounded completed memory (the bug: `bitmap_for` answered
    "fully received" for any message it had no record of, silently
    retiring data at the sender that this side never assembled)."""

    def _complete_one(self, reassembler, msg_id):
        payload = bytes([msg_id % 256]) * 64
        for sdu in segment_message(5, msg_id, payload, DEFAULT_SDU_SIZE):
            reassembler.add(sdu)
        return payload

    def test_bitmap_for_never_seen_is_all_set(self):
        reassembler = Reassembler()
        bitmap = reassembler.bitmap_for(99, 4)
        assert all(bitmap.is_pending(i) for i in range(4))
        assert not bitmap.all_received()

    def test_bitmap_for_evicted_message_is_all_set(self):
        reassembler = Reassembler()
        limit = Reassembler.COMPLETED_MEMORY
        for msg_id in range(1, limit + 2):  # one past the memory bound
            self._complete_one(reassembler, msg_id)
        # msg 1 was evicted; msg 2 survived at the edge of the window.
        evicted = reassembler.bitmap_for(1, 1)
        assert evicted.is_pending(0), (
            "an evicted message must not be reported all-clear"
        )
        survivor = reassembler.bitmap_for(2, 1)
        assert survivor.all_received()

    def test_evicted_retransmit_counts_duplicate_not_phantom(self):
        """A stale retransmit for an evicted message must die as a
        duplicate, not open a phantom reassembly that re-delivers the
        message to the application."""
        reassembler = Reassembler()
        limit = Reassembler.COMPLETED_MEMORY
        for msg_id in range(1, limit + 2):
            self._complete_one(reassembler, msg_id)
        duplicates_before = reassembler.duplicate_count
        stale = segment_message(5, 1, b"\x01" * 64, DEFAULT_SDU_SIZE)
        assert reassembler.add(stale[0]) is None
        assert reassembler.duplicate_count == duplicates_before + 1
        assert reassembler.inflight_count == 0
        assert reassembler.state_of(1) is None
