"""Segmentation and reassembly.

Paper §3.2: the user message is segmented into packets of the
user-chosen SDU size (4 KB–64 KB, default 4 KB — the Fore ATM API caps
SDUs at 4 KB and a single AAL5 frame at 64 KB); each packet gets a
sequence number and an end-of-message bit; the receiver reassembles and
tracks a per-SDU status bitmap.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.protocol.headers import Sdu
from repro.util.bitmap import AckBitmap

#: SDU size bounds from §3.2.  The default matches the Fore API limit.
MIN_SDU_SIZE = 4 * 1024
MAX_SDU_SIZE = 64 * 1024
DEFAULT_SDU_SIZE = 4 * 1024


def validate_sdu_size(sdu_size: int) -> int:
    """Check an SDU size against the paper's 4 KB–64 KB envelope."""
    if not MIN_SDU_SIZE <= sdu_size <= MAX_SDU_SIZE:
        raise ValueError(
            f"SDU size must be within [{MIN_SDU_SIZE}, {MAX_SDU_SIZE}] bytes "
            f"(paper §3.2), got {sdu_size}"
        )
    return sdu_size


def segment_message(
    connection_id: int,
    msg_id: int,
    payload: bytes,
    sdu_size: int,
    trace_id: int = 0,
    span_id: Optional[int] = None,
) -> list[Sdu]:
    """Split ``payload`` into framed SDUs.

    A zero-length message still produces one (empty, end-bit) SDU so the
    receiver has something to acknowledge.

    When ``trace_id`` is non-zero every SDU carries the trace envelope,
    so retransmissions (which replay the stored SDUs) stay in-trace for
    free.  ``span_id`` defaults to the message id, which is unique per
    direction — good enough to tell two messages of one trace apart.
    """
    validate_sdu_size(sdu_size)
    if not isinstance(payload, bytes):
        payload = bytes(payload)  # snapshot mutable buffers before aliasing
    if span_id is None:
        span_id = (msg_id & 0xFFFFFFFF) if trace_id else 0
    # memoryview slices alias the message instead of copying each chunk;
    # no payload byte is copied before an interface puts it on its wire.
    view = memoryview(payload)
    total = max(1, -(-len(payload) // sdu_size))
    last = total - 1
    build = Sdu.build
    return [
        build(
            connection_id, msg_id, seqno, total,
            view[seqno * sdu_size : (seqno + 1) * sdu_size],
            seqno == last, trace_id, span_id,
        )
        for seqno in range(total)
    ]


class ReassemblyState:
    """Receiver-side state for one in-flight message."""

    __slots__ = (
        "msg_id", "total_sdus", "bitmap", "fragments", "received_bytes",
        "started_at",
    )

    def __init__(self, msg_id: int, total_sdus: int, started_at: float = 0.0):
        self.msg_id = msg_id
        self.total_sdus = total_sdus
        self.bitmap = AckBitmap(total_sdus, all_set=True)
        #: Payload of SDU ``i`` at index ``i``; None until it arrives.
        self.fragments: list = [None] * total_sdus
        #: Payload bytes held in ``fragments``.
        self.received_bytes = 0
        #: Clock reading when the first SDU arrived; used by garbage collection.
        self.started_at = started_at

    def complete(self) -> bool:
        return self.bitmap.all_received()

    def assemble(self) -> bytes:
        """Rebuild the original message; only valid once complete."""
        if not self.complete():
            missing = self.bitmap.pending()
            raise RuntimeError(
                f"message {self.msg_id} incomplete, missing SDUs {missing}"
            )
        return b"".join(self.fragments)


class DuplicateSduError(Exception):
    """An SDU arrived twice with different payloads (protocol violation)."""


class Reassembler:
    """Collects SDUs back into messages, per connection direction.

    ``add`` returns the completed message bytes when the final missing
    SDU arrives, else None.  Corrupted SDUs (CRC mismatch) are counted
    and *not* merged — they stay pending in the bitmap, which is what
    drives selective retransmission.
    """

    #: How many recently completed message ids to remember so late
    #: retransmissions (e.g. after a lost ACK) are recognized as
    #: duplicates instead of starting a phantom reassembly.
    COMPLETED_MEMORY = 1024

    def __init__(self, gc_timeout: Optional[float] = None):
        self._inflight: Dict[int, ReassemblyState] = {}
        self._completed: "dict[int, None]" = {}  # insertion-ordered set
        #: Highest msg_id ever *evicted* from the completed memory.
        #: Message ids are monotonically increasing per direction, so a
        #: retransmit at or below the floor is for a message finished
        #: long ago — treat it as a duplicate rather than opening a
        #: phantom reassembly that would re-deliver the message.
        self._completed_floor = 0
        self._gc_timeout = gc_timeout
        self.corrupted_count = 0
        self.duplicate_count = 0
        #: Payload bytes currently held in in-flight fragment buffers —
        #: the reassembly site the node's MemoryBudget accounts.
        self.buffered_bytes = 0

    def state_of(self, msg_id: int) -> Optional[ReassemblyState]:
        """In-flight reassembly state for ``msg_id`` (None if unknown)."""
        return self._inflight.get(msg_id)

    def add(self, sdu: Sdu, now: float = 0.0) -> Optional[bytes]:
        """Merge one SDU; return the whole message if now complete."""
        header = sdu.header
        msg_id = header.msg_id
        state = self._inflight.get(msg_id)
        if state is None:
            if msg_id in self._completed or msg_id <= self._completed_floor:
                self.duplicate_count += 1  # late retransmit of a finished message
                return None
            state = self._inflight[msg_id] = ReassemblyState(
                msg_id, header.total_sdus, now
            )
        if header.total_sdus != state.total_sdus:
            raise DuplicateSduError(
                f"msg {msg_id}: inconsistent total_sdus "
                f"({header.total_sdus} vs {state.total_sdus})"
            )
        if not sdu.payload_intact():
            # Leave the bitmap bit set: the SDU is "received in error"
            # (paper Fig. 5) and will be selectively retransmitted.
            self.corrupted_count += 1
            return None
        if not state.bitmap.mark_received(header.seqno):
            self.duplicate_count += 1  # benign duplicate (retransmit race)
            return None
        payload = sdu.payload
        state.fragments[header.seqno] = payload
        state.received_bytes += len(payload)
        self.buffered_bytes += len(payload)
        if not state.complete():
            return None
        self.buffered_bytes -= state.received_bytes
        del self._inflight[msg_id]
        self._completed[msg_id] = None
        while len(self._completed) > self.COMPLETED_MEMORY:
            evicted = next(iter(self._completed))
            self._completed.pop(evicted)
            self._completed_floor = max(self._completed_floor, evicted)
        return state.assemble()

    def bitmap_for(self, msg_id: int, total_sdus: int) -> AckBitmap:
        """Current ACK bitmap for ``msg_id``.

        A message known to have completed gets an all-clear bitmap; an
        in-flight message gets a snapshot of its real bitmap; anything
        else — never seen, *or completed so long ago that it was evicted
        from the completed memory* — gets every bit set.  Never-seen must
        not alias completed: an all-clear bitmap in an AckPdu tells the
        sender "fully received", and answering that for a message this
        side has no record of would silently retire data the receiver
        never assembled.  All-set errs in the safe direction (the sender
        retransmits; genuine stale retransmits die at the sender as
        duplicate ACKs for an already-retired message).
        """
        state = self._inflight.get(msg_id)
        if state is not None:
            if state.bitmap.size == total_sdus:
                # O(1): share the immutable int behind the live bitmap
                # instead of round-tripping O(total_sdus) bytes per ack.
                return state.bitmap.snapshot()
            return AckBitmap.from_bytes(state.bitmap.to_bytes(), total_sdus)
        if msg_id in self._completed:
            return AckBitmap(total_sdus, all_set=False)
        return AckBitmap(total_sdus, all_set=True)

    def gc(self, now: float) -> list[int]:
        """Drop in-flight messages older than ``gc_timeout``; return ids.

        Used by unreliable (no-error-control) connections so a lost SDU
        cannot leak reassembly state forever.
        """
        if self._gc_timeout is None:
            return []
        # Epsilon: a timer firing "exactly" at gc_deadline() must count.
        stale = [
            msg_id
            for msg_id, state in self._inflight.items()
            if now - state.started_at >= self._gc_timeout - 1e-9
        ]
        for msg_id in stale:
            self.buffered_bytes -= self._inflight.pop(msg_id).received_bytes
        return stale

    def gc_deadline(self) -> Optional[float]:
        """When the oldest in-flight message turns stale (None: nothing
        in flight, or no ``gc_timeout``)."""
        if self._gc_timeout is None or not self._inflight:
            return None
        # Insertion order is arrival order, so the first state is oldest.
        oldest = next(iter(self._inflight.values()))
        return oldest.started_at + self._gc_timeout

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)
