"""Selective-repeat error control — the paper's default algorithm.

Faithful to the pseudo code in Fig. 6:

Sender
    segment → transmit all SDUs (end bit on the last) → start timer →
    wait for an Acknowledgment PDU.  On timeout, retransmit the *whole*
    message ("Go to Line 4 for retransmission").  On an ACK whose bitmap
    still has set bits, selectively retransmit exactly those SDUs and
    wait again.  An all-clear bitmap completes the message.

Receiver
    clear the bitmap bit of every SDU received intact; when an SDU with
    the end bit arrives, send an Acknowledgment PDU carrying the bitmap
    over the control connection; keep receiving retransmissions (and
    re-acknowledging) until the bitmap is clear, then reassemble into the
    user buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errorcontrol.base import ReceiverErrorControl, SenderErrorControl
from repro.errorcontrol.ordered import OrderedDelivery
from repro.protocol.effects import Effects
from repro.protocol.headers import Sdu
from repro.protocol.pdus import AckPdu, ControlPdu
from repro.protocol.segmentation import Reassembler, segment_message

#: Default retransmission timeout (seconds).  The paper leaves the value
#: to "the available timer resolution"; 200 ms suits both loopback and
#: the simulated ATM LAN.
DEFAULT_RETRANSMIT_TIMEOUT = 0.2
DEFAULT_MAX_RETRIES = 8


@dataclass
class _OutgoingMessage:
    """Sender-side bookkeeping for one in-flight message."""

    msg_id: int
    sdus: list
    deadline: float
    #: Timeouts burned so far (the retry budget counts *stalls*, not
    #: ACK rounds — an ACK that still shows pending bits is progress).
    timeouts: int = 0
    #: ACK-triggered selective rounds (secondary storm bound).
    ack_rounds: int = 0
    #: seqnos the last ACK showed missing, and when we answered it —
    #: dedupes retransmissions for duplicate ACKs.
    last_pending: Optional[tuple] = None
    last_selective_at: float = -1.0


class SelectiveRepeatSender(SenderErrorControl):
    """Sender half of the selective-repeat engine."""

    name = "selective_repeat"

    def __init__(
        self,
        connection_id: int,
        sdu_size: int,
        retransmit_timeout: float = DEFAULT_RETRANSMIT_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        self.connection_id = connection_id
        self.sdu_size = sdu_size
        self.retransmit_timeout = retransmit_timeout
        self.max_retries = max_retries
        self._outgoing: Dict[int, _OutgoingMessage] = {}
        self.retransmitted_sdus = 0
        self.full_retransmits = 0
        self.duplicate_acks = 0
        #: Engine time of the most recent retransmission (storm recency
        #: for the health watchdog); negative = never.
        self.last_retransmit_at = -1.0

    def send(
        self, msg_id: int, payload: bytes, now: float, trace_id: int = 0,
        span_id=None,
    ) -> Effects:
        if msg_id in self._outgoing:
            raise ValueError(f"msg_id {msg_id} already in flight")
        sdus = segment_message(
            self.connection_id, msg_id, payload, self.sdu_size,
            trace_id=trace_id, span_id=span_id,
        )
        state = _OutgoingMessage(
            msg_id=msg_id,
            sdus=sdus,
            deadline=now + self.retransmit_timeout,
        )
        self._outgoing[msg_id] = state
        return Effects(transmits=list(sdus), timer_at=self._next_deadline())

    def on_control(self, pdu: ControlPdu, now: float) -> Effects:
        if not isinstance(pdu, AckPdu) or pdu.connection_id != self.connection_id:
            return Effects(timer_at=self._next_deadline())
        state = self._outgoing.get(pdu.msg_id)
        if state is None:
            # ACK for a message we already completed (duplicate ACK).
            self.duplicate_acks += 1
            return Effects(timer_at=self._next_deadline())
        pending = tuple(pdu.bitmap.pending())
        if not pending:
            del self._outgoing[pdu.msg_id]
            return Effects(completed=[pdu.msg_id], timer_at=self._next_deadline())
        # Forward progress: any ACK pushes the stall deadline out.
        state.deadline = now + self.retransmit_timeout
        # Duplicate ACK (e.g. two copies of the end SDU after a full
        # retransmit): the same pending set answered moments ago does not
        # deserve another retransmission round.
        if (
            pending == state.last_pending
            and now - state.last_selective_at < self.retransmit_timeout / 2
        ):
            self.duplicate_acks += 1
            return Effects(timer_at=self._next_deadline())
        state.ack_rounds += 1
        if state.ack_rounds > max(32, 4 * self.max_retries):
            del self._outgoing[pdu.msg_id]
            return Effects(failed=[pdu.msg_id], timer_at=self._next_deadline())
        # Selective retransmission of exactly the SDUs marked in error.
        retransmits = [state.sdus[seqno] for seqno in pending]
        self.retransmitted_sdus += len(retransmits)
        self.last_retransmit_at = now
        state.last_pending = pending
        state.last_selective_at = now
        return Effects(transmits=retransmits, timer_at=self._next_deadline())

    def on_timer(self, now: float) -> Effects:
        effects = Effects()
        for msg_id in list(self._outgoing):
            state = self._outgoing[msg_id]
            if state.deadline > now:
                continue
            state.timeouts += 1
            if state.timeouts > self.max_retries:
                del self._outgoing[msg_id]
                effects.failed.append(msg_id)
                continue
            # Paper: no ACK within the interval => retransmit the whole
            # message ("it retransmits the whole packets").
            self.full_retransmits += 1
            self.retransmitted_sdus += len(state.sdus)
            self.last_retransmit_at = now
            state.deadline = now + self.retransmit_timeout
            state.last_pending = None
            effects.transmits.extend(state.sdus)
        effects.timer_at = self._next_deadline()
        return effects

    def defer(self, now: float) -> Optional[float]:
        for state in self._outgoing.values():
            state.deadline = max(state.deadline, now + self.retransmit_timeout)
        return self._next_deadline()

    def inflight_count(self) -> int:
        return len(self._outgoing)

    def pending(self) -> list:
        """Unacknowledged messages, reassembled from the window state."""
        return [
            (msg_id, b"".join(sdu.payload for sdu in state.sdus))
            for msg_id, state in sorted(self._outgoing.items())
        ]

    def _next_deadline(self) -> Optional[float]:
        if not self._outgoing:
            return None
        return min(state.deadline for state in self._outgoing.values())

    def metrics(self) -> dict:
        return {
            "inflight": len(self._outgoing),
            "retransmitted_sdus": self.retransmitted_sdus,
            "full_retransmits": self.full_retransmits,
            "duplicate_acks": self.duplicate_acks,
            "last_retransmit_at": self.last_retransmit_at,
        }


class SelectiveRepeatReceiver(ReceiverErrorControl):
    """Receiver half of the selective-repeat engine."""

    name = "selective_repeat"

    def __init__(self, connection_id: int, delivery_gap_timeout: float = 2.0):
        self.connection_id = connection_id
        self._reassembler = Reassembler()
        #: msg_id -> total_sdus for messages whose end bit we have seen
        #: but which are still incomplete (retransmissions expected).
        self._awaiting_retransmit: Dict[int, int] = {}
        #: Restores send order across messages: a retransmission-delayed
        #: message must not be overtaken by its successors.
        self._ordering = OrderedDelivery(gap_timeout=delivery_gap_timeout)
        self.acks_sent = 0
        #: Sum over all ACKs of bits still pending in the bitmap — divide
        #: by acks_sent for mean bitmap occupancy (Fig. 6 retransmission
        #: pressure; 0 everywhere on a clean wire).
        self.bitmap_pending_total = 0

    @property
    def corrupted_count(self) -> int:
        return self._reassembler.corrupted_count

    @property
    def duplicate_count(self) -> int:
        return self._reassembler.duplicate_count

    def on_sdu(
        self, sdu: Sdu, now: float, out: Optional[Effects] = None
    ) -> Effects:
        effects = Effects() if out is None else out
        header = sdu.header
        if header.connection_id != self.connection_id:
            return effects
        message = self._reassembler.add(sdu, now)
        if message is not None:
            self._awaiting_retransmit.pop(header.msg_id, None)
            effects.deliveries.extend(
                self._ordering.push(header.msg_id, message, now)
            )
            effects.timer_at = self.next_deadline(now)
            # Completion always triggers an (all-clear) ACK so the sender
            # can retire the message — including the duplicate-end-SDU
            # case where our previous ACK was lost.
            effects.controls.append(self._ack(header.msg_id, header.total_sdus))
            return effects
        if header.end_bit:
            # Paper Fig. 5 step 5: the end-of-message bit triggers an
            # Acknowledgment carrying the current bitmap.  Selective
            # retransmissions acknowledge via the completion path; a lost
            # retransmission is recovered by the sender's timeout (which
            # resends the whole message, end bit included).
            self._awaiting_retransmit[header.msg_id] = header.total_sdus
            effects.controls.append(self._ack(header.msg_id, header.total_sdus))
        return effects

    def on_timer(self, now: float) -> Effects:
        """Release messages stuck behind an abandoned predecessor."""
        effects = Effects()
        effects.deliveries.extend(self._ordering.release_stale(now))
        effects.timer_at = self.next_deadline(now)
        return effects

    def next_deadline(self, now: float) -> Optional[float]:
        return self._ordering.next_deadline(now)

    def held_deliveries(self) -> list:
        """Acked-but-held messages surrendered at connection teardown."""
        return self._ordering.flush()

    def buffered_bytes(self) -> int:
        """In-flight fragments plus reorder-held payloads."""
        return self._reassembler.buffered_bytes + self._ordering.held_bytes

    def _ack(self, msg_id: int, total_sdus: int) -> AckPdu:
        bitmap = self._reassembler.bitmap_for(msg_id, total_sdus)
        self.acks_sent += 1
        self.bitmap_pending_total += len(bitmap.pending())
        return AckPdu(self.connection_id, msg_id, bitmap)

    def metrics(self) -> dict:
        return {
            "acks_sent": self.acks_sent,
            "bitmap_pending_total": self.bitmap_pending_total,
            "corrupted": self._reassembler.corrupted_count,
            "duplicates": self._reassembler.duplicate_count,
        }
