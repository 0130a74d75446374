"""Go-back-N error control — the paper's alternative reliable algorithm.

Classic go-back-N over the SDUs of each message: the sender keeps a
window of unacknowledged SDUs; the receiver accepts only the next
in-order sequence number and answers every arrival with a cumulative
acknowledgment (next expected seqno); a timeout rewinds transmission to
the window base.  Compared with selective repeat this wastes
retransmission bandwidth under loss — which is exactly why the paper
makes the algorithm selectable per connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errorcontrol.base import ReceiverErrorControl, SenderErrorControl
from repro.errorcontrol.ordered import OrderedDelivery
from repro.protocol.effects import Effects
from repro.protocol.headers import Sdu
from repro.protocol.pdus import ControlPdu, CumAckPdu
from repro.protocol.segmentation import segment_message

DEFAULT_WINDOW = 16
DEFAULT_RETRANSMIT_TIMEOUT = 0.2
DEFAULT_MAX_RETRIES = 8


@dataclass
class _GbnMessage:
    msg_id: int
    sdus: list
    base: int = 0  # lowest unacknowledged seqno
    next_seq: int = 0  # next seqno never yet sent
    deadline: float = 0.0
    attempts: int = 1


class GoBackNSender(SenderErrorControl):
    """Sender half of go-back-N."""

    name = "go_back_n"

    def __init__(
        self,
        connection_id: int,
        sdu_size: int,
        window: int = DEFAULT_WINDOW,
        retransmit_timeout: float = DEFAULT_RETRANSMIT_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.connection_id = connection_id
        self.sdu_size = sdu_size
        self.window = window
        self.retransmit_timeout = retransmit_timeout
        self.max_retries = max_retries
        self._outgoing: Dict[int, _GbnMessage] = {}
        self.retransmitted_sdus = 0
        self.rewinds = 0
        self.duplicate_acks = 0
        #: Engine time of the most recent rewind (storm recency for the
        #: health watchdog); negative = never.
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
        state = _GbnMessage(msg_id=msg_id, sdus=sdus)
        self._outgoing[msg_id] = state
        return self._fill_window(state, now)

    def _fill_window(self, state: _GbnMessage, now: float) -> Effects:
        effects = Effects()
        while (
            state.next_seq < len(state.sdus)
            and state.next_seq - state.base < self.window
        ):
            effects.transmits.append(state.sdus[state.next_seq])
            state.next_seq += 1
        state.deadline = now + self.retransmit_timeout
        effects.timer_at = self._next_deadline()
        return effects

    def on_control(self, pdu: ControlPdu, now: float) -> Effects:
        if not isinstance(pdu, CumAckPdu) or pdu.connection_id != self.connection_id:
            return Effects(timer_at=self._next_deadline())
        state = self._outgoing.get(pdu.msg_id)
        if state is None:
            self.duplicate_acks += 1
            return Effects(timer_at=self._next_deadline())
        if pdu.next_expected > state.base:
            state.base = pdu.next_expected
            state.attempts = 1  # forward progress resets the retry budget
        else:
            # Cumulative ACK with no new progress (lost or reordered SDU
            # at the receiver): the classic go-back-N dup-ACK signal.
            self.duplicate_acks += 1
        if state.base >= len(state.sdus):
            del self._outgoing[pdu.msg_id]
            return Effects(completed=[pdu.msg_id], timer_at=self._next_deadline())
        return self._fill_window(state, now)

    def on_timer(self, now: float) -> Effects:
        effects = Effects()
        for msg_id in list(self._outgoing):
            state = self._outgoing[msg_id]
            if state.deadline > now:
                continue
            state.attempts += 1
            if state.attempts > self.max_retries:
                del self._outgoing[msg_id]
                effects.failed.append(msg_id)
                continue
            # Rewind: retransmit everything from the base.
            resend = state.sdus[state.base : state.next_seq]
            self.rewinds += 1
            self.retransmitted_sdus += len(resend)
            self.last_retransmit_at = now
            effects.transmits.extend(resend)
            state.deadline = now + self.retransmit_timeout
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
            "rewinds": self.rewinds,
            "duplicate_acks": self.duplicate_acks,
            "last_retransmit_at": self.last_retransmit_at,
        }


class GoBackNReceiver(ReceiverErrorControl):
    """Receiver half of go-back-N: in-order acceptance, cumulative ACKs."""

    name = "go_back_n"

    def __init__(self, connection_id: int, delivery_gap_timeout: float = 2.0):
        self.connection_id = connection_id
        #: msg_id -> (next expected seqno, ordered fragments)
        self._incoming: Dict[int, tuple[int, list]] = {}
        self._completed: "dict[int, None]" = {}
        self._ordering = OrderedDelivery(gap_timeout=delivery_gap_timeout)
        self.acks_sent = 0
        self.discarded_out_of_order = 0

    COMPLETED_MEMORY = 1024

    def on_sdu(
        self, sdu: Sdu, now: float, out: Optional[Effects] = None
    ) -> Effects:
        effects = Effects() if out is None else out
        header = sdu.header
        if header.connection_id != self.connection_id:
            return effects
        if header.msg_id in self._completed:
            # Late retransmission of a finished message: re-ACK completion.
            effects.controls.append(self._ack(header.msg_id, header.total_sdus))
            return effects
        next_expected, fragments = self._incoming.get(header.msg_id, (0, []))
        if header.seqno == next_expected and sdu.payload_intact():
            fragments.append(sdu.payload)
            next_expected += 1
        else:
            self.discarded_out_of_order += 1
        if next_expected >= header.total_sdus:
            self._incoming.pop(header.msg_id, None)
            self._completed[header.msg_id] = None
            while len(self._completed) > self.COMPLETED_MEMORY:
                self._completed.pop(next(iter(self._completed)))
            effects.deliveries.extend(
                self._ordering.push(header.msg_id, b"".join(fragments), now)
            )
            effects.timer_at = self.next_deadline(now)
        else:
            self._incoming[header.msg_id] = (next_expected, fragments)
        effects.controls.append(self._ack_value(header.msg_id, next_expected))
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
        """Partial in-order fragments plus reorder-held payloads."""
        partial = sum(
            len(fragment)
            for _next, fragments in self._incoming.values()
            for fragment in fragments
        )
        return partial + self._ordering.held_bytes

    def _ack(self, msg_id: int, total_sdus: int) -> CumAckPdu:
        return self._ack_value(msg_id, total_sdus)

    def _ack_value(self, msg_id: int, next_expected: int) -> CumAckPdu:
        self.acks_sent += 1
        return CumAckPdu(self.connection_id, msg_id, next_expected)

    def metrics(self) -> dict:
        return {
            "acks_sent": self.acks_sent,
            "discarded_out_of_order": self.discarded_out_of_order,
        }
