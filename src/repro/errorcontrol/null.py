"""Null error control: no acknowledgments, no retransmission.

The configuration the paper prescribes for audio/video streams (§2, §3.3:
"programmers can select no flow or error control for the audio and video
connections").  Messages whose SDUs all arrive are delivered; a lost SDU
silently drops the whole message, and a periodic GC reclaims the partial
reassembly state.
"""

from __future__ import annotations

from typing import Optional

from repro.errorcontrol.base import ReceiverErrorControl, SenderErrorControl
from repro.protocol.effects import Effects
from repro.protocol.headers import Sdu
from repro.protocol.pdus import ControlPdu
from repro.protocol.segmentation import Reassembler, segment_message

#: Partial messages older than this are discarded by the receiver GC.
DEFAULT_GC_TIMEOUT = 2.0


class NullSender(SenderErrorControl):
    """Fire-and-forget sender: transmit once, complete immediately."""

    name = "none"

    def __init__(self, connection_id: int, sdu_size: int):
        self.connection_id = connection_id
        self.sdu_size = sdu_size

    def send(
        self, msg_id: int, payload: bytes, now: float, trace_id: int = 0,
        span_id=None,
    ) -> Effects:
        sdus = segment_message(
            self.connection_id, msg_id, payload, self.sdu_size,
            trace_id=trace_id, span_id=span_id,
        )
        return Effects(transmits=sdus, completed=[msg_id])

    def on_control(self, pdu: ControlPdu, now: float) -> Effects:
        return Effects()

    def on_timer(self, now: float) -> Effects:
        return Effects()

    def inflight_count(self) -> int:
        return 0


class NullReceiver(ReceiverErrorControl):
    """Deliver complete messages; drop and GC incomplete ones."""

    name = "none"

    def __init__(self, connection_id: int, gc_timeout: float = DEFAULT_GC_TIMEOUT):
        self.connection_id = connection_id
        self._reassembler = Reassembler(gc_timeout=gc_timeout)
        self.dropped_messages = 0

    def on_sdu(
        self, sdu: Sdu, now: float, out: Optional[Effects] = None
    ) -> Effects:
        effects = Effects() if out is None else out
        if sdu.header.connection_id != self.connection_id:
            return effects
        message = self._reassembler.add(sdu, now)
        if message is not None:
            effects.deliveries.append(message)
        effects.timer_at = self.next_deadline(now)
        return effects

    def on_timer(self, now: float) -> Effects:
        stale = self._reassembler.gc(now)
        self.dropped_messages += len(stale)
        return Effects(timer_at=self.next_deadline(now))

    def next_deadline(self, now: float) -> Optional[float]:
        """When the oldest partial message turns stale."""
        return self._reassembler.gc_deadline()

    def buffered_bytes(self) -> int:
        return self._reassembler.buffered_bytes

    def metrics(self) -> dict:
        return {
            "dropped_messages": self.dropped_messages,
            "partial_inflight": self._reassembler.inflight_count,
        }
