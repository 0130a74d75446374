"""Common interface for error control engines.

A *sender* engine owns segmentation, retransmission state and timers for
outgoing messages; a *receiver* engine owns reassembly and
acknowledgment generation for incoming SDUs.  Both are pure state
machines: every entry point takes the current time and returns
:class:`~repro.protocol.effects.Effects`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.protocol.effects import Effects
from repro.protocol.headers import Sdu
from repro.protocol.pdus import ControlPdu


class TransmissionFailed(Exception):
    """A message exhausted its retransmission budget."""

    def __init__(self, msg_id: int, attempts: int):
        super().__init__(
            f"message {msg_id} abandoned after {attempts} transmission attempts"
        )
        self.msg_id = msg_id
        self.attempts = attempts


class SenderErrorControl(ABC):
    """Sender-side error control engine for one connection."""

    name: str

    @abstractmethod
    def send(
        self, msg_id: int, payload: bytes, now: float, trace_id: int = 0,
        span_id=None,
    ) -> Effects:
        """Segment ``payload`` and request its (initial) transmission.

        A non-zero ``trace_id`` stamps the cross-node trace envelope on
        every SDU of the message; since engines retransmit the stored
        SDUs, retransmissions inherit the envelope automatically.  An
        explicit ``span_id`` overrides the envelope's default msg_id
        span — the latency X-ray uses its top bit to mark sampled
        messages (see :data:`repro.obs.xray.XRAY_SPAN_MARK`).
        """

    @abstractmethod
    def on_control(self, pdu: ControlPdu, now: float) -> Effects:
        """Process an ACK (or other control PDU addressed to the sender)."""

    @abstractmethod
    def on_timer(self, now: float) -> Effects:
        """Fire any expired retransmission timers."""

    def defer(self, now: float) -> Optional[float]:
        """Push every retransmission deadline out to at least one timeout
        from ``now``; returns the next deadline (None: no timer needed).

        The runtime calls this instead of ``on_timer`` while the flow
        controller still holds queued SDUs: the paper's timer starts
        after the last packet is handed to the Send Thread, so a message
        whose tail is still gated by credits cannot be "timed out" — an
        ACK was never possible yet.
        """

    @abstractmethod
    def inflight_count(self) -> int:
        """Messages handed to ``send`` but not yet completed or failed."""

    def pending(self) -> list:
        """Unacknowledged in-flight messages as ``(msg_id, payload)``.

        The recovery layer replays these after a reconnect — the window
        state *is* the replay buffer, no shadow copy needed.  Engines
        that keep no retransmission state (``none``) return nothing:
        with no delivery guarantee there is nothing to replay.
        """
        return []

    def idle(self) -> bool:
        return self.inflight_count() == 0

    def metrics(self) -> dict:
        """Observable counters for the metrics collector (subclasses
        extend; values must be plain numbers)."""
        return {"inflight": self.inflight_count()}


class ReceiverErrorControl(ABC):
    """Receiver-side error control engine for one connection."""

    name: str

    @abstractmethod
    def on_sdu(
        self, sdu: Sdu, now: float, out: Optional[Effects] = None
    ) -> Effects:
        """Process one arriving SDU: reassemble, acknowledge, deliver.

        The SDU's effects are appended to ``out`` — the one record a
        caller keeps for a whole receive batch — or to a fresh
        :class:`Effects` when none is given; either way it is returned.
        """

    def on_timer(self, now: float) -> Effects:
        """Periodic housekeeping (unreliable engines GC stale state)."""
        return Effects()

    def next_deadline(self, now: float) -> Optional[float]:
        """When :meth:`on_timer` next has work, read from the engine's
        present state (None: nothing is waiting on the clock).

        This, not the ``timer_at`` of whichever SDU came last, is what a
        driver arms: most SDUs change nothing the clock cares about.
        """
        return None

    def held_deliveries(self) -> list:
        """Fully reassembled messages held back (e.g. for ordering).

        These have been acknowledged — the sender considers them
        delivered and will never retransmit them — so a dying connection
        must hand them to the application rather than discard them.
        Engines that deliver strictly in order with no reorder buffer
        have nothing to surrender.
        """
        return []

    def buffered_bytes(self) -> int:
        """Payload bytes currently parked in reassembly/reorder buffers.

        The node's MemoryBudget charges this as the "reassembly" site.
        Engines that buffer nothing report 0.
        """
        return 0

    def metrics(self) -> dict:
        """Observable counters for the metrics collector."""
        return {"acks_sent": getattr(self, "acks_sent", 0)}
