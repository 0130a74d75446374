"""Common interface for flow control engines.

The sender engine sits between the error control engine and the Send
Thread: SDUs are *offered* to it, and the Send Thread *pulls* whatever
the algorithm currently allows on the wire (paper Fig. 7: the Flow
Control Thread "determines the appropriate number of packets to
transmit" and feeds the Send Thread's queue).  The receiver engine
observes arriving SDUs and produces control-plane PDUs (credit grants)
for the sender.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.protocol.headers import Sdu
from repro.protocol.pdus import ControlPdu


class SenderFlowControl(ABC):
    """Sender-side flow control engine for one connection."""

    name: str

    @abstractmethod
    def offer(self, sdus: List[Sdu]) -> None:
        """Queue SDUs for transmission (from the error control engine)."""

    @abstractmethod
    def pull(self, now: float) -> List[Sdu]:
        """SDUs the algorithm permits on the wire right now (consumes
        credits / window slots / tokens)."""

    @abstractmethod
    def on_control(self, pdu: ControlPdu, now: float) -> None:
        """Absorb a credit / window-update PDU from the receiver."""

    @abstractmethod
    def queued(self) -> int:
        """SDUs offered but not yet released by the algorithm."""

    def take_resync_request(self) -> bool:
        """True once per resync request the algorithm raised (the caller
        sends the CreditResyncPdu); only credit flow control raises any."""
        return False

    def next_ready_time(self, now: float) -> Optional[float]:
        """Earliest time ``pull`` may release more (rate-based pacing);
        None when release depends only on peer feedback or the queue."""
        return None

    def stalled_for(self, now: float) -> float:
        """Seconds ``pull`` has been *continuously* unable to release
        queued work (0.0 when idle or flowing) — the health watchdog's
        instantaneous starvation signal.  Engines that can block on peer
        feedback override this; open-loop engines stay at 0."""
        return 0.0

    def idle(self) -> bool:
        return self.queued() == 0

    def metrics(self) -> dict:
        """Observable counters for the metrics collector (subclasses
        extend; values must be plain numbers)."""
        return {"queued": self.queued()}


class ReceiverFlowControl(ABC):
    """Receiver-side flow control engine for one connection."""

    name: str

    @abstractmethod
    def on_sdu(self, sdu: Sdu, now: float) -> List[ControlPdu]:
        """Observe an arriving SDU; return credit PDUs to send back."""

    def on_sdu_batch(self, sdus: List[Sdu], now: float) -> List[ControlPdu]:
        """Observe a batch of SDUs processed together by the receive
        path; return the control PDUs to send back.

        The default simply chains :meth:`on_sdu`.  Engines whose grants
        are additive (credit) override this to *coalesce*: accumulate
        every grant the batch earned and emit one PDU, cutting the
        control plane from one PDU per packet toward one per batch.
        """
        pdus: List[ControlPdu] = []
        for sdu in sdus:
            pdus.extend(self.on_sdu(sdu, now))
        return pdus

    def metrics(self) -> dict:
        """Observable counters for the metrics collector."""
        return {"packets_seen": getattr(self, "packets_seen", 0)}
