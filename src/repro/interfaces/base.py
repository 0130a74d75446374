"""Frame-oriented interface abstraction plus fault injection.

The data transfer threads speak only this API; which wire (TCP socket,
UDP datagram, in-process queue) sits underneath is fixed per connection
at setup time — the paper's "communication interface configured for this
connection".
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence


class InterfaceClosed(Exception):
    """The interface was closed (locally or by the peer)."""


def frame_bytes(frame) -> bytes:
    """Materialize a wire frame from bytes or a wire-encodable object.

    The vectored send path hands interfaces either raw ``bytes`` or an
    object exposing ``encode() -> bytes`` / ``encode_into(list) -> int``
    (an :class:`~repro.protocol.headers.Sdu`); gathering interfaces use
    ``encode_into`` to collect the frame's wire segments without copying
    its payload, everything else falls back to this helper.
    """
    if isinstance(frame, (bytes, bytearray, memoryview)):
        return bytes(frame)
    return frame.encode()


class CommInterface(ABC):
    """A bidirectional, frame-preserving transport endpoint."""

    #: Interface family name ("sci", "aci", "hpi", "loopback").
    name: str = "abstract"
    #: Largest frame the interface can carry (None = unlimited).
    max_frame: Optional[int] = None
    #: Whether the interface itself guarantees delivery (TCP does; the
    #: ATM datagram service does not).  NCS consults this to warn when a
    #: "none" error control rides an unreliable interface.
    reliable: bool = True

    @abstractmethod
    def send(self, frame: bytes) -> None:
        """Transmit one frame (blocking until handed to the transport)."""

    @abstractmethod
    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Receive one frame; None on timeout."""

    @abstractmethod
    def try_recv(self) -> Optional[bytes]:
        """Non-blocking receive; None if nothing is pending.

        This is the primitive behind the user-level Receive Thread's
        poll-then-``thread_yield`` loop (§4.1).
        """

    def send_many(self, frames: Sequence) -> int:
        """Vectored transmit: hand a whole batch to the transport.

        ``frames`` holds raw ``bytes`` or wire-encodable objects (see
        :func:`frame_bytes`).  The default is a per-frame loop so fault
        wrappers still see — and can drop/corrupt/duplicate — every
        individual frame; concrete interfaces override with a real
        coalesced transmit (one syscall / one lock round for the whole
        batch).  Returns the number of frames handed over.

        Backpressure contract: an interface with a bounded peer buffer
        (e.g. loopback with ``max_buffered_bytes``) may *block* here
        until the receiver drains room for the batch, raising
        :class:`InterfaceClosed` if either end closes while waiting.
        """
        for frame in frames:
            self.send(frame_bytes(frame))
        return len(frames)

    def recv_many(
        self, max_n: int = 64, timeout: Optional[float] = None
    ) -> List[bytes]:
        """Vectored receive: every ready frame, up to ``max_n``.

        Waits up to ``timeout`` for the first frame (``0`` polls, like
        :meth:`try_recv`), then drains whatever else is already pending
        without blocking again.  Returns ``[]`` when nothing arrived.
        """
        if timeout is not None and timeout <= 0:
            first = self.try_recv()
        else:
            first = self.recv(timeout)
        if first is None:
            return []
        frames = [first]
        while len(frames) < max_n:
            nxt = self.try_recv()
            if nxt is None:
                break
            frames.append(nxt)
        return frames

    @abstractmethod
    def close(self) -> None:
        """Release the endpoint; further sends raise InterfaceClosed."""

    @property
    @abstractmethod
    def closed(self) -> bool: ...

    def check_frame_size(self, frame: bytes) -> None:
        if self.max_frame is not None and len(frame) > self.max_frame:
            raise ValueError(
                f"{self.name} frame of {len(frame)} bytes exceeds the "
                f"interface maximum of {self.max_frame}"
            )

    def metrics(self) -> dict:
        """Observable counters for the metrics collector.  Concrete
        interfaces all keep frame/byte counters; the defaults read them
        via getattr so decorators and test doubles stay valid."""
        return {
            "sent_frames": getattr(self, "sent_frames", 0),
            "received_frames": getattr(self, "received_frames", 0),
            "sent_bytes": getattr(self, "sent_bytes", 0),
            "received_bytes": getattr(self, "received_bytes", 0),
            # Vectored-path counters: batched_sends counts send_many
            # calls that actually coalesced (>1 frame); batched_frames
            # the frames they carried.
            "batched_sends": getattr(self, "batched_sends", 0),
            "batched_frames": getattr(self, "batched_frames", 0),
        }


@dataclass
class FaultInjector:
    """Deterministic loss/corruption model for unreliable interfaces.

    ``loss_rate`` and ``corrupt_rate`` are independent per-frame
    probabilities drawn from a seeded RNG, so tests and benches replay
    identical fault sequences.
    """

    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0,1], got {self.loss_rate}")
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ValueError(
                f"corrupt_rate must be in [0,1], got {self.corrupt_rate}"
            )
        self._rng = random.Random(self.seed)
        self.dropped = 0
        self.corrupted = 0

    def apply(self, frame: bytes) -> Optional[bytes]:
        """Return the (possibly damaged) frame, or None if dropped."""
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.dropped += 1
            return None
        if self.corrupt_rate and self._rng.random() < self.corrupt_rate and frame:
            self.corrupted += 1
            damaged = bytearray(frame)
            # Flip one bit somewhere beyond the first byte when possible
            # so the header magic usually survives and the payload CRC
            # (the AAL5-style check) is what catches the damage.
            index = self._rng.randrange(len(damaged) // 2, len(damaged)) if len(damaged) > 1 else 0
            damaged[index] ^= 1 << self._rng.randrange(8)
            return bytes(damaged)
        return frame


class FaultyInterface(CommInterface):
    """Decorator injecting faults on the send side of any interface."""

    reliable = False

    def __init__(self, inner: CommInterface, injector: FaultInjector):
        self._inner = inner
        self.injector = injector
        self.name = inner.name
        self.max_frame = inner.max_frame

    def send(self, frame: bytes) -> None:
        survivor = self.injector.apply(frame)
        if survivor is None:
            return  # dropped "on the wire"
        self._inner.send(survivor)

    # send_many intentionally keeps the per-frame base-class loop: the
    # injector must make an independent drop/corrupt decision for every
    # frame in a batch, exactly as it would for unbatched traffic.

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        return self._inner.recv(timeout)

    def try_recv(self) -> Optional[bytes]:
        return self._inner.try_recv()

    def recv_many(
        self, max_n: int = 64, timeout: Optional[float] = None
    ) -> List[bytes]:
        # Faults apply on the send side; draining can use the inner
        # interface's vectored receive directly.
        return self._inner.recv_many(max_n, timeout)

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed

    def metrics(self) -> dict:
        inner = self._inner.metrics()
        inner["injected_drops"] = self.injector.dropped
        inner["injected_corruptions"] = self.injector.corrupted
        return inner
