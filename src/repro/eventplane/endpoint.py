"""Per-connection adapter between the selector loop and an interface.

Two endpoint kinds cover the data interfaces the event plane serves:

* **socket** — the interface (or the one inside a fault wrapper) has a
  file descriptor (:class:`~repro.interfaces.sci.SciInterface`).  Reads
  are selector-driven; writes append to the interface's explicit tx
  backlog and the loop flushes on writability, so no thread ever blocks
  in a socket write.
* **queue** — an in-process queue pair (loopback / HPI) with no fd.
  Writes go straight into the peer's queue from the submitting thread;
  reads are driven by the pair's data-ready callback, which wakes the
  peer node's loop.

The endpoint moves bytes only: ``submit`` is the event driver's choice
of where flow-released SDUs go (called by whichever thread just ran the
connection core's sender half — application, control reader, timer),
and ``on_readable`` hands complete frames to ``Connection.event_rx``,
which runs the core's receiver half on the loop thread.
"""

from __future__ import annotations

from repro.interfaces.base import InterfaceClosed


def _unwrap(interface):
    """Peel fault-injection wrappers down to the transport interface."""
    inner = interface
    while hasattr(inner, "_inner"):
        inner = inner._inner
    return inner


class EventEndpoint:
    """One event-mode connection's seat on the selector loop."""

    __slots__ = (
        "connection",
        "interface",
        "loop",
        "kind",
        "batch_max",
        "_inner",
        "_fileno",
        "_nonblocking_tx",
        "_detached",
    )

    def __init__(self, connection, interface, loop):
        self.connection = connection
        self.interface = interface
        self.loop = loop
        self.batch_max = connection.config.batch_max
        self._inner = _unwrap(interface)
        self._detached = False
        if hasattr(self._inner, "fileno"):
            self.kind = "socket"
            self._fileno = self._inner.fileno()
            # The zero-syscall enqueue path only exists when no fault
            # wrapper sits between us and the socket; wrapped interfaces
            # fall back to per-frame sends from the submitting thread
            # (bounded by the interface's own send stall deadline).
            self._nonblocking_tx = interface is self._inner and hasattr(
                interface, "queue_frames"
            )
        elif hasattr(self._inner, "set_ready_callback"):
            self.kind = "queue"
            self._fileno = None
            self._nonblocking_tx = False
        else:
            raise ValueError(
                f"event data plane cannot drive interface "
                f"{type(self._inner).__name__}: it has neither a file "
                f"descriptor nor a data-ready callback"
            )

    def fileno(self) -> int:
        return self._fileno

    # -- transmit (any thread) ---------------------------------------------

    def submit(self, sdus) -> None:
        """Hand flow-released SDUs to the data plane.

        Socket kind: encode onto the interface backlog and try one
        non-blocking flush; leftover bytes arm EVENT_WRITE interest on
        the loop.  Queue kind (and fault-wrapped transports): a direct
        in-memory ``send_many`` — the peer's ready callback takes it
        from there.
        """
        if self._nonblocking_tx:
            if not self.interface.queue_frames(sdus):
                self.loop.request_flush(self)
        else:
            self.interface.send_many(sdus)

    # -- loop-thread callbacks ---------------------------------------------

    def on_readable(self) -> bool:
        """Drain one batch of ready frames; True if more may be queued."""
        try:
            frames = self.interface.recv_many(self.batch_max, timeout=0.0)
        except InterfaceClosed:
            self.connection.event_transport_lost("recv")
            self.loop.retire(self)
            return False
        if frames:
            self.connection.event_rx(frames)
        if self.kind == "queue":
            depth = getattr(self._inner, "rx_queue_depth", None)
            return depth is not None and depth() > 0
        return False

    def on_writable(self) -> bool:
        """Flush backlog on writability; True once fully drained."""
        try:
            return self.interface.flush_backlog()
        except InterfaceClosed:
            self.connection.event_transport_lost("send")
            self.loop.retire(self)
            return True

    def has_backlog(self) -> bool:
        return getattr(self.interface, "backlog_bytes", 0) > 0

    # -- lifecycle ----------------------------------------------------------

    def attach_ready_callback(self) -> None:
        """Queue kind: route the pair's data-ready signal to our loop."""
        if self.kind == "queue":
            self._inner.set_ready_callback(
                lambda: self.loop.mark_queue_ready(self)
            )

    def detach(self) -> None:
        """Remove this endpoint from its loop (idempotent, blocking)."""
        if self._detached:
            return
        self._detached = True
        if self.kind == "queue":
            try:
                self._inner.set_ready_callback(None)
            except Exception:
                pass
        self.loop.unregister(self)
