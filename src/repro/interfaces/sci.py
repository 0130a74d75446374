"""SCI — Socket Communication Interface (TCP).

The portability interface: length-prefixed frames over a TCP stream.
TCP's built-in flow and error control come along for the ride, which is
exactly the trade-off the paper notes ("we have to use the inherent flow
control, error control algorithms in TCP/IP ... and thus cannot fully
exploit the features of NCS").
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
from collections import deque
from typing import Optional

from repro.interfaces.base import CommInterface, InterfaceClosed, frame_bytes

_LEN_FMT = "!I"
_LEN_SIZE = struct.calcsize(_LEN_FMT)
#: Upper bound on a framed SDU; rejects stream desync garbage early.
MAX_FRAME = 1 << 24


class SciInterface(CommInterface):
    """One end of a TCP frame stream."""

    name = "sci"
    max_frame = MAX_FRAME
    reliable = True

    #: Upper bound on how long a *committed* frame (length header seen)
    #: may take to finish arriving.  A peer that crashes mid-frame used
    #: to wedge the receive thread forever — the stream can never
    #: resynchronize anyway, so after this deadline we raise a clean
    #: transport error that feeds the health detector instead.
    mid_frame_timeout = 5.0
    #: Upper bound on how long an in-progress *transmit* may sit with
    #: zero forward progress (peer's receive window closed).  Past the
    #: deadline the frame on the wire is unfinishable, so the interface
    #: tears down rather than ever resuming mid-frame — the send-side
    #: mirror of ``mid_frame_timeout``.
    send_stall_timeout = 5.0

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Non-blocking from day one: every wait below is an explicit
        # select() with a deadline, so a timeout can never abandon a
        # half-written frame the way a mid-``sendall`` interrupt could,
        # and the recv path's old per-call ``settimeout`` cannot poison
        # a concurrent send on the shared socket.
        sock.setblocking(False)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._recv_buffer = b""
        #: Encoded-but-unsent wire bytes (memoryviews), oldest first.
        #: The threaded path drains it synchronously inside the send
        #: call; the event plane drains it from the selector loop.
        self._tx_backlog: deque = deque()
        self._tx_bytes = 0
        self._closed = False
        self.sent_frames = 0
        self.received_frames = 0
        self.sent_bytes = 0
        self.received_bytes = 0
        self.mid_frame_stalls = 0
        self.partial_write_teardowns = 0
        self.batched_sends = 0
        self.batched_frames = 0

    def peer_address(self) -> tuple:
        """The remote (host, port) of the underlying TCP stream."""
        return self._sock.getpeername()[:2]

    # -- sending -------------------------------------------------------------

    def send(self, frame: bytes) -> None:
        if self._closed:
            raise InterfaceClosed("send on closed interface")
        self.check_frame_size(frame)
        header = struct.pack(_LEN_FMT, len(frame))
        with self._send_lock:
            self._transmit(header + frame)
        self.sent_frames += 1
        self.sent_bytes += _LEN_SIZE + len(frame)

    def send_many(self, frames) -> int:
        """Vectored transmit: one ``sendall`` of a coalesced buffer.

        Every frame's length prefix and body are appended to a single
        ``bytearray`` (wire-encodable frames write themselves in via
        ``encode_into``, so an SDU's payload is copied exactly once —
        into this buffer), then the whole batch rides one blocking
        socket write instead of one per frame.
        """
        if not frames:
            return 0
        if len(frames) == 1:
            self.send(frame_bytes(frames[0]))
            return 1
        if self._closed:
            raise InterfaceClosed("send on closed interface")
        buf = self._encode_batch(frames)
        with self._send_lock:
            self._transmit(buf)
        self.sent_frames += len(frames)
        self.sent_bytes += len(buf)
        self.batched_sends += 1
        self.batched_frames += len(frames)
        return len(frames)

    def _encode_batch(self, frames) -> bytearray:
        """Coalesce ``frames`` (bytes or wire-encodable) into one buffer."""
        buf = bytearray()
        for frame in frames:
            encode_into = getattr(frame, "encode_into", None)
            if encode_into is not None:
                prefix_at = len(buf)
                buf += b"\x00\x00\x00\x00"  # length back-patched below
                size = encode_into(buf)
                struct.pack_into(_LEN_FMT, buf, prefix_at, size)
            else:
                size = len(frame)
                buf += struct.pack(_LEN_FMT, size)
                buf += frame
            if self.max_frame is not None and size > self.max_frame:
                raise ValueError(
                    f"{self.name} frame of {size} bytes exceeds the "
                    f"interface maximum of {self.max_frame}"
                )
        return buf

    def _transmit(self, data) -> None:
        """Write ``data`` completely or tear the interface down.

        Caller holds ``_send_lock``.  Explicit partial-progress tracking
        replaces ``sendall``: a frame either reaches the stream in full
        (after bounded writability waits) or the interface dies with a
        typed :class:`InterfaceClosed` — a later send can never resume
        mid-frame, so the peer's length-prefixed parser cannot desync.
        """
        self._tx_backlog.append(memoryview(data))
        self._tx_bytes += len(data)
        deadline = None
        while True:
            before = self._tx_bytes
            if self._flush_locked():
                return
            if self._tx_bytes < before:
                deadline = None  # forward progress resets the stall clock
                continue
            now = time.monotonic()
            if deadline is None:
                deadline = now + self.send_stall_timeout
            elif now >= deadline:
                self.partial_write_teardowns += 1
                self._mark_dead()
                raise InterfaceClosed(
                    f"transmit stalled mid-frame ({self._tx_bytes} bytes "
                    f"undeliverable after {self.send_stall_timeout}s)"
                )
            try:
                select.select([], [self._sock], [], min(deadline - now, 0.25))
            except (OSError, ValueError) as exc:
                self._mark_dead()
                raise InterfaceClosed(f"socket lost mid-frame: {exc}") from exc

    def _flush_locked(self) -> bool:
        """One non-blocking push of the tx backlog; True when drained.

        Caller holds ``_send_lock``.  Progress is tracked per buffer —
        a short write leaves the unsent tail as the new backlog head, so
        the next flush resumes exactly where the kernel stopped (within
        one frame, never skipping to the next).
        """
        while self._tx_backlog:
            head = self._tx_backlog[0]
            try:
                sent = self._sock.send(head)
            except (BlockingIOError, InterruptedError):
                return False
            except OSError as exc:
                self._mark_dead()
                raise InterfaceClosed(f"peer connection lost: {exc}") from exc
            self._tx_bytes -= sent
            if sent == len(head):
                self._tx_backlog.popleft()
            else:
                self._tx_backlog[0] = head[sent:]
        return True

    # -- event-plane surface (non-blocking adapters) -------------------------

    def fileno(self) -> int:
        """Selector registration handle for the event data plane."""
        return self._sock.fileno()

    def queue_frames(self, frames) -> bool:
        """Enqueue encoded frames on the tx backlog without blocking.

        Returns True when the backlog is fully flushed (opportunistic
        non-blocking push included) — False means bytes remain and the
        caller should wait for writability (selector EVENT_WRITE) and
        call :meth:`flush_backlog`.
        """
        if self._closed:
            raise InterfaceClosed("send on closed interface")
        if not frames:
            return not self._tx_backlog
        buf = self._encode_batch(frames)
        with self._send_lock:
            self._tx_backlog.append(memoryview(buf))
            self._tx_bytes += len(buf)
            drained = self._flush_locked()
        self.sent_frames += len(frames)
        self.sent_bytes += len(buf)
        self.batched_sends += 1
        self.batched_frames += len(frames)
        return drained

    def flush_backlog(self) -> bool:
        """Push backlogged bytes (non-blocking); True when drained."""
        if self._closed:
            raise InterfaceClosed("send on closed interface")
        with self._send_lock:
            return self._flush_locked()

    @property
    def backlog_bytes(self) -> int:
        return self._tx_bytes

    # -- receiving -----------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        with self._recv_lock:
            return self._recv_frame(timeout)

    def try_recv(self) -> Optional[bytes]:
        # Zero timeout => non-blocking poll (the user-level thread rule).
        with self._recv_lock:
            return self._recv_frame(0.0)

    def recv_many(self, max_n: int = 64, timeout: Optional[float] = None) -> list:
        """Drain every complete frame already buffered or readable.

        Blocks up to ``timeout`` for the first frame, then keeps
        parsing frames out of the stream buffer (topping it up with
        non-blocking reads) until the socket runs dry or ``max_n`` is
        reached — one lock round for the whole batch.
        """
        with self._recv_lock:
            if timeout is not None and timeout <= 0:
                first = self._recv_frame(0.0)
            else:
                first = self._recv_frame(timeout)
            if first is None:
                return []
            frames = [first]
            while len(frames) < max_n:
                try:
                    nxt = self._recv_frame(0.0)
                except InterfaceClosed:
                    # EOF behind complete frames: deliver what arrived
                    # first; the interface stays dead, so the caller's
                    # next receive raises.
                    break
                if nxt is None:
                    break
                frames.append(nxt)
            return frames

    def _recv_frame(self, timeout: Optional[float]) -> Optional[bytes]:
        if self._closed:
            raise InterfaceClosed("recv on closed interface")
        if timeout is not None and timeout <= 0:
            return self._recv_frame_nonblocking()
        length_bytes = self._read_exact(_LEN_SIZE, timeout)
        if length_bytes is None:
            return None
        (length,) = struct.unpack(_LEN_FMT, length_bytes)
        if length > MAX_FRAME:
            raise InterfaceClosed(f"insane frame length {length}: stream desync")
        # The header committed us to a frame; finish it regardless of the
        # caller's timeout so the stream cannot desynchronize on a partial
        # read — but bound the wait: a peer that died mid-frame leaves a
        # stream that can never resynchronize, so past the deadline the
        # interface is declared dead rather than wedging the thread.
        deadline = time.monotonic() + self.mid_frame_timeout
        frame = None
        while frame is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.mid_frame_stalls += 1
                self._mark_dead()
                raise InterfaceClosed(
                    f"peer stalled mid-frame ({length}-byte frame unfinished "
                    f"after {self.mid_frame_timeout}s)"
                )
            frame = self._read_exact(length, min(remaining, 0.25))
        self.received_frames += 1
        self.received_bytes += _LEN_SIZE + len(frame)
        return frame

    def _recv_frame_nonblocking(self) -> Optional[bytes]:
        """Zero-timeout receive: parse only *complete* frames, no waits.

        A frame split across kernel writes (the sender's tail bytes
        parked in its tx backlog behind a busy loop) simply stays in the
        stream buffer until the rest arrives — it must NOT start the
        mid-frame death clock.  Under a connection storm the old
        behaviour wedged the caller in bounded selects (convoying the
        event loop) and then tore down a merely *slow* peer as dead; on
        TCP the only trustworthy death signals for this path are EOF and
        a socket error, both raised from the buffer top-up.
        """
        while True:
            buffered = len(self._recv_buffer)
            if buffered >= _LEN_SIZE:
                (length,) = struct.unpack_from(_LEN_FMT, self._recv_buffer)
                if length > MAX_FRAME:
                    raise InterfaceClosed(
                        f"insane frame length {length}: stream desync"
                    )
                if buffered >= _LEN_SIZE + length:
                    frame = self._recv_buffer[_LEN_SIZE:_LEN_SIZE + length]
                    self._recv_buffer = self._recv_buffer[_LEN_SIZE + length:]
                    self.received_frames += 1
                    self.received_bytes += _LEN_SIZE + len(frame)
                    return frame
            if not self._fill_buffer_once():
                return None

    def _fill_buffer_once(self) -> bool:
        """One non-blocking socket read into the stream buffer.

        True if bytes landed; False when the socket has nothing ready.
        EOF and socket errors raise :class:`InterfaceClosed` with the
        same semantics as the blocking path.
        """
        try:
            chunk = self._sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return False
        except OSError as exc:
            if self._closed:
                raise InterfaceClosed("recv on closed interface") from exc
            self._mark_dead()
            raise InterfaceClosed(f"peer connection lost: {exc}") from exc
        if not chunk:
            self._mark_dead()
            if self._recv_buffer:
                raise InterfaceClosed("peer closed mid-frame")
            raise InterfaceClosed("peer closed the connection")
        self._recv_buffer += chunk
        return True

    def _read_exact(self, count: int, timeout: Optional[float]) -> Optional[bytes]:
        """Read exactly ``count`` bytes, buffering partial data across
        timeouts so a slow sender never desynchronizes the stream.

        Waits are explicit ``select()`` calls on the non-blocking socket
        (never ``settimeout``, which would leak a timeout onto the shared
        socket and poison a concurrent send path).
        """
        deadline = (
            None if timeout is None else time.monotonic() + max(timeout, 0.0)
        )
        while len(self._recv_buffer) < count:
            try:
                chunk = self._sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                chunk = None  # nothing buffered: wait for readability below
            except OSError as exc:
                if self._closed:
                    raise InterfaceClosed("recv on closed interface") from exc
                self._mark_dead()
                raise InterfaceClosed(f"peer connection lost: {exc}") from exc
            if chunk is None:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    wait = min(remaining, 0.25)
                else:
                    wait = 0.25
                try:
                    ready, _, _ = select.select([self._sock], [], [], wait)
                except (OSError, ValueError) as exc:
                    if self._closed:
                        raise InterfaceClosed(
                            "recv on closed interface"
                        ) from exc
                    self._mark_dead()
                    raise InterfaceClosed(f"socket lost: {exc}") from exc
                if not ready and deadline is not None and (
                    time.monotonic() >= deadline
                ):
                    return None
                continue
            if not chunk:
                # Mark the interface dead so holders of a cached link (the
                # node's control-link table) re-dial instead of reusing a
                # half-closed stream.
                self._mark_dead()
                if self._recv_buffer:
                    raise InterfaceClosed("peer closed mid-frame")
                raise InterfaceClosed("peer closed the connection")
            self._recv_buffer += chunk
        data = self._recv_buffer[:count]
        self._recv_buffer = self._recv_buffer[count:]
        return data

    def _mark_dead(self) -> None:
        """Record a transport failure: flag closed and drop the socket."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def metrics(self) -> dict:
        data = super().metrics()
        data["mid_frame_stalls"] = self.mid_frame_stalls
        data["partial_write_teardowns"] = self.partial_write_teardowns
        data["backlog_bytes"] = self._tx_bytes
        return data


class SciListener:
    """TCP accept socket handing out :class:`SciInterface` endpoints."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 16):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self.host, self.port = self._sock.getsockname()
        self._closed = False

    def accept(self, timeout: Optional[float] = None) -> Optional[SciInterface]:
        """Accept one connection; ``timeout=0`` polls without blocking."""
        try:
            self._sock.settimeout(timeout)
            conn, _addr = self._sock.accept()
        except (socket.timeout, BlockingIOError):
            return None
        except OSError as exc:
            if self._closed:
                raise InterfaceClosed("listener closed") from exc
            raise
        return SciInterface(conn)

    def close(self) -> None:
        self._closed = True
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed


def sci_connect(host: str, port: int, timeout: float = 5.0) -> SciInterface:
    """Dial a listener and wrap the stream."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return SciInterface(sock)


def sci_pair() -> tuple[SciInterface, SciInterface]:
    """A connected pair over loopback (tests and HPI-less quickstarts)."""
    listener = SciListener()
    dialer_result = {}

    def _dial():
        dialer_result["iface"] = sci_connect(listener.host, listener.port)

    thread = threading.Thread(target=_dial, daemon=True)
    thread.start()
    accepted = listener.accept(timeout=5.0)
    thread.join(timeout=5.0)
    listener.close()
    if accepted is None or "iface" not in dialer_result:
        raise RuntimeError("failed to establish loopback SCI pair")
    return dialer_result["iface"], accepted
