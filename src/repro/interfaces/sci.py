"""SCI — Socket Communication Interface (TCP).

The portability interface: length-prefixed frames over a TCP stream.
TCP's built-in flow and error control come along for the ride, which is
exactly the trade-off the paper notes ("we have to use the inherent flow
control, error control algorithms in TCP/IP ... and thus cannot fully
exploit the features of NCS").
"""

from __future__ import annotations

import os
import select
import socket
import struct
import threading
import time
from collections import deque
from itertools import islice
from typing import Optional

from repro.interfaces.base import CommInterface, InterfaceClosed

_LEN_FMT = "!I"
_LEN = struct.Struct(_LEN_FMT)
_LEN_SIZE = _LEN.size
#: Upper bound on a framed SDU; rejects stream desync garbage early.
MAX_FRAME = 1 << 24

#: The stream buffer starts small (most endpoints are control links that
#: only ever see short PDUs), doubles whenever a read fills it, and stops
#: at 64 KiB.  A longer frame borrows a buffer of exactly its own size,
#: given back as soon as the frame has been handed up.
_RX_BUFFER_MIN = 4 * 1024
_RX_BUFFER_MAX = 64 * 1024
_NO_BUFFER = memoryview(b"")

try:
    #: Most segments one ``sendmsg`` may gather.
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
except (AttributeError, ValueError, OSError):
    _IOV_MAX = 16  # the POSIX floor


class SciInterface(CommInterface):
    """One end of a TCP frame stream.

    Copies per payload byte in here.  Receive: kernel -> the reused
    stream buffer (``recv_into``) -> the frame handed up (an owning
    ``bytes``, so whoever holds or duplicates a frame needs no lifetime
    rule).  Send: none in user space — a frame goes to ``sendmsg`` as
    its length prefix, its stored header bytes and a view of the
    message it was cut from.
    """

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
        #: Received bytes not yet handed up are ``_rx[_rx_start:_rx_end]``.
        self._rx = memoryview(bytearray(_RX_BUFFER_MIN))
        self._rx_start = 0
        self._rx_end = 0
        #: The last socket read came back short (fewer bytes than the
        #: room offered, or none): the socket was empty at that moment,
        #: so the next read waits for ``select`` to report it readable.
        self._rx_drained = False
        #: Unsent wire segments (bytes / memoryviews), oldest first.
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
        self.send_many((frame,))

    def send_many(self, frames) -> int:
        """Vectored transmit: the whole batch in one gathered write.

        Each frame contributes its length prefix and its own segments
        (wire-encodable frames list theirs via ``encode_into``: stored
        header bytes plus a payload view) to one ``sendmsg``, so a
        burst costs one syscall and no user-space payload copy.  The
        call returns once everything is on the stream.
        """
        if frames:
            self._push(frames, wait=True)
        return len(frames)

    def _push(self, frames, wait: bool) -> bool:
        """Append ``frames`` to the tx backlog and flush it — until
        drained or dead when ``wait``, else as far as one non-blocking
        pass gets.  True when the backlog is empty."""
        if self._closed:
            raise InterfaceClosed("send on closed interface")
        segments, nbytes = self._gather(frames)
        with self._send_lock:
            self._tx_backlog.extend(segments)
            self._tx_bytes += nbytes
            try:
                drained = self._flush_locked()
                if wait and not drained:
                    drained = self._drain_locked()
            except InterfaceClosed:
                self._drop_tx()
                raise
        if frames:
            self.sent_frames += len(frames)
            self.sent_bytes += nbytes
            if len(frames) > 1:
                self.batched_sends += 1
                self.batched_frames += len(frames)
        return drained

    def _gather(self, frames) -> tuple:
        """``frames`` (bytes or wire-encodable) as one list of wire
        segments, each frame behind its length prefix, and the total
        byte count.  No segment is empty."""
        segments: list = []
        nbytes = 0
        pack = _LEN.pack
        max_frame = self.max_frame
        for frame in frames:
            prefix_at = len(segments)
            segments.append(None)  # the length prefix, known below
            encode_into = getattr(frame, "encode_into", None)
            if encode_into is not None:
                size = encode_into(segments)
            else:
                size = len(frame)
                if size:
                    segments.append(frame)
            if max_frame is not None and size > max_frame:
                raise ValueError(
                    f"{self.name} frame of {size} bytes exceeds the "
                    f"interface maximum of {max_frame}"
                )
            segments[prefix_at] = pack(size)
            nbytes += _LEN_SIZE + size
        return segments, nbytes

    def _drain_locked(self) -> bool:
        """Flush the backlog completely or tear the interface down.

        Caller holds ``_send_lock``.  Explicit partial-progress tracking
        replaces ``sendall``: a frame either reaches the stream in full
        (after bounded writability waits) or the interface dies with a
        typed :class:`InterfaceClosed` — a later send can never resume
        mid-frame, so the peer's length-prefixed parser cannot desync.
        """
        deadline = None
        while True:
            before = self._tx_bytes
            if self._flush_locked():
                return True
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

        Caller holds ``_send_lock``.  Progress is tracked per segment —
        a short write leaves the unsent tail as the new backlog head, so
        the next flush resumes exactly where the kernel stopped (within
        one frame, never skipping to the next).
        """
        backlog = self._tx_backlog
        while backlog:
            try:
                sent = self._sock.sendmsg(
                    backlog
                    if len(backlog) <= _IOV_MAX
                    else list(islice(backlog, _IOV_MAX))
                )
            except (BlockingIOError, InterruptedError):
                return False
            except OSError as exc:
                self._mark_dead()
                raise InterfaceClosed(f"peer connection lost: {exc}") from exc
            if sent == self._tx_bytes:
                self._drop_tx()  # the usual case: one write took it all
                return True
            self._tx_bytes -= sent
            while sent:
                head = backlog[0]
                if sent >= len(head):
                    sent -= len(head)
                    backlog.popleft()
                else:
                    backlog[0] = memoryview(head)[sent:]
                    sent = 0
        return True

    def _drop_tx(self) -> None:
        """Empty the backlog.  Caller holds ``_send_lock``."""
        self._tx_backlog.clear()
        self._tx_bytes = 0

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
        return self._push(frames, wait=False)

    def flush_backlog(self) -> bool:
        """Push backlogged bytes (non-blocking); True when drained."""
        return self._push((), wait=False)

    @property
    def backlog_bytes(self) -> int:
        return self._tx_bytes

    # -- receiving -----------------------------------------------------------

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        frames = self._receive(1, timeout)
        return frames[0] if frames else None

    def try_recv(self) -> Optional[bytes]:
        # Zero timeout => non-blocking poll (the user-level thread rule).
        return self.recv(0.0)

    def recv_many(self, max_n: int = 64, timeout: Optional[float] = None) -> list:
        """Every complete frame already buffered or readable, up to
        ``max_n``.

        Blocks up to ``timeout`` for the first frame, then keeps parsing
        whole buffers of frames (topping the stream buffer up with
        non-blocking reads) until the socket runs dry — one lock round
        for the whole batch.
        """
        return self._receive(max(max_n, 1), timeout)

    def _receive(self, max_n: int, timeout: Optional[float]) -> list:
        with self._recv_lock:
            frames = []
            try:
                if self._closed:
                    raise InterfaceClosed("recv on closed interface")
                frames = self._parse(max_n) or self._await_frames(
                    max_n, timeout
                )
                if frames:
                    # Top up while the socket may hold more: a read that
                    # came back short emptied it, and reading again
                    # could only return EAGAIN.
                    while (
                        len(frames) < max_n
                        and not self._rx_drained
                        and self._fill()
                    ):
                        frames += self._parse(max_n - len(frames))
            except InterfaceClosed:
                self._drop_rx()
                if not frames:
                    raise
                # EOF behind complete frames: deliver what arrived
                # first; the interface stays dead, so the caller's next
                # receive raises.
            return frames

    def _parse(self, limit: int) -> list:
        """Up to ``limit`` complete frames off the front of the stream
        buffer in one pass, each copied out as an owning ``bytes``.

        Caller holds ``_recv_lock``.  The cursor stops at the first
        incomplete frame, and the buffer is left able to hold all of it.
        """
        rx = self._rx
        start, end = self._rx_start, self._rx_end
        unpack_from = _LEN.unpack_from
        frames = []
        needed = 0
        while len(frames) < limit and end - start >= _LEN_SIZE:
            (length,) = unpack_from(rx, start)
            if length > MAX_FRAME:
                if frames:
                    break  # hand up what precedes it; the next call raises
                self._mark_dead()
                raise InterfaceClosed(
                    f"insane frame length {length}: stream desync"
                )
            body = start + _LEN_SIZE
            if end - body < length:
                needed = _LEN_SIZE + length
                break
            frames.append(bytes(rx[body : body + length]))
            start = body + length
        self.received_frames += len(frames)
        self.received_bytes += start - self._rx_start
        if start == end:
            start = end = 0
            if len(rx) > _RX_BUFFER_MAX:
                self._resize_rx(_RX_BUFFER_MAX, 0, 0)  # the long frame is done
        elif needed > len(rx):
            self._resize_rx(needed, start, end)
            start, end = 0, end - start
        self._rx_start, self._rx_end = start, end
        return frames

    def _resize_rx(self, size: int, start: int, end: int) -> None:
        """Swap in a ``size``-byte stream buffer, the present one's
        ``[start:end]`` at its front."""
        rx = memoryview(bytearray(size))
        rx[: end - start] = self._rx[start:end]
        self._rx = rx

    def _drop_rx(self) -> None:
        """Let go of the stream buffer.  Caller holds ``_recv_lock``."""
        self._rx = _NO_BUFFER
        self._rx_start = self._rx_end = 0

    def _fill(self) -> bool:
        """One non-blocking socket read into the stream buffer.

        Caller holds ``_recv_lock`` and has parsed every complete frame,
        so less than one frame is buffered: it moves to the front and
        the read gets the rest of the buffer.  True if bytes landed;
        False when the socket has nothing ready.  EOF and socket errors
        raise :class:`InterfaceClosed`.  Leaves ``_rx_drained`` saying
        whether the read emptied the socket.
        """
        rx = self._rx
        start, end = self._rx_start, self._rx_end
        if start:
            tail = bytes(rx[start:end])
            end = len(tail)
            rx[:end] = tail
            self._rx_start, self._rx_end = 0, end
        try:
            got = self._sock.recv_into(rx[end:])
        except (BlockingIOError, InterruptedError):
            self._rx_drained = True
            return False
        except OSError as exc:
            if self._closed:
                raise InterfaceClosed("recv on closed interface") from exc
            self._mark_dead()
            raise InterfaceClosed(f"peer connection lost: {exc}") from exc
        if not got:
            # Mark the interface dead so holders of a cached link (the
            # node's control-link table) re-dial instead of reusing a
            # half-closed stream.
            self._mark_dead()
            if end:
                raise InterfaceClosed("peer closed mid-frame")
            raise InterfaceClosed("peer closed the connection")
        end += got
        self._rx_end = end
        self._rx_drained = end < len(rx)
        if end == len(rx) and end < _RX_BUFFER_MAX:
            # The socket had at least a bufferful: read more next time.
            self._resize_rx(min(2 * end, _RX_BUFFER_MAX), 0, end)
        return True

    def _await_frames(self, limit: int, timeout: Optional[float]) -> list:
        """Read until a complete frame is buffered and parse up to
        ``limit``; ``[]`` when none arrived within ``timeout``.

        Caller holds ``_recv_lock`` and found no complete frame.  A zero
        ``timeout`` never waits, so a frame split across kernel writes
        (the sender's tail parked in its tx backlog behind a busy loop)
        simply stays buffered and does NOT start the mid-frame death
        clock: on TCP the only trustworthy death signals for that path
        are EOF and a socket error.  A blocking call waits up to
        ``timeout`` for the length prefix; the prefix commits it to the
        frame, which it finishes regardless of ``timeout`` so the stream
        cannot desynchronize on a partial read — but within
        ``mid_frame_timeout``: a peer that died mid-frame leaves a
        stream that can never resynchronize, so past that the interface
        is declared dead rather than wedging the thread.

        A blocking call on a socket the last read emptied goes to
        ``select`` first — the read could only return EAGAIN — and
        reads once the socket is reported readable (data, EOF or an
        error alike).  A zero ``timeout`` always reads.
        """
        poll = timeout is not None and timeout <= 0
        give_up = None if timeout is None else time.monotonic() + timeout
        stall_deadline = None
        while True:
            if (poll or not self._rx_drained) and self._fill():
                frames = self._parse(limit)
                if frames:
                    return frames
                continue
            if poll:
                return []
            now = time.monotonic()
            committed = self._rx_end - self._rx_start >= _LEN_SIZE
            if committed:
                if stall_deadline is None:
                    stall_deadline = now + self.mid_frame_timeout
                deadline = stall_deadline
            else:
                deadline = give_up
            if deadline is not None and now >= deadline:
                if not committed:
                    return []
                self.mid_frame_stalls += 1
                self._mark_dead()
                (length,) = _LEN.unpack_from(self._rx, self._rx_start)
                raise InterfaceClosed(
                    f"peer stalled mid-frame ({length}-byte frame unfinished "
                    f"after {self.mid_frame_timeout}s)"
                )
            wait = 0.25 if deadline is None else min(deadline - now, 0.25)
            try:
                readable, _, _ = select.select([self._sock], [], [], wait)
            except (OSError, ValueError) as exc:
                if self._closed:
                    raise InterfaceClosed("recv on closed interface") from exc
                self._mark_dead()
                raise InterfaceClosed(f"socket lost: {exc}") from exc
            if readable:
                self._rx_drained = False

    # -- teardown ------------------------------------------------------------

    def _mark_dead(self) -> None:
        """Record a transport failure: flag closed and drop the socket."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
        self._release_buffers()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._release_buffers()

    def _release_buffers(self) -> None:
        """Stop a dead endpoint pinning its stream buffer and backlog:
        closed connections sit in reference cycles, so whatever this
        object still holds is resident until the cyclic GC next runs.

        Each is dropped under the lock that guards it, taken without
        waiting: a side whose lock is busy is inside a call, which the
        closed socket fails with :class:`InterfaceClosed` — and every
        such exit drops that side's own buffer.
        """
        for lock, drop in (
            (self._recv_lock, self._drop_rx),
            (self._send_lock, self._drop_tx),
        ):
            if lock.acquire(blocking=False):
                try:
                    drop()
                finally:
                    lock.release()

    @property
    def closed(self) -> bool:
        return self._closed

    def metrics(self) -> dict:
        data = super().metrics()
        data["mid_frame_stalls"] = self.mid_frame_stalls
        data["partial_write_teardowns"] = self.partial_write_teardowns
        data["backlog_bytes"] = self._tx_bytes
        data["rx_buffered_bytes"] = self._rx_end - self._rx_start
        data["rx_buffer_capacity"] = len(self._rx)
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
        try:
            # Wake a thread blocked in accept(): closing the fd alone
            # leaves it waiting out its timeout.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
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
