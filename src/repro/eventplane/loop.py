"""The selector loop: one thread multiplexing a node's event-mode data.

Structure (classic readiness loop with a self-pipe):

* ``selectors.DefaultSelector`` (epoll on Linux) holds every socket
  endpoint, read-interest always, write-interest only while its
  interface has a transmit backlog.
* A non-blocking ``socketpair`` self-pipe lets other threads interrupt
  ``select()``: registrations, unregistrations, flush requests and
  queue-pair data-ready marks all enqueue an op and write one wake byte.
* Queue endpoints (loopback/HPI — no fd) live in a ready-set fed by the
  pair's data-ready callback; the loop drains them batch-by-batch
  between selector rounds, re-queueing any endpoint that still has
  frames so one chatty pair cannot starve the rest.

Everything the loop calls on a connection (`event_rx`) runs the
connection core's receiver half under that connection's receive lock,
so the loop thread and the node timer's receiver tick can't race; the
sender half stays behind the engine lock and is never touched from the
loop.
"""

from __future__ import annotations

import selectors
import socket
import threading
from collections import deque

from repro.eventplane.endpoint import EventEndpoint

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class EventLoop:
    """A node's event data plane: selector + self-pipe + loop thread."""

    #: Safety-net select timeout; every state change also writes the
    #: wake pipe, so this only bounds recovery from a lost wakeup.
    select_timeout = 0.25

    def __init__(self, name: str = "node"):
        self.name = name
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, _READ, None)
        self._lock = threading.Lock()
        self._ops: deque = deque()
        self._queue_ready: deque = deque()
        self._queue_ready_set: set = set()
        #: Socket endpoints currently registered, keyed by endpoint.
        self._masks: dict = {}
        #: Queue endpoints currently attached.
        self._queue_endpoints: set = set()
        self._stopped = False
        self._thread: threading.Thread | None = None
        # Stats (loop thread writes, anyone reads).
        self.loops = 0
        self.wakeups = 0
        self.read_dispatches = 0
        self.write_dispatches = 0
        self.queue_dispatches = 0

    # -- public API (any thread) -------------------------------------------

    def attach(self, connection) -> EventEndpoint:
        """Create and register an endpoint for ``connection``."""
        endpoint = EventEndpoint(connection, connection.interface, self)
        self.start()
        if endpoint.kind == "queue":
            # Queue registration is a lock-protected set insertion (no
            # selector mutation), so apply it inline: if it rode the op
            # queue, a loop iteration running between the op submission
            # and the ready mark below would see the endpoint as
            # unregistered and silently drop the mark — and a burst
            # that entirely pre-dates attach would never re-raise it.
            self._apply_register(endpoint)
            endpoint.attach_ready_callback()
            self.mark_queue_ready(endpoint)  # catch frames that pre-date it
        else:
            self._submit_op(("register", endpoint, None))
        return endpoint

    def unregister(self, endpoint, timeout: float = 2.0) -> None:
        """Remove ``endpoint``; returns once the loop forgot it."""
        if self._on_loop_thread():
            self._apply_unregister(endpoint)
            return
        done = threading.Event()
        self._submit_op(("unregister", endpoint, done))
        if not self._stopped:
            done.wait(timeout)

    def request_flush(self, endpoint) -> None:
        """An endpoint's interface has backlogged tx bytes: arm write
        interest (no-op if the backlog drains before the loop looks)."""
        self._submit_op(("flush", endpoint, None))

    def mark_queue_ready(self, endpoint) -> None:
        """A queue pair landed frames for ``endpoint`` (sender thread)."""
        with self._lock:
            if endpoint in self._queue_ready_set:
                return
            self._queue_ready_set.add(endpoint)
            self._queue_ready.append(endpoint)
        self._wake()

    def retire(self, endpoint) -> None:
        """Loop-thread-only: drop an endpoint whose transport died."""
        self._apply_unregister(endpoint)

    def start(self) -> None:
        with self._lock:
            if self._thread is not None or self._stopped:
                return
            self._thread = threading.Thread(
                target=self._run, name=f"eventloop-{self.name}", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        thread = self._thread
        self._stopped = True
        self._wake()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)
        try:
            self._selector.close()
        except Exception:
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass

    # -- introspection -------------------------------------------------------

    def selector_key_count(self) -> int:
        """Registered selector keys, excluding the wake pipe."""
        return max(0, len(self._selector.get_map()) - 1)

    def endpoint_count(self) -> int:
        """Endpoints of either kind the loop currently serves."""
        with self._lock:
            return len(self._masks) + len(self._queue_endpoints)

    def stats(self) -> dict:
        return {
            "loops": self.loops,
            "wakeups": self.wakeups,
            "read_dispatches": self.read_dispatches,
            "write_dispatches": self.write_dispatches,
            "queue_dispatches": self.queue_dispatches,
            "selector_keys": self.selector_key_count(),
            "endpoints": self.endpoint_count(),
        }

    # -- internals -----------------------------------------------------------

    def _on_loop_thread(self) -> bool:
        return threading.current_thread() is self._thread

    def _submit_op(self, op) -> None:
        with self._lock:
            self._ops.append(op)
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # pipe full or closed: a wakeup is already pending / moot

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                self.wakeups += 1
        except (BlockingIOError, OSError):
            pass

    def _set_mask(self, endpoint, mask: int) -> None:
        current = self._masks.get(endpoint)
        if current is None or current == mask:
            return
        try:
            self._selector.modify(endpoint.fileno(), mask, endpoint)
            self._masks[endpoint] = mask
        except (KeyError, ValueError, OSError):
            self._forget_socket(endpoint)

    def _forget_socket(self, endpoint) -> None:
        if self._masks.pop(endpoint, None) is not None:
            try:
                self._selector.unregister(endpoint.fileno())
            except (KeyError, ValueError, OSError):
                pass

    def _apply_register(self, endpoint) -> None:
        if self._stopped:
            return
        if endpoint.kind == "socket":
            try:
                self._selector.register(endpoint.fileno(), _READ, endpoint)
                self._masks[endpoint] = _READ
            except (ValueError, OSError):
                endpoint.connection.event_transport_lost("register")
        else:
            with self._lock:
                self._queue_endpoints.add(endpoint)

    def _apply_unregister(self, endpoint) -> None:
        self._forget_socket(endpoint)
        with self._lock:
            self._queue_endpoints.discard(endpoint)
            if endpoint in self._queue_ready_set:
                self._queue_ready_set.discard(endpoint)
                try:
                    self._queue_ready.remove(endpoint)
                except ValueError:
                    pass

    def _apply_ops(self) -> None:
        while True:
            with self._lock:
                if not self._ops:
                    return
                op, endpoint, done = self._ops.popleft()
            if op == "register":
                self._apply_register(endpoint)
            elif op == "unregister":
                self._apply_unregister(endpoint)
                if done is not None:
                    done.set()
            elif op == "flush":
                if endpoint in self._masks and endpoint.has_backlog():
                    self._set_mask(endpoint, _READ | _WRITE)

    def _process_queue_ready(self) -> None:
        """One fairness round over queue endpoints with pending frames."""
        with self._lock:
            batch = list(self._queue_ready)
            self._queue_ready.clear()
            self._queue_ready_set.clear()
        for endpoint in batch:
            with self._lock:
                if endpoint not in self._queue_endpoints:
                    continue
            self.queue_dispatches += 1
            if endpoint.on_readable():
                self.mark_queue_ready(endpoint)

    def _run(self) -> None:
        while not self._stopped:
            self._apply_ops()
            with self._lock:
                pending_queues = bool(self._queue_ready)
            timeout = 0.0 if pending_queues else self.select_timeout
            try:
                events = self._selector.select(timeout)
            except OSError:
                continue  # fd torn down mid-select; ops will clean up
            self.loops += 1
            for key, mask in events:
                endpoint = key.data
                if endpoint is None:
                    self._drain_wake()
                    continue
                if mask & _READ:
                    self.read_dispatches += 1
                    endpoint.on_readable()
                if mask & _WRITE and endpoint in self._masks:
                    self.write_dispatches += 1
                    if endpoint.on_writable():
                        self._set_mask(endpoint, _READ)
            self._process_queue_ready()
