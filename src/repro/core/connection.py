"""A configured NCS connection: the live driver of a ``ConnectionCore``.

Everything a connection *decides* lives in
:class:`~repro.core.conncore.ConnectionCore` (sans-I/O: segmentation,
error control, flow control, pressure accounting, handle bookkeeping).
A ``Connection`` only moves bytes and time for it, and the three data
planes differ in exactly three choices, made once in ``__init__``:

=========  ======================  ======================  ==================
plane      (a) sender half runs    (b) released SDUs go    (c) receiver pump
=========  ======================  ======================  ==================
threaded   protocol thread, fed    ``_send_chan`` -> Send  Receive Thread
           by ``_proto_chan``      Thread -> ``send_many``
bypass     caller, inline (§4.2)   ``send_many``, inline   application thread
                                                           inside ``recv``
event      caller, inline          ``EventEndpoint.submit``  selector loop
=========  ======================  ======================  ==================

The threaded plane mirrors the paper's data plane: the **protocol
thread** hosts the sender-side Error Control and Flow Control engines,
the **Send Thread** drains the flow-controlled transmit queue (Table I's
context-switch boundary sits between ``NCS_send`` and this thread), and
the **Receive Thread** pulls frames off the data connection — polling
``recv_many`` and yielding on the user-level package, never blocking the
process (§4.1).  In every plane the sender half runs under
``_engine_lock`` and the receiver half under ``_rx_lock``; the node
timer reads the single ``next_deadline`` slot and ticks both halves.

Attributes the core owns (``ec_sender`` … ``fc_receiver``,
``messages_received``, ``credit_gate_closed``, ``peer_gone``,
``trace_of`` …) read through the connection unchanged.
"""

from __future__ import annotations

import itertools
import threading
import time
from functools import partial
from typing import Optional

from repro.core.config import ConnectionConfig
from repro.core.conncore import ConnectionCore
from repro.core.errors import ConnectionClosedError, NCSOverloaded, NCSTimeout
from repro.core.handles import SendHandle
from repro.interfaces.base import (
    CommInterface,
    FaultInjector,
    FaultyInterface,
    InterfaceClosed,
)
from repro.protocol.pdus import ClosePdu, ControlPdu, CreditResyncPdu
from repro.util.trace import new_trace_id

_STOP = object()


class Connection:
    """One end of an established NCS point-to-point connection."""

    def __init__(
        self,
        node,
        conn_id: int,
        peer_name: str,
        peer_link,
        config: ConnectionConfig,
        interface: CommInterface,
    ):
        self.node = node
        self.conn_id = conn_id
        self.peer_name = peer_name
        self.peer_link = peer_link
        self.config = config
        self._recorder = node.recorder
        self.core = ConnectionCore(
            conn_id,
            config,
            budget=node.pressure,
            pressure_cfg=node.pressure_cfg,
            recorder=node.recorder,
            tracer=node.tracer,
        )
        fault_plan = config.fault_plan
        if fault_plan is None:
            from repro.faults.plan import plan_from_env

            fault_plan = plan_from_env()
        if fault_plan:
            # Full fault schedule: wraps the data interface (never the
            # control links) and reports every injected fault to the
            # flight recorder so dumps show cause alongside symptom.
            from repro.faults.injector import (
                PlannedFaultyInterface,
                PlannedInjector,
            )

            def _record_fault(kind: str, **detail) -> None:
                self._recorder.record("fault", kind, conn=conn_id, **detail)

            interface = PlannedFaultyInterface(
                interface,
                PlannedInjector(
                    fault_plan, clock=node.clock.now, on_fault=_record_fault
                ),
            )
        elif config.loss_rate or config.corrupt_rate:
            interface = FaultyInterface(
                interface,
                FaultInjector(
                    loss_rate=config.loss_rate,
                    corrupt_rate=config.corrupt_rate,
                    seed=config.fault_seed,
                ),
            )
        self.interface = interface
        self._pkg = node.pkg
        self._clock = node.clock
        self._tracer = node.tracer
        self._h_send_size = self._h_recv_size = None
        if node.metrics is not None:
            from repro.obs.registry import SIZE_BUCKETS

            labels = {
                "node": node.name,
                "conn": str(conn_id),
                "peer": peer_name,
            }
            self._h_send_size = node.metrics.histogram(
                "ncs_send_message_bytes", buckets=SIZE_BUCKETS, **labels
            )
            self._h_recv_size = node.metrics.histogram(
                "ncs_recv_message_bytes", buckets=SIZE_BUCKETS, **labels
            )

        #: Latency X-ray: this connection's live-span table and the only
        #: stage clock (repro.obs.xray.SpanTable), or None when the node
        #: samples nothing — then every hot path below pays exactly one
        #: `is not None` branch.
        self.xray = (
            None if node.xray is None
            else node.xray.span_table(conn_id, peer_name)
        )

        self._msg_ids = itertools.count(1)
        self.recv_queue = self._pkg.channel()
        self._closed = False
        #: The one slot the node timer reads: when this connection next
        #: needs ``on_timer_tick`` (None = no timer armed).
        self.next_deadline: Optional[float] = None
        self._deadline_lock = threading.Lock()
        #: Serialize the core's sender / receiver half (see module doc).
        self._engine_lock = threading.Lock()
        self._rx_lock = threading.Lock()

        # Sender-side counters are read-modify-write from any number of
        # application threads in send(); a dedicated lock keeps
        # increments from losing updates under contention.
        self._stats_lock = threading.Lock()
        self.messages_sent = 0
        self.bytes_sent = 0
        self.admission_rejections = 0
        self.admission_waits = 0

        # Blocked-receiver bookkeeping for the health watchdog: each
        # parked recv() registers its own start time so the "oldest
        # waiter" clock survives any *other* waiter leaving.
        self._waiters_lock = threading.Lock()
        self._waiter_tokens = itertools.count(1)
        self._recv_wait_starts: dict[int, float] = {}

        # Overload protection: NCS_send admission is the one blocking
        # piece of pressure accounting, so it stays with the driver.
        self._budget = node.pressure
        self._admission = config.admission or (
            node.pressure_cfg.policy if node.pressure_cfg is not None else "block"
        )

        # The driver, chosen once.
        self._proto_chan = self._send_chan = self._event_endpoint = None
        self._threads = []
        self._to_sender = self._run_sender
        self._transmit = self._write
        self._await_delivery = self._await_queue
        if config.mode == "threaded":
            self._proto_chan = self._pkg.channel()
            self._send_chan = self._pkg.channel()
            self._to_sender = self._post
            # A flow-released burst crosses to the Send Thread as one
            # channel item, not one per SDU.
            self._transmit = self._send_chan.put
            self._wire = self.interface.send_many
            self._threads = [
                self._pkg.spawn(self._proto_loop, name=f"proto-{conn_id}"),
                self._pkg.spawn(self._send_loop, name=f"send-{conn_id}"),
                self._pkg.spawn(self._recv_loop, name=f"recv-{conn_id}"),
            ]
        elif config.mode == "event":
            # Hand each burst to the selector plane's endpoint (backlog
            # append + loop wakeup) — never a blocking socket write from
            # the calling thread; the loop calls event_rx.
            self._event_endpoint = node.event_loop().attach(self)
            self._wire = self._event_endpoint.submit
        else:
            self._wire = self.interface.send_many
            self._pump_lock = threading.Lock()
            self._await_delivery = self._await_pump

    def __getattr__(self, name: str):
        # Only reached for attributes the connection itself lacks: the
        # engines, counters and flags the core owns.
        if name == "core":
            raise AttributeError(name)
        return getattr(self.core, name)

    # ------------------------------------------------------------------
    # Public primitives
    # ------------------------------------------------------------------

    def send(
        self,
        payload: bytes,
        wait: bool = False,
        timeout: Optional[float] = None,
    ) -> SendHandle:
        """NCS_send(): transmit ``payload`` on this connection.

        Returns a :class:`SendHandle`; with ``wait=True`` blocks until the
        error control engine confirms delivery (or raises on failure).
        """
        xray = self.xray
        span = None if xray is None else xray.begin_send()
        if self._closed:
            raise ConnectionClosedError(f"connection {self.conn_id} is closed")
        if self.core.peer_gone:
            # The transport is gone (peer Close or interface death):
            # accepting more work would only grow queues that nothing
            # will ever drain.  The recovery layer replays pending sends
            # over a fresh incarnation instead.
            raise ConnectionClosedError(
                f"connection {self.conn_id}: peer is gone (closed or transport lost)"
            )
        self._admit_send(len(payload), timeout)
        if span is not None:
            xray.send_stamp("admitted", own=span)
        msg_id = next(self._msg_ids)
        handle = SendHandle(msg_id, len(payload))
        trace_id = 0
        if self._tracer.enabled:
            # Cross-node trace envelope: the id allocated here rides the
            # SDU headers to the peer, where deliver/ack events adopt it.
            trace_id = new_trace_id()
        span_mark = 0
        if span is not None:
            # A sampled message always carries the trace envelope (the
            # id is allocated here even when tracing is off) so the
            # receiver recognizes it from span_id's top bit alone — no
            # wire-format change, and retransmits inherit the mark with
            # the stored SDUs.
            if not trace_id:
                trace_id = new_trace_id()
            span_mark = xray.track(span, msg_id, trace_id, len(payload))
        with self._stats_lock:
            self.messages_sent += 1
            self.bytes_sent += len(payload)
        if self._h_send_size is not None:
            self._h_send_size.observe(len(payload))
        self._recorder.record(
            "data", "send", conn=self.conn_id, msg=msg_id, size=len(payload),
            trace=trace_id,
        )
        if self._tracer.enabled:
            # Data-plane trace context: the msg_id emitted here reappears
            # in the control plane when the peer's ACK/credit comes back.
            self._tracer.emit(
                "data", "send",
                conn_id=self.conn_id, msg_id=msg_id, size=len(payload),
                trace=trace_id,
            )
        self._to_sender(("send", handle, payload, trace_id, span_mark, span))
        if wait:
            if not handle.wait(timeout):
                raise NCSTimeout(
                    f"send of message {msg_id} not confirmed within {timeout}s"
                )
        return handle

    def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """NCS_recv(): next complete message, or None on timeout.

        Every pass looks at the queue before it looks at the deadline,
        so ``timeout=0.0`` returns a message that is already there.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        token = self._enter_recv_wait()
        try:
            while True:
                remaining = 0.05
                if deadline is not None:
                    remaining = max(
                        0.0, min(remaining, deadline - time.monotonic())
                    )
                ok, item = self._await_delivery(remaining)
                if ok:
                    return self._delivery_popped(item)
                if (
                    self._closed or self.core.peer_gone
                ) and self.recv_queue.empty():
                    raise ConnectionClosedError(
                        f"connection {self.conn_id} closed with no pending data"
                    )
                if deadline is not None and remaining <= 0:
                    return None
        finally:
            self._exit_recv_wait(token)

    def try_recv(self) -> Optional[bytes]:
        """Non-blocking NCS_recv variant."""
        ok, item = self._await_delivery(0.0)
        return self._delivery_popped(item) if ok else None

    def _await_queue(self, timeout: float) -> tuple:
        """(c) threaded/event: someone else pumps; wait on the queue."""
        if timeout <= 0:
            return self.recv_queue.try_get()
        try:
            return True, self.recv_queue.get(timeout=timeout)
        except TimeoutError:
            return False, None

    def _await_pump(self, timeout: float) -> tuple:
        """(c) bypass: the application thread is the Receive Thread."""
        ok, item = self.recv_queue.try_get()
        if ok:
            return ok, item
        with self._pump_lock:
            self._pump_once(timeout)
        return self.recv_queue.try_get()

    def _enter_recv_wait(self) -> int:
        token = next(self._waiter_tokens)
        with self._waiters_lock:
            self._recv_wait_starts[token] = self._clock.now()
        return token

    def _exit_recv_wait(self, token: int) -> None:
        with self._waiters_lock:
            self._recv_wait_starts.pop(token, None)

    # ------------------------------------------------------------------
    # Overload protection: blocking admission and delivery hand-back
    # ------------------------------------------------------------------

    def _admit_send(self, nbytes: int, timeout: Optional[float]) -> None:
        """Charge ``nbytes`` to the send site or apply the admission policy.

        ``block`` waits for room (NCSTimeout at the deadline, matching
        the NCS_recv timeout contract); ``fail-fast`` raises a typed
        :class:`NCSOverloaded` immediately; ``shed-oldest`` evicts the
        stalest queued deliveries node-wide until the reservation fits.
        """
        budget = self._budget
        if budget is None or budget.try_reserve("send", self.conn_id, nbytes):
            return
        policy = self._admission
        if policy == "fail-fast":
            raise self._overloaded(nbytes, "memory budget full")
        if policy == "shed-oldest":
            if self.node.shed_for(self, nbytes):
                return
            raise self._overloaded(
                nbytes, "budget full and nothing left to shed"
            )
        # block (default)
        with self._stats_lock:
            self.admission_waits += 1
        self._recorder.record(
            "pressure", "admission_wait", conn=self.conn_id, size=nbytes
        )
        outcome = budget.reserve_blocking(
            "send",
            self.conn_id,
            nbytes,
            deadline=None if timeout is None else time.monotonic() + timeout,
            should_abort=lambda: self._closed or self.core.peer_gone,
        )
        if outcome == "ok":
            return
        if outcome == "aborted":
            raise ConnectionClosedError(
                f"connection {self.conn_id} closed while waiting for budget"
            )
        raise NCSTimeout(
            f"connection {self.conn_id}: send admission not granted within "
            f"{timeout}s (budget full)"
        )

    def _overloaded(self, nbytes: int, why: str) -> NCSOverloaded:
        budget = self._budget
        budget.count_rejection()
        with self._stats_lock:
            self.admission_rejections += 1
        self._recorder.record(
            "pressure", "reject", conn=self.conn_id, size=nbytes
        )
        return NCSOverloaded(
            f"connection {self.conn_id}: send of {nbytes} bytes rejected, {why}",
            site="send",
            requested=nbytes,
            used=budget.used(),
            limit=budget.node_bytes,
        )

    def _delivery_popped(self, message):
        """The application consumed ``message``: close its X-ray span and
        release its delivery-site bytes (which may reopen the credit
        gate and flush the withheld grants)."""
        if self.xray is not None:
            self.xray.taken(len(message))
        if self._budget is not None:
            with self._rx_lock:
                self._send_controls(self.core.on_consumed(len(message)).controls)
        return message

    def shed_oldest_delivery(self) -> int:
        """Evict the oldest queued delivery; returns bytes freed (0 if none).

        Only *delivery-site* bytes are sheddable: the message was
        acknowledged at the protocol level but not yet observed by the
        application, so dropping it trades exactly-once for survival —
        which is why it only happens under the explicit ``shed-oldest``
        policy, is counted, and lands in the flight recorder.
        """
        ok, message = self.recv_queue.try_get()
        if not ok:
            return 0
        if self.xray is not None:
            self.xray.taken(len(message), shed=True)
        with self._rx_lock:
            self._send_controls(
                self.core.on_consumed(len(message), shed=True).controls
            )
        return len(message)

    def oldest_delivery_ts(self) -> Optional[float]:
        """Enqueue time of the stalest queued delivery (None when empty)."""
        if self.recv_queue.empty():
            return None
        with self._rx_lock:
            return self.core.oldest_delivery_ts()

    def pending_sends(self) -> list:
        """Unacknowledged in-flight messages as ``(msg_id, payload)``.

        Reconstructed from the error-control window state; the recovery
        layer replays these over a fresh incarnation after a reconnect.
        """
        with self._engine_lock:
            return self.core.ec_sender.pending()

    def held_deliveries(self) -> list:
        """Reassembled-but-held inbound messages (reorder buffer).

        These were acknowledged on completion, so the peer will never
        retransmit them; a dying connection must surrender them to the
        application instead of discarding them with the engine.
        """
        with self._rx_lock:
            return self.core.ec_receiver.held_deliveries()

    @property
    def recv_waiters(self) -> int:
        """recv() calls currently parked waiting for a message."""
        with self._waiters_lock:
            return len(self._recv_wait_starts)

    def recv_blocked_for(self, now: float) -> float:
        """Seconds the oldest *still-waiting* recv() has been blocked.

        Each waiter's start time is tracked individually: a short-lived
        waiter arriving and leaving must neither reset nor inherit the
        clock of a long-blocked survivor.
        """
        with self._waiters_lock:
            if not self._recv_wait_starts:
                return 0.0
            return max(0.0, now - min(self._recv_wait_starts.values()))

    def health_sample(self, now: Optional[float] = None) -> dict:
        """A point-in-time sample for the health detectors."""
        from repro.obs.health import sample_connection

        return sample_connection(self, self._clock.now() if now is None else now)

    def health(self, prev: Optional[dict] = None):
        """One-shot diagnosis of this connection.

        Pass a previous :meth:`health_sample` dict to enable the
        windowed detectors (starvation, retransmit storms); without one,
        only instantaneous signals apply.  Returns a
        :class:`repro.obs.health.Diagnosis`.
        """
        from repro.obs.health import classify

        return classify(self.health_sample(), prev)

    def close(self, notify_peer: bool = True) -> None:
        """Tear the connection down and stop its threads."""
        if self._closed:
            return
        self._closed = self.core.closed = True
        self._recorder.record(
            "state", "close", conn=self.conn_id, peer=self.peer_name,
            sent=self.messages_sent, received=self.core.messages_received,
        )
        if notify_peer and not self.core.peer_gone:
            self._send_controls([ClosePdu(self.conn_id)])
        if self._proto_chan is not None:
            self._proto_chan.put((_STOP,))
            self._send_chan.put(_STOP)
        # Give the data threads a moment to drain, then cut the interface.
        for handle in self._threads:
            handle.join(timeout=1.0)
        if self._event_endpoint is not None:
            # Remove the selector registration *before* closing the fd so
            # no key can outlive the connection.
            self._event_endpoint.detach()
        self.interface.close()
        if self.xray is not None:
            self.xray.clear()
        self.node._forget_connection(self.conn_id)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """Counters from the connection and its engines."""
        core = self.core
        stats = {
            "messages_sent": self.messages_sent,
            "messages_received": core.messages_received,
            "frames_malformed": core.frames_malformed,
            "acks_deduped": core.acks_deduped,
            "fc_queued": core.fc_sender.queued(),
            "admission_rejections": self.admission_rejections,
            "admission_waits": self.admission_waits,
            "deliveries_shed": core.deliveries_shed,
            "credits_withheld": core.credits_withheld,
            "slow_consumer_trips": core.slow_consumer_trips,
        }
        for attr in ("retransmitted_sdus", "full_retransmits"):
            if hasattr(core.ec_sender, attr):
                stats[attr] = getattr(core.ec_sender, attr)
        for attr in ("acks_sent", "corrupted_count", "duplicate_count",
                     "dropped_messages", "discarded_out_of_order"):
            if hasattr(core.ec_receiver, attr):
                stats[attr] = getattr(core.ec_receiver, attr)
        injector = getattr(self.interface, "injector", None)
        if injector is not None:
            stats["injected_drops"] = injector.dropped
            stats["injected_corruptions"] = injector.corrupted
        return stats

    def metrics_totals(self) -> dict:
        """Flat per-connection metric dict spanning every layer.

        Keys are prefixed by plane/engine (``fc_tx_``, ``fc_rx_``,
        ``ec_tx_``, ``ec_rx_``, ``if_``), matching the gauges the node's
        metrics collector publishes at snapshot time.
        """
        totals = {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "pressure_admission_rejections": self.admission_rejections,
            "pressure_admission_waits": self.admission_waits,
            **self.core.counters(),
        }
        if self._budget is not None:
            totals["pressure_conn_used"] = self._budget.used(self.conn_id)
        interface_metrics = getattr(self.interface, "metrics", None)
        if callable(interface_metrics):
            for key, value in interface_metrics().items():
                totals[f"if_{key}"] = value
        return totals

    def publish_metrics(self, registry) -> None:
        """Publish this connection's totals as labelled gauges."""
        labels = {
            "node": self.node.name,
            "conn": str(self.conn_id),
            "peer": self.peer_name,
        }
        for key, value in self.metrics_totals().items():
            if isinstance(value, (int, float)):
                registry.gauge("ncs_conn_" + key, **labels).set(value)

    # ------------------------------------------------------------------
    # Entry points for the node's threads: control reader and timer
    # ------------------------------------------------------------------

    def on_control_pdu(self, pdu: ControlPdu) -> None:
        """Route one inbound control PDU for this connection."""
        if isinstance(pdu, ClosePdu):
            self._note_peer_gone("peer_close")
        elif isinstance(pdu, CreditResyncPdu):
            # Receiver half: touches only gate state, never the sender
            # engines, so it is answered right here on the reader thread.
            with self._rx_lock:
                self._send_controls(
                    self.core.on_resync_request(self._clock.now()).controls
                )
        else:
            self.on_control_run((pdu,))

    def on_control_run(self, pdus) -> None:
        """ACKs and credits that arrived together, in arrival order:
        one sender-half event for the run."""
        self._to_sender(("control", pdus))

    def on_timer_tick(self, now: float) -> None:
        """Called by the node timer once ``next_deadline`` has passed."""
        if self._closed:
            return
        core = self.core
        due = core.sender_deadline
        if due is not None and now >= due:
            self._to_sender(("timer",))
        due = core.recv_deadline
        if due is not None and now >= due:
            with self._rx_lock:
                self._apply(core.on_recv_timer(now))

    def _note_peer_gone(self, what: str, **detail) -> None:
        """The peer closed, or the data interface died under us (not a
        local close).

        Flags ``peer_gone`` so blocked receivers unblock with a typed
        error and the health/recovery layers see the outage instead of
        a silently parked thread.
        """
        if self._closed or self.core.peer_gone:
            return
        self.core.peer_gone = True
        self._recorder.record(
            "state", what, conn=self.conn_id, peer=self.peer_name, **detail
        )

    def event_transport_lost(self, where: str) -> None:
        """The data path died at ``where`` (any plane reports here)."""
        self._note_peer_gone("transport_lost", where=where)

    # ------------------------------------------------------------------
    # (a) Who runs the sender half
    # ------------------------------------------------------------------

    def _run_sender(self, event: tuple) -> None:
        """Feed one event — send request, run of control PDUs or timer
        tick — to the core's sender half and carry out what it decides."""
        core = self.core
        kind = event[0]
        xray = self.xray
        stamp = xray.send_stamp if xray is not None and xray.sends else None
        with self._engine_lock:
            now = self._clock.now()
            if kind == "send":
                _, handle, payload, trace_id, span_mark, span = event
                if span is not None:
                    stamp = partial(xray.send_stamp, own=span)
                effects = core.submit(
                    handle, payload, now, trace_id, span_mark or None, stamp
                )
            elif kind == "control":
                effects = core.on_controls(event[1], now, stamp)
            else:
                effects = core.on_timer(now, stamp)
            self._apply(effects)

    def _post(self, event: tuple) -> None:
        """Threaded plane: hand the event to the protocol thread.  (The
        stamp precedes the put: the thread may dequeue the instant the
        request lands.)"""
        if self.xray is not None:
            self.xray.hop("queued", event)
        self._proto_chan.put(event)

    def _proto_loop(self) -> None:
        """Threaded plane: hosts the sender-side EC and FC engines."""
        while True:
            try:
                event = self._proto_chan.get(timeout=0.1)
            except TimeoutError:
                if self._closed:
                    return
                continue
            if event[0] is _STOP:
                return
            if self.xray is not None:
                self.xray.hop("dequeued", event)
            self._run_sender(event)

    # ------------------------------------------------------------------
    # (b) Where released SDUs and control PDUs go
    # ------------------------------------------------------------------

    def _apply(self, effects) -> None:
        """Carry out one core decision: SDUs to the data plane, PDUs to
        the control plane, messages to the application."""
        if effects.transmits:
            self._transmit(effects.transmits)
        if effects.controls:
            self._send_controls(effects.controls)
        if self.xray is not None and effects.deliveries:
            self.xray.delivering(len(effects.deliveries))
        for message in effects.deliveries:
            if self._h_recv_size is not None:
                self._h_recv_size.observe(len(message))
            self.recv_queue.put(message)
        if self.xray is not None and self.xray.sends:
            # A send that died before reaching the wire never finishes.
            self.xray.drop_sends(effects.failed)
        if self.core.next_deadline != self.next_deadline:
            # (Recomputed under the lock: the two halves publish from
            # different threads, and the later writer must win.)
            with self._deadline_lock:
                self.next_deadline = self.core.next_deadline

    def _send_controls(self, pdus) -> None:
        """The one way out for control PDUs: the PDUs of one core
        decision cross to the node's Control Send Thread as one queue
        item (unbounded, so this cannot fail; a dead link is the Control
        Send Thread's to notice)."""
        if pdus:
            self.node.control_send_many(self.peer_link, pdus)

    def _send_loop(self) -> None:
        """The paper's Send Thread: transmit flow-released SDUs.

        Blocks for the first queued burst, tops it up with whatever else
        the channel already holds while it is short of ``batch_max``,
        and writes ``batch_max`` SDUs per vectored ``send_many`` — one
        interface call, and on stream interfaces one syscall, per chunk
        instead of per packet (``batch_max=1``: per-frame writes).
        """
        batch_max = self.config.batch_max
        while True:
            try:
                sdus = self._send_chan.get(timeout=0.1)
            except TimeoutError:
                if self._closed:
                    return
                continue
            if sdus is _STOP:
                return
            stop = False
            while len(sdus) < batch_max:
                ok, extra = self._send_chan.try_get()
                if not ok:
                    break
                if extra is _STOP:
                    stop = True  # transmit what we collected, then exit
                    break
                sdus = sdus + extra
            if self.xray is not None and self.xray.sends:
                self.xray.send_stamp("send_thread_dequeued", sdus)
            for start in range(0, len(sdus), batch_max):
                if not self._write(sdus[start : start + batch_max]):
                    return
            if stop:
                return

    def _write(self, sdus: list) -> bool:
        """Put flow-released SDUs on the wire — ``send_many``, or the
        event endpoint's ``submit`` — and report their departure.  False
        when the transport turned out to be dead."""
        try:
            self._wire(sdus)
        except InterfaceClosed:
            self.event_transport_lost("send")
            return False
        if self._tracer.enabled:
            # One transmit event per traced message in the batch — the
            # wire-departure span for the cluster trace merger.
            transmitted: dict = {}
            for sdu in sdus:
                header = sdu.header
                if header.trace_id:
                    key = (header.msg_id, header.trace_id)
                    transmitted[key] = transmitted.get(key, 0) + 1
            for (msg_id, trace_id), count in transmitted.items():
                self._tracer.emit(
                    "data", "transmit",
                    conn_id=self.conn_id, msg_id=msg_id,
                    sdus=count, trace=trace_id,
                )
        if self.xray is not None and self.xray.sends:
            self.xray.send_stamp("transmitted", sdus)
        return True

    # ------------------------------------------------------------------
    # (c) Who pumps the receiver half
    # ------------------------------------------------------------------

    def _on_frames(self, frames: list) -> None:
        """Run one batch of raw frames through the core's receiver half
        and carry out what it decides (credits and ACKs out, messages to
        the receive queue) — atomically, so deliveries released by the
        node timer cannot overtake or be overtaken by a batch."""
        with self._rx_lock:
            stamp = None if self.xray is None else self.xray.begin_batch()
            self._apply(self.core.on_frames(frames, self._clock.now(), stamp))

    def _pump_once(self, timeout: float) -> Optional[bool]:
        """Read whatever the data interface has ready (waiting up to
        ``timeout`` for the first frame) and process it as one batch.
        True if frames arrived, None if the transport is dead."""
        try:
            frames = self.interface.recv_many(
                self.config.batch_max, timeout=timeout
            )
        except InterfaceClosed:
            self.event_transport_lost("recv")
            return None
        if frames:
            self._on_frames(frames)
        return bool(frames)

    def _recv_loop(self) -> None:
        """The paper's Receive Thread: poll-and-yield on the user-level
        package, blocking-with-timeout on the kernel package."""
        poll_mode = self._pkg.kind == "user"
        while not self._closed:
            got = self._pump_once(0.0 if poll_mode else 0.05)
            if got is None:
                return
            if poll_mode and not got:
                self._pkg.yield_control()

    def event_rx(self, frames: list) -> None:
        """Event plane: frames handed over by the selector loop."""
        if not self._closed and frames:
            self._on_frames(frames)
