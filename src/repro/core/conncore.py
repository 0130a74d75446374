"""The connection state machine, written once and driven by anyone.

``ConnectionCore`` is everything an NCS connection *decides*: which SDUs
may leave now, which control PDUs must go back, which messages are
complete, which sends are confirmed, and when it next needs the clock.
It performs no I/O, owns no thread or lock and never reads a clock:
every entry point takes ``now`` and returns one
:class:`~repro.protocol.effects.Effects` whose

* ``transmits`` are already released by flow control (EC -> FC offer ->
  pull has run), so a driver only has to put them on the wire;
* ``controls`` are already deduplicated and credit-gated, so a driver
  only has to put them on the control connection;
* ``deliveries`` are already accounted, so a driver only has to hand
  them to the application;
* ``timer_at`` is the deadline of the half that was called.

The two halves share no state, so a driver may run them on different
threads as long as it serializes calls *within* each half:

* sender half — :meth:`submit`, :meth:`on_control`, :meth:`on_timer`;
* receiver half — :meth:`on_frames`, :meth:`on_recv_timer`,
  :meth:`on_consumed`, :meth:`on_resync_request`.

The live :class:`~repro.core.connection.Connection` (threaded, bypass
and event planes) and the virtual-time
:class:`~repro.simnet.ncs_sim.SimNcsEndpoint` are the drivers; they
move bytes and time and nothing else.

Stage boundaries that fall inside a call are reported through the
optional ``stamp(name, sdus=None, message=None)`` callback — ``sdus``
are the SDUs crossing the boundary (None: the boundary belongs to the
message being submitted), ``message`` the reassembled payload at the
``reassembled`` boundary.  The core never times anything itself.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.handles import SendStatus
from repro.errorcontrol import make_error_control
from repro.flowcontrol import make_flow_control
from repro.obs.recorder import NULL_RECORDER
from repro.protocol.effects import Effects
from repro.protocol.headers import HeaderError, Sdu
from repro.protocol.pdus import AckPdu, CreditPdu, CreditResyncPdu, CumAckPdu
from repro.util.trace import GLOBAL_TRACER

_ACKS = (AckPdu, CumAckPdu)


def earliest(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """The sooner of two optional deadlines (None when neither is armed)."""
    if a is None or (b is not None and b < a):
        return b
    return a


class ConnectionCore:
    """Sans-I/O protocol state of one end of a connection."""

    def __init__(
        self,
        conn_id: int,
        config,
        budget=None,
        pressure_cfg=None,
        recorder=NULL_RECORDER,
        tracer=GLOBAL_TRACER,
    ):
        self.conn_id = conn_id
        self.config = config
        ec_options = {
            "retransmit_timeout": config.retransmit_timeout,
            "max_retries": config.max_retries,
        }
        if config.error_control == "go_back_n":
            ec_options["window"] = config.gbn_window
        self.ec_sender, self.ec_receiver = make_error_control(
            config.error_control, conn_id, config.sdu_size, **ec_options
        )
        fc_options = {}
        if config.flow_control == "credit":
            fc_options = {
                "initial_credits": config.initial_credits,
                "max_credits": config.max_credits,
            }
            if config.fc_resync_timeout is not None:
                fc_options["resync_timeout"] = config.fc_resync_timeout
        elif config.flow_control == "window":
            fc_options = {"window_size": config.window_size}
        elif config.flow_control == "rate":
            fc_options = {"rate_pps": config.rate_pps, "burst": config.rate_burst}
        self.fc_sender, self.fc_receiver = make_flow_control(
            config.flow_control, conn_id, **fc_options
        )
        self._recorder = recorder
        self._tracer = tracer
        #: Set by the driver when the data path is dead (peer Close,
        #: transport lost) or locally closed: nothing more is released.
        self.peer_gone = False
        self.closed = False

        # Sender half.
        self._handles: dict = {}
        #: msg_id -> trace_id for in-flight traced sends; entries live
        #: exactly as long as the send handle.
        self._trace_ids: dict = {}
        self._ec_timer_at: Optional[float] = None
        #: A retransmission deadline was deferred behind flow control and
        #: the clock must restart when the gated SDUs finally leave.
        self._deferred = False
        #: min(EC retransmission deadline, FC next-ready time).
        self.sender_deadline: Optional[float] = None
        self.messages_completed = 0

        # Receiver half.
        #: Receiver-side housekeeping deadline (ordered-delivery gap
        #: release, unreliable-mode reassembly GC).
        self.recv_deadline: Optional[float] = None
        self.messages_received = 0
        self.bytes_received = 0
        self.frames_malformed = 0
        #: Per-SDU acknowledgments superseded within one receive batch (a
        #: later ACK for the same message already carried the final
        #: bitmap) and therefore never sent.
        self.acks_deduped = 0

        # Overload protection: every payload byte buffered here is
        # charged to the node's MemoryBudget (None = subsystem off).
        # Control PDUs are never charged.
        self._budget = budget
        self._delivery_quota = (
            pressure_cfg.delivery_quota_bytes if pressure_cfg is not None else 0
        )
        self._resume_below = int(
            self._delivery_quota
            * (pressure_cfg.resume_fraction if pressure_cfg is not None else 0.5)
        )
        #: FIFO of (enqueue_ts, nbytes) mirroring the driver's delivery
        #: queue, for shed-oldest victim selection.
        self._delivery_log: deque = deque()
        self.credit_gate_closed = False
        self._withheld_credits = 0
        self.deliveries_shed = 0
        self.credits_withheld = 0
        self.credit_pdus_withheld = 0
        self.slow_consumer_trips = 0
        self.resync_requests_answered = 0

    @property
    def next_deadline(self) -> Optional[float]:
        """When this connection next needs :meth:`on_timer` and/or
        :meth:`on_recv_timer` (None: no timer armed)."""
        return earliest(self.sender_deadline, self.recv_deadline)

    def trace_of(self, msg_id: int) -> int:
        """Trace id of an in-flight traced send (0 when untraced/done)."""
        return self._trace_ids.get(msg_id, 0)

    def oldest_delivery_ts(self) -> Optional[float]:
        """Enqueue time of the stalest undelivered message (or None)."""
        log = self._delivery_log
        return log[0][0] if log else None

    def counters(self) -> dict:
        """Core-owned totals plus every engine's, keyed as
        ``Connection.metrics_totals`` (``fc_tx_``, ``fc_rx_``, ``ec_tx_``,
        ``ec_rx_`` prefixes)."""
        totals = {
            "messages_received": self.messages_received,
            "bytes_received": self.bytes_received,
            "frames_malformed": self.frames_malformed,
            "acks_deduped": self.acks_deduped,
            "pressure_deliveries_shed": self.deliveries_shed,
            "pressure_credits_withheld": self.credits_withheld,
            "pressure_credit_pdus_withheld": self.credit_pdus_withheld,
            "pressure_slow_consumer_trips": self.slow_consumer_trips,
            "pressure_credit_gate_closed": int(self.credit_gate_closed),
        }
        for prefix, engine in (
            ("fc_tx", self.fc_sender),
            ("fc_rx", self.fc_receiver),
            ("ec_tx", self.ec_sender),
            ("ec_rx", self.ec_receiver),
        ):
            for key, value in engine.metrics().items():
                totals[f"{prefix}_{key}"] = value
        return totals

    # ------------------------------------------------------------------
    # Sender half
    # ------------------------------------------------------------------

    def submit(
        self, handle, payload, now: float, trace_id: int = 0, span_id=None,
        stamp=None,
    ) -> Effects:
        """NCS_send: segment ``payload`` and release what flow control
        allows.  ``handle`` (``msg_id``, ``size``, ``_resolve(status)``)
        is resolved when error control confirms or abandons the send."""
        self._handles[handle.msg_id] = handle
        if trace_id:
            self._trace_ids[handle.msg_id] = trace_id
        effects = self.ec_sender.send(
            handle.msg_id, payload, now, trace_id=trace_id, span_id=span_id
        )
        if stamp is not None:
            stamp("segmented")
        return self._chain(effects, now, stamp)

    def on_control(self, pdu, now: float, stamp=None) -> Effects:
        """A credit or acknowledgment arrived from the peer (the one-PDU
        form of :meth:`on_controls`)."""
        return self.on_controls((pdu,), now, stamp)

    def on_controls(self, pdus, now: float, stamp=None) -> Effects:
        """A run of credits and acknowledgments arrived from the peer.

        Each reaches its engine in arrival order and the run ends in
        one flow-control pump, so an ACK and the credit that rode in
        with it cost one decision, not two.  Between PDUs the pump runs
        only while SDUs are gated behind flow control — with nothing
        queued it would release nothing and show the engine nothing —
        so a gated sender sees every PDU exactly as if it had arrived
        alone (its stall and resync clocks start at a blocked pull).
        """
        out = Effects()
        released: list = []
        last = len(pdus) - 1
        for index, pdu in enumerate(pdus):
            if isinstance(pdu, CreditPdu):
                self._recorder.record(
                    "flow", "credit", conn=self.conn_id, credits=pdu.credits
                )
                self.fc_sender.on_control(pdu, now)
            elif isinstance(pdu, _ACKS):
                self._recorder.record(
                    "error", "ack", conn=self.conn_id, msg=pdu.msg_id,
                    trace=self.trace_of(pdu.msg_id),
                )
                effects = self.ec_sender.on_control(pdu, now)
                if effects.transmits and (
                    getattr(self.ec_sender, "last_retransmit_at", -1.0) == now
                ):
                    # Selective retransmissions; go-back-N window refills
                    # transmit *new* SDUs and leave last_retransmit_at
                    # alone.
                    self._record_retransmit(effects, "ack")
                self._offer(effects, stamp)
                # (Its SDUs now wait behind flow control: the pump, not
                # the merge, decides ``out.transmits``.)
                out.merge(effects)
            if index < last and self.fc_sender.queued():
                released += self._pump(out, now, stamp).transmits
        self._pump(out, now, stamp)
        if released:
            out.transmits = released + out.transmits
        return out

    def on_timer(self, now: float, stamp=None) -> Effects:
        """The sender deadline passed.

        While flow control still gates queued SDUs an acknowledgment was
        never possible, so retransmission deadlines are deferred rather
        than fired (the paper starts the timer only after the last
        packet reaches the Send Thread); the pump still runs so stalled
        credit/window/rate controllers make progress.
        """
        if self.fc_sender.queued() > 0:
            self._ec_timer_at = self.ec_sender.defer(now)
            self._deferred = True
            return self._pump(Effects(), now, stamp)
        effects = self.ec_sender.on_timer(now)
        if effects.transmits:
            # Timer-driven transmits are retransmissions by definition.
            self._record_retransmit(effects, "timeout")
        return self._chain(effects, now, stamp)

    def _record_retransmit(self, effects: Effects, cause: str) -> None:
        self._recorder.record(
            "error", "retransmit",
            conn=self.conn_id, sdus=len(effects.transmits), cause=cause,
        )

    def _chain(self, effects: Effects, now: float, stamp) -> Effects:
        """Error control's effects -> flow control offer -> pump."""
        self._offer(effects, stamp)
        return self._pump(effects, now, stamp)

    def _offer(self, effects: Effects, stamp) -> None:
        """Take in one error-control decision: its SDUs queue behind
        flow control, its finished sends resolve, its deadline stands."""
        self._ec_timer_at = effects.timer_at
        if effects.transmits:
            self.fc_sender.offer(effects.transmits)
            if stamp is not None:
                stamp("offered", effects.transmits)
        for msg_id in effects.completed:
            self._resolve(msg_id, SendStatus.COMPLETED)
        for msg_id in effects.failed:
            self._resolve(msg_id, SendStatus.FAILED)

    def _pump(self, out: Effects, now: float, stamp) -> Effects:
        """Release whatever flow control currently allows (Fig. 7 step
        3) into ``out.transmits`` and re-derive the sender deadline."""
        out.transmits = []
        fc_ready_at = None
        if not (self.peer_gone or self.closed):
            # (A dead data path releases nothing: the SDUs stay queued in
            # the flow controller and ``ec_sender.pending()`` is what the
            # recovery layer replays over a fresh incarnation.)
            out.transmits = self.fc_sender.pull(now)
            if self.fc_sender.take_resync_request():
                # Two-phase credit resync: ask the receiver to restore
                # the pool instead of restoring it unilaterally — its
                # slow-consumer gate gets to answer "stay pinned".
                self._recorder.record(
                    "flow", "resync_request", conn=self.conn_id
                )
                out.controls.append(CreditResyncPdu(self.conn_id))
            if stamp is not None:
                stamp("flow_released", out.transmits)
            if self._deferred and self.fc_sender.queued() == 0:
                # The gated tail just left: the retransmission clock
                # starts now, not when the deadline was first deferred.
                self._deferred = False
                self._ec_timer_at = self.ec_sender.defer(now)
            fc_ready_at = self.fc_sender.next_ready_time(now)
        out.timer_at = self.sender_deadline = earliest(
            self._ec_timer_at, fc_ready_at
        )
        return out

    def _resolve(self, msg_id: int, status: SendStatus) -> None:
        handle = self._handles.pop(msg_id, None)
        trace_id = self._trace_ids.pop(msg_id, 0)
        if handle is None:
            return
        if self._budget is not None and handle.size > 0:
            self._budget.release("send", self.conn_id, handle.size)
        if status is SendStatus.COMPLETED:
            self.messages_completed += 1
            if self._tracer.enabled and trace_id:
                # Span end on the sender: the ACK round-trip closed.
                self._tracer.emit(
                    "data", "complete",
                    conn_id=self.conn_id, msg_id=msg_id, trace=trace_id,
                )
        else:
            self._recorder.record(
                "error", "send_failed", conn=self.conn_id, msg=msg_id,
                trace=trace_id,
            )
        handle._resolve(status)

    # ------------------------------------------------------------------
    # Receiver half
    # ------------------------------------------------------------------

    def on_frames(self, frames: list, now: float, stamp=None) -> Effects:
        """Run one batch of raw frames through the receiver engines.

        The whole batch shares one clock reading, one coalesced flow
        control pass (a single CreditPdu on the credit path) and one
        deduplicated ACK flush.
        """
        out = Effects(timer_at=self.recv_deadline)
        decode = Sdu.decode
        sdus = []
        for frame in frames:
            try:
                sdus.append(decode(frame))
            except HeaderError:
                self.frames_malformed += 1
        if not sdus:
            return out
        if stamp is not None:
            stamp("decoded", sdus)
        # Fig. 4 steps 8-9: the Flow Control Thread returns credit over
        # the control connection (withheld while we are a slow consumer:
        # the grant is kept, not lost)...
        out.controls = [
            pdu
            for pdu in self.fc_receiver.on_sdu_batch(sdus, now)
            if not self._gate_credit(pdu)
        ]
        if stamp is not None:
            stamp("fc_done")
        # ...then the Error Control Thread reassembles and acknowledges,
        # every SDU's effects landing in the batch's one record.
        deliveries = out.deliveries
        delivered_msg = None
        delivered_trace = 0
        #: Sender-assigned trace ids seen in this batch, keyed by msg_id
        #: — lets the receiver tag its ACKs with the originating trace.
        traces: dict = {}
        for sdu in sdus:
            header = sdu.header
            if header.trace_id:
                traces[header.msg_id] = header.trace_id
            before = len(deliveries)
            self.ec_receiver.on_sdu(sdu, now, out)
            if len(deliveries) > before:
                delivered_msg = header.msg_id
                delivered_trace = header.trace_id
                if stamp is not None:
                    # The completing SDU's own message is released
                    # first; held later messages (ordered delivery)
                    # follow it.
                    stamp("reassembled", (sdu,), deliveries[before])
        out.controls = self._dedup_acks(out.controls)
        if self._tracer.enabled:
            for pdu in out.controls:
                if isinstance(pdu, _ACKS):
                    self._tracer.emit(
                        "control", "ack_tx",
                        conn_id=self.conn_id, msg_id=pdu.msg_id,
                        trace=traces.get(pdu.msg_id, 0),
                    )
        if stamp is not None:
            stamp("ec_done")
        # The receiver deadline is the engine's, read once per batch: an
        # SDU that completes nothing must not disarm a timer that a held
        # message still needs.
        self.recv_deadline = self.ec_receiver.next_deadline(now)
        return self._deliver(out, now, delivered_msg, delivered_trace)

    def on_recv_timer(self, now: float) -> Effects:
        """The receiver deadline passed: release messages held behind a
        gap (ordered delivery) and GC stale reassembly state."""
        effects = self.ec_receiver.on_timer(now)
        self.recv_deadline = self.ec_receiver.next_deadline(now)
        return self._deliver(effects, now)

    def _deliver(
        self, out: Effects, now: float, msg_id=None, trace_id: int = 0
    ) -> Effects:
        """The one place completed messages are accounted and reported,
        whichever entry point released them."""
        messages = out.deliveries
        if messages:
            self.messages_received += len(messages)
            self.bytes_received += sum(len(m) for m in messages)
            for message in messages:
                self._account_delivery(len(message), now)
            self._recorder.record(
                "data", "deliver",
                conn=self.conn_id, msg=msg_id,
                messages=len(messages), trace=trace_id,
            )
            if self._tracer.enabled:
                self._tracer.emit(
                    "data", "deliver",
                    conn_id=self.conn_id, msg_id=msg_id,
                    messages=len(messages), trace=trace_id,
                )
        if self._budget is not None:
            self._budget.set_level(
                "reassembly", self.conn_id, self.ec_receiver.buffered_bytes()
            )
        out.timer_at = self.recv_deadline
        return out

    def _dedup_acks(self, pdus: list) -> list:
        """Collapse superseded acknowledgments generated within one
        receive batch.

        Every :class:`AckPdu` carries the message's *full* current
        bitmap (and :class:`CumAckPdu` the current high-water mark), so
        when a batch produces several for the same ``(connection,
        message)`` only the last reflects the post-batch state — the
        earlier ones are obsolete before they could leave the node.
        Other control PDUs pass through; relative order is preserved.
        """
        if len(pdus) <= 1:
            return pdus
        last_seen: dict = {}
        for index, pdu in enumerate(pdus):
            if isinstance(pdu, _ACKS):
                last_seen[(type(pdu), pdu.connection_id, pdu.msg_id)] = index
        kept = []
        for index, pdu in enumerate(pdus):
            if isinstance(pdu, _ACKS):
                if last_seen[(type(pdu), pdu.connection_id, pdu.msg_id)] != index:
                    self.acks_deduped += 1
                    continue
            kept.append(pdu)
        return kept

    # -- overload protection: delivery accounting and the credit gate ---

    def _account_delivery(self, nbytes: int, now: float) -> None:
        """Charge a complete message parked for the application.

        Forced, not admitted: the data was already acknowledged to the
        peer, so refusing it would break exactly-once.  Crossing the
        delivery quota instead closes the credit gate — pressure
        propagates to the sender through withheld grants.
        """
        budget = self._budget
        if budget is None:
            return
        budget.force_reserve("delivery", self.conn_id, nbytes)
        self._delivery_log.append((now, nbytes))
        if (
            not self.credit_gate_closed
            and self._delivery_quota > 0
            and budget.site_used("delivery", self.conn_id) > self._delivery_quota
        ):
            self.credit_gate_closed = True
            self.slow_consumer_trips += 1
            self._recorder.record(
                "pressure", "slow_consumer",
                conn=self.conn_id,
                queued=budget.site_used("delivery", self.conn_id),
                quota=self._delivery_quota,
            )

    def on_consumed(self, nbytes: int, shed: bool = False) -> Effects:
        """The application took (or ``shed``: the node evicted) one
        delivered message of ``nbytes``: release its delivery-site bytes
        and, once drained below the resume mark, reopen the credit gate
        with one coalesced grant."""
        out = Effects()
        budget = self._budget
        if budget is None:
            return out
        budget.release("delivery", self.conn_id, nbytes)
        if self._delivery_log:
            self._delivery_log.popleft()
        if shed:
            budget.record_shed(nbytes)
            self.deliveries_shed += 1
            self._recorder.record(
                "pressure", "shed", conn=self.conn_id, size=nbytes
            )
        if (
            self.credit_gate_closed
            and budget.site_used("delivery", self.conn_id) <= self._resume_below
        ):
            self.credit_gate_closed = False
            flush, self._withheld_credits = self._withheld_credits, 0
            if flush:
                self._recorder.record(
                    "pressure", "credit_gate_open",
                    conn=self.conn_id, credits=flush,
                )
                out.controls.append(CreditPdu(self.conn_id, flush))
        return out

    def _gate_credit(self, pdu) -> bool:
        """Withhold a credit grant while this end is a slow consumer.

        True when the PDU was absorbed (not sent).  Only CreditPdus are
        ever gated — ACKs and other control traffic always pass.
        """
        if not self.credit_gate_closed or not isinstance(pdu, CreditPdu):
            return False
        self._withheld_credits += pdu.credits
        self.credits_withheld += pdu.credits
        self.credit_pdus_withheld += 1
        return True

    def on_resync_request(self, now: float) -> Effects:
        """Answer the peer's CreditResyncPdu.

        Open gate: grant the initial allotment — the peer's pool is at
        zero, so this is the request/reply equivalent of a unilateral
        restore.  Closed gate: the grant is withheld like any other
        (flushed when the application drains), and an explicit
        zero-credit reply keeps the peer pinned — it would otherwise
        fall back to restoring the pool itself and defeat backpressure.
        """
        self.resync_requests_answered += 1
        reply = CreditPdu(self.conn_id, self.config.initial_credits)
        if self._gate_credit(reply):
            self._recorder.record(
                "pressure", "resync_pinned", conn=self.conn_id
            )
            reply = CreditPdu(self.conn_id, 0)
        else:
            self._recorder.record(
                "flow", "resync_grant",
                conn=self.conn_id, credits=reply.credits,
            )
        return Effects(controls=[reply], timer_at=self.recv_deadline)
