"""The NCS node: Master Thread, control plane, and connection signaling.

One ``Node`` per participating process.  Its control plane mirrors the
paper's Fig. 1:

* an **accept loop** plus per-peer **control links** (TCP) carry *all*
  control information — signaling, ACK bitmaps, credits — so data
  connections stay pure data (separation of control and data);
* the **Control Send Thread** serializes outbound control PDUs;
* per-link **Control Receive Threads** parse inbound PDUs and route them
  to the Master Thread (signaling) or to the owning connection's engines
  (ACKs, credits);
* the **Master Thread** performs connection management: it validates
  connect requests, spawns the data-plane endpoint for the negotiated
  interface, and registers the new connection — "data transfer threads
  ... are spawned on a per-connection basis by the Master Thread";
* a **timer thread** ticks retransmission timers and rate pacing.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core.config import ConnectionConfig, NodeConfig
from repro.core.connection import Connection
from repro.core.errors import (
    ConnectRejectedError,
    ConnectTimeoutError,
    LinkDialError,
    NcsError,
)
from repro.interfaces.aci import aci_open
from repro.interfaces.base import InterfaceClosed
from repro.interfaces.hpi import DEFAULT_FABRIC, HpiFabric
from repro.interfaces.sci import SciInterface, SciListener, sci_connect
from repro.protocol.pdus import (
    AckPdu,
    BarrierPdu,
    ClosePdu,
    ConnectAcceptPdu,
    ConnectRejectPdu,
    ConnectRequestPdu,
    ControlPdu,
    CreditPdu,
    CreditResyncPdu,
    CumAckPdu,
    GroupInfoPdu,
    GroupJoinPdu,
    GroupLeavePdu,
    HeartbeatPdu,
    PduDecodeError,
    TelemetryPdu,
    decode_control_pdu,
)
from repro.threadpkg import make_thread_package
from repro.util.clock import MonotonicClock
from repro.util.trace import Tracer, jsonl_sink_from_env

_STOP = object()

#: PDUs that feed a connection's sender half; a run of them for one
#: connection reaches it as one event.
_SENDER_HALF_PDUS = (AckPdu, CumAckPdu, CreditPdu)

#: A Control Send Thread pass stops gathering once a link has this many
#: PDUs to write; a Control Receive Thread takes this many frames from
#: one read.
_CTRL_BURST_MAX = 64

#: Result of an accept handler: True/None accept, False/str reject,
#: ConnectionConfig accept-with-overrides.
AcceptDecision = Union[bool, None, str, ConnectionConfig]


class _PendingConnect:
    """Initiator-side state while waiting for Accept/Reject."""

    __slots__ = ("event", "accept", "reject_reason")

    def __init__(self):
        self.event = threading.Event()
        self.accept: Optional[ConnectAcceptPdu] = None
        self.reject_reason: Optional[str] = None


class Node:
    """An NCS endpoint: control plane plus any number of connections."""

    def __init__(self, config: Union[NodeConfig, str]):
        if isinstance(config, str):
            config = NodeConfig(name=config)
        self.config = config
        self.name = config.name
        self.pkg = make_thread_package(config.thread_package)
        self.clock = MonotonicClock()
        # Flight recorder first: connections grab it in their __init__.
        from repro.obs.recorder import NULL_RECORDER, FlightRecorder

        if config.flight_recorder_enabled():
            self.recorder = FlightRecorder(
                name=config.name,
                capacity=config.recorder_capacity,
                clock=self.clock.now,
            )
        else:
            self.recorder = NULL_RECORDER
        # Overload protection: one MemoryBudget shared by every
        # connection on this node (None when disabled via NCS_PRESSURE).
        from repro.pressure import MemoryBudget

        self.pressure_cfg = config.pressure_config()
        self.pressure = (
            MemoryBudget(
                self.pressure_cfg.node_bytes, self.pressure_cfg.conn_bytes
            )
            if self.pressure_cfg.enabled
            else None
        )
        self.tracer = Tracer(self.clock, enabled=config.trace_enabled())
        if self.tracer.enabled:
            env_sink = jsonl_sink_from_env()
            if env_sink is not None:
                self.tracer.add_sink(env_sink)
        #: Metrics registry this node publishes into (None = metrics off).
        #: Resolved before ClockSync so heartbeat RTT histograms can
        #: register against it.
        self.metrics = None
        if config.metrics_enabled():
            from repro.obs.registry import get_registry

            self.metrics = config.metrics_registry or get_registry()
            self.metrics.add_collector(self._collect_metrics)
        # Clock-offset estimation per peer, fed by heartbeat round-trips
        # (see FailureDetector._on_reply) and shipped in telemetry
        # snapshots so cross-node timestamps can share one timeline.
        from repro.obs.telemetry import ClockSync

        self.clock_sync = ClockSync(
            registry=self.metrics, node_name=self.name
        )
        #: Latency X-ray: per-node recorder for sampled per-message stage
        #: spans (None = sampling off; connections check this once).
        from repro.obs.xray import XrayRecorder

        xray_cfg = config.xray_config()
        self.xray = (
            XrayRecorder(self.name, xray_cfg, tracer=self.tracer)
            if xray_cfg is not None
            else None
        )
        #: Control PDUs handed to their link, by type name.  Written
        #: only by the Control Send Thread, so a plain dict loses no
        #: count; the metrics collector publishes it at snapshot time.
        self._ctrl_pdu_sent: Dict[str, int] = {}
        #: Aggregated totals of connections that have already closed, so
        #: snapshots taken after teardown still see their traffic.
        self._closed_conn_totals: Dict[str, float] = {}
        self.hpi_fabric: HpiFabric = config.hpi_fabric or DEFAULT_FABRIC

        self._listener = SciListener(config.host, config.control_port)
        self.host = self._listener.host
        self.control_port = self._listener.port

        self._closed = False
        self._connections: Dict[int, Connection] = {}
        self._conn_lock = threading.Lock()
        self._pending: Dict[int, _PendingConnect] = {}
        self._links: Dict[Tuple[str, int], SciInterface] = {}
        self._links_lock = threading.Lock()

        #: Optional connection admission policy (see AcceptDecision).
        self.accept_handler: Optional[
            Callable[[ConnectRequestPdu], AcceptDecision]
        ] = None
        #: Mode applied to connections we accept ("threaded" | "bypass"
        #: | "event"); "threaded" defers to the node's data plane.
        self.accept_mode = "threaded"
        #: Node-wide data plane ("threaded" | "event", NCS_DATA_PLANE).
        self.data_plane = config.data_plane_mode()
        #: Selector loop for event-mode connections (lazily started so
        #: threaded nodes pay nothing for the plane they don't use).
        self._event_loop = None
        self._event_loop_lock = threading.Lock()
        #: Queue of connections accepted from peers.
        self.accepted_queue = self.pkg.channel()
        #: Hook for the multicast/group layer (installed by GroupManager).
        self.group_pdu_handler: Optional[Callable[[ControlPdu, object], None]] = None
        #: Optional interceptor for accepted connections; returns True to
        #: consume the connection (keeps it off ``accepted_queue``).  The
        #: group layer uses this to claim its forwarding connections.
        self.accept_router: Optional[
            Callable[[ConnectRequestPdu, Connection], bool]
        ] = None
        #: Additional accept routers consulted after ``accept_router``;
        #: the recovery Responder registers here so group forwarding and
        #: reconnect claiming coexist.
        self._accept_routers: list = []
        #: Installed by a FailureDetector to receive heartbeat replies.
        self.heartbeat_reply_handler: Optional[
            Callable[[HeartbeatPdu, object], None]
        ] = None
        #: Installed by a FailureDetector so health() can report peers.
        self.failure_detector = None
        #: Installed by a telemetry Collector to receive TelemetryPdus.
        self.telemetry_handler: Optional[
            Callable[[TelemetryPdu, object], None]
        ] = None

        self._ctrl_chan = self.pkg.channel()
        self._master_chan = self.pkg.channel()
        self._threads = [
            self.pkg.spawn(self._accept_loop, name=f"{self.name}-accept"),
            self.pkg.spawn(self._ctrl_send_loop, name=f"{self.name}-ctrlsend"),
            self.pkg.spawn(self._master_loop, name=f"{self.name}-master"),
            self.pkg.spawn(self._timer_loop, name=f"{self.name}-timer"),
        ]

        #: Health watchdog (started only when configured on).
        self.watchdog = None
        if config.watchdog_enabled():
            from repro.obs.health import Watchdog

            self.watchdog = Watchdog(self, period=config.watchdog_period)

        #: Telemetry exporter (started only when a collector target is
        #: configured, via NodeConfig.telemetry or NCS_TELEMETRY).
        self.telemetry_exporter = None
        telemetry_target = config.telemetry_target()
        if telemetry_target is not None:
            from repro.obs.telemetry import TelemetryExporter

            self.telemetry_exporter = TelemetryExporter(
                self,
                telemetry_target,
                interval=config.telemetry_export_interval(),
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """Control-plane (host, port) other nodes dial to reach us."""
        return (self.host, self.control_port)

    def event_loop(self):
        """This node's selector loop, started on first use."""
        with self._event_loop_lock:
            if self._event_loop is None:
                from repro.eventplane import EventLoop

                self._event_loop = EventLoop(self.name)
            return self._event_loop

    def _plane_mode(self, config: ConnectionConfig) -> ConnectionConfig:
        """Promote default-threaded configs onto the node's data plane.

        An explicit ``mode="bypass"`` (or a plane the interface cannot
        ride — ACI has no selectable surface yet) is left untouched.
        """
        if (
            self.data_plane == "event"
            and config.mode == "threaded"
            and config.interface in ("sci", "hpi")
        ):
            return config.with_overrides(mode="event")
        return config

    def connect(
        self,
        peer: Tuple[str, int],
        config: Optional[ConnectionConfig] = None,
        timeout: float = 5.0,
        peer_name: str = "",
    ) -> Connection:
        """Establish a connection with the paper's per-connection QOS.

        ``config`` carries the flow/error algorithms, interface, SDU size
        and knobs; the peer's Master Thread builds matching engines from
        the request PDU.
        """
        if self._closed:
            raise NcsError("node is closed")
        config = self._plane_mode(config or ConnectionConfig())
        link = self._get_link(peer)
        conn_id = self._new_conn_id()
        endpoint = None
        src_data_port = 0
        if config.interface == "aci":
            endpoint = aci_open(self.host)
            src_data_port = endpoint.port
        elif config.interface == "hpi":
            src_data_port, endpoint = self.hpi_fabric.offer()

        pending = _PendingConnect()
        self._pending[conn_id] = pending
        request = ConnectRequestPdu(
            connection_id=conn_id,
            src_node=self.name,
            dst_node=peer_name,
            src_data_port=src_data_port,
            flow_control=config.flow_control,
            error_control=config.error_control,
            interface=config.interface,
            sdu_size=config.sdu_size,
            initial_credits=config.initial_credits,
            window_size=config.window_size,
            rate_pps=config.rate_pps,
            batch_max=config.batch_max,
        )
        self.control_send(link, request)
        try:
            if not pending.event.wait(timeout):
                raise ConnectTimeoutError(
                    f"no reply from {peer} within {timeout}s"
                )
            if pending.reject_reason is not None:
                raise ConnectRejectedError(pending.reject_reason)
            accept = pending.accept
        finally:
            self._pending.pop(conn_id, None)

        if config.interface == "sci":
            try:
                interface = sci_connect(peer[0], accept.data_port)
            except OSError as exc:
                raise LinkDialError(
                    f"data dial to {peer[0]}:{accept.data_port} failed: {exc}"
                ) from exc
        elif config.interface == "aci":
            endpoint.bind_peer(peer[0], accept.data_port)
            interface = endpoint
        else:  # hpi
            interface = endpoint

        connection = Connection(
            self, conn_id, peer_name or f"{peer[0]}:{peer[1]}", link, config, interface
        )
        with self._conn_lock:
            self._connections[conn_id] = connection
        self.recorder.record(
            "state", "connected",
            conn=conn_id, peer=peer_name or f"{peer[0]}:{peer[1]}",
            fc=config.flow_control, ec=config.error_control,
            interface=config.interface,
        )
        self.tracer.emit("node", "connected", conn_id=conn_id, peer=peer)
        return connection

    def accept(self, timeout: Optional[float] = None) -> Optional[Connection]:
        """Next connection established by a remote initiator."""
        try:
            return self.accepted_queue.get(timeout=timeout)
        except TimeoutError:
            return None

    def connections(self) -> list:
        with self._conn_lock:
            return list(self._connections.values())

    def health(self) -> dict:
        """Node-level health report.

        With the watchdog running, returns its windowed per-connection
        diagnoses.  Without it, classifies every connection on demand
        (instantaneous detectors only).  Either way the report folds in
        peers the heartbeat failure detector currently suspects (DEAD)
        and this node's flight-recorder dump count.
        """
        from repro.obs.health import DEAD, classify, sample_connection, worst

        if self.watchdog is not None:
            report = self.watchdog.report()
        else:
            now = self.clock.now()
            entries = []
            for conn in self.connections():
                sample = sample_connection(conn, now)
                diag = classify(sample)
                entries.append(
                    {
                        "conn_id": conn.conn_id,
                        "peer": sample["peer"],
                        "queued": sample["queued"],
                        "retransmits": sample["retransmits"],
                        **diag.to_dict(),
                    }
                )
            report = {
                "state": worst(entry["state"] for entry in entries),
                "connections": entries,
                "samples_taken": 0,
                "period": None,
            }
        report["node"] = self.name
        peers = []
        detector = self.failure_detector
        if detector is not None:
            for address, status in detector.peers().items():
                peers.append(
                    {
                        "address": list(address),
                        "suspected": status.suspected,
                        "state": DEAD if status.suspected else "OK",
                    }
                )
            if any(entry["suspected"] for entry in peers):
                report["state"] = worst([report["state"], DEAD])
        report["peers"] = peers
        report["recorder_dumps"] = getattr(self.recorder, "auto_dumps", 0)
        if self.pressure is not None:
            from repro.obs.health import OVERLOADED

            snap = self.pressure.snapshot()
            report["pressure"] = snap
            gated = any(
                conn.credit_gate_closed for conn in self.connections()
            )
            if gated or snap["used"] >= 0.9 * snap["node_bytes"]:
                report["state"] = worst([report["state"], OVERLOADED])
        return report

    def shed_for(self, conn, nbytes: int) -> bool:
        """Make room for a ``shed-oldest`` send by evicting the stalest
        queued delivery node-wide, repeatedly, until the reservation
        fits.  Returns False when nothing sheddable remains.

        Only application deliveries are candidates; control PDUs never
        pass through here (the priority lane).
        """
        budget = self.pressure
        if budget is None:
            return True
        while not budget.try_reserve("send", conn.conn_id, nbytes):
            victim = None
            oldest = None
            for candidate in self.connections():
                ts = candidate.oldest_delivery_ts()
                if ts is not None and (oldest is None or ts < oldest):
                    oldest, victim = ts, candidate
            if victim is None:
                return False
            victim.shed_oldest_delivery()
        return True

    def control_send(self, link, pdu: ControlPdu) -> None:
        """Queue a PDU for the Control Send Thread."""
        self.control_send_many(link, (pdu,))

    def control_send_many(self, link, pdus) -> None:
        """Queue ``pdus`` for the Control Send Thread as one item: they
        leave on ``link`` in this order, in one write."""
        if self.tracer.enabled:
            for pdu in pdus:
                detail = {"type": type(pdu).__name__}
                conn_id = getattr(pdu, "connection_id", None)
                if conn_id is not None:
                    detail["conn_id"] = conn_id
                msg_id = getattr(pdu, "msg_id", None)
                if msg_id is not None:
                    detail["msg_id"] = msg_id
                self.tracer.emit("control", "send", **detail)
        self._ctrl_chan.put((link, pdus))

    def control_link(self, peer: Tuple[str, int]):
        """Control link to ``peer``, dialing one if needed (group layer
        and other services send their control PDUs over these)."""
        return self._get_link(peer)

    def add_accept_router(
        self, router: Callable[[ConnectRequestPdu, Connection], bool]
    ) -> None:
        """Register an interceptor for accepted connections.

        Routers run in registration order (after the legacy
        ``accept_router`` attribute); the first to return True consumes
        the connection, keeping it off ``accepted_queue``.
        """
        self._accept_routers.append(router)

    def remove_accept_router(self, router) -> None:
        try:
            self._accept_routers.remove(router)
        except ValueError:
            pass

    def close(self) -> None:
        """Tear down every connection and stop the control plane."""
        if self._closed:
            return
        self._closed = True
        if self.telemetry_exporter is not None:
            self.telemetry_exporter.stop()
        if self.watchdog is not None:
            self.watchdog.stop()
        for connection in self.connections():
            connection.close()
        self._ctrl_chan.put(_STOP)
        self._master_chan.put((_STOP, None))
        self._listener.close()
        with self._links_lock:
            links = list(self._links.values())
            self._links.clear()
        for link in links:
            link.close()
        for handle in self._threads:
            handle.join(timeout=1.0)
        if self.metrics is not None:
            # Final publish so post-run snapshots still see this node's
            # traffic — after the Control Send Thread has written (and
            # counted) its last PDUs — then stop participating in
            # future snapshots.
            self._collect_metrics(self.metrics)
            self.metrics.remove_collector(self._collect_metrics)
        with self._event_loop_lock:
            event_loop = self._event_loop
        if event_loop is not None:
            event_loop.stop()
        self.pkg.shutdown()

    def __enter__(self) -> "Node":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Link management
    # ------------------------------------------------------------------

    def _get_link(self, peer: Tuple[str, int]) -> SciInterface:
        with self._links_lock:
            link = self._links.get(peer)
            if link is not None and not link.closed:
                return link
        try:
            link = sci_connect(peer[0], peer[1])
        except OSError as exc:
            raise LinkDialError(
                f"cannot reach {peer[0]}:{peer[1]}: {exc}"
            ) from exc
        with self._links_lock:
            self._links[peer] = link
        self.pkg.spawn(self._link_reader, link, name=f"{self.name}-ctrlrecv")
        return link

    def _accept_loop(self) -> None:
        # On the user-level package a blocking accept would stall every
        # thread in the process (§4.1), so poll and sleep cooperatively.
        poll_mode = self.pkg.kind == "user"
        while not self._closed:
            try:
                link = self._listener.accept(timeout=0.0 if poll_mode else 0.2)
            except InterfaceClosed:
                return
            except OSError:
                if self._closed:
                    return
                continue
            if link is None:
                if poll_mode:
                    self.pkg.sleep(0.002)
                continue
            self.pkg.spawn(self._link_reader, link, name=f"{self.name}-ctrlrecv")

    def _ctrl_send_loop(self) -> None:
        """The paper's Control Send Thread.

        Blocks for the first queued item, takes whatever else the
        channel already holds — it never waits for more, so no PDU is
        held back to fill a burst — and writes each link's PDUs, in
        submission order, with one gathered ``send_many``.
        """
        chan = self._ctrl_chan
        sent = self._ctrl_pdu_sent
        stopping = False
        while not stopping:
            try:
                item = chan.get(timeout=0.1)
            except TimeoutError:
                if self._closed:
                    return
                continue
            by_link: dict = {}
            while True:
                if item is _STOP:
                    stopping = True  # write what was queued ahead of it
                    break
                link, pdus = item
                burst = by_link.setdefault(link, [])
                burst.extend(pdus)
                if len(burst) >= _CTRL_BURST_MAX:
                    break
                ok, item = chan.try_get()
                if not ok:
                    break
            for link, pdus in by_link.items():
                try:
                    link.send_many([pdu.encode() for pdu in pdus])
                except InterfaceClosed:
                    continue  # peer gone; connection teardown handles the rest
                for pdu in pdus:
                    pdu_type = type(pdu).__name__
                    sent[pdu_type] = sent.get(pdu_type, 0) + 1

    def _link_reader(self, link: SciInterface) -> None:
        """A Control Receive Thread: parse and route inbound PDUs.

        One read takes every frame the link has ready; the user-level
        package polls and yields where the kernel package blocks (§4.1).
        """
        timeout = 0.0 if self.pkg.kind == "user" else 0.1
        while not self._closed:
            try:
                frames = link.recv_many(_CTRL_BURST_MAX, timeout=timeout)
            except InterfaceClosed:
                return
            if frames:
                self._route_frames(frames, link)
            else:
                self.pkg.yield_control()

    def _route_frames(self, frames: list, link) -> None:
        """Decode one read's frames and route them in arrival order.
        Consecutive ACKs and credits for one connection reach it as one
        run; every other PDU is routed alone.  A malformed frame is
        traced and skipped."""
        run: list = []
        for frame in frames:
            try:
                pdu = decode_control_pdu(frame)
            except PduDecodeError:
                self.tracer.emit("node", "malformed_control", size=len(frame))
                continue
            joins = isinstance(pdu, _SENDER_HALF_PDUS)
            if run and not (
                joins and pdu.connection_id == run[0].connection_id
            ):
                self._route_run(run)
                run = []
            if joins:
                run.append(pdu)
            else:
                self._route_pdu(pdu, link)
        if run:
            self._route_run(run)

    def _route_run(self, pdus: list) -> None:
        """Hand a run of ACKs and credits to the connection they name."""
        with self._conn_lock:
            connection = self._connections.get(pdus[0].connection_id)
        if self.tracer.enabled:
            # Control-plane arrivals carry the trace context (msg_id)
            # set by the sender's data plane, tying the two planes of
            # one transfer together in the event stream.
            for pdu in pdus:
                if isinstance(pdu, CreditPdu):
                    self.tracer.emit(
                        "control", "credit",
                        conn_id=pdu.connection_id, credits=pdu.credits,
                    )
                else:
                    trace = (
                        connection.trace_of(pdu.msg_id)
                        if connection is not None
                        else 0
                    )
                    self.tracer.emit(
                        "control", "ack",
                        conn_id=pdu.connection_id, msg_id=pdu.msg_id,
                        trace=trace,
                    )
        if connection is not None:
            connection.on_control_run(pdus)

    def _route_pdu(self, pdu: ControlPdu, link) -> None:
        if isinstance(pdu, (CreditResyncPdu, ClosePdu)):
            with self._conn_lock:
                connection = self._connections.get(pdu.connection_id)
            if connection is not None:
                connection.on_control_pdu(pdu)
            return
        if isinstance(pdu, ConnectAcceptPdu):
            pending = self._pending.get(pdu.connection_id)
            if pending is not None:
                pending.accept = pdu
                pending.event.set()
            return
        if isinstance(pdu, ConnectRejectPdu):
            pending = self._pending.get(pdu.connection_id)
            if pending is not None:
                pending.reject_reason = pdu.reason
                pending.event.set()
            return
        if isinstance(
            pdu, (GroupJoinPdu, GroupLeavePdu, GroupInfoPdu, BarrierPdu)
        ):
            if self.group_pdu_handler is not None:
                self.group_pdu_handler(pdu, link)
            return
        if isinstance(pdu, HeartbeatPdu):
            from repro.core.heartbeat import is_reply, make_reply

            if is_reply(pdu):
                if self.heartbeat_reply_handler is not None:
                    self.heartbeat_reply_handler(pdu, link)
            else:
                # Every node answers probes; fault tolerance needs no
                # opt-in at the probed end.
                self.control_send(
                    link, make_reply(self.name, pdu, now=self.clock.now())
                )
            return
        if isinstance(pdu, TelemetryPdu):
            if self.telemetry_handler is not None:
                self.telemetry_handler(pdu, link)
            return
        if isinstance(pdu, ConnectRequestPdu):
            self._master_chan.put((pdu, link))
            return

    # ------------------------------------------------------------------
    # Master Thread
    # ------------------------------------------------------------------

    def _master_loop(self) -> None:
        while True:
            try:
                pdu, link = self._master_chan.get(timeout=0.1)
            except TimeoutError:
                if self._closed:
                    return
                continue
            if pdu is _STOP:
                return
            if isinstance(pdu, ConnectRequestPdu):
                self._handle_connect_request(pdu, link)

    def _handle_connect_request(self, request: ConnectRequestPdu, link) -> None:
        conn_id = request.connection_id
        with self._conn_lock:
            duplicate = conn_id in self._connections
        if duplicate:
            self.control_send(
                link, ConnectRejectPdu(conn_id, "connection id already in use")
            )
            return
        # The peer's batch_max shapes *our* memory profile (receive-drain
        # width, coalescing buffers), so never trust it blindly: reject
        # non-positive values outright and clamp the rest to our ceiling.
        if request.batch_max <= 0:
            self.control_send(
                link,
                ConnectRejectPdu(
                    conn_id,
                    f"invalid batch_max {request.batch_max} (must be >= 1)",
                ),
            )
            return
        batch_max = min(request.batch_max, self.config.batch_max_ceiling)
        if batch_max != request.batch_max:
            self.tracer.emit(
                "node", "batch_max_clamped",
                conn_id=conn_id, requested=request.batch_max, granted=batch_max,
            )
        decision: AcceptDecision = True
        if self.accept_handler is not None:
            decision = self.accept_handler(request)
        if decision is False:
            self.control_send(link, ConnectRejectPdu(conn_id, "refused by policy"))
            return
        if isinstance(decision, str):
            self.control_send(link, ConnectRejectPdu(conn_id, decision))
            return
        if isinstance(decision, ConnectionConfig):
            config = decision
        else:
            try:
                config = self._plane_mode(
                    ConnectionConfig(
                        flow_control=request.flow_control,
                        error_control=request.error_control,
                        interface=request.interface,
                        sdu_size=request.sdu_size,
                        mode=self.accept_mode,
                        initial_credits=request.initial_credits,
                        window_size=request.window_size,
                        rate_pps=request.rate_pps,
                        batch_max=batch_max,
                    )
                )
            except ValueError as exc:
                self.control_send(link, ConnectRejectPdu(conn_id, str(exc)))
                return

        if config.interface == "sci":
            # Accept the initiator's data dial on a fresh ephemeral port;
            # finish asynchronously so the Master Thread never blocks.
            data_listener = SciListener(self.host)
            self.control_send(
                link, ConnectAcceptPdu(conn_id, data_listener.port)
            )
            self.pkg.spawn(
                self._finish_sci_accept,
                request,
                link,
                config,
                data_listener,
                name=f"{self.name}-finish",
            )
            return
        if config.interface == "aci":
            endpoint = aci_open(self.host)
            peer_host = link.peer_address()[0]
            endpoint.bind_peer(peer_host, request.src_data_port)
            self._register_accepted(request, link, config, endpoint)
            self.control_send(link, ConnectAcceptPdu(conn_id, endpoint.port))
            return
        # hpi
        try:
            endpoint = self.hpi_fabric.claim(request.src_data_port)
        except KeyError:
            self.control_send(
                link,
                ConnectRejectPdu(
                    conn_id, "HPI offer not found (nodes on different fabrics?)"
                ),
            )
            return
        self._register_accepted(request, link, config, endpoint)
        self.control_send(link, ConnectAcceptPdu(conn_id, 0))

    def _finish_sci_accept(
        self,
        request: ConnectRequestPdu,
        link,
        config: ConnectionConfig,
        data_listener: SciListener,
    ) -> None:
        try:
            if self.pkg.kind == "user":
                # Poll cooperatively; a blocking accept would stall the
                # whole user-level package.
                interface = None
                deadline = self.clock.now() + 5.0
                while interface is None and self.clock.now() < deadline:
                    interface = data_listener.accept(timeout=0.0)
                    if interface is None:
                        self.pkg.sleep(0.002)
            else:
                interface = data_listener.accept(timeout=5.0)
        finally:
            data_listener.close()
        if interface is None:
            self.tracer.emit(
                "node", "accept_data_timeout", conn_id=request.connection_id
            )
            return
        self._register_accepted(request, link, config, interface)

    def _register_accepted(
        self, request: ConnectRequestPdu, link, config: ConnectionConfig, interface
    ) -> None:
        connection = Connection(
            self,
            request.connection_id,
            request.src_node,
            link,
            config,
            interface,
        )
        with self._conn_lock:
            self._connections[request.connection_id] = connection
        consumed = False
        if self.accept_router is not None:
            consumed = bool(self.accept_router(request, connection))
        if not consumed:
            for router in list(self._accept_routers):
                if bool(router(request, connection)):
                    consumed = True
                    break
        if not consumed:
            self.accepted_queue.put(connection)
        self.recorder.record(
            "state", "accepted",
            conn=request.connection_id, peer=request.src_node,
            fc=config.flow_control, ec=config.error_control,
            interface=config.interface,
        )
        self.tracer.emit(
            "node", "accepted", conn_id=request.connection_id, peer=request.src_node
        )

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _timer_loop(self) -> None:
        while not self._closed:
            self.pkg.sleep(self.config.timer_tick)
            now = self.clock.now()
            for connection in self.connections():
                # Inline idle-skip: at 10k connections a Python call per
                # connection per tick is the node's single largest
                # standing cost (~1.5 us each, 20x/s), so the due-check
                # reads the connection's one published deadline slot and
                # only descends into on_timer_tick when it has passed.
                # The unlocked read is safe: a torn read at worst delays
                # one deadline by a tick.
                deadline = connection.next_deadline
                if deadline is not None and now >= deadline:
                    connection.on_timer_tick(now)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _collect_metrics(self, registry) -> None:
        """Snapshot-time publisher (registered with the metrics registry).

        Live connections publish per-connection gauges; connections that
        already closed contribute to the node-level totals accumulated by
        :meth:`_forget_connection`, so an end-of-run snapshot still shows
        the full traffic picture.
        """
        for connection in self.connections():
            connection.publish_metrics(registry)
        registry.gauge("ncs_connections_open", node=self.name).set(
            len(self.connections())
        )
        for pdu_type, count in list(self._ctrl_pdu_sent.items()):
            registry.gauge(
                "ncs_control_pdus_sent", node=self.name, type=pdu_type
            ).set(count)
        for key, value in list(self._closed_conn_totals.items()):
            registry.gauge(
                "ncs_closed_conn_total_" + key, node=self.name
            ).set(value)
        if self.pressure is not None:
            snap = self.pressure.snapshot()
            for key in (
                "used",
                "peak_used",
                "admission_rejections",
                "admission_waits",
                "deliveries_shed",
                "shed_bytes",
                "forced_bytes",
            ):
                registry.gauge("ncs_pressure_" + key, node=self.name).set(
                    snap[key]
                )
            for site, value in snap["sites"].items():
                registry.gauge(
                    "ncs_pressure_site_bytes", node=self.name, site=site
                ).set(value)

    def _new_conn_id(self) -> int:
        while True:
            conn_id = random.getrandbits(32)
            with self._conn_lock:
                taken = conn_id in self._connections
            if not taken and conn_id not in self._pending:
                return conn_id

    def _forget_connection(self, conn_id: int) -> None:
        with self._conn_lock:
            connection = self._connections.pop(conn_id, None)
        if connection is not None and self.metrics is not None:
            for key, value in connection.metrics_totals().items():
                if isinstance(value, (int, float)):
                    self._closed_conn_totals[key] = (
                        self._closed_conn_totals.get(key, 0) + value
                    )
        if self.pressure is not None:
            self.pressure.forget_connection(conn_id)
