"""The *real* NCS connection core running in virtual time.

:class:`~repro.core.conncore.ConnectionCore` is sans-I/O, so the exact
state machine the live runtime executes can be driven by the
discrete-event kernel instead: ``SimNcsEndpoint`` is the core's fourth
driver (after the threaded, bypass and event planes of
:class:`~repro.core.connection.Connection`) and, like them, only moves
bytes and time — SDUs ride simulated (optionally lossy,
ATM-cell-accurate) links, control PDUs ride loss-free control links, and
the core's one ``next_deadline`` is a simulator event.  Same seeds ⇒
identical protocol traces, which the SDU-size and algorithm-ablation
benches and the loss-recovery property tests rely on.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.core.config import ConnectionConfig
from repro.core.conncore import ConnectionCore
from repro.core.handles import SendHandle
from repro.protocol.effects import Effects
from repro.protocol.pdus import CreditResyncPdu, decode_control_pdu
from repro.simnet.kernel import SimEvent, Simulator
from repro.simnet.link import Link

#: Flow-control knobs the endpoint accepts under their engine-side names.
_FC_OPTION_NAMES = {"burst": "rate_burst", "resync_timeout": "fc_resync_timeout"}


class SimNcsEndpoint:
    """One end of a simulated NCS connection.

    Wire up two endpoints with :func:`connect_pair`, then call ``send``;
    the returned event fires when the error control engine confirms
    delivery (for reliable algorithms) or immediately on transmission
    (for ``error_control="none"``).  ``fc_options`` are
    :class:`~repro.core.config.ConnectionConfig` flow-control knobs
    (``initial_credits``, ``window_size``, ``rate_pps`` …; ``burst`` and
    ``resync_timeout`` are accepted under their engine-side names).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        conn_id: int = 1,
        sdu_size: int = 4096,
        error_control: str = "selective_repeat",
        flow_control: str = "credit",
        retransmit_timeout: float = 0.05,
        max_retries: int = 12,
        **fc_options,
    ):
        self.sim = sim
        self.name = name
        self.conn_id = conn_id
        for engine_name, config_name in _FC_OPTION_NAMES.items():
            if engine_name in fc_options:
                fc_options[config_name] = fc_options.pop(engine_name)
        self.core = core = ConnectionCore(
            conn_id,
            ConnectionConfig(
                sdu_size=sdu_size,
                error_control=error_control,
                flow_control=flow_control,
                retransmit_timeout=retransmit_timeout,
                max_retries=max_retries,
                **fc_options,
            ),
        )
        self.ec_sender, self.ec_receiver = core.ec_sender, core.ec_receiver
        self.fc_sender, self.fc_receiver = core.fc_sender, core.fc_receiver
        self.data_out: Optional[Link] = None
        self.ctrl_out: Optional[Link] = None
        self.peer: Optional["SimNcsEndpoint"] = None
        self.delivered: List[bytes] = []
        #: Virtual time of the most recent completed delivery.
        self.last_delivery_at: Optional[float] = None
        self._completion: Dict[int, SimEvent] = {}
        self._msg_ids = itertools.count(1)
        self._timer_seq = 0
        self._armed_for: Optional[float] = None
        self.sdus_transmitted = 0
        self.control_pdus_sent = 0
        self.failed_msgs: List[int] = []

    def send(self, payload: bytes) -> SimEvent:
        """Queue one message; the event fires at confirmed delivery."""
        handle = SendHandle(next(self._msg_ids), len(payload))
        done = self._completion[handle.msg_id] = self.sim.event()
        self._apply(self.core.submit(handle, payload, self.sim.now))
        return done

    # -- moving bytes -----------------------------------------------------------

    def _apply(self, effects: Effects) -> None:
        """Carry out one core decision on the simulated links."""
        now = self.sim.now
        if effects.transmits:
            self.sdus_transmitted += len(effects.transmits)
            # One vectored handoff per flow-control release: the batch
            # serializes back-to-back, like the live interfaces'
            # coalesced writes.
            self.data_out.transfer_many(
                [sdu.encode() for sdu in effects.transmits],
                self.peer._on_data_frame,
            )
        for pdu in effects.controls:
            self.control_pdus_sent += 1
            self.ctrl_out.transfer(pdu.encode(), self.peer._on_ctrl_frame)
        if effects.deliveries:
            self.last_delivery_at = now
            self.delivered.extend(effects.deliveries)
        self.failed_msgs.extend(effects.failed)
        # (A None value signals failure to whoever waits on the event.)
        for msg_ids, value in ((effects.completed, now), (effects.failed, None)):
            for msg_id in msg_ids:
                event = self._completion.pop(msg_id, None)
                if event is not None and not event.triggered:
                    event.succeed(value)
        self._arm_timer(self.core.next_deadline)

    def _on_data_frame(self, frame: bytes) -> None:
        self._apply(self.core.on_frames([frame], self.sim.now))

    def _on_ctrl_frame(self, frame: bytes) -> None:
        pdu = decode_control_pdu(frame)
        if isinstance(pdu, CreditResyncPdu):
            self._apply(self.core.on_resync_request(self.sim.now))
        else:
            self._apply(self.core.on_control(pdu, self.sim.now))

    # -- moving time ------------------------------------------------------------

    def _arm_timer(self, deadline: Optional[float]) -> None:
        if deadline is None:
            return
        if self._armed_for is not None and deadline >= self._armed_for - 1e-12:
            return  # an earlier (or equal) wake-up is already armed
        self._timer_seq += 1
        self._armed_for = deadline
        # 1 us floor: a deadline that lands within float rounding of `now`
        # must still advance virtual time, or a pacing loop (token bucket
        # refill, resync boundary) can spin at a frozen timestamp.
        self.sim.schedule(
            max(deadline - self.sim.now, 1e-6), self._on_timer, self._timer_seq
        )

    def _on_timer(self, seq: int) -> None:
        if seq != self._timer_seq:
            return  # superseded by an earlier deadline
        self._armed_for = None
        now = self.sim.now
        core = self.core
        if core.sender_deadline is not None and core.sender_deadline <= now:
            self._apply(core.on_timer(now))
        if core.recv_deadline is not None and core.recv_deadline <= now:
            self._apply(core.on_recv_timer(now))
        self._arm_timer(core.next_deadline)


def connect_pair(
    sim: Simulator,
    data_ab: Link,
    data_ba: Link,
    ctrl_ab: Optional[Link] = None,
    ctrl_ba: Optional[Link] = None,
    **endpoint_options,
) -> tuple[SimNcsEndpoint, SimNcsEndpoint]:
    """Build two endpoints joined by the given links.

    Control links default to clean 155 Mb/s pipes — the separated
    control connections of the NCS architecture.  Pass explicit lossy
    control links to study what happens when that separation is removed.
    """
    ctrl_ab = ctrl_ab or Link(sim)
    ctrl_ba = ctrl_ba or Link(sim)
    a = SimNcsEndpoint(sim, "a", **endpoint_options)
    b = SimNcsEndpoint(sim, "b", **endpoint_options)
    a.data_out, a.ctrl_out, a.peer = data_ab, ctrl_ab, b
    b.data_out, b.ctrl_out, b.peer = data_ba, ctrl_ba, a
    return a, b
