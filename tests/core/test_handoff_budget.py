"""How many hand-offs one message costs, by counting.

A 1 MiB message is 256 SDUs.  They cross the stack as flow-released
bursts: one Send Thread channel item and one interface call per burst,
every SDU decoded once.  A 64 B message is one SDU, and the ACK and the
credit it earns cross the control plane together: one Control Send
Thread item, one write, one sender-half event.  Counts do not depend on
how fast the machine is, so this pins the structure of both planes
without timing it.
"""

import os
import threading

import pytest

from repro.core import ConnectionConfig
from repro.core import node as node_module
from repro.core.connection import Connection
from repro.eventplane.endpoint import EventEndpoint
from repro.flowcontrol.credit import CreditSender
from repro.interfaces.sci import SciInterface
from repro.protocol.headers import Sdu
from repro.protocol.pdus import AckPdu, CreditPdu, decode_control_pdu
from repro.threadpkg.kernel import KernelChannel

pytestmark = pytest.mark.usefixtures("plane")

MESSAGE = 1 << 20
SDUS = MESSAGE // ConnectionConfig().sdu_size
#: Channel puts per message on the threaded plane: one per burst plus
#: the control traffic (the request to the protocol thread, each credit
#: and acknowledgment out and in, the delivery).  It was 268 — 256 of
#: them single SDUs — when every SDU crossed to the Send Thread alone.
PUT_BUDGET = 24
#: ...and per 64 B message: the request to the protocol thread, the SDU
#: to the Send Thread, ACK + credit to the Control Send Thread, the
#: delivery, ACK + credit to the sender's protocol thread.  It was 7
#: when the ACK and the credit each travelled alone.
SMALL_PUT_BUDGET = 5


class Counts:
    def __init__(self):
        self.puts = 0
        self.decoded = 0
        self.bursts = []  # (flow controller, SDUs released)
        self.writes = []  # (interface or endpoint, frames written)
        self.control_events = []  # (connection, PDUs of one event)

    def reset(self):
        self.__init__()


@pytest.fixture
def counts(monkeypatch):
    """Counting wrappers, installed before any connection exists (a
    connection binds its wire function when it is created)."""
    seen = Counts()

    def wrap(owner, name, note, early=False):
        """``early``: count before the call — what the call hands over
        can be acted on by another thread before it returns."""
        original = getattr(owner, name)

        def counting(self, *args, **kwargs):
            if early:
                note(self, args, None)
            result = original(self, *args, **kwargs)
            if not early:
                note(self, args, result)
            return result

        monkeypatch.setattr(owner, name, counting)

    def put(_self, _args, _result):
        seen.puts += 1

    def pulled(fc, _args, released):
        if released:
            seen.bursts.append((fc, len(released)))

    def written(where, args, _result):
        seen.writes.append((where, len(args[0])))

    def sender_event(conn, args, _result):
        if args[0][0] == "control":
            seen.control_events.append((conn, list(args[0][1])))

    wrap(KernelChannel, "put", put, early=True)
    wrap(CreditSender, "pull", pulled)
    wrap(SciInterface, "send_many", written, early=True)
    wrap(EventEndpoint, "submit", written, early=True)
    wrap(Connection, "_run_sender", sender_event, early=True)
    decode = Sdu.decode.__func__

    def counting_decode(cls, data):
        seen.decoded += 1
        return decode(cls, data)

    monkeypatch.setattr(Sdu, "decode", classmethod(counting_decode))
    return seen


def test_one_megabyte_crosses_as_bursts(counts, connected_pair, deliver, plane):
    conn, peer = connected_pair()
    payload = os.urandom(MESSAGE)
    # The first message also grows the credit pool from its initial 4
    # to the steady 64; the one measured is the second.
    assert deliver(conn, peer, payload) == payload
    counts.reset()
    assert deliver(conn, peer, payload) == payload

    assert counts.decoded == SDUS
    assert counts.puts <= PUT_BUDGET

    bursts = [n for fc, n in counts.bursts if fc is conn.core.fc_sender]
    wire = conn._event_endpoint if plane == "event" else conn.interface
    writes = [n for where, n in counts.writes if where is wire]
    assert sum(bursts) == sum(writes) == SDUS
    assert max(writes) <= conn.config.batch_max
    if plane == "threaded":
        # The Send Thread may top a short burst up with the next one.
        assert len(writes) <= len(bursts)
    else:
        assert writes == bursts
    assert len(bursts) <= 8


def test_small_message_control_pdus_travel_together(
    counts, connected_pair, deliver
):
    conn, peer = connected_pair()
    payload = os.urandom(64)
    assert deliver(conn, peer, payload) == payload
    counts.reset()
    assert deliver(conn, peer, payload) == payload

    # (Bypass and event put less: they have no protocol or Send Thread.)
    assert counts.puts <= SMALL_PUT_BUDGET
    # The receive batch's ACK and credit: one write on the control link...
    assert [n for where, n in counts.writes if where is peer.peer_link] == [2]
    # ...and one sender-half event at the other end.
    (run,) = [pdus for c, pdus in counts.control_events if c is conn]
    assert [type(pdu) for pdu in run] == [CreditPdu, AckPdu]


class RecordingLink:
    """A control link that keeps what it is given, one list per write."""

    def __init__(self, gate=None):
        self.writes = []
        self.entered = threading.Event()
        self._gate = gate

    def send_many(self, frames):
        self.entered.set()
        if self._gate is not None:
            assert self._gate.wait(5.0)
        self.writes.append([decode_control_pdu(frame) for frame in frames])
        return len(frames)


def test_control_send_thread_keeps_order_per_link(node_factory):
    """PDUs queued while the Control Send Thread is busy leave in a few
    gathered writes, each link's in submission order, and a stop queued
    behind them does not overtake them."""
    node = node_factory("ordered")
    gate = threading.Event()
    held = RecordingLink(gate)
    links = [RecordingLink(), RecordingLink()]
    node.control_send(held, CreditPdu(0, 0))  # parks the thread in its write
    assert held.entered.wait(5.0)
    submitted = [[], []]
    for n in range(200):
        which = n % 3 == 0  # interleaved, unevenly
        pdus = [CreditPdu(n % 2 + 1, n)]
        if n % 5 == 0:
            pdus.append(CreditPdu(n % 2 + 1, 1000 + n))
        submitted[which] += pdus
        if len(pdus) == 1:
            node.control_send(links[which], pdus[0])
        else:
            node.control_send_many(links[which], pdus)
    node._ctrl_chan.put(node_module._STOP)
    gate.set()
    ctrl_send = next(t for t in node._threads if t.name.endswith("-ctrlsend"))
    assert ctrl_send.join(5.0), "Control Send Thread did not stop"
    for link, expected in zip(links, submitted):
        assert [pdu for write in link.writes for pdu in write] == expected
        assert len(link.writes) == 3  # three passes of up to 64 PDUs a link
