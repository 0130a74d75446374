"""How many hand-offs one 1 MiB message costs, by counting.

A 1 MiB message is 256 SDUs.  They cross the stack as flow-released
bursts: one Send Thread channel item and one interface call per burst,
every SDU decoded once.  Counts do not depend on how fast the machine
is, so this pins the structure of the data path without timing it.
"""

import os

import pytest

from repro.core import ConnectionConfig
from repro.eventplane.endpoint import EventEndpoint
from repro.flowcontrol.credit import CreditSender
from repro.interfaces.sci import SciInterface
from repro.protocol.headers import Sdu
from repro.threadpkg.kernel import KernelChannel

pytestmark = pytest.mark.usefixtures("plane")

MESSAGE = 1 << 20
SDUS = MESSAGE // ConnectionConfig().sdu_size
#: Channel puts per message on the threaded plane: one per burst plus
#: the control traffic (the request to the protocol thread, each credit
#: and acknowledgment out and in, the delivery).  It was 268 — 256 of
#: them single SDUs — when every SDU crossed to the Send Thread alone.
PUT_BUDGET = 24


class Counts:
    def __init__(self):
        self.puts = 0
        self.decoded = 0
        self.bursts = []  # (flow controller, SDUs released)
        self.writes = []  # (interface or endpoint, SDUs written)

    def reset(self):
        self.__init__()


@pytest.fixture
def counts(monkeypatch):
    """Counting wrappers, installed before any connection exists (a
    connection binds its wire function when it is created)."""
    seen = Counts()

    def wrap(owner, name, note):
        original = getattr(owner, name)

        def counting(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
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

    wrap(KernelChannel, "put", put)
    wrap(CreditSender, "pull", pulled)
    wrap(SciInterface, "send_many", written)
    wrap(EventEndpoint, "submit", written)
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
