"""Paper-style procedural primitives.

The original NCS API is procedural (``NCS_send``, ``NCS_recv``,
``NCS_thread_yield`` ...).  These thin wrappers give examples and ported
code that exact surface over the object API; new code should prefer the
methods on :class:`~repro.core.connection.Connection` directly.

Timeout contract
----------------

Every NCS primitive handles deadlines the same way — no raw socket
errors, no mixed conventions:

* ``NCS_send(wait=True, timeout=T)`` raises
  :class:`~repro.core.errors.NCSTimeout` if delivery is unconfirmed
  after ``T`` seconds (the message may still complete later; the handle
  remains valid).  ``NCSTimeout`` subclasses the builtin
  :class:`TimeoutError`, so generic handlers keep working.
* ``NCS_recv(timeout=T)`` returns ``None`` on timeout — polling for "no
  message yet" is the normal case, not an error.  It raises
  :class:`~repro.core.errors.ConnectionClosedError` only when the
  connection is closed *and* drained.
* Connection establishment raises
  :class:`~repro.core.errors.ConnectTimeoutError` (an ``NCSTimeout``
  subclass) past its deadline, and
  :class:`~repro.core.errors.LinkDialError` when the peer cannot be
  dialed at all.
* A supervised connection (see :mod:`repro.recovery`) whose recovery
  budget is exhausted raises
  :class:`~repro.core.errors.NCSUnavailable` instead of hanging.
* Under memory pressure (see :mod:`repro.pressure`) admission depends
  on the connection's policy: ``fail-fast`` raises
  :class:`~repro.core.errors.NCSOverloaded` immediately when the budget
  cannot fit the message; ``block`` (the default) waits for budget up
  to ``timeout`` and raises ``NCSTimeout`` at the deadline —
  indistinguishable, by design, from a slow network; ``shed-oldest``
  evicts the stalest undelivered message to make room and only raises
  ``NCSOverloaded`` when nothing is left to shed.
"""

from __future__ import annotations

from typing import Optional

from repro.core.connection import Connection
from repro.core.handles import SendHandle


def NCS_send(
    connection: Connection,
    payload: bytes,
    wait: bool = False,
    timeout: Optional[float] = None,
) -> SendHandle:
    """Transmit ``payload`` on ``connection`` (paper Fig. 4 steps 1-4)."""
    return connection.send(payload, wait=wait, timeout=timeout)


def NCS_recv(
    connection: Connection, timeout: Optional[float] = None
) -> Optional[bytes]:
    """Receive the next message (paper Fig. 4 steps 5-10)."""
    return connection.recv(timeout)


def NCS_thread_spawn(node, fn, *args, name: str = "compute"):
    """Spawn a Compute Thread on the node's thread package."""
    return node.pkg.spawn(fn, *args, name=name)


def NCS_thread_yield(node) -> None:
    """Yield the processor to other ready threads (§4.1)."""
    node.pkg.yield_control()


def NCS_thread_sleep(node, seconds: float) -> None:
    """Sleep cooperatively on the node's thread package."""
    node.pkg.sleep(seconds)
