"""Shared fixtures for the NCS reproduction test suite."""

from __future__ import annotations

import threading

import pytest

from repro.core import ConnectionConfig, Node, NodeConfig

#: The three live drivers of ``ConnectionCore``.
PLANES = ("threaded", "bypass", "event")


@pytest.fixture(params=PLANES)
def plane(request):
    """The live data plane under test.

    A module opts in with ``pytestmark = pytest.mark.usefixtures("plane")``
    (or a test by naming the fixture); every node its tests then build
    through ``node_factory`` puts *both* ends of every connection on
    that plane, whatever mode the test's own config asks for.
    """
    return request.param


def pytest_collection_modifyitems(items):
    """Keep the ids tests had before they ran on every plane.

    The threaded leg *is* the test an unparametrized run always was, so
    it keeps the plain id (``test_x``) and only the other planes carry a
    suffix (``test_x[bypass]``, ``test_x[event]``) — a plane added to a
    module never renames the tests that were already there.
    """
    for item in items:
        callspec = getattr(item, "callspec", None)
        if callspec is None or callspec.params.get("plane") != "threaded":
            continue
        ids = [part for part in callspec.id.split("-") if part != "threaded"]
        stem = item.nodeid[: item.nodeid.rindex("[")]
        item._nodeid = stem + (f"[{'-'.join(ids)}]" if ids else "")


def _put_on_plane(node: Node, plane: str) -> None:
    node.accept_mode = plane
    connect = node.connect

    def connect_on_plane(peer, config=None, **kwargs):
        config = (config or ConnectionConfig()).with_overrides(mode=plane)
        return connect(peer, config, **kwargs)

    node.connect = connect_on_plane


@pytest.fixture
def node_factory(request):
    """Create nodes that are reliably torn down after the test."""
    on_plane = (
        request.getfixturevalue("plane")
        if "plane" in request.fixturenames
        else None
    )
    nodes = []

    def make(name: str, **kwargs) -> Node:
        node = Node(NodeConfig(name=name, **kwargs))
        nodes.append(node)
        if on_plane is not None:
            _put_on_plane(node, on_plane)
        return node

    yield make
    # Close concurrently: a node's close() mostly waits out its own
    # threads' poll timeouts, so N nodes cost one wait instead of N.
    closers = [threading.Thread(target=node.close) for node in nodes]
    for closer in closers:
        closer.start()
    for closer in closers:
        closer.join()


@pytest.fixture
def connected_pair(node_factory):
    """A ready client/server connection over SCI with defaults."""

    def make(config: ConnectionConfig = None, **node_kwargs):
        client = node_factory("client", **node_kwargs)
        server = node_factory("server", **node_kwargs)
        conn = client.connect(
            server.address, config or ConnectionConfig(), peer_name="server"
        )
        peer = server.accept(timeout=5.0)
        assert peer is not None, "server never saw the connection"
        return conn, peer

    return make


@pytest.fixture
def deliver():
    """``deliver(conn, peer, payload)``: one confirmed transfer, in the
    only order every plane supports — a bypass receiver pumps its data
    path (and therefore acknowledges) only inside its application's
    ``recv``, so the sender must not wait for the ACK before then."""

    def run(conn, peer, payload: bytes, timeout: float = 5.0) -> bytes:
        handle = conn.send(payload)
        received = peer.recv(timeout=timeout)
        assert handle.wait(timeout), "send was never confirmed"
        return received

    return run
