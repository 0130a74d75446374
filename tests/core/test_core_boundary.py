"""The core/driver boundary, checked on the source itself.

``ConnectionCore`` is only worth having if it stays sans-I/O and stays
the *only* place that drives the protocol engines.  Both properties are
structural, so they are asserted on the AST: a new import or a new
engine call site in a driver fails here, not in review.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
CORE = SRC / "core" / "conncore.py"

#: What the core may never import: threads, sockets, clocks, the node,
#: any interface.
FORBIDDEN = ("threading", "socket", "selectors", "time", "repro.core.node",
             "repro.interfaces")

#: Engine entry points (``<anything>.<engine>.<method>(...)``) that only
#: the core may call.  Read-only accessors (``queued``, ``pending``,
#: ``metrics`` …) stay open to drivers, health sampling and tests.
ENGINE_ENTRY_POINTS = {
    "ec_sender": {"send", "on_control", "on_timer", "defer"},
    "fc_sender": {"offer", "pull", "on_control", "take_resync_request",
                  "next_ready_time"},
    "ec_receiver": {"on_sdu", "on_timer"},
    "fc_receiver": {"on_sdu", "on_sdu_batch"},
}


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def _engine_calls(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)):
            continue
        engine = func.value.attr
        if func.attr in ENGINE_ENTRY_POINTS.get(engine, ()):
            yield f"{engine}.{func.attr}", node.lineno


def test_core_imports_no_thread_socket_clock_node_or_interface():
    tree = ast.parse(CORE.read_text())
    offending = sorted(
        name for name in _imports(tree)
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    )
    assert offending == []


def test_engines_are_driven_from_the_core_only():
    outside = []
    inside = set()
    for path in sorted(SRC.rglob("*.py")):
        for call, lineno in _engine_calls(ast.parse(path.read_text())):
            if path == CORE:
                inside.add(call)
            else:
                outside.append(f"{path.relative_to(SRC)}:{lineno} {call}")
    assert outside == [], "engine entry points called outside the core"
    # ...and the scan itself works: the core really makes these calls.
    expected = {
        f"{engine}.{method}"
        for engine, methods in ENGINE_ENTRY_POINTS.items()
        for method in methods
    }
    assert expected - inside <= {"fc_receiver.on_sdu"}


def test_connection_reads_mode_only_where_the_driver_is_chosen():
    tree = ast.parse((SRC / "core" / "connection.py").read_text())
    readers = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "mode":
                    readers.add(func.name)
    assert readers == {"__init__"}


def test_connection_keeps_no_stage_clock_span_table_or_instrument_hop():
    """PR 19's deletion stays deleted: the X-ray span table
    (``repro.obs.xray.SpanTable``) is the only stage clock and the only
    per-message stage record; the driver only calls into it."""
    import inspect

    from repro.core.connection import Connection
    from repro.core.primitives import NCS_send

    tree = ast.parse((SRC / "core" / "connection.py").read_text())
    banned = {"instrument", "instruments", "sinks"}
    offending = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in ("perf_counter_ns", "perf_counter"):
                offending.append(f"{node.lineno} clock read {node.attr}")
            elif (isinstance(node.value, ast.Name) and node.value.id == "self"
                  and (node.attr.endswith("_spans")
                       or node.attr == "_xray_delivery")):
                offending.append(f"{node.lineno} span table self.{node.attr}")
        elif isinstance(node, ast.arg) and node.arg in banned:
            offending.append(f"{node.lineno} parameter {node.arg}")
        elif isinstance(node, ast.Name) and node.id in banned:
            offending.append(f"{node.lineno} name {node.id}")
    assert offending == []
    assert list(inspect.signature(Connection.send).parameters) == [
        "self", "payload", "wait", "timeout",
    ]
    assert list(inspect.signature(NCS_send).parameters) == [
        "connection", "payload", "wait", "timeout",
    ]
    assert not hasattr(Connection, "profiler")
    assert "profiler" not in {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
