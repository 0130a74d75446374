"""Timing wrappers around the public entry points of each NCS layer.

The program is not edited and none of its own instruments are used
(``instrument=``, X-ray, ``NCS_*`` switches stay off): ``Tracer.install``
replaces class attributes and module globals with wrappers that record,
per thread, how often each span was entered, its *self* thread-CPU time
(``time.thread_time_ns`` minus child spans on the same thread) and its
self wall time.  Self wall minus self CPU is time the span spent blocked.

Every wrap target is resolved by name at install time; a target that no
longer exists raises :class:`MissingTargets`, so a refactor cannot lose a
span silently.  ``uninstall`` puts the original objects back.

Bias to know about: the wrapper's own cost outside its two clock reads
(argument packing, the thread-state lookup) lands in the *parent* span's
self time, or in the residual when there is no parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from ncsbench.spec import SPANS


class Target(NamedTuple):
    span: str
    module: str
    #: Class owning the attributes; None means module-level functions.
    owner: Optional[str]
    attrs: Tuple[str, ...]
    #: Wrap every concrete subclass that defines the attribute too, so
    #: the span survives an algorithm change.
    family: bool = False


TARGETS = (
    Target("core.send", "repro.core.connection", "Connection", ("send",)),
    Target("core.recv", "repro.core.connection", "Connection",
           ("recv", "try_recv")),
    Target("threadpkg.chan_put", "repro.threadpkg.kernel", "KernelChannel",
           ("put",)),
    Target("threadpkg.chan_get", "repro.threadpkg.kernel", "KernelChannel",
           ("get", "try_get")),
    Target("eventplane.submit", "repro.eventplane.endpoint", "EventEndpoint",
           ("submit",)),
    Target("eventplane.on_readable", "repro.eventplane.endpoint",
           "EventEndpoint", ("on_readable",)),
    Target("eventplane.on_writable", "repro.eventplane.endpoint",
           "EventEndpoint", ("on_writable",)),
    Target("protocol.segment", "repro.protocol.segmentation", None,
           ("segment_message",)),
    Target("protocol.sdu_encode", "repro.protocol.headers", "Sdu",
           ("encode", "encode_into")),
    Target("protocol.sdu_decode", "repro.protocol.headers", "Sdu",
           ("decode",)),
    Target("protocol.reassemble", "repro.protocol.segmentation",
           "Reassembler", ("add",)),
    Target("protocol.pdu_encode", "repro.protocol.pdus", "ControlPdu",
           ("encode",)),
    Target("protocol.pdu_decode", "repro.protocol.pdus", None,
           ("decode_control_pdu",)),
    Target("errorcontrol.tx_send", "repro.errorcontrol.base",
           "SenderErrorControl", ("send",), True),
    Target("errorcontrol.tx_ack", "repro.errorcontrol.base",
           "SenderErrorControl", ("on_control",), True),
    Target("errorcontrol.tx_timer", "repro.errorcontrol.base",
           "SenderErrorControl", ("on_timer",), True),
    Target("errorcontrol.rx_sdu", "repro.errorcontrol.base",
           "ReceiverErrorControl", ("on_sdu",), True),
    Target("flowcontrol.tx_offer", "repro.flowcontrol.base",
           "SenderFlowControl", ("offer",), True),
    Target("flowcontrol.tx_pull", "repro.flowcontrol.base",
           "SenderFlowControl", ("pull",), True),
    Target("flowcontrol.tx_credit", "repro.flowcontrol.base",
           "SenderFlowControl", ("on_control",), True),
    Target("flowcontrol.rx_batch", "repro.flowcontrol.base",
           "ReceiverFlowControl", ("on_sdu", "on_sdu_batch"), True),
    Target("interfaces.tx", "repro.interfaces.base", "CommInterface",
           ("send", "send_many", "queue_frames", "flush_backlog"), True),
    Target("interfaces.rx", "repro.interfaces.base", "CommInterface",
           ("recv", "recv_many", "try_recv"), True),
    Target("pressure.budget", "repro.pressure.budget", "MemoryBudget",
           ("try_reserve", "reserve_blocking", "release", "set_level")),
)

#: Imported before resolving so every concrete engine and interface
#: class is registered as a subclass of its base.
_PROGRAM_MODULES = (
    "repro.core",
    "repro.errorcontrol",
    "repro.flowcontrol",
    "repro.interfaces",
    "repro.eventplane",
    "repro.faults.injector",
    "repro.pressure",
)


class MissingTargets(Exception):
    """Wrap targets that no longer resolve; install changed nothing."""

    def __init__(self, missing: List[str]):
        super().__init__(
            "tracer wrap targets no longer exist: " + ", ".join(missing)
        )
        self.missing = missing


class _ThreadState:
    """One thread's span totals; written only by that thread."""

    __slots__ = ("calls", "cpu_ns", "wall_ns", "child_cpu", "child_wall")

    def __init__(self, nspans: int):
        self.calls = [0] * nspans
        self.cpu_ns = [0] * nspans
        self.wall_ns = [0] * nspans
        #: Inclusive time of the spans that ended inside the span now
        #: open on this thread (reset at each span entry).
        self.child_cpu = 0
        self.child_wall = 0


class SpanTotals(NamedTuple):
    calls: int
    cpu_ns: int
    wall_ns: int


def _family(base: type) -> List[type]:
    """``base`` and every subclass the program defines, breadth first."""
    seen = [base]
    for cls in seen:
        for sub in cls.__subclasses__():
            if sub not in seen and sub.__module__.startswith("repro."):
                seen.append(sub)
    return seen


class Tracer:
    """Installs, reads and removes the span wrappers."""

    def __init__(
        self,
        wall_clock=time.perf_counter_ns,
        cpu_clock=time.thread_time_ns,
    ):
        #: Injectable so the self-test can check the self-time
        #: arithmetic exactly; runs use the real clocks.
        self._wall_clock = wall_clock
        self._cpu_clock = cpu_clock
        self._index = {span: i for i, span in enumerate(SPANS)}
        self._tls = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()  # thread registration only
        #: (namespace object, attribute, original raw value) per patch.
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name in _PROGRAM_MODULES:
            importlib.import_module(name)
        plan: List[Tuple[object, str, object, str]] = []
        missing: List[str] = []
        for target in TARGETS:
            self._resolve(target, plan, missing)
        if missing:
            raise MissingTargets(missing)
        for owner, attr, raw, span in plan:
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self._wrap_raw(raw, span))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _resolve(self, target: Target, plan: list, missing: list) -> None:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            missing.append(f"{target.span}: module {target.module}")
            return
        if target.owner is None:
            for attr in target.attrs:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    missing.append(f"{target.span}: {target.module}.{attr}")
                    continue
                # ``from x import f`` copies the binding: rebind it in
                # every program module that holds the same object.
                for name, mod in list(sys.modules.items()):
                    if (
                        mod is not None
                        and (name == "repro" or name.startswith("repro."))
                        and mod.__dict__.get(attr) is fn
                    ):
                        plan.append((mod, attr, fn, target.span))
            return
        base = getattr(module, target.owner, None)
        if not isinstance(base, type):
            missing.append(f"{target.span}: {target.module}.{target.owner}")
            return
        classes = _family(base) if target.family else [base]
        for attr in target.attrs:
            found = False
            for cls in classes:
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                fn = getattr(raw, "__func__", raw)
                if not callable(fn) or getattr(
                    fn, "__isabstractmethod__", False
                ):
                    continue
                plan.append((cls, attr, raw, target.span))
                found = True
            if not found:
                missing.append(
                    f"{target.span}: {target.module}.{target.owner}.{attr}"
                )

    def _wrap_raw(self, raw: object, span: str) -> object:
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self.wrap(raw.__func__, span))
        return self.wrap(raw, span)

    def wrap(self, fn, span: str):
        """``fn`` timed as ``span`` (what install puts in its place)."""
        idx = self._index[span]
        tls = self._tls
        new_state = self._new_state
        perf = self._wall_clock
        cpu = self._cpu_clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                st = tls.state
            except AttributeError:
                st = new_state()
            outer_cpu = st.child_cpu
            outer_wall = st.child_wall
            st.child_cpu = 0
            st.child_wall = 0
            w0 = perf()
            c0 = cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                dc = cpu() - c0
                dw = perf() - w0
                st.calls[idx] += 1
                st.cpu_ns[idx] += dc - st.child_cpu
                st.wall_ns[idx] += dw - st.child_wall
                st.child_cpu = outer_cpu + dc
                st.child_wall = outer_wall + dw

        return traced

    def _new_state(self) -> _ThreadState:
        state = _ThreadState(len(SPANS))
        self._tls.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> Dict[str, SpanTotals]:
        """Totals per span, summed over every thread seen so far.

        Threads keep running while this reads; each counter is a single
        list slot updated by one thread, so a snapshot is at worst one
        call stale per thread.
        """
        with self._states_lock:
            states = list(self._states)
        out = {}
        for span, i in self._index.items():
            out[span] = SpanTotals(
                sum(s.calls[i] for s in states),
                sum(s.cpu_ns[i] for s in states),
                sum(s.wall_ns[i] for s in states),
            )
        return out


def delta(
    after: Dict[str, SpanTotals], before: Dict[str, SpanTotals]
) -> Dict[str, SpanTotals]:
    return {
        span: SpanTotals(
            after[span].calls - before[span].calls,
            after[span].cpu_ns - before[span].cpu_ns,
            after[span].wall_ns - before[span].wall_ns,
        )
        for span in after
    }
