"""The four closed-loop workloads and the harness that drives them.

Load shape, the same for every workload: both ``Node``s live in this
process, one generator thread and one sink (or echo) thread move the
traffic over at most two connections on ``interface="sci"`` bound to
127.0.0.1 — host loopback, not a link.  The loop is closed: the
generator sends the next message only when its window has room, blocking
on the oldest ``SendHandle``.  Flow and error control are the paper
defaults (credit + selective repeat, 4 KB SDUs, ``batch_max=64``); the
flight recorder, tracer, metrics registry and X-ray are off.  The
program sees only the seeded payloads and the seeded fault plan.

The main thread only sleeps and takes snapshots.
"""

from __future__ import annotations

import random
import resource
import statistics
import threading
import time
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import (
    ConnectionConfig,
    NcsError,
    Node,
    NodeConfig,
    SendFailedError,
)
from repro.faults.plan import FaultPlan, parse_fault_plan

from ncsbench.tracer import SpanTotals, Tracer, delta as span_delta

#: Wall seconds of traffic before the clock starts.  A message count is
#: not enough: a fresh process runs threaded ping-pong several times
#: faster for its first second or two and then settles (see README).
WARMUP_S = 4.0
#: Distinct seeded payload buffers per workload, sent round-robin.
PAYLOAD_BUFFERS = 4
#: Set-up/tear-down cycles per run; the medians are reported.
SETUP_CYCLES = 10
#: Longest the harness waits on one message before counting a failure.
MESSAGE_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    size: int
    window: int
    connections: int = 1
    #: ConnectionConfig.mode of the data connections ("event" is
    #: selected through NodeConfig(data_plane="event") on both nodes).
    mode: str = "threaded"
    echo: bool = False
    drop_rate: float = 0.0
    retransmit_timeout: Optional[float] = None


DEFS = {
    d.name: d
    for d in (
        WorkloadDef("pingpong_small", size=64, window=1, echo=True),
        WorkloadDef("bulk_stream", size=1 << 20, window=2),
        WorkloadDef(
            "lossy_stream",
            size=64 << 10,
            window=2,
            mode="bypass",
            drop_rate=0.02,
            retransmit_timeout=0.05,
        ),
        WorkloadDef(
            "event_duplex", size=4 << 10, window=16, connections=2,
            mode="event",
        ),
    )
}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def make_payloads(defn: WorkloadDef, seed: int) -> List[bytes]:
    """The workload's payload buffers; same seed, same bytes."""
    rng = random.Random(f"ncsbench:{defn.name}:{seed}")
    return [rng.randbytes(defn.size) for _ in range(PAYLOAD_BUFFERS)]


def fault_plan_text(defn: WorkloadDef, seed: int) -> str:
    """The ``NCS_FAULTS``-grammar plan for this run ("" = clean path).

    Drops start one second after the connection is made, so ``setup_s``
    times connection set-up and not, for some seeds, a 50 ms
    retransmission time-out on its first message.
    """
    if not defn.drop_rate:
        return ""
    return f"drop:rate={defn.drop_rate:g},start=1;seed:{seed}"


def make_fault_plan(defn: WorkloadDef, seed: int) -> Optional[FaultPlan]:
    text = fault_plan_text(defn, seed)
    return parse_fault_plan(text) if text else None


# ---------------------------------------------------------------------------
# Node pair
# ---------------------------------------------------------------------------


class Pair:
    """Two nodes and the workload's established connections."""

    def __init__(self, defn: WorkloadDef, seed: int):
        plane = "event" if defn.mode == "event" else "threaded"
        self.defn = defn
        self.nodes = [
            Node(
                NodeConfig(
                    name=f"ncsbench-{side}",
                    flight_recorder=False,
                    trace=False,
                    metrics=False,
                    xray=False,
                    watchdog=False,
                    telemetry="",
                    data_plane=plane,
                )
            )
            for side in ("tx", "rx")
        ]
        self.tx: list = []
        self.rx: list = []
        try:
            self._connect(seed)
        except BaseException:
            self.close()
            raise

    def _connect(self, seed: int) -> None:
        defn = self.defn
        sender, receiver = self.nodes
        overrides = {}
        if defn.mode == "bypass":
            overrides["mode"] = "bypass"
            receiver.accept_mode = "bypass"
        if defn.retransmit_timeout is not None:
            overrides["retransmit_timeout"] = defn.retransmit_timeout
        plan = make_fault_plan(defn, seed)
        if plan is not None:
            overrides["fault_plan"] = plan
        config = ConnectionConfig(
            interface="sci",
            flow_control="credit",
            error_control="selective_repeat",
            **overrides,
        )
        for _ in range(defn.connections):
            self.tx.append(
                sender.connect(
                    receiver.address, config, peer_name=receiver.name
                )
            )
            peer = receiver.accept(timeout=5.0)
            if peer is None:
                raise RuntimeError("peer node did not accept the connection")
            self.rx.append(peer)

    def connections(self) -> list:
        return self.tx + self.rx

    def close(self) -> None:
        for node in self.nodes:
            node.close()


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


@dataclass
class Failures:
    """Everything that counts against ``failed_ratio``."""

    timeouts: int = 0
    send_failed: int = 0
    mismatches: int = 0
    misordered: int = 0
    lost_or_duplicated: int = 0
    errors: List[str] = field(default_factory=list)

    def total(self) -> int:
        return (
            self.timeouts
            + self.send_failed
            + self.mismatches
            + self.misordered
            + self.lost_or_duplicated
            + len(self.errors)
        )

    def as_dict(self) -> dict:
        return {
            "timeouts": self.timeouts,
            "send_failed": self.send_failed,
            "payload_mismatches": self.mismatches,
            "out_of_order_or_duplicate": self.misordered,
            "lost_or_duplicated_at_end": self.lost_or_duplicated,
            "harness_errors": list(self.errors),
        }


class Traffic:
    """One generator thread and one sink/echo thread over a ``Pair``.

    Timestamps are appended to int64 arrays (one writer each, 8 bytes an
    entry so the harness stays small in ``peak_rss_mb``) and joined after
    the run: message ``k`` on connection ``c`` was sent at
    ``send_ns[c][k]`` and handed to the far side's ``recv`` caller at
    ``recv_ns[c][k]``; ``done_ns`` holds completion times as the
    closed-loop caller saw them (echo returned, or handle completed).
    """

    def __init__(self, pair: Pair, payloads: List[bytes]):
        self.pair = pair
        self.payloads = payloads
        n = len(pair.tx)
        self.send_ns = [array("q") for _ in range(n)]
        self.recv_ns = [array("q") for _ in range(n)]
        self.done_ns = array("q")
        self.failures = Failures()
        self._stop = threading.Event()
        self._generator_done = threading.Event()
        defn = pair.defn
        self._sink = threading.Thread(
            target=self._guard(self._echo if defn.echo else self._drain),
            name="ncsbench-sink",
        )
        self._generator = threading.Thread(
            target=self._guard(
                self._pingpong if defn.echo else self._stream,
                self._generator_done,
            ),
            name="ncsbench-generator",
        )

    def start(self) -> None:
        # Sink first: in bypass mode a send completes only while the
        # peer is inside recv(), which is what pumps its receiver.
        self._sink.start()
        self._generator.start()

    def stop(self) -> None:
        """Stop generating, drain what is in flight, join both threads."""
        self._stop.set()
        self._generator.join()
        self._sink.join()

    def attempted(self) -> int:
        return sum(len(stamps) for stamps in self.send_ns)

    def _guard(self, body, done: Optional[threading.Event] = None):
        def run():
            try:
                body()
            except Exception as exc:  # harness boundary: count and report
                self.failures.errors.append(f"{body.__name__}: {exc!r}")
            finally:
                if done is not None:
                    done.set()

        return run

    # -- generator side ------------------------------------------------------

    def _pingpong(self) -> None:
        conn = self.pair.tx[0]
        sent = self.send_ns[0]
        payloads = self.payloads
        clock = time.perf_counter_ns
        while not self._stop.is_set():
            payload = payloads[len(sent) % PAYLOAD_BUFFERS]
            sent.append(clock())
            conn.send(payload)
            echo = conn.recv(timeout=MESSAGE_TIMEOUT_S)
            if echo is None:
                self.failures.timeouts += 1
                return  # the next echo could no longer be matched to its send
            self.done_ns.append(clock())
            if echo != payload:
                self.failures.mismatches += 1

    def _stream(self) -> None:
        conns = self.pair.tx
        window = self.pair.defn.window
        payloads = self.payloads
        clock = time.perf_counter_ns
        inflight = [deque() for _ in conns]
        turn = 0
        while not self._stop.is_set():
            c = turn % len(conns)
            turn += 1
            if len(inflight[c]) >= window:
                self._complete(inflight[c].popleft())
            sent = self.send_ns[c]
            payload = payloads[len(sent) % PAYLOAD_BUFFERS]
            sent.append(clock())
            inflight[c].append(conns[c].send(payload))
        for handles in inflight:
            for handle in handles:
                self._complete(handle)

    def _complete(self, handle) -> None:
        try:
            if handle.wait(MESSAGE_TIMEOUT_S):
                self.done_ns.append(time.perf_counter_ns())
            else:
                self.failures.timeouts += 1
        except SendFailedError:
            self.failures.send_failed += 1

    # -- sink side -----------------------------------------------------------

    def _receive(self, c: int) -> Optional[bytes]:
        """Next message on rx connection ``c``, verified; None once the
        generator has finished and everything it sent has arrived."""
        conn = self.pair.rx[c]
        received = self.recv_ns[c]
        deadline = None
        while True:
            # recv(timeout=0.0) returns None without looking at the
            # queue, so always poll with a positive timeout.
            message = conn.recv(timeout=0.2)
            if message is not None:
                break
            if self._generator_done.is_set():
                if len(self.send_ns[c]) <= len(received):
                    return None
                now = time.monotonic()
                if deadline is None:
                    deadline = now + MESSAGE_TIMEOUT_S
                elif now >= deadline:
                    return None
        received.append(time.perf_counter_ns())
        self._verify(message, len(received) - 1)
        return message

    def _verify(self, message: bytes, k: int) -> None:
        """Payload equality plus per-connection order and exactly-once:
        the k-th delivery must be the k-th buffer of the rotation."""
        if message == self.payloads[k % PAYLOAD_BUFFERS]:
            return
        if message in self.payloads:
            self.failures.misordered += 1
        else:
            self.failures.mismatches += 1

    def _echo(self) -> None:
        peer = self.pair.rx[0]
        while True:
            message = self._receive(0)
            if message is None:
                return
            peer.send(message)

    def _drain(self) -> None:
        n = len(self.pair.rx)
        turn = 0
        while self._receive(turn % n) is not None:
            turn += 1
        # The rotation above blocks on one peer at a time; sweep the
        # others so a count mismatch is attributed, not hidden.
        for c in range(n):
            while len(self.recv_ns[c]) < len(self.send_ns[c]):
                if self._receive(c) is None:
                    break

    # -- end of run ----------------------------------------------------------

    def check_counts(self) -> None:
        """messages_received must equal messages sent, per connection."""
        lost = 0
        for c, (tx, rx) in enumerate(zip(self.pair.tx, self.pair.rx)):
            sent = len(self.send_ns[c])
            lost += abs(rx.messages_received - sent)
            # Delivered by the connection but never handed to the sink.
            lost += abs(rx.messages_received - len(self.recv_ns[c]))
            if self.pair.defn.echo:
                lost += abs(tx.messages_received - sent)
        self.failures.lost_or_duplicated += lost


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _percentile(ordered: List[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * q // 100))  # ceil
    return float(ordered[int(rank) - 1])


class _Snapshot:
    """Everything read at the edges of the measured interval."""

    def __init__(self, pair: Pair, tracer: Optional[Tracer]):
        self.wall_ns = time.perf_counter_ns()
        self.cpu_s = time.process_time()
        self.totals: Dict[str, float] = {}
        for conn in pair.connections():
            for key, value in conn.metrics_totals().items():
                if isinstance(value, (int, float)):
                    self.totals[key] = self.totals.get(key, 0) + value
        self.loop: Dict[str, float] = {}
        if pair.defn.mode == "event":
            for node in pair.nodes:
                for key, value in node.event_loop().stats().items():
                    self.loop[key] = self.loop.get(key, 0) + value
        self.spans = tracer.snapshot() if tracer is not None else None


def _diff(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


@dataclass
class LegResult:
    """One measured interval of one workload."""

    measure_s: float
    #: Messages completed in the interval, and in each 1-s window of it.
    messages: int
    windows: List[int]
    msgs_per_s: float
    #: Over every message delivered in the interval.
    latency_p50_us: float
    latency_p99_us: float
    latency_samples: int
    #: Process CPU over the whole interval.
    cpu_s: float
    #: ``ru_maxrss`` when the clock stopped.
    peak_rss_mb: float
    attempted: int
    failures: Failures
    counters: Dict[str, float]
    loop: Dict[str, float]
    spans: Optional[Dict[str, SpanTotals]]


def run_leg(
    defn: WorkloadDef,
    seed: int,
    measure_s: float,
    tracer: Optional[Tracer] = None,
    warmup_s: float = WARMUP_S,
) -> LegResult:
    """Fresh pair, warm up for wall time, measure, drain, close.

    Every figure is taken over the whole measured interval; the 1-s
    windows are kept beside them to show what happened inside it.
    """
    payloads = make_payloads(defn, seed)
    pair = Pair(defn, seed)
    try:
        traffic = Traffic(pair, payloads)
        traffic.start()
        time.sleep(warmup_s)
        before = _Snapshot(pair, tracer)
        time.sleep(measure_s)
        after = _Snapshot(pair, tracer)
        # Read before the drain and the post-processing below add to it.
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        traffic.stop()
        traffic.check_counts()
    finally:
        pair.close()

    t0, t1 = before.wall_ns, after.wall_ns
    done = traffic.done_ns  # appended in time order by one thread
    nwin = max(1, int(measure_s))
    marks = [
        bisect_left(done, t0 + (t1 - t0) * i // nwin) for i in range(nwin + 1)
    ]
    messages = marks[-1] - marks[0]

    # send() call to the far side's recv() handing the message over; on
    # the echo workload, to the echo coming back.
    arrivals = [traffic.done_ns] if defn.echo else traffic.recv_ns
    latencies = sorted(
        arrived[k] - sent[k]
        for sent, arrived in zip(traffic.send_ns, arrivals)
        for k in range(bisect_left(arrived, t0), bisect_left(arrived, t1))
    )

    return LegResult(
        measure_s=(t1 - t0) / 1e9,
        messages=messages,
        windows=[marks[i + 1] - marks[i] for i in range(nwin)],
        msgs_per_s=messages / ((t1 - t0) / 1e9),
        latency_p50_us=_percentile(latencies, 50) / 1e3 if latencies else 0.0,
        latency_p99_us=_percentile(latencies, 99) / 1e3 if latencies else 0.0,
        latency_samples=len(latencies),
        cpu_s=after.cpu_s - before.cpu_s,
        peak_rss_mb=peak_rss_mb,
        attempted=traffic.attempted(),
        failures=traffic.failures,
        counters=_diff(after.totals, before.totals),
        loop=_diff(after.loop, before.loop),
        spans=(
            span_delta(after.spans, before.spans)
            if after.spans is not None
            else None
        ),
    )


def setup_teardown_cycles(
    defn: WorkloadDef, seed: int, cycles: int = SETUP_CYCLES
) -> tuple:
    """Median set-up and tear-down time over ``cycles`` fresh pairs.

    Set-up is: create both nodes, establish the workload's connections,
    and pass one verified message over each.  Tear-down is
    ``Node.close()`` on both.  Returns (setup_s, teardown_s, failures).
    """
    payloads = make_payloads(defn, seed)
    setups, teardowns = [], []
    failures = 0
    for _ in range(cycles):
        started = time.perf_counter()
        pair = Pair(defn, seed)
        try:
            sink_ok: List[bool] = []

            def sink():
                for peer in pair.rx:
                    sink_ok.append(
                        peer.recv(timeout=MESSAGE_TIMEOUT_S) == payloads[0]
                    )

            thread = threading.Thread(target=sink, name="ncsbench-sink")
            thread.start()
            try:
                for conn in pair.tx:
                    conn.send(payloads[0], wait=True, timeout=MESSAGE_TIMEOUT_S)
            except NcsError:
                failures += 1
            thread.join()
            if sink_ok != [True] * len(pair.rx):
                failures += 1
            setups.append(time.perf_counter() - started)
        finally:
            closing = time.perf_counter()
            pair.close()
            teardowns.append(time.perf_counter() - closing)
    return statistics.median(setups), statistics.median(teardowns), failures
