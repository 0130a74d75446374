"""Latency X-ray: per-message stage attribution on live traffic.

The paper's Table 1 decomposes one offline 1-byte send into stages; the
X-ray generalizes that decomposition to *production* traffic.  A
deterministic 1-in-N sampler picks messages at ``NCS_send`` entry; each
sampled message carries a dict of ``time.perf_counter_ns`` stamps
through every pipeline boundary it crosses —

* pressure-admission wait (``entry -> admitted``),
* protocol-thread queue wait (``queued -> dequeued``),
* segmentation/encode (``dequeued -> segmented``),
* error-control window wait (``segmented -> offered``),
* flow-control credit wait (``offered -> flow_released``),
* Send Thread queue wait (``flow_released -> send_thread_dequeued``),
* interface write (``send_thread_dequeued -> transmitted``),

and on the receiving node reassembly (``first_sdu -> reassembled``) and
delivery-queue wait (``reassembled -> popped``).  Stage boundaries
telescope — each stage's end is the next stage's start — so the sampled
stage sums equal the measured end-to-end latency *by construction*; the
tier-1 suite enforces the invariant within
:data:`repro.obs.profiler.TELESCOPE_TOLERANCE`.

Sampled messages are recognizable at the receiver without any side
channel: the sampler allocates a trace id (so the PR-6 trace envelope
rides the SDU headers) and sets :data:`XRAY_SPAN_MARK` — the top bit of
the envelope's ``span_id`` — which ordinary traced traffic never sets
(``span_id`` defaults to the message id, and per-direction message ids
would need 2^31 sends to collide with the mark).  Retransmissions replay
the stored SDUs, so the mark and trace id survive loss for free.

The unsampled fast path costs one attribute test and one counter
increment per send — no allocation, no dict, no clock read.  When the
subsystem is off (``NCS_XRAY`` unset) the cost is a single ``is None``
branch.

A span is the *only* per-message stage record.  Each connection's live
spans sit in its :class:`SpanTable`, the one stage clock; the Table 1
breakdown (:mod:`repro.obs.profiler`) is a coarser view of the same
stamps, including the receive-batch boundaries (``recv_entry`` …
``delivered``) copied into each receive span.

Clock domains: stamps are ``perf_counter_ns`` readings, the same clock
:class:`~repro.util.clock.MonotonicClock` wraps, so spans from two
in-process nodes are directly comparable and spans from different
processes join through the per-peer ClockSync offsets shipped in
telemetry (see :func:`join_spans`).
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import LATENCY_BUCKETS, Histogram

#: Top bit of the trace envelope's span_id: "this message is X-ray
#: sampled".  Ordinary traced messages use span_id = msg_id (counted
#: from 1 per direction), so the bit is free in practice.
XRAY_SPAN_MARK = 0x80000000

#: Threaded-mode sender stages (label, start stamp, end stamp); adjacent
#: stages share a boundary stamp, so the deltas telescope exactly.
XRAY_SEND_STAGES: List[Tuple[str, str, str]] = [
    ("admission_wait", "entry", "admitted"),
    ("send_enqueue", "admitted", "queued"),
    ("proto_queue_wait", "queued", "dequeued"),
    ("encode", "dequeued", "segmented"),
    ("ec_window_wait", "segmented", "offered"),
    ("fc_credit_wait", "offered", "flow_released"),
    ("send_queue_wait", "flow_released", "send_thread_dequeued"),
    ("interface_write", "send_thread_dequeued", "transmitted"),
]

#: §4.2 bypass-mode sender stages: no queues, no context switches.
XRAY_BYPASS_SEND_STAGES: List[Tuple[str, str, str]] = [
    ("admission_wait", "entry", "admitted"),
    ("encode", "admitted", "segmented"),
    ("ec_window_wait", "segmented", "offered"),
    ("fc_credit_wait", "offered", "flow_released"),
    ("interface_write", "flow_released", "transmitted"),
]

#: Receiver stages.  ``first_sdu`` is the arrival of the message's first
#: SDU, so "reassembly" covers the whole multi-SDU arrival window (the
#: paper's reassembly bitmap lifetime), and ``popped`` is the moment the
#: application's ``NCS_recv`` consumed the message.
XRAY_RECV_STAGES: List[Tuple[str, str, str]] = [
    ("reassembly", "first_sdu", "reassembled"),
    ("delivery_wait", "reassembled", "popped"),
]

#: Default sampling period: 1 in 64 messages.
DEFAULT_PERIOD = 64
#: Completed spans retained per node for waterfalls / offline joins.
DEFAULT_RING_CAPACITY = 512

_OFF_VALUES = ("", "off", "none", "0", "false", "disabled")


@dataclass(frozen=True)
class XrayConfig:
    """Sampling policy: every ``period``-th message, phase-shifted by
    ``seed`` so two runs (or two connections) can sample disjoint
    message sets deterministically."""

    period: int = DEFAULT_PERIOD
    seed: int = 0
    ring_capacity: int = DEFAULT_RING_CAPACITY

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.ring_capacity < 1:
            raise ValueError(
                f"ring_capacity must be >= 1, got {self.ring_capacity}"
            )

    @classmethod
    def parse(cls, raw: Optional[str]) -> Optional["XrayConfig"]:
        """Parse an ``NCS_XRAY`` spec; None means sampling is off.

        Accepted forms: ``64`` or ``1/64`` (sample one in 64), with an
        optional ``;seed=S`` clause (the fault-plan clause idiom), e.g.
        ``NCS_XRAY="1/64;seed=7"``.  Off spellings: empty, ``off``,
        ``none``, ``0``, ``false``, ``disabled``.
        """
        if raw is None:
            return None
        spec = raw.strip().lower()
        if spec in _OFF_VALUES:
            return None
        period_part, seed = spec, 0
        if ";" in spec:
            period_part, _, tail = spec.partition(";")
            key, _, value = tail.strip().partition("=")
            if key.strip() != "seed" or not value.strip():
                raise ValueError(
                    f"bad NCS_XRAY clause {tail.strip()!r} "
                    f"(expected 'seed=N')"
                )
            try:
                seed = int(value)
            except ValueError as exc:
                raise ValueError(f"bad NCS_XRAY seed {value!r}") from exc
        period_part = period_part.strip()
        if period_part.startswith("1/"):
            period_part = period_part[2:]
        try:
            period = int(period_part)
        except ValueError as exc:
            raise ValueError(
                f"bad NCS_XRAY spec {raw!r} (expected 'N' or '1/N', "
                f"optionally ';seed=S')"
            ) from exc
        if period < 1:
            raise ValueError(f"NCS_XRAY period must be >= 1, got {period}")
        return cls(period=period, seed=seed)

    @classmethod
    def from_env(cls) -> Optional["XrayConfig"]:
        import os

        return cls.parse(os.environ.get("NCS_XRAY", ""))


def _stage_durations(
    stamps: Dict[str, int], stages: List[Tuple[str, str, str]]
) -> Dict[str, int]:
    """Nanosecond deltas for every stage whose two stamps landed."""
    out: Dict[str, int] = {}
    for label, start, end in stages:
        begin = stamps.get(start)
        finish = stamps.get(end)
        if begin is not None and finish is not None and finish >= begin:
            out[label] = finish - begin
    return out


#: Most inbound spans one table keeps open: orphans (e.g. the duplicate
#: of an already-finished message) must not grow it forever.
_REASSEMBLING_MAX = 1024


class SpanTable:
    """One connection's live spans and its only stage clock.

    The connection driver calls in at the boundaries it owns and hands
    :meth:`send_stamp` / :meth:`recv_stamp` to ``ConnectionCore`` as
    ``stamp``; each boundary is one ``perf_counter_ns`` reading, and a
    finished span goes to the node's :class:`XrayRecorder`.  (The
    driver's locks serialize each half.)
    """

    def __init__(self, recorder: "XrayRecorder", conn_id: int, peer: str):
        self._sampled = recorder.sampled
        self._finish_send = partial(recorder.record_send, conn_id, peer)
        self._finish_recv = partial(recorder.record_recv, conn_id, peer)
        self._ids = itertools.count(1)
        #: msg_id -> stamps of sampled sends not yet on the wire.  Falsy
        #: when idle: the driver's "any live span?" test.
        self.sends: dict = {}
        #: msg_id -> stamps of sampled inbound messages mid-reassembly.
        self._reassembling: dict = {}
        #: One slot per delivery waiting in the receive queue, in queue
        #: order (both are FIFO): its stamps, or None if unsampled.
        #: (``id(message)`` as a key collides: CPython shares every
        #: 1-byte ``bytes``.)
        self._parked: deque = deque()
        #: The receive batch in progress: its boundary stamps, and one
        #: slot per SDU that has completed a message.
        self._batch: dict = {}
        self._slots: list = []

    # -- sender half ---------------------------------------------------

    def begin_send(self) -> Optional[dict]:
        """NCS_send entry: the sampler's pick.  An unsampled message
        costs one counter increment and one modulo — no allocation."""
        if not self._sampled(next(self._ids)):
            return None
        return {"entry": perf_counter_ns()}

    def track(self, span: dict, msg_id: int, trace_id: int, size: int) -> int:
        """Keep a sampled send's span live until its last SDU leaves;
        returns the ``span_id`` that marks its SDUs for the receiver."""
        span["_trace"] = trace_id
        span["_size"] = size
        self.sends[msg_id] = span
        return XRAY_SPAN_MARK | (msg_id & 0x7FFFFFFF)

    def hop(self, name: str, event: tuple) -> None:
        """Threaded plane: a sender event crosses a queue; a sampled
        send request (its span is the event's last field) is stamped."""
        if event[0] == "send" and event[-1] is not None:
            event[-1][name] = perf_counter_ns()

    def send_stamp(self, name: str, sdus=None, message=None, own=None) -> None:
        """The sender half's ``stamp``: boundary ``name`` of the message
        being submitted (``sdus`` None, ``own`` its span) or of each
        live sampled send whose *last* SDU is among ``sdus`` — first
        crossing only: a retransmit must not move a boundary, and finds
        the span gone once ``transmitted`` has finished it."""
        now_ns = perf_counter_ns()
        if sdus is None:
            if own is not None:
                own[name] = now_ns
            return
        for sdu in sdus:
            header = sdu.header
            if header.span_id & XRAY_SPAN_MARK and header.end_bit:
                span = self.sends.get(header.msg_id)
                if span is not None:
                    span.setdefault(name, now_ns)
                    if (name == "transmitted"
                            and self.sends.pop(header.msg_id, None) is span):
                        self._finish_send(header.msg_id, span)

    def drop_sends(self, msg_ids) -> None:
        """Sends that died before reaching the wire never finish."""
        for msg_id in msg_ids:
            self.sends.pop(msg_id, None)

    # -- receiver half -------------------------------------------------

    def begin_batch(self):
        """A batch of frames enters the receiver half (``recv_entry``);
        returns the ``stamp`` to hand the core for it."""
        self._batch = {"recv_entry": perf_counter_ns()}
        return self.recv_stamp

    def recv_stamp(self, name: str, sdus=(), message=None) -> None:
        """The receiver half's ``stamp``: a span opens at a sampled
        message's first SDU and, once ``reassembled``, waits for the
        batch's deliveries to be queued."""
        now_ns = perf_counter_ns()
        if name == "reassembled":
            span = self._reassembling.pop(sdus[0].header.msg_id, None)
            if span is not None:
                span["reassembled"] = now_ns
            self._slots.append(span)
            return
        self._batch[name] = now_ns
        if name == "decoded":
            spans = self._reassembling
            for sdu in sdus:
                header = sdu.header
                if header.span_id & XRAY_SPAN_MARK and header.msg_id not in spans:
                    if len(spans) >= _REASSEMBLING_MAX:
                        spans.pop(next(iter(spans)))
                    spans[header.msg_id] = {
                        "first_sdu": now_ns,
                        "_trace": header.trace_id,
                        "_msg": header.msg_id,
                    }

    def delivering(self, count: int) -> None:
        """``count`` messages are about to enter the receive queue (the
        batch's ``delivered`` boundary); the spans the batch completed
        take its stamps and queue up beside their messages."""
        slots = self._slots
        if len(slots) == count:
            self._batch["delivered"] = perf_counter_ns()
            for span in slots:
                if span is not None:
                    span.update(self._batch)
        else:
            # Released by the timer, or held messages rode along behind
            # a completing one: whose slot is whose is unknown, so the
            # spans are dropped rather than given to a neighbour.
            slots = [None] * count
        self._parked.extend(slots)
        self._slots = []

    def taken(self, size: int, shed: bool = False) -> None:
        """The oldest queued delivery left the queue: popped by NCS_recv,
        or ``shed`` by overload protection, taking its span with it."""
        # (Empty only once the connection closed and cleared the table.)
        span = self._parked.popleft() if self._parked else None
        if span is not None and not shed:
            span["popped"] = perf_counter_ns()
            span["_size"] = size
            self._finish_recv(span)

    def clear(self) -> None:
        """The connection closed: nothing live will ever finish."""
        self.sends.clear()
        self._reassembling.clear()
        self._parked.clear()


class XrayRecorder:
    """Per-node home for sampled spans: histograms + a bounded ring.

    Connections feed finished stamp dicts here (one call per sampled
    message per direction); the recorder derives stage durations,
    updates always-on µs-resolution latency histograms (independent of
    the optional metrics registry — the X-ray is its own subsystem), and
    keeps the raw spans for waterfall rendering and offline joins.
    """

    def __init__(
        self,
        node_name: str,
        config: XrayConfig,
        tracer=None,
    ):
        self.node_name = node_name
        self.config = config
        self.period = config.period
        self.seed = config.seed
        self._tracer = tracer
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=config.ring_capacity)
        #: Per direction, conn_id -> latency histogram (send: entry ->
        #: transmitted; recv: first_sdu -> popped).
        self._conn_hist: Dict[str, Dict[int, Histogram]] = {
            "send": {}, "recv": {},
        }
        #: stage label -> duration histogram across all connections.
        self._stage_hist: Dict[str, Histogram] = {}
        self.sampled_sends = 0
        self.sampled_recvs = 0

    def span_table(self, conn_id: int, peer: str) -> SpanTable:
        """The live-span table for one of this node's connections."""
        return SpanTable(self, conn_id, peer)

    # -- sampling ------------------------------------------------------

    def sampled(self, index: int) -> bool:
        """Deterministic 1-in-``period`` pick over a send counter."""
        return (index + self.seed) % self.period == 0

    # -- recording -----------------------------------------------------

    def _hist(self, table: Dict, key, name: str, **labels) -> Histogram:
        hist = table.get(key)
        if hist is None:
            hist = Histogram(name, labels, LATENCY_BUCKETS)
            table[key] = hist
        return hist

    def record_send(
        self, conn_id: int, peer: str, msg_id: int, stamps: Dict[str, int]
    ) -> None:
        """Absorb one finished sender span (stamps plus ``_``-meta keys)."""
        self._record(
            "send", conn_id, peer, msg_id, stamps, "entry", "transmitted",
            XRAY_SEND_STAGES if "queued" in stamps else XRAY_BYPASS_SEND_STAGES,
        )

    def record_recv(
        self, conn_id: int, peer: str, stamps: Dict[str, int]
    ) -> None:
        """Absorb one finished receiver span."""
        self._record(
            "recv", conn_id, peer, stamps.get("_msg", 0), stamps,
            "first_sdu", "popped", XRAY_RECV_STAGES,
        )

    def _record(
        self, kind, conn_id, peer, msg_id, stamps, first, last, stage_table
    ) -> None:
        begin = stamps.get(first)
        end = stamps.get(last)
        if begin is None or end is None or end < begin:
            return
        stages = _stage_durations(stamps, stage_table)
        span = {
            "kind": kind,
            "node": self.node_name,
            "conn": conn_id,
            "peer": peer,
            "msg": msg_id,
            "trace": stamps.get("_trace", 0),
            "size": stamps.get("_size", 0),
            "stamps": {
                key: value
                for key, value in stamps.items()
                if not key.startswith("_")
            },
            "stages": stages,
            "total_ns": end - begin,
        }
        with self._lock:
            if kind == "send":
                self.sampled_sends += 1
            else:
                self.sampled_recvs += 1
            self._spans.append(span)
            self._hist(
                self._conn_hist[kind],
                conn_id,
                f"ncs_xray_{kind}_seconds",
                node=self.node_name,
                conn=str(conn_id),
                peer=peer,
            ).observe((end - begin) / 1e9)
            for label, duration in stages.items():
                self._hist(
                    self._stage_hist,
                    label,
                    "ncs_xray_stage_seconds",
                    node=self.node_name,
                    stage=label,
                ).observe(duration / 1e9)
        self._emit(span)

    def _emit(self, span: dict) -> None:
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            return
        tracer.emit(
            "xray",
            f"{span['kind']}_span",
            conn_id=span["conn"],
            msg_id=span["msg"],
            trace=span["trace"],
            total_us=round(span["total_ns"] / 1e3, 3),
            stages={
                label: round(duration / 1e3, 3)
                for label, duration in span["stages"].items()
            },
        )

    # -- introspection -------------------------------------------------

    def spans(self, kind: Optional[str] = None) -> List[dict]:
        """Completed spans, oldest first (optionally one direction)."""
        with self._lock:
            spans = list(self._spans)
        if kind is not None:
            spans = [span for span in spans if span["kind"] == kind]
        return spans

    def snapshot(self) -> dict:
        """Streaming quantiles for telemetry export (JSON-friendly).

        Per-connection send/recv p50/p95/p99 plus node-wide per-stage
        quantiles — the SLO surface ``ncs_top`` and the Prometheus
        exposition render.
        """
        with self._lock:
            conn_hist = {
                kind: dict(table) for kind, table in self._conn_hist.items()
            }
            stage_hist = dict(self._stage_hist)
            sampled_sends = self.sampled_sends
            sampled_recvs = self.sampled_recvs
        conns: Dict[str, dict] = {}
        for kind, table in conn_hist.items():
            for conn_id, hist in table.items():
                entry = conns.setdefault(str(conn_id), {})
                entry[f"{kind}_count"] = hist.count
                for q, name in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                    entry[f"{kind}_{name}_s"] = round(hist.quantile(q), 9)
        stages: Dict[str, dict] = {}
        for label, hist in stage_hist.items():
            summary = hist.summary()
            stages[label] = {
                "count": summary.count,
                "mean_s": round(summary.mean, 9),
                "p50_s": round(hist.quantile(0.5), 9),
                "p95_s": round(hist.quantile(0.95), 9),
                "p99_s": round(hist.quantile(0.99), 9),
            }
        return {
            "period": self.period,
            "seed": self.seed,
            "sampled_sends": sampled_sends,
            "sampled_recvs": sampled_recvs,
            "conns": conns,
            "stages": stages,
        }

    def dump(self, path: str) -> int:
        """Write the span ring as JSON for offline joining; returns count."""
        record = {
            "node": self.node_name,
            "period": self.period,
            "seed": self.seed,
            "spans": self.spans(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return len(record["spans"])


def load_spans(path: str) -> List[dict]:
    """Read spans back from an :meth:`XrayRecorder.dump` file."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict) or "spans" not in record:
        raise ValueError(
            f"{path} is valid JSON but not an X-ray span dump "
            f"(missing 'spans'; was it written by XrayRecorder.dump?)"
        )
    return record["spans"]


def join_spans(
    spans: List[dict], offsets: Optional[Dict[str, float]] = None
) -> List[dict]:
    """Join sender and receiver spans by trace id into whole journeys.

    ``offsets`` maps a receiving node's name to its clock offset in
    seconds relative to the sender's clock (``peer_clock - local``, the
    ClockSync convention); spans from one process need no offset because
    every node shares ``perf_counter``.  The joined record telescopes:
    sender stages + ``wire`` + receiver stages - ``overlap_ns`` ==
    ``e2e_ns`` exactly.  ``wire`` (the inter-node boundary) is clamped
    at 0 and the clamped-away nanoseconds land in ``overlap_ns`` — on
    interfaces that deliver inline (sci's simulated DMA) the receiver
    reads the first SDU *before* the sender's write call returns, so
    the sender's ``interface_write`` stage and the receiver's stages
    genuinely overlap in time.
    """
    offsets = offsets or {}
    sends = {
        span["trace"]: span
        for span in spans
        if span["kind"] == "send" and span.get("trace")
    }
    joined: List[dict] = []
    for span in spans:
        if span["kind"] != "recv" or not span.get("trace"):
            continue
        send = sends.get(span["trace"])
        if send is None:
            continue
        shift_ns = int(offsets.get(span["node"], 0.0) * -1e9)
        recv_stamps = {
            key: value + shift_ns for key, value in span["stamps"].items()
        }
        stages = dict(send["stages"])
        wire = recv_stamps["first_sdu"] - send["stamps"]["transmitted"]
        stages["wire"] = max(0, wire)
        stages.update(span["stages"])
        e2e = recv_stamps["popped"] - send["stamps"]["entry"]
        joined.append({
            "trace": span["trace"],
            "msg": send["msg"],
            "conn": send["conn"],
            "size": send["size"],
            "sender": send["node"],
            "receiver": span["node"],
            "stages": stages,
            "overlap_ns": max(0, -wire),
            "send_total_ns": send["total_ns"],
            "recv_total_ns": span["total_ns"],
            "e2e_ns": e2e,
        })
    return joined


#: Stage render order for waterfalls and dominance reports.
STAGE_ORDER: List[str] = [
    label for label, _s, _e in XRAY_SEND_STAGES
] + ["wire"] + [label for label, _s, _e in XRAY_RECV_STAGES]


def dominance_report(joined: List[dict], tail_quantile: float = 0.99) -> dict:
    """"Where did my p99 go": stage shares overall and in the tail.

    Returns per-stage mean share of end-to-end time across all joined
    spans, the same shares restricted to spans at or above the
    ``tail_quantile`` of end-to-end latency, and the dominant stage of
    each population.
    """
    if not joined:
        return {"spans": 0, "overall": {}, "tail": {}, "dominant": None,
                "tail_dominant": None, "tail_threshold_ns": 0}
    ordered = sorted(joined, key=lambda span: span["e2e_ns"])
    cut = min(len(ordered) - 1, int(tail_quantile * len(ordered)))
    threshold = ordered[cut]["e2e_ns"]
    tail = [span for span in ordered if span["e2e_ns"] >= threshold]

    def shares(population: List[dict]) -> Dict[str, float]:
        sums: Dict[str, int] = {}
        total = 0
        for span in population:
            total += span["e2e_ns"]
            for label, duration in span["stages"].items():
                sums[label] = sums.get(label, 0) + duration
        if total <= 0:
            return {}
        return {
            label: round(duration / total, 4)
            for label, duration in sums.items()
        }

    overall = shares(ordered)
    tail_shares = shares(tail)
    return {
        "spans": len(ordered),
        "tail_spans": len(tail),
        "tail_threshold_ns": threshold,
        "overall": overall,
        "tail": tail_shares,
        "dominant": max(overall, key=overall.get) if overall else None,
        "tail_dominant": (
            max(tail_shares, key=tail_shares.get) if tail_shares else None
        ),
    }
