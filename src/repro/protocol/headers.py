"""SDU framing: the data-plane packet format.

The paper attaches to every Service Data Unit a *sequence number* and a
*control bit* that marks the final SDU of a message (Fig. 5).  This
header carries exactly those, plus the connection/message identifiers the
Compute Thread supplies to ``NCS_send`` ("destination process id,
destination thread id, session id") and a payload CRC so the unreliable
ACI path can detect corruption the way AAL5's trailer CRC does.
"""

from __future__ import annotations

import enum
import struct

from repro.util.crc import crc32_aal5

#: Wire magic: "NC" — rejects cross-protocol garbage early.
MAGIC = 0x4E43
VERSION = 1

#: Fixed header: magic, version, flags, connection_id, msg_id, seqno,
#: total_sdus, payload_len, payload_crc.
_FIXED = struct.Struct("!HBBIIIIII")
HEADER_SIZE = _FIXED.size

_FLAG_END = 0x01
#: Header carries the optional trace envelope extension (trace_id u64,
#: span_id u32) immediately after the fixed header.  Absent when tracing
#: is off, so untraced traffic pays zero wire overhead and old decoders
#: reject nothing.
_FLAG_TRACE = 0x02

_TRACE_EXT = struct.Struct("!QI")
TRACE_EXT_SIZE = _TRACE_EXT.size
#: Fixed header and trace extension in one pack ("!" never pads).
_TRACED = struct.Struct(_FIXED.format + _TRACE_EXT.format[1:])


class PduType(enum.IntEnum):
    """Discriminates every frame on either connection type."""

    DATA = 1
    ACK = 2
    CUM_ACK = 3
    CREDIT = 4
    CONNECT_REQUEST = 5
    CONNECT_ACCEPT = 6
    CONNECT_REJECT = 7
    CLOSE = 8
    GROUP_JOIN = 9
    GROUP_LEAVE = 10
    GROUP_INFO = 11
    BARRIER = 12
    HEARTBEAT = 13
    TELEMETRY = 14
    CREDIT_RESYNC = 15


class HeaderError(ValueError):
    """Raised when an incoming frame fails header validation."""


def _pack_header(
    connection_id, msg_id, seqno, total_sdus, payload_len, payload_crc,
    end_bit, trace_id, span_id,
) -> bytes:
    """The one place the header layout is written."""
    flags = _FLAG_END if end_bit else 0
    if not trace_id:
        return _FIXED.pack(
            MAGIC, VERSION, flags, connection_id, msg_id, seqno,
            total_sdus, payload_len, payload_crc,
        )
    return _TRACED.pack(
        MAGIC, VERSION, flags | _FLAG_TRACE, connection_id, msg_id, seqno,
        total_sdus, payload_len, payload_crc, trace_id, span_id,
    )


class SduHeader:
    """Per-SDU header (paper Fig. 5: sequence number + end-of-message bit).

    ``total_sdus`` is carried for receiver bitmap sizing; the end bit
    remains authoritative for "last SDU", exactly as in the paper.

    ``trace_id``/``span_id`` form the cross-node causal-trace envelope:
    when non-zero the header grows by a 12-byte extension so the deliver
    and ack events on the remote node join the sender's trace.  A zero
    trace_id means "untraced" and keeps the classic fixed-size header.

    A value object: 256 of these are built per 1 MiB message on each
    side, so it is a plain slotted class (a frozen dataclass costs ~8x
    as much to construct) that nothing mutates after construction.
    """

    __slots__ = (
        "connection_id",
        "msg_id",
        "seqno",
        "total_sdus",
        "payload_len",
        "payload_crc",
        "end_bit",
        "trace_id",
        "span_id",
    )

    def __init__(
        self,
        connection_id: int,
        msg_id: int,
        seqno: int,
        total_sdus: int,
        payload_len: int,
        payload_crc: int,
        end_bit: bool,
        trace_id: int = 0,
        span_id: int = 0,
    ):
        self.connection_id = connection_id
        self.msg_id = msg_id
        self.seqno = seqno
        self.total_sdus = total_sdus
        self.payload_len = payload_len
        self.payload_crc = payload_crc
        self.end_bit = end_bit
        self.trace_id = trace_id
        self.span_id = span_id

    def _fields(self) -> tuple:
        return (
            self.connection_id, self.msg_id, self.seqno, self.total_sdus,
            self.payload_len, self.payload_crc, self.end_bit,
            self.trace_id, self.span_id,
        )

    def replace(self, **changes) -> "SduHeader":
        """A copy with the named fields changed."""
        fields = dict(zip(self.__slots__, self._fields()))
        fields.update(changes)
        return SduHeader(**fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SduHeader):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"SduHeader({shown})"

    @property
    def header_size(self) -> int:
        """Encoded size of *this* header (fixed part + trace extension)."""
        return HEADER_SIZE + (TRACE_EXT_SIZE if self.trace_id else 0)

    def encode(self) -> bytes:
        return _pack_header(*self._fields())

    @classmethod
    def decode(cls, data: bytes) -> "SduHeader":
        if len(data) < HEADER_SIZE:
            raise HeaderError(
                f"short header: {len(data)} bytes < {HEADER_SIZE}"
            )
        magic, version, flags, conn_id, msg_id, seqno, total, plen, pcrc = (
            _FIXED.unpack_from(data)
        )
        if magic != MAGIC:
            raise HeaderError(f"bad magic 0x{magic:04X}")
        if version != VERSION:
            raise HeaderError(f"unsupported protocol version {version}")
        if not flags & _FLAG_TRACE:
            return cls(
                conn_id, msg_id, seqno, total, plen, pcrc,
                bool(flags & _FLAG_END),
            )
        if len(data) < HEADER_SIZE + TRACE_EXT_SIZE:
            raise HeaderError(
                f"short trace extension: {len(data)} bytes < "
                f"{HEADER_SIZE + TRACE_EXT_SIZE}"
            )
        trace_id, span_id = _TRACE_EXT.unpack_from(data, HEADER_SIZE)
        return cls(
            conn_id, msg_id, seqno, total, plen, pcrc,
            bool(flags & _FLAG_END), trace_id, span_id,
        )


class Sdu:
    """A framed Service Data Unit: header plus payload bytes.

    ``payload`` is any bytes-like object; the segmentation layer hands
    in zero-copy ``memoryview`` slices of the original message.  The
    header's wire bytes are packed once, at :meth:`build`, and every
    transmission of the SDU — first send, retransmission, any interface
    — reuses them.
    """

    __slots__ = ("header", "payload", "_wire")

    def __init__(self, header: SduHeader, payload, wire: bytes = None):
        self.header = header
        self.payload = payload
        #: ``header.encode()``, or None until something asks for it.
        self._wire = wire

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sdu):
            return NotImplemented
        return self.header == other.header and self.payload == other.payload

    def __repr__(self) -> str:
        return f"Sdu({self.header!r}, <{len(self.payload)} payload bytes>)"

    @classmethod
    def build(
        cls,
        connection_id: int,
        msg_id: int,
        seqno: int,
        total_sdus: int,
        payload: bytes,
        end_bit: bool,
        trace_id: int = 0,
        span_id: int = 0,
    ) -> "Sdu":
        fields = (
            connection_id, msg_id, seqno, total_sdus, len(payload),
            crc32_aal5(payload), end_bit, trace_id, span_id,
        )
        return cls(SduHeader(*fields), payload, _pack_header(*fields))

    @property
    def header_bytes(self) -> bytes:
        """The encoded header (packed at most once per SDU)."""
        wire = self._wire
        if wire is None:
            wire = self._wire = self.header.encode()
        return wire

    def encode(self) -> bytes:
        """Serialize for the wire: header immediately followed by payload."""
        # join() accepts memoryview payloads and allocates the result
        # exactly once (a `bytes + memoryview` concat would TypeError).
        return b"".join((self.header_bytes, self.payload))

    def encode_into(self, segments: list) -> int:
        """Append the wire frame to a gather list; returns the frame size.

        Used by scatter-gather interfaces (SCI's vectored ``send_many``):
        the frame goes out as its stored header bytes plus the payload
        view, so user space copies no payload byte on the way to the
        socket.  An empty payload adds no segment.
        """
        wire = self.header_bytes
        payload = self.payload
        segments.append(wire)
        if payload:
            segments.append(payload)
        return len(wire) + len(payload)

    @classmethod
    def decode(cls, data: bytes) -> "Sdu":
        """Parse a frame; raises :class:`HeaderError` on malformed input.

        The payload is sliced out of ``data`` — a copy when ``data`` is
        ``bytes``.  (A view pinning the frame instead measured slower at
        4 KB SDUs and grew ``bulk_stream`` peak RSS by half.)
        """
        header = SduHeader.decode(data)
        start = header.header_size
        payload = data[start : start + header.payload_len]
        if len(payload) != header.payload_len:
            raise HeaderError(
                f"truncated payload: header says {header.payload_len}, "
                f"frame carries {len(payload)}"
            )
        return cls(header, payload)

    def payload_intact(self) -> bool:
        """Recompute the payload CRC; False means in-transit corruption."""
        return crc32_aal5(self.payload) == self.header.payload_crc

    @property
    def wire_size(self) -> int:
        return self.header.header_size + len(self.payload)

    def corrupted_copy(self) -> "Sdu":
        """Return a copy with one payload bit flipped (fault injection)."""
        header = self.header
        if not self.payload:
            # No payload bits to damage; corrupt the CRC expectation instead.
            bad_header = header.replace(payload_crc=header.payload_crc ^ 1)
            return Sdu(bad_header, self.payload)
        damaged = bytearray(self.payload)
        damaged[0] ^= 0x80
        return Sdu(header, bytes(damaged), self._wire)
