"""Acknowledgment bitmap for the selective-repeat error control scheme.

The paper's receiver (Fig. 5) keeps one bit per SDU: ``0`` means the SDU
arrived intact, ``1`` means it is missing or arrived in error.  When the
end-of-message SDU arrives, the whole bitmap travels back to the sender
inside an Acknowledgment PDU over the *control* connection, and the sender
retransmits exactly the SDUs whose bit is still set.

The paper initializes the map to all-ones ("assume everything is in error")
and *clears* a bit on successful receipt; this class follows that
convention.
"""

from __future__ import annotations


class AckBitmap:
    """A fixed-capacity bitmap of SDU receive status.

    Bit semantics match the paper: a **set** bit marks an SDU that still
    needs retransmission; a **clear** bit marks a correctly received SDU.
    """

    __slots__ = ("_bits", "_size")

    def __init__(self, size: int, all_set: bool = True):
        if size < 0:
            raise ValueError(f"bitmap size must be >= 0, got {size}")
        self._size = size
        self._bits = (1 << size) - 1 if all_set else 0

    @property
    def size(self) -> int:
        """Number of SDU slots tracked by this bitmap."""
        return self._size

    def mark_received(self, seqno: int) -> bool:
        """Clear the bit for ``seqno`` (SDU received without error).

        False when the bit was already clear — the SDU is a duplicate.
        """
        self._check(seqno)
        bit = 1 << seqno
        if not self._bits & bit:
            return False
        self._bits ^= bit
        return True

    def mark_error(self, seqno: int) -> None:
        """Set the bit for ``seqno`` (SDU missing or corrupted)."""
        self._check(seqno)
        self._bits |= 1 << seqno

    def is_pending(self, seqno: int) -> bool:
        """True if ``seqno`` still needs (re)transmission."""
        self._check(seqno)
        return bool(self._bits >> seqno & 1)

    def all_received(self) -> bool:
        """True once every tracked SDU has been received intact."""
        return self._bits == 0

    def pending(self) -> list[int]:
        """Sequence numbers that still need retransmission, ascending."""
        return [i for i in range(self._size) if self._bits >> i & 1]

    def pending_count(self) -> int:
        """Number of SDUs still outstanding."""
        return bin(self._bits).count("1")

    def merge_errors(self, other: "AckBitmap") -> None:
        """OR another bitmap's error bits into this one (same size)."""
        if other._size != self._size:
            raise ValueError(
                f"cannot merge bitmaps of different sizes "
                f"({self._size} vs {other._size})"
            )
        self._bits |= other._bits

    def snapshot(self) -> "AckBitmap":
        """An O(1) immutable copy of the current state.

        ``_bits`` is a plain int, so sharing it is safe: later
        ``mark_*`` calls on the live bitmap rebind ``_bits`` rather
        than mutating it, leaving the snapshot untouched.  This is the
        cheap alternative to the ``from_bytes(to_bytes())`` round trip
        (O(size) encode + decode) on the per-ack hot path.
        """
        bm = AckBitmap.__new__(AckBitmap)
        bm._size = self._size
        bm._bits = self._bits
        return bm

    # -- wire format ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Encode as little-endian bytes, rounded up to whole bytes."""
        nbytes = (self._size + 7) // 8
        return self._bits.to_bytes(nbytes, "little")

    @classmethod
    def from_bytes(cls, data: bytes, size: int) -> "AckBitmap":
        """Decode a bitmap of ``size`` slots from its wire form."""
        bm = cls(size, all_set=False)
        value = int.from_bytes(data, "little")
        mask = (1 << size) - 1
        bm._bits = value & mask
        return bm

    # -- internals ---------------------------------------------------------

    def _check(self, seqno: int) -> None:
        if not 0 <= seqno < self._size:
            raise IndexError(
                f"seqno {seqno} out of range for bitmap of size {self._size}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AckBitmap):
            return NotImplemented
        return self._size == other._size and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._size, self._bits))

    def __repr__(self) -> str:
        shown = "".join("1" if self._bits >> i & 1 else "0" for i in range(self._size))
        return f"AckBitmap(size={self._size}, bits={shown!r})"
