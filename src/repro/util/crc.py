"""CRC generators used by the ATM substrate.

AAL5 protects each CS-PDU with the 32-bit CRC from IEEE 802.3 (polynomial
0x04C11DB7, reflected, init/final 0xFFFFFFFF), and ATM OAM cells use the
CRC-10 (polynomial x^10 + x^9 + x^5 + x^4 + x + 1, i.e. 0x633).  Both are
implemented from scratch — the point is that corrupted frames are
*detected* by the AAL5 layer, which is what triggers the NCS error control
procedures (paper §3.2: "the checksumming is done by the AAL5 layer to
detect errors within the AAL5 frames").
"""

from __future__ import annotations

import zlib


def _build_crc32_table() -> list[int]:
    poly = 0xEDB88320  # 0x04C11DB7 bit-reflected
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table.append(crc)
    return table


_CRC32_TABLE = _build_crc32_table()


def crc32_aal5(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """Compute the AAL5 CRC-32 of ``data``.

    The returned value is already XOR-ed with 0xFFFFFFFF, ready to be
    placed in the AAL5 trailer.  To checksum incrementally, re-invert the
    previous result: ``crc32_aal5(b, crc32_aal5(a) ^ 0xFFFFFFFF)`` equals
    ``crc32_aal5(a + b)``.

    AAL5 uses the IEEE 802.3 CRC-32, the same polynomial ``zlib.crc32``
    implements, so the hot path delegates to the C implementation;
    :func:`crc32_aal5_reference` keeps the table-driven form the tests
    validate against.
    """
    # zlib chains on the *finalized* previous value; our ``crc`` argument
    # is the raw register, so re-invert at the boundary.
    return zlib.crc32(data, crc ^ 0xFFFFFFFF)


def crc32_aal5_reference(data: bytes, crc: int = 0xFFFFFFFF) -> int:
    """Table-driven reference implementation of :func:`crc32_aal5`."""
    for byte in data:
        crc = _CRC32_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


_CRC10_POLY = 0x633


def _build_crc10_table() -> list[int]:
    table = []
    for byte in range(256):
        # Align the byte with the top of a 10-bit register.
        crc = byte << 2
        for _ in range(8):
            crc <<= 1
            if crc & 0x400:
                crc ^= _CRC10_POLY
        table.append(crc & 0x3FF)
    return table


_CRC10_TABLE = _build_crc10_table()


def crc10(data: bytes, crc: int = 0) -> int:
    """Compute the ATM OAM CRC-10 of ``data`` (table-driven, 10-bit)."""
    for byte in data:
        crc = ((crc << 8) & 0x3FF) ^ _CRC10_TABLE[((crc >> 2) ^ byte) & 0xFF]
    return crc & 0x3FF


def crc10_bitwise(data: bytes, crc: int = 0) -> int:
    """Reference bit-at-a-time CRC-10; tests validate ``crc10`` against it."""
    for byte in data:
        for bit in range(7, -1, -1):
            in_bit = byte >> bit & 1
            top = crc >> 9 & 1
            crc = (crc << 1) & 0x3FF
            if top ^ in_bit:
                crc ^= _CRC10_POLY & 0x3FF
    return crc & 0x3FF
