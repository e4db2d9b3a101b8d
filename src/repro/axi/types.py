"""AXI4 protocol types, enums and helper arithmetic.

Follows the AMBA AXI4 specification (ARM IHI 0022).  Only the fields the
TMU observes are modelled in detail; the rest (QoS, region, user) exist
as payload fields so protocol rules about them remain expressible.
"""

from __future__ import annotations

import enum


class BurstType(enum.IntEnum):
    """AXI4 AxBURST encoding."""

    FIXED = 0b00
    INCR = 0b01
    WRAP = 0b10


class Resp(enum.IntEnum):
    """AXI4 xRESP encoding."""

    OKAY = 0b00
    EXOKAY = 0b01
    SLVERR = 0b10
    DECERR = 0b11

    @property
    def is_error(self) -> bool:
        return self in (Resp.SLVERR, Resp.DECERR)


class AxiDir(enum.Enum):
    """Transaction direction, used throughout the TMU's bookkeeping."""

    WRITE = "write"
    READ = "read"


#: Maximum beats in a single AXI4 INCR burst (AxLEN is 8 bits).
MAX_BURST_LEN = 256

#: Maximum bytes per beat for a 1024-bit data bus (AxSIZE is 3 bits).
MAX_BYTES_PER_BEAT = 128

#: 4 KiB boundary that AXI4 bursts must not cross.
BOUNDARY_4K = 0x1000


def beats_of(axlen: int) -> int:
    """Number of data beats encoded by an AxLEN field value."""
    if not 0 <= axlen < MAX_BURST_LEN:
        raise ValueError(f"AxLEN {axlen} out of range [0, {MAX_BURST_LEN})")
    return axlen + 1


def axlen_of(beats: int) -> int:
    """AxLEN field value for a burst of *beats* data beats."""
    if not 1 <= beats <= MAX_BURST_LEN:
        raise ValueError(f"burst of {beats} beats out of range [1, {MAX_BURST_LEN}]")
    return beats - 1


def bytes_per_beat(axsize: int) -> int:
    """Bytes transferred per beat for an AxSIZE field value."""
    if not 0 <= axsize <= 7:
        raise ValueError(f"AxSIZE {axsize} out of range [0, 7]")
    return 1 << axsize


def axsize_of(byte_count: int) -> int:
    """AxSIZE field value for *byte_count* bytes per beat."""
    size = byte_count.bit_length() - 1
    if byte_count <= 0 or (1 << size) != byte_count or byte_count > MAX_BYTES_PER_BEAT:
        raise ValueError(f"{byte_count} is not a legal AXI beat width")
    return size


def burst_bytes(axlen: int, axsize: int) -> int:
    """Total bytes moved by a burst."""
    return beats_of(axlen) * bytes_per_beat(axsize)


def crosses_4k_boundary(addr: int, axlen: int, axsize: int, burst: BurstType) -> bool:
    """True when an INCR burst would cross a 4 KiB boundary (illegal in AXI4)."""
    if burst != BurstType.INCR:
        return False
    last = addr + burst_bytes(axlen, axsize) - 1
    return (addr // BOUNDARY_4K) != (last // BOUNDARY_4K)


def wrap_boundary(addr: int, axlen: int, axsize: int) -> int:
    """Lowest address of the wrapping window for a WRAP burst."""
    size = burst_bytes(axlen, axsize)
    return (addr // size) * size


def is_legal_wrap_len(axlen: int) -> bool:
    """WRAP bursts must have 2, 4, 8 or 16 beats."""
    return beats_of(axlen) in (2, 4, 8, 16)


def aligned(addr: int, axsize: int) -> bool:
    """True when *addr* is aligned to the beat size."""
    return addr % bytes_per_beat(axsize) == 0


def burst_addresses(addr: int, axlen: int, axsize: int, burst: BurstType):
    """Per-beat addresses of a burst, following AXI4 address arithmetic."""
    width = bytes_per_beat(axsize)
    count = beats_of(axlen)
    if burst == BurstType.FIXED:
        return [addr] * count
    if burst == BurstType.INCR:
        return [addr + i * width for i in range(count)]
    # WRAP: increment, wrapping inside the aligned window.
    low = wrap_boundary(addr, axlen, axsize)
    span = count * width
    return [low + ((addr - low + i * width) % span) for i in range(count)]


def beat_lane(addr: int, bus_bytes: int) -> int:
    """Byte-lane offset of a beat's data on a *bus_bytes*-wide data bus.

    AXI4 narrow transfers place each beat's bytes on the lanes its
    address selects within the bus word; a full-width aligned beat sits
    at lane 0 (the historical full-bus convention degenerates to this).
    """
    return addr % bus_bytes


def beat_strb(addr: int, axsize: int, bus_bytes: int) -> int:
    """Write-strobe mask (over the full bus word) for one narrow beat."""
    width = bytes_per_beat(axsize)
    if width > bus_bytes:
        raise ValueError(
            f"AxSIZE {axsize} ({width} bytes) exceeds the {bus_bytes}-byte bus"
        )
    return ((1 << width) - 1) << beat_lane(addr, bus_bytes)
