"""Property-based tests for the sparse memory model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.memory import SparseMemory

addresses = st.integers(0, 1 << 20)
payloads = st.binary(min_size=1, max_size=64)


@given(addresses, payloads)
@settings(max_examples=100, deadline=None)
def test_read_after_write(addr, data):
    mem = SparseMemory()
    mem.write(addr, data)
    assert mem.read(addr, len(data)) == data


@given(addresses, payloads, payloads)
@settings(max_examples=100, deadline=None)
def test_last_write_wins(addr, first, second):
    mem = SparseMemory()
    mem.write(addr, first)
    mem.write(addr, second)
    assert mem.read(addr, len(second)) == second


@given(
    st.lists(st.tuples(addresses, payloads), min_size=1, max_size=20)
)
@settings(max_examples=60, deadline=None)
def test_matches_dict_reference_model(writes):
    mem = SparseMemory()
    reference = {}
    for addr, data in writes:
        mem.write(addr, data)
        for i, byte in enumerate(data):
            reference[addr + i] = byte
    for addr, byte in reference.items():
        assert mem.read_byte(addr) == byte


@given(addresses, st.integers(0, (1 << 64) - 1), st.integers(0, 255))
@settings(max_examples=100, deadline=None)
def test_masked_write_equivalent_to_byte_writes(addr, value, strb):
    masked = SparseMemory()
    bytewise = SparseMemory()
    masked.write_masked(addr, value, strb, 8)
    data = value.to_bytes(8, "little")
    for lane in range(8):
        if strb & (1 << lane):
            bytewise.write_byte(addr + lane, data[lane])
    assert masked.read(addr, 8) == bytewise.read(addr, 8)


@given(addresses, st.integers(0, (1 << 64) - 1))
@settings(max_examples=100, deadline=None)
def test_word_roundtrip(addr, value):
    mem = SparseMemory()
    mem.write_word(addr, value, 8)
    assert mem.read_word(addr, 8) == value


@given(addresses)
@settings(max_examples=50, deadline=None)
def test_disjoint_writes_do_not_interfere(addr):
    mem = SparseMemory()
    mem.write(addr, b"\x11\x22")
    mem.write(addr + 2, b"\x33\x44")
    assert mem.read(addr, 4) == b"\x11\x22\x33\x44"


# ----------------------------------------------------------------------
# Word-granular stores against a per-byte reference
# ----------------------------------------------------------------------
class _ByteReference:
    """The per-byte model the slice-copying memory must match."""

    def __init__(self, fill: int) -> None:
        self.fill = fill
        self.bytes = {}

    def write_masked(self, addr, value, strb, width):
        data = (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        for lane in range(width):
            if strb & (1 << lane):
                self.bytes[addr + lane] = data[lane]

    def write(self, addr, data):
        for i, byte in enumerate(data):
            self.bytes[addr + i] = byte

    def read(self, addr, length):
        return bytes(self.bytes.get(addr + i, self.fill) for i in range(length))


PAGE_BITS = 6  # small pages, so random stores cross page boundaries often
near_boundary = st.integers(0, 8 << PAGE_BITS)
widths = st.sampled_from([1, 2, 4, 8, 16])


@given(
    st.integers(0, 255),
    st.lists(
        st.tuples(near_boundary, widths, st.integers(0, (1 << 128) - 1), st.integers(0, 0xFFFF)),
        min_size=1,
        max_size=12,
    ),
    near_boundary,
    st.integers(0, 3 << PAGE_BITS),
)
@settings(max_examples=150, deadline=None)
def test_masked_stores_match_per_byte_reference(fill, stores, read_addr, read_len):
    mem = SparseMemory(page_bits=PAGE_BITS, fill=fill)
    ref = _ByteReference(fill)
    for addr, width, value, strb in stores:
        mem.write_masked(addr, value, strb, width)
        ref.write_masked(addr, value, strb, width)
    assert mem.read(read_addr, read_len) == ref.read(read_addr, read_len)
    for addr, width, _, _ in stores:
        assert mem.read(addr, width) == ref.read(addr, width)


@given(
    st.integers(0, 255),
    st.lists(
        st.tuples(near_boundary, st.binary(min_size=0, max_size=200)),
        min_size=1,
        max_size=8,
    ),
    near_boundary,
    st.integers(0, 3 << PAGE_BITS),
)
@settings(max_examples=150, deadline=None)
def test_page_crossing_writes_match_per_byte_reference(fill, writes, read_addr, read_len):
    mem = SparseMemory(page_bits=PAGE_BITS, fill=fill)
    ref = _ByteReference(fill)
    for addr, data in writes:
        mem.write(addr, data)
        ref.write(addr, data)
    assert mem.read(read_addr, read_len) == ref.read(read_addr, read_len)


@given(st.integers(0, 255), near_boundary, st.integers(0, 3 << PAGE_BITS))
@settings(max_examples=60, deadline=None)
def test_unwritten_reads_return_fill_and_allocate_nothing(fill, addr, length):
    mem = SparseMemory(page_bits=PAGE_BITS, fill=fill)
    assert mem.read(addr, length) == bytes([fill]) * length
    assert mem.allocated_pages == 0


@given(near_boundary, widths, st.integers(0, (1 << 128) - 1), st.integers(0, 0xFFFF))
@settings(max_examples=80, deadline=None)
def test_watchers_run_once_per_store(addr, width, value, strb):
    mem = SparseMemory(page_bits=PAGE_BITS)
    calls = []
    mem.watch(lambda: calls.append(1))
    mem.write_masked(addr, value, strb, width)
    assert len(calls) == (1 if strb & ((1 << width) - 1) else 0)
    mem.write(addr, b"\x01" * width)
    assert len(calls) == (2 if strb & ((1 << width) - 1) else 1)
