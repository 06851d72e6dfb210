"""Tests for device memory and the DRAM timing model."""

import pytest
from hypothesis import given, strategies as st

from repro.common.config import MemoryConfig
from repro.mem.dram import DramModel, MemRequest
from repro.mem.memory import MainMemory, MemoryAccessError


# -- MainMemory --------------------------------------------------------------------------


def test_uninitialized_memory_reads_zero():
    memory = MainMemory()
    assert memory.read_word(0x1000) == 0
    assert memory.read_bytes(0xFFFF_0000, 8) == bytes(8)


def test_word_roundtrip_and_alignment():
    memory = MainMemory()
    memory.write_word(0x100, 0xDEADBEEF)
    assert memory.read_word(0x100) == 0xDEADBEEF
    with pytest.raises(MemoryAccessError):
        memory.read_word(0x102)
    with pytest.raises(MemoryAccessError):
        memory.write_word(0x101, 1)


def test_half_and_byte_access():
    memory = MainMemory()
    memory.write_half(0x200, 0xBEEF)
    memory.write_byte(0x202, 0x7F)
    assert memory.read_half(0x200) == 0xBEEF
    assert memory.read_byte(0x202) == 0x7F
    with pytest.raises(MemoryAccessError):
        memory.read_half(0x201)


def test_cross_page_write_and_read():
    memory = MainMemory()
    data = bytes(range(100)) * 100
    memory.write_bytes(4096 - 50, data)
    assert memory.read_bytes(4096 - 50, len(data)) == data


def test_load_and_read_words():
    memory = MainMemory()
    memory.load_words(0x400, [1, 2, 3, 0xFFFFFFFF])
    assert memory.read_words(0x400, 4) == [1, 2, 3, 0xFFFFFFFF]


def test_fill_and_allocated_bytes():
    memory = MainMemory()
    memory.fill(0x1000, 256, 0xAB)
    assert memory.read_byte(0x10FF) == 0xAB
    assert memory.allocated_bytes >= 4096


def test_negative_read_size_rejected():
    with pytest.raises(MemoryAccessError):
        MainMemory().read_bytes(0, -1)


@given(st.integers(min_value=0, max_value=2**32 - 8), st.binary(min_size=1, max_size=64))
def test_byte_roundtrip_property(address, data):
    memory = MainMemory()
    memory.write_bytes(address, data)
    assert memory.read_bytes(address, len(data)) == data


# -- DramModel ---------------------------------------------------------------------------


def test_dram_fixed_latency(tick):
    dram = DramModel(MemoryConfig(latency=10, bandwidth=1))
    assert dram.send(MemRequest(address=0x40, tag="a"))
    responses = []
    for _ in range(9):
        responses.extend(tick(dram))
    assert not responses
    responses.extend(tick(dram))
    assert len(responses) == 1 and responses[0].tag == "a"


def test_dram_bandwidth_limits_responses_per_cycle(tick):
    dram = DramModel(MemoryConfig(latency=1, bandwidth=2, request_queue_size=16))
    for index in range(6):
        assert dram.send(MemRequest(address=index, tag=index))
    completed = []
    cycles = 0
    while len(completed) < 6:
        completed.extend(tick(dram))
        cycles += 1
    assert cycles == 3  # 6 requests at 2 per cycle


def test_dram_queue_backpressure():
    dram = DramModel(MemoryConfig(latency=100, bandwidth=1, request_queue_size=2))
    assert dram.send(MemRequest(address=0))
    assert dram.send(MemRequest(address=1))
    assert not dram.can_accept
    assert not dram.send(MemRequest(address=2))
    assert dram.perf.get("rejected") == 1


def test_dram_average_latency_tracks_queueing(tick):
    dram = DramModel(MemoryConfig(latency=5, bandwidth=1, request_queue_size=8))
    for index in range(4):
        dram.send(MemRequest(address=index))
    remaining = 4
    while remaining:
        remaining -= len(tick(dram))
    # The first response sees the base latency, later ones also wait for bandwidth.
    assert dram.average_latency >= 5
    assert dram.pending == 0


def test_dram_preserves_request_order(tick):
    dram = DramModel(MemoryConfig(latency=3, bandwidth=1))
    for tag in ("x", "y", "z"):
        dram.send(MemRequest(address=0, tag=tag))
    seen = []
    for _ in range(10):
        seen.extend(response.tag for response in tick(dram))
    assert seen == ["x", "y", "z"]
