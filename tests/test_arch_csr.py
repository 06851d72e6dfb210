"""Tests for the CSR file and the texture CSR address map."""

import pytest

from repro.arch.csr import CsrFile
from repro.isa.csr import CSR, NUM_TEX_LODS, TexCSR, is_tex_csr, split_tex_csr, tex_csr


@pytest.fixture
def csr() -> CsrFile:
    return CsrFile(core_id=2, num_warps=4, num_threads=8, num_cores=16)


def test_identification_csrs_are_contextual(csr):
    assert csr.read(CSR.THREAD_ID, thread_id=5, warp_id=1) == 5
    assert csr.read(CSR.WARP_ID, thread_id=5, warp_id=1) == 1
    assert csr.read(CSR.CORE_ID) == 2
    assert csr.read(CSR.NUM_THREADS) == 8
    assert csr.read(CSR.NUM_WARPS) == 4
    assert csr.read(CSR.NUM_CORES) == 16


def test_thread_and_warp_masks_visible(csr):
    assert csr.read(CSR.THREAD_MASK, thread_mask=0b1010) == 0b1010
    assert csr.read(CSR.WARP_MASK, warp_mask=0b0110) == 0b0110


def test_identification_csrs_read_only(csr):
    csr.write(CSR.CORE_ID, 99)
    assert csr.read(CSR.CORE_ID) == 2


def test_cycle_and_instret_counters(csr):
    csr.clock.now += 10  # the test stands in for the processor, the clock's only writer
    csr.retire(3)
    assert csr.read(CSR.CYCLE) == 10
    assert csr.read(CSR.INSTRET) == 3


def test_general_storage_roundtrip(csr):
    csr.write(0x7C0, 0x1234)
    assert csr.read(0x7C0) == 0x1234
    assert csr.raw(0x7C0) == 0x1234
    assert csr.raw(0x7C1, default=7) == 7
    assert 0x7C0 in csr.snapshot()["storage"]


# -- texture CSR map --------------------------------------------------------------------


def test_tex_csr_addresses_unique_per_stage_and_field():
    addresses = set()
    for stage in range(2):
        for field in (TexCSR.ADDR, TexCSR.WIDTH, TexCSR.HEIGHT, TexCSR.FORMAT, TexCSR.WRAP, TexCSR.FILTER):
            addresses.add(tex_csr(stage, field))
        for lod in range(NUM_TEX_LODS):
            addresses.add(tex_csr(stage, TexCSR.MIPOFF, lod))
    assert len(addresses) == 2 * (6 + NUM_TEX_LODS)


def test_tex_csr_split_roundtrip():
    address = tex_csr(1, TexCSR.MIPOFF, 3)
    assert is_tex_csr(address)
    assert split_tex_csr(address) == (1, TexCSR.MIPOFF, 3)
    address = tex_csr(0, TexCSR.WRAP)
    assert split_tex_csr(address) == (0, TexCSR.WRAP, 0)


def test_tex_csr_validation():
    with pytest.raises(ValueError):
        tex_csr(5, TexCSR.ADDR)
    with pytest.raises(ValueError):
        tex_csr(0, TexCSR.MIPOFF, 99)
    with pytest.raises(ValueError):
        tex_csr(0, TexCSR.WIDTH, lod=1)
    with pytest.raises(ValueError):
        split_tex_csr(0x100)
