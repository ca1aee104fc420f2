"""Tests for the functional flat memory and its allocator."""

import numpy as np
import pytest

from repro.arch import FlatMemory
from repro.errors import SimulationError


@pytest.fixture
def mem():
    return FlatMemory(1 << 16)


def test_allocate_alignment(mem):
    a = mem.allocate(10, align=64)
    b = mem.allocate(10, align=64)
    assert a % 64 == 0 and b % 64 == 0
    assert b >= a + 10
    c = mem.allocate(1, align=4)
    assert c % 4 == 0


def test_allocate_rejects_bad_args(mem):
    with pytest.raises(SimulationError):
        mem.allocate(-1)
    with pytest.raises(SimulationError):
        mem.allocate(8, align=3)
    with pytest.raises(SimulationError):
        mem.allocate(1 << 20)  # larger than the arena


def test_allocation_zero_page_reserved(mem):
    assert mem.allocate(4) >= 64


def test_scalar_roundtrips(mem):
    mem.store_u8(100, 0xAB)
    assert mem.load_u8(100) == 0xAB
    mem.store_u16(102, 0xBEEF)
    assert mem.load_u16(102) == 0xBEEF
    mem.store_u32(104, 0xDEADBEEF)
    assert mem.load_u32(104) == 0xDEADBEEF
    mem.store_u64(112, 0x0123456789ABCDEF)
    assert mem.load_u64(112) == 0x0123456789ABCDEF


def test_store_truncates(mem):
    mem.store_u8(0, 0x1FF)
    assert mem.load_u8(0) == 0xFF
    mem.store_u32(4, -1)
    assert mem.load_u32(4) == 0xFFFFFFFF


def test_little_endian(mem):
    mem.store_u32(0, 0x11223344)
    assert mem.load_u8(0) == 0x44
    assert mem.load_u8(3) == 0x11


def test_f32_roundtrip(mem):
    mem.store_f32(8, 3.25)
    assert mem.load_f32(8) == 3.25


def test_array_roundtrip(mem):
    arr = np.random.default_rng(0).standard_normal((3, 5)).astype(np.float32)
    mem.write_array(512, arr)
    back = mem.read_array(512, np.float32, (3, 5))
    np.testing.assert_array_equal(back, arr)


def test_bounds_checked(mem):
    with pytest.raises(SimulationError):
        mem.load_u32(mem.size - 2)
    with pytest.raises(SimulationError):
        mem.store_u64(mem.size - 4, 1)
    with pytest.raises(SimulationError):
        mem.read_array(mem.size - 8, np.uint32, (16,))
    with pytest.raises(SimulationError):
        mem.load_u8(-1)


def test_bad_size_rejected():
    with pytest.raises(SimulationError):
        FlatMemory(0)
