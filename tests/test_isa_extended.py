"""Round-trip and functional tests for the wider RVV subset."""

import numpy as np
import pytest

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.errors import DecodingError
from repro.isa import OPCODES, I, assemble, decode, encode

VL = 16

EXTENDED_SAMPLES = [
    I.vsub_vv(1, 2, 3),
    I.vsub_vx(1, 2, "t0"),
    I.vrsub_vx(1, 2, "t0"),
    I.vrsub_vi(1, 2, -7),
    I.vand_vv(1, 2, 3), I.vand_vx(1, 2, "a0"),
    I.vor_vv(1, 2, 3), I.vor_vx(1, 2, "a0"),
    I.vxor_vv(1, 2, 3), I.vxor_vx(1, 2, "a0"),
    I.vmin_vv(1, 2, 3), I.vmin_vx(1, 2, "a0"),
    I.vminu_vv(1, 2, 3), I.vminu_vx(1, 2, "a0"),
    I.vmax_vv(1, 2, 3), I.vmax_vx(1, 2, "a0"),
    I.vmaxu_vv(1, 2, 3), I.vmaxu_vx(1, 2, "a0"),
    I.vmul_vv(4, 5, 6),
    I.vmacc_vv(4, 5, 6),
    I.vmacc_vx(4, "t1", 6),
    I.vredsum_vs(7, 8, 9),
    I.vfadd_vv(1, 2, 3), I.vfadd_vf(1, 2, "fa0"),
    I.vfsub_vv(1, 2, 3), I.vfsub_vf(1, 2, "fa0"),
    I.vfmul_vv(1, 2, 3),
    I.vfredusum_vs(7, 8, 9),
    I.vslideup_vx(1, 2, "t0"),
    I.vslideup_vi(1, 2, 3),
    I.vslide1up_vx(1, 2, "t0"),
    I.vmv_s_x(5, "a1"),
    I.vid_v(6),
]


@pytest.mark.parametrize("instr", EXTENDED_SAMPLES, ids=lambda i: i.asm())
def test_extended_roundtrip(instr):
    assert decode(encode(instr)) == instr


@pytest.mark.parametrize("instr", EXTENDED_SAMPLES, ids=lambda i: i.asm())
def test_extended_assembler_roundtrip(instr):
    program = assemble(instr.asm())
    assert program[0] == instr


def test_no_encoding_collisions_across_whole_subset():
    """No word matches two rows of the opcode table, and no two distinct
    sample instructions share an encoding."""
    specs = list(OPCODES.values())
    for i, a in enumerate(specs):
        for b in specs[i + 1:]:
            assert (a.match ^ b.match) & a.mask & b.mask, (a, b)
    samples = {}
    for instr in EXTENDED_SAMPLES:
        word = encode(instr)
        assert word not in samples, (instr.asm(), samples.get(word))
        samples[word] = instr.asm()


def test_vid_decoder_rejects_other_vmunary0():
    word = encode(I.vid_v(3))
    # clear the vs1 field (VMUNARY0 selects the function there)
    bad = word & ~(0x1F << 15)
    with pytest.raises(DecodingError):
        decode(bad)


# ----------------------------------------------------------------------
# functional semantics on the processor
# ----------------------------------------------------------------------
@pytest.fixture
def proc():
    return DecoupledProcessor(ProcessorConfig.paper_default())


def test_integer_elementwise(proc):
    a = np.arange(VL, dtype=np.int32) - 8
    b = np.arange(VL, dtype=np.int32)[::-1].copy()
    proc.vrf.set_i32(2, a)
    proc.vrf.set_i32(3, b)
    proc.run([
        I.vsub_vv(4, 2, 3),
        I.vand_vv(5, 2, 3),
        I.vor_vv(6, 2, 3),
        I.vxor_vv(7, 2, 3),
        I.vmul_vv(8, 2, 3),
        I.vmin_vv(9, 2, 3),
        I.vmax_vv(10, 2, 3),
    ])
    np.testing.assert_array_equal(proc.vrf.i32[4], a - b)
    np.testing.assert_array_equal(proc.vrf.i32[5], a & b)
    np.testing.assert_array_equal(proc.vrf.i32[6], a | b)
    np.testing.assert_array_equal(proc.vrf.i32[7], a ^ b)
    np.testing.assert_array_equal(proc.vrf.i32[8], a * b)
    np.testing.assert_array_equal(proc.vrf.i32[9], np.minimum(a, b))
    np.testing.assert_array_equal(proc.vrf.i32[10], np.maximum(a, b))


def test_scalar_forms_and_rsub(proc):
    a = np.arange(VL, dtype=np.int32)
    proc.vrf.set_i32(2, a)
    proc.run([
        I.li("t0", 5),
        I.vsub_vx(3, 2, "t0"),
        I.vrsub_vx(4, 2, "t0"),
        I.vrsub_vi(5, 2, -3),
    ])
    np.testing.assert_array_equal(proc.vrf.i32[3], a - 5)
    np.testing.assert_array_equal(proc.vrf.i32[4], 5 - a)
    np.testing.assert_array_equal(proc.vrf.i32[5], -3 - a)


def test_unsigned_minmax(proc):
    a = np.array([-1] * VL, dtype=np.int32)  # 0xFFFFFFFF unsigned
    b = np.ones(VL, dtype=np.int32)
    proc.vrf.set_i32(2, a)
    proc.vrf.set_i32(3, b)
    proc.run([
        I.vminu_vv(4, 2, 3),  # unsigned: 1 is smaller
        I.vmaxu_vv(5, 2, 3),
        I.vmin_vv(6, 2, 3),   # signed: -1 is smaller
    ])
    np.testing.assert_array_equal(proc.vrf.i32[4], b)
    np.testing.assert_array_equal(proc.vrf.i32[5], a)
    np.testing.assert_array_equal(proc.vrf.i32[6], a)


def test_integer_mac(proc):
    a = np.arange(VL, dtype=np.int32)
    b = np.full(VL, 3, dtype=np.int32)
    acc = np.ones(VL, dtype=np.int32)
    proc.vrf.set_i32(2, a)
    proc.vrf.set_i32(3, b)
    proc.vrf.set_i32(4, acc.copy())
    proc.vrf.set_i32(5, acc.copy())
    proc.run([
        I.vmacc_vv(4, 2, 3),
        I.li("t0", -2),
        I.vmacc_vx(5, "t0", 2),
    ])
    np.testing.assert_array_equal(proc.vrf.i32[4], acc + a * b)
    np.testing.assert_array_equal(proc.vrf.i32[5], acc - 2 * a)


def test_reductions(proc):
    a = np.arange(VL, dtype=np.int32)
    seed = np.zeros(VL, dtype=np.int32)
    seed[0] = 100
    proc.vrf.set_i32(2, a)
    proc.vrf.set_i32(3, seed)
    proc.run([I.vredsum_vs(4, 2, 3)])
    assert proc.vrf.i32[4, 0] == 100 + a.sum()

    f = np.linspace(0, 1, VL).astype(np.float32)
    fseed = np.zeros(VL, dtype=np.float32)
    fseed[0] = 2.0
    proc.vrf.set_f32(5, f)
    proc.vrf.set_f32(6, fseed)
    proc.run([I.vfredusum_vs(7, 5, 6)])
    assert proc.vrf.f32[7, 0] == pytest.approx(2.0 + f.sum(), rel=1e-6)


def test_fp_elementwise(proc):
    a = np.linspace(-1, 1, VL).astype(np.float32)
    b = np.linspace(2, 3, VL).astype(np.float32)
    proc.vrf.set_f32(2, a)
    proc.vrf.set_f32(3, b)
    addr = proc.mem.allocate(4)
    proc.mem.store_f32(addr, 0.5)
    proc.run([
        I.vfadd_vv(4, 2, 3),
        I.vfsub_vv(5, 2, 3),
        I.vfmul_vv(6, 2, 3),
        I.li("a0", addr),
        I.flw("fa0", "a0", 0),
        I.vfadd_vf(7, 2, "fa0"),
        I.vfsub_vf(8, 2, "fa0"),
    ])
    np.testing.assert_array_equal(proc.vrf.f32[4], a + b)
    np.testing.assert_array_equal(proc.vrf.f32[5], a - b)
    np.testing.assert_array_equal(proc.vrf.f32[6], a * b)
    np.testing.assert_array_equal(proc.vrf.f32[7], a + np.float32(0.5))
    np.testing.assert_array_equal(proc.vrf.f32[8], a - np.float32(0.5))


def test_slideup_family(proc):
    a = np.arange(VL, dtype=np.int32)
    proc.vrf.set_i32(2, a)
    proc.vrf.set_i32(3, np.full(VL, 99, dtype=np.int32))
    proc.run([I.li("t0", 4), I.vslideup_vx(3, 2, "t0")])
    np.testing.assert_array_equal(proc.vrf.i32[3, :4], 99)  # kept
    np.testing.assert_array_equal(proc.vrf.i32[3, 4:], a[:VL - 4])

    proc.vrf.set_i32(4, np.full(VL, -5, dtype=np.int32))
    proc.run([I.vslideup_vi(4, 2, 2)])
    np.testing.assert_array_equal(proc.vrf.i32[4, :2], -5)
    np.testing.assert_array_equal(proc.vrf.i32[4, 2:], a[:VL - 2])

    proc.run([I.li("t1", 77), I.vslide1up_vx(5, 2, "t1")])
    assert proc.vrf.i32[5, 0] == 77
    np.testing.assert_array_equal(proc.vrf.i32[5, 1:], a[:VL - 1])


def test_vmv_s_x_and_vid(proc):
    proc.vrf.set_i32(2, np.full(VL, 1, dtype=np.int32))
    proc.run([I.li("a0", 42), I.vmv_s_x(2, "a0")])
    assert proc.vrf.i32[2, 0] == 42
    np.testing.assert_array_equal(proc.vrf.i32[2, 1:], 1)  # untouched

    proc.run([I.vid_v(3)])
    np.testing.assert_array_equal(proc.vrf.i32[3], np.arange(VL))


def test_dot_product_program(proc):
    """A classic RVV dot product using the widened subset end-to-end."""
    x = np.linspace(0, 1, VL).astype(np.float32)
    y = np.linspace(1, 2, VL).astype(np.float32)
    proc.vrf.set_f32(1, x)
    proc.vrf.set_f32(2, y)
    proc.vrf.set_f32(3, np.zeros(VL, dtype=np.float32))
    proc.vrf.set_f32(4, np.zeros(VL, dtype=np.float32))
    proc.run([
        I.vfmul_vv(3, 1, 2),       # elementwise products
        I.vfredusum_vs(4, 3, 4),   # horizontal sum
        I.vfmv_f_s("fa0", 4),
    ])
    assert proc.frf.values[10] == pytest.approx(float((x * y).sum()),
                                                rel=1e-5)
