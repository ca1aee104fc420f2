"""Tests for the standalone functional core (bit-exact, no timing)."""

import numpy as np
import pytest

from repro.arch import DecoupledProcessor, FunctionalCore, ProcessorConfig
from repro.errors import SimulationError
from repro.isa import I, Op, assemble
from repro.isa.instructions import OPCODES


def make_core():
    return FunctionalCore(ProcessorConfig.paper_default())


# ----------------------------------------------------------------------
# scalar semantics
# ----------------------------------------------------------------------
def test_alu_and_immediates():
    core = make_core()
    core.run([I.li("a0", 7), I.li("a1", 5), I.add("a2", "a0", "a1"),
              I.sub("a3", "a0", "a1"), I.slli("a4", "a0", 2)])
    xv = core.xrf.values
    assert xv[12] == 12 and xv[13] == 2 and xv[14] == 28


def test_x0_is_hardwired_zero():
    core = make_core()
    core.execute(I.addi("zero", "zero", 5))
    assert core.xrf.values[0] == 0


def test_memory_roundtrip():
    core = make_core()
    addr = core.mem.allocate(64)
    core.run([I.li("a0", addr), I.li("a1", -123), I.sw("a1", "a0", 0),
              I.lw("a2", "a0", 0)])
    assert core.xrf.values[12] == -123


def test_branch_outcomes():
    core = make_core()
    core.run([I.li("a0", 1), I.li("a1", 2)])
    assert core.execute(I.bne("a0", "a1", 16)) == 16
    assert core.execute(I.beq("a0", "a1", 16)) is None
    assert core.execute(I.blt("a0", "a1", -8)) == -8


def test_jal_jalr_outcomes():
    core = make_core()
    core.execute(I.li("a0", 0x104))
    assert core.execute(I.jal("ra", 64)) == ("jump", 64)
    kind, target = core.execute(I.jalr("zero", "a0", 1))
    assert kind == "jump_abs" and target == 0x104  # low bit cleared


def test_vsetvli_updates_vl_and_rejects_zero():
    core = make_core()
    vlmax = core.config.vector.vlmax
    from repro.isa.encoding import vtype_e32m1
    core.execute(I.li("a0", 5))
    core.execute(I.vsetvli("a1", "a0", vtype_e32m1()))
    assert core.vl == 5 and core.xrf.values[11] == 5
    core.execute(I.li("a0", 10 ** 9))
    core.execute(I.vsetvli("a1", "a0", vtype_e32m1()))
    assert core.vl == vlmax
    core.execute(I.li("a0", 0))
    with pytest.raises(SimulationError):
        core.execute(I.vsetvli("a1", "a0", vtype_e32m1()))


@pytest.mark.parametrize("bad", [0, -1, "vlmax + 1"])
def test_setting_vl_outside_its_range_raises_and_keeps_vl(bad):
    """The ``vl`` setters, the core's and the processor's, refuse a
    length outside 1..VLMAX, as ``vsetvli`` does, and leave ``vl`` and
    its views as they were."""
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    vlmax = proc.config.vector.vlmax
    bad = vlmax + 1 if bad == "vlmax + 1" else bad
    proc.vl = 8
    for owner in (proc.core, proc):
        with pytest.raises(SimulationError, match="vector length"):
            owner.vl = bad
        assert owner.vl == 8
    proc.vrf.set_f32(2, np.arange(vlmax))
    proc.frf.values[1] = 2.0
    proc.run([I.vfmacc_vf(3, 1, 2), I.vslide1down_vx(4, 2, 0)])
    expected = np.zeros(vlmax, np.float32)
    expected[:8] = 2 * np.arange(8)
    np.testing.assert_array_equal(proc.vrf.f32[3], expected)
    np.testing.assert_array_equal(proc.vrf.f32[4][:7], np.arange(1, 8))


# ----------------------------------------------------------------------
# vector semantics
# ----------------------------------------------------------------------
def test_vindexmac_semantics():
    core = make_core()
    vl = core.vl
    core.vrf.set_f32(3, np.full(vl, 2.0, dtype=np.float32))
    values = np.zeros(vl, dtype=np.float32)
    values[0] = 10.0
    core.vrf.set_f32(1, values)
    core.vrf.set_f32(8, np.ones(vl, dtype=np.float32))
    core.execute(I.li("t0", 3))
    core.execute(I.vindexmac_vx(8, 1, "t0"))
    np.testing.assert_array_equal(
        core.vrf.f32[8], np.full(vl, 1.0 + 10.0 * 2.0, dtype=np.float32))


def test_vector_load_store_roundtrip():
    core = make_core()
    vl = core.vl
    addr = core.mem.allocate(4 * vl)
    data = np.arange(vl, dtype=np.int32)
    core.mem.write_array(addr, data)
    core.execute(I.li("a0", addr))
    core.execute(I.vle32(2, "a0"))
    np.testing.assert_array_equal(core.vrf.i32[2, :vl], data)
    dst = core.mem.allocate(4 * vl)
    core.execute(I.li("a1", dst))
    core.execute(I.vse32(2, "a1"))
    np.testing.assert_array_equal(
        core.mem.read_array(dst, np.int32, (vl,)), data)


def test_every_processor_op_has_a_functional_handler():
    core = make_core()
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    assert set(core.handlers) == set(OPCODES) == set(Op)
    # the processor binds each timing handler when it first meets the op
    assert all(callable(proc._handlers[op]) for op in OPCODES)


# ----------------------------------------------------------------------
# equivalence with the timing processor
# ----------------------------------------------------------------------
def test_core_matches_processor_functional_state():
    """Running the same program through the bare core and through the
    full processor must produce identical architectural state."""
    program = assemble("""
        li a0, 100
        li a1, 3
        mul a2, a0, a1
        slli a3, a2, 4
        xor a4, a3, a0
        vmv.v.x v1, a0
        vadd.vi v2, v1, 7
        vmv.x.s a5, v2
    """)
    core = make_core()
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    for instr in program.instrs:
        core.execute(instr)
        proc.step(instr)
    assert core.xrf.values == proc.core.xrf.values
    np.testing.assert_array_equal(core.vrf.raw, proc.vrf.raw)
    assert proc.cycles > 0  # the processor also accumulated timing


def test_processor_shares_state_with_its_core():
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    assert proc.xrf is proc.core.xrf
    assert proc.vrf is proc.core.vrf
    assert proc.mem is proc.core.mem
    proc.step(I.li("a0", 42))
    assert proc.core.xrf.values[10] == 42


# ----------------------------------------------------------------------
# the data moves, copied and indexed through memoryviews, against NumPy
# ----------------------------------------------------------------------
VLMAX = ProcessorConfig.paper_default().vector.vlmax
#: vl = 1 leaves a slide nothing to move; VLMAX - 1 leaves one element
#: of every register past vl
_VLS = (1, VLMAX - 1)


def _moves_core(vl):
    """A core with random register bits (``vl`` set), and the RNG."""
    core = make_core()
    rng = np.random.default_rng(vl)
    core.vrf.raw[:] = rng.integers(0, 2**32, core.vrf.raw.shape,
                                   dtype=np.uint32)
    core.vl = vl
    return core, rng


@pytest.mark.parametrize("vl", _VLS)
def test_vle32_loads_vl_elements_and_keeps_the_rest(vl):
    core, rng = _moves_core(vl)
    addr = core.mem.allocate(4 * VLMAX)
    data = rng.integers(0, 2**32, VLMAX, dtype=np.uint32)
    core.mem.write_array(addr, data)
    expected = core.vrf.raw.copy()
    expected[2, :vl] = data[:vl]
    core.xrf.write(10, addr)
    core.execute(I.vle32(2, "a0"))
    np.testing.assert_array_equal(core.vrf.raw, expected)


@pytest.mark.parametrize("vl", _VLS)
def test_vse32_stores_vl_elements_and_keeps_the_rest(vl):
    core, rng = _moves_core(vl)
    addr = core.mem.allocate(4 * VLMAX + 64)
    before = rng.integers(0, 256, 4 * VLMAX + 128, dtype=np.uint8)
    core.mem.write_array(addr - 64, before)
    registers = core.vrf.raw.copy()
    expected = before.copy()
    expected[64:64 + 4 * vl] = registers[3, :vl].view(np.uint8)
    core.xrf.write(11, addr)
    core.execute(I.vse32(3, "a1"))
    np.testing.assert_array_equal(
        core.mem.read_array(addr - 64, np.uint8, (len(before),)), expected)
    np.testing.assert_array_equal(core.vrf.raw, registers)


@pytest.mark.parametrize("vl", _VLS)
@pytest.mark.parametrize("vs2", [6, 4], ids=["apart", "in-place"])
def test_vslide1down_moves_vl_elements_and_keeps_the_rest(vl, vs2):
    core, _ = _moves_core(vl)
    before = core.vrf.raw.copy()
    expected = before.copy()
    expected[4, :vl - 1] = before[vs2, 1:vl]
    expected[4, vl - 1] = np.uint32(-7 & 0xFFFFFFFF)
    core.xrf.write(5, -7)  # the low 32 bits enter the top element
    core.execute(I.vslide1down_vx(4, vs2, "t0"))
    np.testing.assert_array_equal(core.vrf.raw, expected)


@pytest.mark.parametrize("vl", _VLS)
@pytest.mark.parametrize("vs2", [6, 4], ids=["apart", "in-place"])
@pytest.mark.parametrize("x", [-7, 2**31, -2**63, 2**63 - 1])
def test_vadd_vx_wraps_the_scalar_and_the_lanes_to_32_bits(vl, vs2, x):
    core, _ = _moves_core(vl)
    before = core.vrf.raw.copy()
    expected = before.copy()
    expected[4, :vl] = ((before[vs2, :vl].astype(np.uint64)
                         + (x & 0xFFFFFFFF)) & 0xFFFFFFFF)
    core.xrf.write(5, x)
    core.execute(I.vadd_vx(4, vs2, "t0"))
    np.testing.assert_array_equal(core.vrf.raw, expected)


@pytest.mark.parametrize("vl", _VLS)
def test_vmv_x_s_reads_element_0_as_a_signed_int32(vl):
    core, _ = _moves_core(vl)
    core.vrf.i32[5, 0] = -123456789
    registers = core.vrf.raw.copy()
    core.execute(I.vmv_x_s("a2", 5))
    assert core.xrf.values[12] == int(np.int32(-123456789))
    core.execute(I.vmv_x_s("zero", 5))
    assert core.xrf.values[0] == 0
    np.testing.assert_array_equal(core.vrf.raw, registers)


#: a quiet and a signalling NaN, a negative NaN with a payload, the
#: smallest and the largest negative denormal, and a normal number
_FLOAT_BITS = (0x7FC00001, 0x7F800001, 0xFFC12345, 0x00000001, 0x807FFFFF,
               0x3F800000)


@pytest.mark.parametrize("vl", _VLS)
@pytest.mark.parametrize("bits", _FLOAT_BITS, ids=hex)
def test_vfmv_f_s_widens_element_0_like_numpy(vl, bits):
    core, _ = _moves_core(vl)
    core.vrf.raw[7, 0] = bits
    expected = float(core.vrf.f32[7, 0])
    core.execute(I.vfmv_f_s(3, 7))
    assert type(core.frf.values[3]) is float
    assert np.float64(core.frf.values[3]).tobytes() == \
        np.float64(expected).tobytes()
