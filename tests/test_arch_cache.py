"""Tests for the cache, DRAM and hierarchy timing models.

The cache's line access exists once, as source text: the method and
the processor's compiled code, which runs it inline for the L2, are
both rendered from it.  The last tests hold the inline rendering to
the method on random access sequences, replayed and timed.
"""

import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.arch import (
    CacheConfig,
    DecoupledProcessor,
    DramConfig,
    DramModel,
    SetAssociativeCache,
    processor,
)
from repro.arch.cache import ACCESS, COUNTERS as CACHE_COUNTERS
from repro.arch.config import ProcessorConfig
from repro.arch.hierarchy import MemoryHierarchy
from repro.arch.stats import COUNTERS
from repro.errors import SimulationError
from repro.isa import I
from repro.isa.instructions import Op
from repro.isa.trace import Block


class InstantMemory:
    """Next-level stub with fixed latency and no bandwidth limit."""

    def __init__(self, latency=100):
        self.latency = latency
        self.accesses = []

    def access(self, addr, at_cycle, is_write):
        self.accesses.append((addr, at_cycle, is_write))
        return at_cycle + (1 if is_write else self.latency)


def make_cache(size=1024, ways=2, hit=4, banks=1, next_level=None,
               hashed=False):
    cfg = CacheConfig(size_bytes=size, ways=ways, hit_latency=hit,
                      banks=banks, hashed_index=hashed)
    return SetAssociativeCache("T", cfg, next_level or InstantMemory())


def test_cold_miss_then_hit():
    cache = make_cache()
    t1 = cache.access(0, 0, False)
    assert cache.misses == 1
    assert t1 >= 100  # went to next level
    t2 = cache.access(0, t1, False)
    assert cache.hits == 1
    assert t2 == t1 + 4  # hit latency


def test_same_line_different_word_hits():
    cache = make_cache()
    cache.access(0, 0, False)
    cache.access(60, 200, False)  # same 64B line
    assert cache.hits == 1


def test_lru_eviction():
    # 1024B / 64B / 2 ways = 8 sets; lines 0, 8, 16 map to set 0
    cache = make_cache()
    cache.access(0 * 64, 0, False)
    cache.access(8 * 64, 200, False)
    cache.access(0 * 64, 400, False)      # touch line 0 -> line 8 is LRU
    cache.access(16 * 64, 600, False)     # evicts line 8
    assert cache.contains(0 * 64)
    assert not cache.contains(8 * 64)
    assert cache.contains(16 * 64)


def test_dirty_eviction_writes_back():
    nxt = InstantMemory()
    cache = make_cache(next_level=nxt)
    cache.access(0 * 64, 0, True)      # dirty line 0
    cache.access(8 * 64, 200, False)
    cache.access(16 * 64, 400, False)  # evicts dirty line 0
    assert cache.writebacks == 1
    writes = [a for a in nxt.accesses if a[2]]
    assert len(writes) == 1
    assert writes[0][0] == 0


def test_clean_eviction_no_writeback():
    cache = make_cache()
    cache.access(0 * 64, 0, False)
    cache.access(8 * 64, 200, False)
    cache.access(16 * 64, 400, False)
    assert cache.writebacks == 0


def test_bank_serialization():
    cache = make_cache(banks=1)
    cache.access(0, 0, False)
    cache.access(0, 100, False)
    # two simultaneous hits to one bank serialize by one cycle
    a = cache.access(0, 200, False)
    b = cache.access(0, 200, False)
    assert b == a + 1


def test_multibank_parallelism():
    cache = make_cache(banks=8)
    cache.access(0 * 64, 0, False)
    cache.access(1 * 64, 0, False)  # different bank: no serialization
    a = cache.access(0 * 64, 200, False)
    b = cache.access(1 * 64, 200, False)
    assert a == b


def test_hit_rate_and_flush():
    cache = make_cache()
    cache.access(0, 0, False)
    cache.access(0, 100, False)
    assert cache.hit_rate == pytest.approx(0.5)
    cache.flush()
    cache.access(0, 200, False)
    assert cache.misses == 2


def test_bad_geometry_rejected():
    with pytest.raises(SimulationError):
        CacheConfig(size_bytes=1000, ways=3, hit_latency=1)


def test_hashed_index_breaks_stride_camping():
    # 64 lines at a power-of-two stride of 8 camp on one set with modulo
    # indexing (2-way: 62 evictions) but spread out with XOR hashing.
    plain = make_cache(size=4096, ways=2, hashed=False)
    hashed = make_cache(size=4096, ways=2, hashed=True)
    for cache in (plain, hashed):
        for i in range(32):
            cache.access(i * 8 * 64, 1000 * i, False)
        for i in range(32):
            cache.access(i * 8 * 64, 1000 * (i + 32), False)
    assert plain.hits == 0
    assert hashed.hits > 16


def test_dram_row_hit_vs_miss():
    dram = DramModel(DramConfig(row_hit_latency=20, row_miss_latency=40,
                                cycles_per_line=4, row_bytes=2048))
    t1 = dram.access(0, 0, False)
    assert t1 == 40  # first access misses the (closed) row
    t2 = dram.access(64, t1, False)
    assert t2 == t1 + 20  # same row
    dram.access(1 << 20, t2, False)
    assert dram.row_misses == 2
    assert dram.row_hits == 1


def test_dram_bandwidth_limit():
    dram = DramModel(DramConfig(row_hit_latency=20, row_miss_latency=40,
                                cycles_per_line=10, row_bytes=2048))
    dram.access(0, 0, False)
    t = dram.access(64, 0, False)  # issued at the same cycle
    assert t == 10 + 20  # waits for the channel, then row hit


def test_dram_write_is_posted():
    dram = DramModel(DramConfig())
    done = dram.access(0, 0, True)
    assert done <= 2
    assert dram.writes == 1


def test_hierarchy_scalar_path_uses_l1():
    hier = MemoryHierarchy(ProcessorConfig.paper_default())
    hier.scalar_access(0, 8, 0, False)
    assert hier.l1d.misses == 1
    assert hier.l2.misses == 1
    hier.scalar_access(0, 8, 1000, False)
    assert hier.l1d.hits == 1
    assert hier.l2.misses == 1  # second access never reaches L2


def test_hierarchy_vector_path_bypasses_l1():
    hier = MemoryHierarchy(ProcessorConfig.paper_default())
    hier.vector_access(0, 64, 0, False)
    assert hier.l1d.accesses == 0
    assert hier.l2.misses == 1


def test_hierarchy_spanning_access():
    hier = MemoryHierarchy(ProcessorConfig.paper_default())
    # 64 bytes starting at 32 spans two lines
    hier.vector_access(32, 64, 0, False)
    assert hier.l2.accesses == 2


def test_hierarchy_reset_and_flush():
    hier = MemoryHierarchy(ProcessorConfig.paper_default())
    hier.vector_access(0, 64, 0, False)
    hier.reset_stats()
    assert hier.l2.accesses == 0
    hier.flush()
    hier.vector_access(0, 64, 0, False)
    assert hier.l2.misses == 1


def test_shift_and_restore_keep_the_bank_clock_list():
    """The compiled code binds the bank clocks, so they move in place."""
    cache = make_cache(banks=4)
    clocks = cache._bank_free
    cache.access(0, 10.0, False)
    saved = cache.clock_state()
    cache.shift(5.0)
    assert cache._bank_free is clocks
    assert clocks[0] == saved[0] + 5.0
    cache.restore_clock_state(saved)
    assert cache._bank_free is clocks
    assert clocks == saved


def test_the_access_text_counts_what_the_cache_resets():
    """The counters the access text adds to are the cache's
    ``COUNTERS``: the ones ``reset_stats`` zeroes and the compiled code
    keeps as local deltas, added to the cache's ``counts``."""
    assert set(re.findall(r"\{counts\}(\w+)", ACCESS)) == set(CACHE_COUNTERS)
    assert set(processor._COUNTS.values()) \
        == {f"counts.{name}" for name in CACHE_COUNTERS}
    l1 = make_cache(size=128, ways=1)
    for addr in (0, 0, 128, 0):
        l1.access(addr, 0.0, True)
    assert [getattr(l1, name) for name in CACHE_COUNTERS] == [1, 3, 2]
    l1.reset_stats()
    assert [getattr(l1, name) for name in CACHE_COUNTERS] == [0, 0, 0]


def test_a_vector_access_renders_the_access_text_once():
    """A compiled vector load or store runs one copy of the text, in a
    loop over the lines it touches, whether it spans one line or more."""
    first = ACCESS.splitlines()[0]
    for done in ("done", None):
        assert processor._l2_lines("at", False, done).count(first) == 1


# ----------------------------------------------------------------------
# the inline L2 access against the method
# ----------------------------------------------------------------------
#: Small L2s, so that random sequences evict: hashed and plain indices,
#: 32-, 64- and 128-byte lines, two banks busy for four cycles.
L2S = [CacheConfig(size_bytes=2048, ways=2, hit_latency=8, banks=2,
                   line_bytes=line, bank_busy_cycles=4, hashed_index=hashed)
       for line in (32, 64, 128) for hashed in (True, False)]


def _l2_id(config):
    index = "hashed" if config.hashed_index else "plain"
    return f"{config.line_bytes}B-{index}"


def _processor(l2):
    config = replace(ProcessorConfig.paper_default(), l2=l2,
                     memory_bytes=1 << 17)
    return DecoupledProcessor(config)


def _blocks(rng, proc, count):
    """``count`` blocks of one to four vector loads and stores of 64
    bytes (``vl`` 16), each block with the cycle it is replayed at, and
    each access with the address its x register must hold.  The
    accesses cover three times the L2's lines, half of them eight hot
    lines so that they hit, at line-aligned and unaligned addresses so
    that many span two or three lines; the cycle repeats or moves on a
    little or a lot, so that banks conflict."""
    l2 = proc.hierarchy.l2.config
    pool = 3 * l2.size_bytes // l2.line_bytes
    base = proc.mem.allocate((pool + 2) * l2.line_bytes, align=l2.line_bytes)
    blocks = []
    at = 0.0
    for _ in range(count):
        ops = []
        for n in range(int(rng.integers(1, 5))):
            line = int(rng.integers(8 if rng.random() < 0.5 else pool))
            offset = int(rng.choice([0, 4, l2.line_bytes // 2,
                                     l2.line_bytes - 4]))
            access = I.vse32 if rng.random() < 0.4 else I.vle32
            ops.append((access(1 + n, 10 + n),
                        base + line * l2.line_bytes + offset))
        blocks.append((at, ops))
        at += float(rng.choice([0, 0, 1, 3, 50, 400]))
    return blocks


def _run(proc, blocks, timed):
    """Each block compiled, timed or replayed at its cycle."""
    for at, ops in blocks:
        for instr, addr in ops:
            proc.xrf.values[instr.rs1] = addr
        block = Block([instr for instr, _ in ops])
        if timed:
            proc.run_block(block)
        else:
            proc.replay_block(block, at)


def _memory_system(proc):
    """Every line of the L2 (tags, LRU order and dirty bits), every
    counter of the caches and DRAM, and every clock of the hierarchy."""
    h = proc.hierarchy
    return {
        "counters": {name: value for name, value in asdict(proc.stats())
                     .items() if name not in COUNTERS},
        "clocks": h.clock_state(),
        "lines": [list(ways.items()) for ways in h.l2._sets],
        "open_row": h.dram._open_row,
    }


@pytest.mark.parametrize("l2", L2S, ids=_l2_id)
def test_replayed_inline_l2_matches_vector_access(l2):
    """Replayed blocks against ``vector_access`` at the same frozen
    timestamps."""
    systems = []
    for compiled in (True, False):
        proc = _processor(l2)
        rng = np.random.default_rng(l2.line_bytes + l2.hashed_index)
        blocks = _blocks(rng, proc, 150)
        if compiled:
            _run(proc, blocks, timed=False)
        else:
            for at, ops in blocks:
                for instr, addr in ops:
                    proc.hierarchy.vector_access(addr, 64, at,
                                                 instr.op is Op.VSE32)
        systems.append(_memory_system(proc))
    assert systems[0] == systems[1]
    counters = systems[0]["counters"]
    assert counters["l2_hits"] and counters["l2_writebacks"]


def _method_lines(at, write, done=None):
    """The L2 access as the method's callers made it: ``access`` once
    per line, the first line's completion raised by a later one's."""
    done = done or "beat"
    return (f"{done} = l2.access(first * LINE, {at}, {write})\n"
            "for line in range(first + 1, last + 1):\n"
            f"    beat = l2.access(line * LINE, {at}, {write})\n"
            f"    if beat > {done}:\n"
            f"        {done} = beat")


@pytest.mark.parametrize("l2", L2S, ids=_l2_id)
def test_timed_inline_l2_matches_the_method(l2, monkeypatch):
    """Timed blocks against the same blocks compiled to call the L2's
    ``access`` method: the same clocks, queues, counters and lines."""
    states = []
    try:
        for inline in (True, False):
            # the compiled codes are cached by block shape
            processor._block_code.cache_clear()
            if not inline:
                monkeypatch.setattr(processor, "_l2_lines", _method_lines)
            proc = _processor(l2)
            rng = np.random.default_rng(l2.line_bytes + l2.hashed_index)
            _run(proc, _blocks(rng, proc, 150), timed=True)
            states.append({
                "memory": _memory_system(proc),
                "ready": proc.v_ready,
                "queues": [list(q) for q in (proc._rob, proc._viq,
                                             proc._lq, proc._sq)],
                "clocks": (proc._cycle, proc._last_issue, proc._end),
                "line_stores": dict(proc._line_store_done),
            })
    finally:
        processor._block_code.cache_clear()
    assert states[0] == states[1]
    counters = states[0]["memory"]["counters"]
    assert counters["l2_hits"] and counters["l2_writebacks"]
