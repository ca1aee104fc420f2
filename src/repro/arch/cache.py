"""Banked, set-associative, write-back/write-allocate cache timing model.

The cache tracks tags only — data lives in :class:`repro.arch.memory.
FlatMemory` and is always functionally up to date.  One line's access
maps a request to a completion cycle, modelling:

* bank serialization (one new access per bank per cycle, pipelined),
* LRU replacement within a set,
* write-back of dirty victims (posted, consuming next-level bandwidth),
* miss fills from the next level (another cache or DRAM).

That access exists once, as source text (:data:`ACCESS`), as the
instruction semantics do in :data:`repro.arch.functional.INLINE`: each
cache's ``access`` is compiled from it, and the processor's compiled
code runs it inline for the L2 (see :mod:`repro.arch.processor`), so an
L2 hit there makes no call.  Every latency the text adds to a clock is
bound as a ``float``, as the processor's are, so that CPython runs each
addition as a float one.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from textwrap import indent

from repro.arch.config import CacheConfig
from repro.arch.functional import bind, names

#: The counters one access adds to: attributes of the cache's
#: ``counts`` (:class:`Counts`), read through the cache's own.
COUNTERS = ("hits", "misses", "writebacks")


class Counts:
    """A cache's counters (:data:`COUNTERS`), kept apart from the cache
    so that its access function adds to them without referring to the
    cache."""

    __slots__ = COUNTERS


#: One line's access as source text.  ``line`` is the line number,
#: ``{at}`` the cycle the request arrives and ``{write}`` whether it
#: writes; the completion cycle goes to ``{done}``, and
#: ``{counts}<name>`` names each counter of :data:`COUNTERS` it adds
#: to.  The names it reads are bound from the cache as in
#: :data:`BINDINGS`.  ``HASH`` is -1 for an XOR-hashed set index and 0
#: for a plain one, so the index takes no branch.  A miss fetches from
#: the next level after the local tag check.
ACCESS = """\
ways = sets[(line ^ (line // SETS & HASH)) % SETS]
bank = line % BANKS
served = {at}
t = bank_free[bank]
if t > served:
    served = t
bank_free[bank] = served + BUSY
if line in ways:
    {counts}hits += 1
    if {write}:
        ways[line] = True
    ways.move_to_end(line)
    {done} = served + HIT
else:
    {counts}misses += 1
    {done} = next_access(line * LINE, served + HIT, False)
    if len(ways) >= WAYS:
        victim, dirty = ways.popitem(last=False)
        if dirty:
            {counts}writebacks += 1
            next_access(victim * LINE, {done}, True)
    ways[line] = {write}"""

#: How each name :data:`ACCESS` reads is bound from the cache
#: ``{cache}`` and its config ``{config}``: its sets (each an
#: ``OrderedDict`` of line -> dirty, LRU first), its bank clocks, its
#: counters, the next level's access, its geometry and its two
#: latencies, as floats.
BINDINGS = {
    "sets": "{cache}._sets",
    "bank_free": "{cache}._bank_free",
    "counts": "{cache}.counts",
    "next_access": "{cache}.next_level.access",
    "SETS": "{cache}.num_sets",
    "HASH": "{cache}.hash_mask",
    "BANKS": "{config}.banks",
    "BUSY": "{cache}.bank_busy",
    "HIT": "{cache}.hit_latency",
    "WAYS": "{config}.ways",
    "LINE": "{config}.line_bytes",
}


def bindings(cache: str, config: str | None = None) -> dict:
    """:data:`BINDINGS` with the cache named ``cache`` and its config
    ``config`` (by default ``cache.config``)."""
    config = config or f"{cache}.config"
    return {name: expr.format(cache=cache, config=config)
            for name, expr in BINDINGS.items()}


def _access_maker():
    """``make(cache, config)``, compiled from :data:`ACCESS`: it binds
    every name the text reads from the cache and its config once, and
    returns the cache's ``access(addr, at_cycle, is_write)``, which
    reads them as closure variables and so binds nothing per call.  It
    adds to the cache's :class:`Counts`, never to the cache, so no
    cache refers to itself and a finished one is freed by reference
    counting."""
    text = ACCESS.format(at="at_cycle", write="is_write", done="done",
                         counts="counts.")
    source = ("def make(cache, config):\n"
              + bind(names(text) | {"LINE"}, bindings("cache", "config"))
              + "    def access(addr, at_cycle, is_write):\n"
              '        """One request for the line containing ``addr`` at '
              '``at_cycle``;\n        returns its completion cycle."""\n'
              "        line = addr // LINE\n"
              + indent(text, " " * 8) + "\n"
              "        return done\n"
              "    return access\n")
    namespace: dict = {}
    exec(compile(source, "<cache access>", "exec"), namespace)
    return namespace["make"]


_make_access = _access_maker()


class SetAssociativeCache:
    """One cache level; ``next_level`` is another cache or a DramModel."""

    def __init__(self, name: str, config: CacheConfig, next_level):
        self.name = name
        self.config = config
        self.next_level = next_level
        #: computed once: ``config.num_sets`` is a derived property
        self.num_sets = config.num_sets
        #: ``-1`` XOR-hashes the set index, ``0`` leaves it plain
        self.hash_mask = -1 if config.hashed_index else 0
        self._sets: list[OrderedDict] = [
            OrderedDict() for _ in range(self.num_sets)]
        #: the cycle each bank is next free; updated in place, so the
        #: compiled code may bind the list
        self._bank_free = [0.0] * config.banks
        #: the bank occupancy and the hit latency, added to clocks
        self.bank_busy = float(config.bank_busy_cycles)
        self.hit_latency = float(config.hit_latency)
        self.counts = Counts()
        self.reset_stats()  # the counters of COUNTERS, from zero
        #: ``access(addr, at_cycle, is_write)``: one request for the
        #: line containing ``addr``; returns its completion cycle
        self.access = _make_access(self, config)

    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        """Tag probe without side effects (for tests)."""
        line = addr // self.config.line_bytes
        num_sets = self.num_sets
        return line in self._sets[
            (line ^ (line // num_sets & self.hash_mask)) % num_sets]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        for name in COUNTERS:
            setattr(self.counts, name, 0)

    def shift(self, dt: float) -> None:
        """Advance all bank clocks by ``dt`` cycles."""
        self._bank_free[:] = [t + dt for t in self._bank_free]

    def clock_state(self) -> list[float]:
        """Snapshot of the bank clocks (tags/stats not included)."""
        return list(self._bank_free)

    def restore_clock_state(self, state: list[float]) -> None:
        self._bank_free[:] = state

    def flush(self) -> None:
        """Drop all cached lines (dirty data is functionally in memory)."""
        for ways in self._sets:
            ways.clear()


for _name in COUNTERS:
    setattr(SetAssociativeCache, _name,
            property(operator.attrgetter(f"counts.{_name}"),
                     doc=f"The cache's ``counts.{_name}``."))
