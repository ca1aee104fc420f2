"""Banked, set-associative, write-back/write-allocate cache timing model.

The cache tracks tags only — data lives in :class:`repro.arch.memory.
FlatMemory` and is always functionally up to date.  One line's access
maps a request to a completion cycle, modelling:

* bank serialization (one new access per bank per cycle, pipelined),
* LRU replacement within a set,
* write-back of dirty victims (posted, consuming next-level bandwidth),
* miss fills from the next level (another cache or DRAM).

That access exists once, as source text (:data:`ACCESS`), as the
instruction semantics do in :data:`repro.arch.functional.INLINE`:
:meth:`SetAssociativeCache.access` is compiled from it, and the
processor's compiled code runs it inline for the L2 (see
:mod:`repro.arch.processor`), so an L2 hit there makes no call.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.arch.config import CacheConfig
from repro.arch.functional import bind, names

#: The counters one access adds to, attributes of the cache.
COUNTERS = ("hits", "misses", "writebacks")

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
#: ``OrderedDict`` of line -> dirty, LRU first), its bank clocks, the
#: next level's access and its geometry.
BINDINGS = {
    "sets": "{cache}._sets",
    "bank_free": "{cache}._bank_free",
    "next_access": "{cache}.next_level.access",
    "SETS": "{cache}.num_sets",
    "HASH": "{cache}.hash_mask",
    "BANKS": "{config}.banks",
    "BUSY": "{config}.bank_busy_cycles",
    "HIT": "{config}.hit_latency",
    "WAYS": "{config}.ways",
    "LINE": "{config}.line_bytes",
}


def bindings(cache: str, config: str | None = None) -> dict:
    """:data:`BINDINGS` with the cache named ``cache`` and its config
    ``config`` (by default ``cache.config``)."""
    config = config or f"{cache}.config"
    return {name: expr.format(cache=cache, config=config)
            for name, expr in BINDINGS.items()}


def _compiled_access():
    """:meth:`SetAssociativeCache.access`, compiled from :data:`ACCESS`
    with its names bound from ``self`` and its config.  The names only
    a miss reads are bound in the miss branch, so a hit does not pay
    for them."""
    text = ACCESS.format(at="at_cycle", write="is_write", done="done",
                         counts="self.")
    hit, miss = text.split("\nelse:\n")
    hit_names = names(hit) | {"LINE"}
    source = ("def access(self, addr, at_cycle, is_write):\n"
              "    config = self.config\n"
              f"{bind(hit_names, bindings('self', 'config'))}"
              "    line = addr // LINE\n"
              + "".join(f"    {line}\n" for line in hit.splitlines())
              + "    else:\n"
              + bind(names(miss) - hit_names, bindings("self", "config"),
                     indent="        ")
              + "".join(f"    {line}\n" for line in miss.splitlines())
              + "    return done\n")
    namespace: dict = {}
    exec(compile(source, "<cache access>", "exec"), namespace)
    return namespace["access"]


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
        self.reset_stats()  # the counters of COUNTERS, from zero

    # ------------------------------------------------------------------
    access = _compiled_access()
    access.__doc__ = ("One request for the line containing ``addr`` at "
                      "``at_cycle``; returns its completion cycle.")

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
            setattr(self, name, 0)

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
