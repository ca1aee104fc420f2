"""Trace IR: dynamic instruction streams with loop-structure annotations.

The kernel builders are Python loops that emit the exact dynamic
instruction stream a compiled binary would execute.  Historically they
yielded flat streams, so every timing model had to pay O(dynamic
instructions).  The Trace IR keeps the *structure* of those loops:

* a :class:`Block` is a straight-line run of instructions;
* a :class:`Loop` is a body (blocks and nested loops) executed
  ``repeat`` times.  A loop marked ``steady`` guarantees that every
  iteration executes the *identical* instruction sequence (the kernels
  arrange this by bumping pointers held in registers instead of
  re-materialising addresses), which is what lets the
  ``batch-replay`` timing backend time a couple of representative
  iterations and extrapolate the rest;
* a :class:`TileLoop` is one body *template* shared by a range of tile
  indices.  The template's pointer materialisations (``li``/``li_addr``,
  held as :class:`AffineLi` items of an :class:`AffineBlock`) take
  values affine in the indices of the enclosing tile loops, so a tiled
  nest costs one template to build and to profile instead of one copy
  per tile.  :meth:`TileLoop.iterations` binds the template to each
  index in turn, yielding plain blocks and *fresh* loop objects — the
  nodes a fully unrolled nest would have held;
* a :class:`Trace` is the top-level sequence.

``Trace.instructions()`` (and iterating a trace) lazily expands the
structure back into the exact flat stream, so every stream consumer
(the detailed processor, stream-counting validators, tests) takes a
trace directly.

Builders use :class:`TraceBuilder`::

    tb = TraceBuilder()
    tb.emit(bld.set_vl(vlmax))           # accepts instrs or iterables
    with tb.tile_loop(0, col_tiles) as jt:
        tb.li_addr(ptr, base + jt * 64)  # affine in the tile index
        with tb.loop(num_iterations):    # steady by default
            tb.emit(inner_body())
    trace = tb.build()
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from contextlib import contextmanager

from repro.errors import KernelError
from repro.isa.instructions import OPCODES, I, Instr, Op


def li(reg: int, value: int) -> tuple[Instr, ...]:
    """Materialise a 32-bit constant (1 or 2 instructions, like real code)."""
    value = int(value)
    if -2048 <= value < 2048:
        return (I.li(reg, value),)
    if not -(1 << 31) <= value < (1 << 31):
        raise KernelError(f"constant {value:#x} does not fit the li helper")
    hi = (value + 0x800) >> 12
    if hi == 0x80000:
        # lui of 0x80000 sign-extends on RV64; such constants would need
        # a longer sequence that no kernel address ever requires.
        raise KernelError(f"constant {value:#x} does not fit lui+addi")
    lo = value - (hi << 12)
    if lo:
        return I.lui(reg, hi & 0xFFFFF), I.addi(reg, reg, lo)
    return (I.lui(reg, hi & 0xFFFFF),)


def li_length(value: int) -> int:
    """Instructions :func:`li` emits for ``value``: 1 for a 12-bit
    constant or a bare ``lui``, else 2."""
    return len(li(0, value))


def li_addr(reg: int, value: int) -> tuple[Instr, Instr]:
    """Materialise a pointer with the canonical two-instruction lui+addi
    sequence (what non-relaxed compiled code emits for addresses)."""
    if not 0 <= value < (1 << 31):
        raise KernelError(f"address {value:#x} out of range")
    hi = (value + 0x800) >> 12
    if hi == 0x80000:
        raise KernelError(f"address {value:#x} does not fit lui+addi")
    lo = value - (hi << 12)
    return I.lui(reg, hi & 0xFFFFF), I.addi(reg, reg, lo)


class Block:
    """A straight-line run of instructions (no internal structure)."""

    __slots__ = ("instrs",)

    def __init__(self, instrs):
        self.instrs = list(instrs)

    @property
    def dynamic_length(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:
        return f"Block({len(self.instrs)} instrs)"


class Loop:
    """``repeat`` executions of a body of blocks and nested loops.

    ``steady`` asserts that every iteration runs the identical
    instruction sequence (same opcodes, registers and immediates), so a
    timing model may measure one iteration and extrapolate.  Loops whose
    bodies differ between iterations must be emitted unrolled (or with
    ``steady=False``).  A loop body never holds a :class:`TileLoop`.
    """

    __slots__ = ("body", "repeat", "steady", "label", "_has_memory")

    def __init__(self, body, repeat: int, steady: bool = True,
                 label: str = ""):
        if repeat < 0:
            raise KernelError(f"loop repeat must be >= 0, not {repeat}")
        self.body = tuple(body)
        self.repeat = repeat
        self.steady = steady
        self.label = label

    @property
    def body_length(self) -> int:
        """Dynamic instructions of ONE iteration of the body."""
        return sum(node.dynamic_length for node in self.body)

    @property
    def dynamic_length(self) -> int:
        return self.repeat * self.body_length

    @property
    def has_memory(self) -> bool:
        """True if any instruction in the body touches memory (an
        introspection helper for timing models and analyses; cached)."""
        try:
            return self._has_memory
        except AttributeError:
            pass
        result = False
        for node in self.body:
            if type(node) is Block:
                if any(i.is_vector_mem or i.is_scalar_mem
                       for i in node.instrs):
                    result = True
                    break
            elif node.has_memory:
                result = True
                break
        self._has_memory = result
        return result

    def __repr__(self) -> str:
        tag = "steady" if self.steady else "irregular"
        name = f" {self.label!r}" if self.label else ""
        return (f"Loop({tag}{name}, x{self.repeat}, "
                f"{self.body_length} instrs/iter)")


# ----------------------------------------------------------------------
# tile loops: one body template over a range of tile indices
# ----------------------------------------------------------------------
class _TileVar:
    """The index of one tile loop; ``depth`` is its position in a bound
    environment (outermost tile loop first)."""

    __slots__ = ("depth", "start", "stop")

    def __init__(self, depth: int, start: int, stop: int):
        self.depth = depth
        self.start = start
        self.stop = stop


class Affine:
    """An integer ``const + sum(coef * index)`` over tile-loop indices.

    Supports ``+``/``-`` with ints and other affines and ``*`` by an
    int, so emitters write tile arithmetic exactly as for plain ints.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: int, terms=()):
        self.const = const
        self.terms = terms  #: ``((var, coef), ...)``, no zero coefs

    def __add__(self, other):
        if isinstance(other, Affine):
            coefs = dict(self.terms)
            for var, coef in other.terms:
                coefs[var] = coefs.get(var, 0) + coef
            terms = tuple((v, c) for v, c in coefs.items() if c)
            const = self.const + other.const
            return Affine(const, terms) if terms else const
        return Affine(self.const + other, self.terms)

    __radd__ = __add__

    def __mul__(self, factor: int):
        if isinstance(factor, Affine):
            raise KernelError("tile indices multiply only by constants")
        if not factor:
            return 0
        return Affine(self.const * factor,
                      tuple((v, c * factor) for v, c in self.terms))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def at(self, env) -> int:
        """The value with every index bound by ``env``."""
        return self.const + sum(coef * env[var.depth]
                                for var, coef in self.terms)

    def values(self):
        """Every value over the indices' ranges."""
        ranges = [range(var.start, var.stop) for var, _ in self.terms]
        for point in itertools.product(*ranges):
            yield self.const + sum(coef * index for (_, coef), index
                                   in zip(self.terms, point))

    def bounds(self) -> tuple[int, int]:
        """``(min, max)`` over the indices' ranges (an affine value is
        extreme at the corners)."""
        low = high = self.const
        for var, coef in self.terms:
            ends = (coef * var.start, coef * (var.stop - 1))
            low += min(ends)
            high += max(ends)
        return low, high


class AffineLi:
    """One ``li``/``li_addr`` of a tile-loop template (see
    :class:`AffineBlock`); ``length`` is its instruction count, the
    same for every tile index."""

    __slots__ = ("reg", "value", "addr", "length")

    def __init__(self, reg: int, value: Affine, addr: bool, length: int):
        self.reg = reg
        self.value = value
        self.addr = addr
        self.length = length

    def expand(self, env):
        materialise = li_addr if self.addr else li
        return materialise(self.reg, self.value.at(env))


class AffineBlock:
    """A straight-line run of a tile-loop template: instructions mixed
    with :class:`AffineLi` items whose immediates depend on the tile
    indices.  Binding it to the indices yields a plain :class:`Block`."""

    __slots__ = ("items",)

    def __init__(self, items):
        self.items = tuple(items)

    @property
    def dynamic_length(self) -> int:
        return sum(item.length if type(item) is AffineLi else 1
                   for item in self.items)

    def instrs_at(self, env) -> list:
        """The run's instructions with the tile indices bound."""
        instrs = []
        for item in self.items:
            if type(item) is AffineLi:
                instrs.extend(item.expand(env))
            else:
                instrs.append(item)
        return instrs

    def __repr__(self) -> str:
        return f"AffineBlock({self.dynamic_length} instrs)"


class TileLoop:
    """A body template run once per tile index ``start .. start+count-1``.

    The body holds :class:`Block`, :class:`AffineBlock`, :class:`Loop`
    and nested :class:`TileLoop` nodes.  ``env`` binds the indices of
    the enclosing tile loops once :meth:`iterations` has bound this
    loop; inside a template it stays empty and walks supply the
    enclosing indices.  Every iteration has the same instruction
    classes and length (the builder checks that each ``li`` keeps its
    form over the range), so :attr:`dynamic_length` and static profiles
    walk the template once and scale by ``count``.
    """

    __slots__ = ("body", "start", "count", "label", "env")

    def __init__(self, body, start: int, count: int, label: str = "",
                 env=()):
        if count < 0:
            raise KernelError(f"tile loop count must be >= 0, not {count}")
        self.body = tuple(body)
        self.start = start
        self.count = count
        self.label = label
        self.env = env

    @property
    def body_length(self) -> int:
        """Dynamic instructions of ONE tile iteration."""
        return sum(node.dynamic_length for node in self.body)

    @property
    def dynamic_length(self) -> int:
        return self.count * self.body_length

    def iterations(self):
        """Each tile iteration's nodes, bound to its index: blocks with
        concrete immediates and fresh :class:`Loop` objects, so timing
        models that key state by loop identity see one loop per tile."""
        env, body = self.env, self.body
        for index in range(self.start, self.start + self.count):
            inner = env + (index,)
            yield tuple(_bind(node, inner) for node in body)

    def __repr__(self) -> str:
        return (f"TileLoop({self.label or 'tiles'!r} {self.start}.."
                f"{self.start + self.count - 1}, "
                f"{self.body_length} instrs/tile)")


def _bind(node, env):
    kind = type(node)
    if kind is Block:
        return node
    if kind is AffineBlock:
        return Block(node.instrs_at(env))
    if kind is Loop:
        return Loop([_bind(child, env) for child in node.body],
                    node.repeat, node.steady, node.label)
    return TileLoop(node.body, node.start, node.count, node.label, env)


def _runs(nodes, env=()):
    """The instruction lists of ``nodes`` in execution order (yielding
    whole runs keeps the generator chain off the per-instruction
    path); ``env`` binds the enclosing tile indices."""
    for node in nodes:
        kind = type(node)
        if kind is Block:
            yield node.instrs
        elif kind is AffineBlock:
            yield node.instrs_at(env)
        elif kind is Loop:
            body = node.body
            for _ in range(node.repeat):
                yield from _runs(body, env)
        else:
            outer = node.env or env
            for index in range(node.start, node.start + node.count):
                yield from _runs(node.body, outer + (index,))


def _walk(nodes):
    for run in _runs(nodes):
        yield from run


def outer_loops(nodes, entries: int = 1):
    """Yield ``(loop, entries)`` for every :class:`Loop` not nested in
    another loop, looking through tile loops; ``entries`` counts how
    often the loop starts."""
    for node in nodes:
        kind = type(node)
        if kind is Loop:
            yield node, entries
        elif kind is TileLoop:
            yield from outer_loops(node.body, entries * node.count)


class Trace:
    """A structured dynamic instruction stream."""

    __slots__ = ("nodes",)

    def __init__(self, nodes=()):
        self.nodes = tuple(nodes)

    def instructions(self):
        """Lazily expand the exact flat dynamic stream."""
        return _walk(self.nodes)

    def __iter__(self):
        return self.instructions()

    @property
    def dynamic_length(self) -> int:
        """Total dynamic instruction count after expansion."""
        return sum(node.dynamic_length for node in self.nodes)

    def steady_fraction(self) -> float:
        """Share of dynamic instructions inside steady loops (the
        outermost loops, found at any depth of tile loops, count
        whole)."""
        total = self.dynamic_length
        if not total:
            return 0.0
        steady = sum(entries * loop.dynamic_length
                     for loop, entries in outer_loops(self.nodes)
                     if loop.steady)
        return steady / total

    def fingerprint(self) -> str:
        """sha256 over the exact expanded stream (opcode + all operands).

        Two traces share a fingerprint iff their dynamic instruction
        streams are identical instruction-for-instruction — the golden
        stream-identity tests pin kernel emissions to this digest.
        """
        digest = hashlib.sha256()
        first = True
        for instr in self.instructions():
            if not first:
                digest.update(b"\n")
            digest.update(",".join(map(str, instr.key())).encode())
            first = False
        return digest.hexdigest()

    def __repr__(self) -> str:
        return f"Trace({len(self.nodes)} nodes, {self.dynamic_length} instrs)"


# ======================================================================
# loop summaries: static single-iteration analysis for fast replay
# ======================================================================

#: Vector ops whose write does NOT cover the whole active slice
#: ``[0:vl]``.  They never count as a *defining* write in the
#: read-before-write analysis.
_V_PARTIAL_WRITE = frozenset(op for op, spec in OPCODES.items()
                             if spec.partial)


def _roles_function(spec):
    """``instruction_roles`` for ``spec``'s instructions, compiled from
    source so that it costs one call.  Reads are in slot order (``rs1,
    rs2``; ``vs1, vs2, vd``).  A jump's link register is no write here:
    the functional core leaves it to the ISS, which knows the pc."""
    regs, dest = spec.regs, spec.dest
    if spec.timing == "jump":
        dest = None
    groups = []
    for file in "xf":
        groups.append([f for f in ("rs1", "rs2") if regs.get(f) == file])
        groups.append(["rd"] if dest == "rd" and regs["rd"] == file else [])
    v_reads = [f for f in ("vs1", "vs2") if f in regs]
    if "vd" in regs and (dest != "vd" or spec.accumulate or spec.partial):
        v_reads.append("vd")
    groups += [v_reads, ["vd"] if dest == "vd" else []]
    body = ", ".join("(" + "".join(f"instr.{f}, " for f in group) + ")"
                     for group in groups)
    return _compiled(f"lambda instr: ({body})")


@functools.cache
def _compiled(source: str):
    """One function per distinct roles shape, shared by its opcodes."""
    return eval(source)


_ROLES = {op: _roles_function(spec) for op, spec in OPCODES.items()}


def instruction_roles(instr):
    """Register operands read and written by one instruction.

    Returns ``(x_reads, x_writes, f_reads, f_writes, v_reads, v_writes)``
    as tuples of register indices.  Unused operand slots are *not*
    reported (the flat :class:`~repro.isa.instructions.Instr` record
    stores 0 in them, which would alias real register 0 for the FP and
    vector files).  ``vindexmac.vx``'s dynamically addressed vector
    source is not included — callers that care must resolve it from the
    runtime value of ``x[rs1]``.
    """
    return _ROLES[instr.op](instr)


class LoopSummary:
    """Static facts about ONE iteration of a loop body.

    ``instrs`` is the exact per-iteration instruction sequence with all
    nested loops unrolled.  The ``*_live_in`` sets hold registers read
    before any defining write (their entry value flows into the
    iteration); the ``*_written`` sets hold every register modified.
    Register 0 of the integer file (hardwired zero) is excluded.  The
    batch-replay timing backend uses these to vectorise steady-loop
    middles; see :mod:`repro.arch.timing.batch`.
    """

    __slots__ = ("instrs", "x_live_in", "x_written", "f_live_in",
                 "f_written", "v_live_in", "v_written", "has_vsetvli",
                 "mem_slots")

    def __init__(self, instrs, x_live_in, x_written, f_live_in, f_written,
                 v_live_in, v_written, has_vsetvli, mem_slots):
        self.instrs = instrs
        self.x_live_in = x_live_in
        self.x_written = x_written
        self.f_live_in = f_live_in
        self.f_written = f_written
        self.v_live_in = v_live_in
        self.v_written = v_written
        self.has_vsetvli = has_vsetvli
        self.mem_slots = mem_slots

    def __repr__(self) -> str:
        return (f"LoopSummary({len(self.instrs)} instrs/iter, "
                f"{self.mem_slots} mem slots, "
                f"x_live={sorted(self.x_live_in)})")


def summarize_nodes(nodes, limit: int | None = None):
    """Build the :class:`LoopSummary` of one iteration of ``nodes``.

    Nested loops are fully unrolled into the flat sequence.  If the
    unrolled body exceeds ``limit`` instructions, returns ``None`` (the
    caller should analyse the nested loops individually instead).
    """
    instrs = []
    for instr in _walk(nodes):
        instrs.append(instr)
        if limit is not None and len(instrs) > limit:
            return None
    x_live, x_written = set(), set()
    f_live, f_written = set(), set()
    v_live, v_written, v_defined = set(), set(), set()
    has_vsetvli = False
    mem_slots = 0
    for instr in instrs:
        op = instr.op
        if op is Op.VSETVLI:
            has_vsetvli = True
        if instr.is_vector_mem or instr.is_scalar_mem:
            mem_slots += 1
        xr, xw, fr, fw, vr, vw = instruction_roles(instr)
        for reg in xr:
            if reg and reg not in x_written:
                x_live.add(reg)
        for reg in fr:
            if reg not in f_written:
                f_live.add(reg)
        for reg in vr:
            if reg not in v_defined:
                v_live.add(reg)
        for reg in xw:
            if reg:
                x_written.add(reg)
        f_written.update(fw)
        for reg in vw:
            v_written.add(reg)
            if op not in _V_PARTIAL_WRITE:
                v_defined.add(reg)
    return LoopSummary(tuple(instrs), frozenset(x_live),
                       frozenset(x_written), frozenset(f_live),
                       frozenset(f_written), frozenset(v_live),
                       frozenset(v_written), has_vsetvli, mem_slots)


class TraceBuilder:
    """Incremental construction of a :class:`Trace` from kernel loops."""

    def __init__(self):
        self._stack: list[list] = [[]]
        self._run: list = []
        self._vars: list[_TileVar] = []  #: open tile loops' indices
        self._loops = 0                   #: open Loop frames

    def emit(self, *items) -> None:
        """Append instructions: each item is an ``Instr`` or an iterable
        of them (e.g. the generator helpers in ``kernels.builder``)."""
        run = self._run
        for item in items:
            if isinstance(item, Instr):
                run.append(item)
            else:
                run.extend(item)

    def li(self, reg: int, value) -> None:
        """Emit :func:`li`; ``value`` may be affine in open tile indices,
        provided its instruction form is the same for every index."""
        if not isinstance(value, Affine):
            self.emit(li(reg, value))
            return
        self._check_scope(value)
        lengths = {li_length(v) for v in value.values()}
        if len(lengths) != 1:
            raise KernelError(
                f"li of x{reg} changes form inside its tile range; "
                "split the range")
        self._run.append(AffineLi(reg, value, False, lengths.pop()))

    def li_addr(self, reg: int, value) -> None:
        """Emit :func:`li_addr`; ``value`` may be affine in open tile
        indices (always two instructions)."""
        if not isinstance(value, Affine):
            self.emit(li_addr(reg, value))
            return
        self._check_scope(value)
        for bound in value.bounds():  # range errors, as for an int
            li_addr(reg, bound)
        self._run.append(AffineLi(reg, value, True, 2))

    def _check_scope(self, value: Affine) -> None:
        if any(var not in self._vars for var, _ in value.terms):
            raise KernelError("affine value uses a closed tile index")

    def _flush(self) -> None:
        run = self._run
        if run:
            if any(type(item) is AffineLi for item in run):
                self._stack[-1].append(AffineBlock(run))
            else:
                self._stack[-1].append(Block(run))
            self._run = []

    @contextmanager
    def loop(self, repeat: int, steady: bool = True, label: str = ""):
        """Everything emitted inside the ``with`` is ONE iteration of a
        loop executed ``repeat`` times.  ``repeat=0`` discards the body.
        """
        self._flush()
        self._stack.append([])
        self._loops += 1
        try:
            yield self
        finally:
            self._flush()
            self._loops -= 1
            body = self._stack.pop()
            if repeat > 0 and body:
                self._stack[-1].append(Loop(body, repeat, steady, label))

    @contextmanager
    def tile_loop(self, start: int, stop: int, label: str = ""):
        """Everything emitted inside the ``with`` is the template of tile
        indices ``start .. stop-1``; yields the index as an
        :class:`Affine`.  An empty range discards the body."""
        if self._loops:
            raise KernelError("a tile loop cannot nest inside a Loop")
        self._flush()
        var = _TileVar(len(self._vars), start, stop)
        self._vars.append(var)
        self._stack.append([])
        try:
            yield Affine(0, ((var, 1),))
        finally:
            self._flush()
            self._vars.pop()
            body = self._stack.pop()
            if stop > start and body:
                self._stack[-1].append(
                    TileLoop(body, start, stop - start, label))

    def build(self) -> Trace:
        self._flush()
        if len(self._stack) != 1:
            raise KernelError("unbalanced TraceBuilder.loop() nesting")
        return Trace(self._stack[0])
