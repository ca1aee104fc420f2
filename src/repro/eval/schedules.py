"""Per-layer schedule policies: layer identity -> :class:`Schedule`.

The paper's speedups come from layer GEMMs whose shapes vary wildly
across a CNN (wide-N early layers vs tall-rows/deep-K late layers),
yet a single global schedule used to drive every layer of every
figure.  A :class:`SchedulePolicy` makes the mapping from *layer
identity* — (model, layer name, GEMM shape, N:M pattern) — to a
kernel :class:`~repro.kernels.compiler.Schedule` a first-class object
that the experiment drivers resolve per layer before building each
:class:`~repro.eval.engine.SimJob`.  The resolved schedule (not the
policy) participates in the job's cache identity, so policies compose
with the on-disk result cache: two policies that resolve a layer to
the same schedule share its simulation.

Three policies ship:

* :class:`FixedPolicy` — one schedule for every layer, the paper's
  ``Schedule()`` by default (the compatibility default: bit-identical
  cache keys to the pre-policy code).
* :class:`TunedPolicy` — backed by a persisted per-layer
  :class:`ScheduleBook` (the ``repro tune --per-layer`` artifact) with
  shape-bucket fallback for layers the book has never seen.
* :class:`HeuristicPolicy` — deterministic shape-driven
  tile_rows/unroll/cores rules, no tuning run required.

The *schedule book* is a small JSON artifact
(:func:`save_schedule_book` / :func:`load_schedule_book`); corrupt or
missing books raise a clean :class:`~repro.errors.TuningError` naming
the path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

from repro.errors import KernelError, TuningError
from repro.kernels.compiler import Schedule, get_spec
from repro.kernels.dataflow import Dataflow, max_tile_rows
from repro.nn.layers import GemmShape

#: Schedule-book JSON format version (bump on incompatible changes).
BOOK_VERSION = 1

#: CLI names of the shipped policies (``--policy fixed|heuristic|tuned``).
POLICY_KINDS = ("fixed", "heuristic", "tuned")


def shape_bucket(rows: int, k: int, n: int) -> str:
    """Deterministic shape-bucket key: each GEMM dimension floored to a
    power of two, so near-identical shapes share a tuned schedule."""
    def pot(value: int) -> int:
        return 1 << max(0, int(value).bit_length() - 1)

    return f"r{pot(rows)}k{pot(k)}n{pot(n)}"


def _gemm_bucket(gemm: GemmShape) -> str:
    return shape_bucket(gemm.rows, gemm.k, gemm.n)


# ======================================================================
# Policies
# ======================================================================
class SchedulePolicy:
    """Mapping from layer identity to the schedule that layer runs.

    ``resolve`` returns the :class:`Schedule` one layer runs —
    ``Schedule()``, the paper default, when the policy has nothing
    better.  ``gemm`` is the layer's full-size GEMM (its stable
    identity); ``scaled`` is the dimension-scaled shape that is
    actually simulated (what shape-driven rules should look at).
    """

    kind: ClassVar[str] = "base"

    def resolve(self, kernel: str, nm: tuple[int, int], *,
                model: str | None = None, layer: str | None = None,
                gemm: GemmShape | None = None,
                scaled: GemmShape | None = None):
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class FixedPolicy(SchedulePolicy):
    """One schedule for every layer (the compatibility default)."""

    options: Schedule = Schedule()

    kind: ClassVar[str] = "fixed"

    def resolve(self, kernel, nm, *, model=None, layer=None, gemm=None,
                scaled=None):
        return self.options

    def describe(self) -> str:
        if self.options == Schedule():
            return "fixed (paper default)"
        return f"fixed ({self.options.describe()})"


@dataclass(frozen=True)
class HeuristicPolicy(SchedulePolicy):
    """Deterministic shape-driven schedule rules (no tuning run).

    Rules (applied to the *simulated* shape when known):

    * ``tile_rows`` — the largest whole-block doubling of M that both
      the Section III bound ``M*VL/N`` (and, for a VRF-resident B
      tile, the vector-register budget) and the layer's row space can
      fill.  Wide-N early layers with few output rows get shorter
      tiles (less prologue waste); deep row spaces get the maximum.
    * ``unroll`` — the deepest micro-kernel (x4, the paper's choice)
      the row space supports; degenerate row counts fall back to
      x2/x1.
    * ``cores`` — the largest power of two not above ``cores`` that
      still gives every shard at least one full row tile.
    """

    vlmax: int = 16
    cores: int = 1           #: core budget the rules may shard up to
    num_vregs: int = 32
    reserved_vregs: int = 16

    kind: ClassVar[str] = "heuristic"

    def resolve(self, kernel, nm, *, model=None, layer=None, gemm=None,
                scaled=None):
        n_, m_ = nm
        shape = scaled or gemm
        bound = max_tile_rows(n_, m_, self.vlmax)
        try:
            spec = get_spec(kernel)
        except KernelError:
            spec = None
        if spec is not None and spec.b_residency == "vrf":
            bound = min(bound, self.num_vregs - self.reserved_vregs)
        tile = m_
        while tile * 2 <= bound and (
                shape is None or tile * 2 <= max(m_, shape.rows)):
            tile *= 2
        rows = shape.rows if shape is not None else tile
        unroll = 4 if rows >= 4 else 2 if rows >= 2 else 1
        cores = 1
        while cores * 2 <= self.cores and rows >= cores * 2 * tile:
            cores *= 2
        return Schedule(tile_rows=tile, unroll=unroll,
                        dataflow=Dataflow.B_STATIONARY,
                        vlmax=self.vlmax, cores=cores)

    def describe(self) -> str:
        text = f"heuristic (vl={self.vlmax}"
        if self.cores > 1:
            text += f", up to {self.cores} cores"
        return text + ")"


# ======================================================================
# Schedule book: the persisted per-layer tuning artifact
# ======================================================================
@dataclass(frozen=True)
class BookEntry:
    """One tuned layer: identity, winning schedule, provenance."""

    model: str                       #: ``*`` = any model (default entry)
    layer: str                       #: ``*`` = any layer (default entry)
    kernel: str
    nm: tuple[int, int]
    schedule: Schedule
    shape: tuple[int, int, int] | None = None  #: full-size (rows, k, n)
    cycles: float | None = None            #: winner cycles (final backend)
    default_cycles: float | None = None    #: paper default on same layer
    backend: str | None = None             #: final (re-ranking) backend

    @property
    def bucket(self) -> str | None:
        if self.shape is None:
            return None
        return shape_bucket(*self.shape)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "layer": self.layer,
            "kernel": self.kernel,
            "nm": list(self.nm),
            "shape": list(self.shape) if self.shape is not None else None,
            "schedule": self.schedule.to_dict(),
            "cycles": self.cycles,
            "default_cycles": self.default_cycles,
            "backend": self.backend,
            "schedule_cache_key": self.schedule.cache_key(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BookEntry":
        if not isinstance(payload, dict):
            raise KernelError(f"schedule book entry must be a JSON "
                              f"object, not {payload!r}")
        shape = payload.get("shape")
        return cls(model=payload["model"], layer=payload["layer"],
                   kernel=payload["kernel"], nm=tuple(payload["nm"]),
                   schedule=Schedule.from_dict(payload["schedule"]),
                   shape=tuple(shape) if shape is not None else None,
                   cycles=payload.get("cycles"),
                   default_cycles=payload.get("default_cycles"),
                   backend=payload.get("backend"))


@dataclass(frozen=True)
class ScheduleBook:
    """Persisted per-layer schedules with shape-bucket fallback.

    Lookup resolution order (first hit wins):

    1. exact layer identity ``(kernel, nm, model, layer)`` — or, when
       the caller does not know the model (e.g. resolving against a
       bare :class:`~repro.nn.workload.LayerWorkload`), the first
       entry matching ``(kernel, nm, layer)``;
    2. shape bucket ``(kernel, nm, shape_bucket(gemm))`` — so a book
       tuned on one model still covers same-shaped layers of another;
    3. the book's default entry ``(kernel, nm)`` (``model = layer =
       '*'``, written by the per-layer tuner as the most common
       winner);
    4. ``None`` — the caller falls back to the paper default.
    """

    entries: tuple[BookEntry, ...] = ()

    def __post_init__(self):
        exact, by_layer, buckets, defaults = {}, {}, {}, {}
        for entry in self.entries:
            if entry.model == "*" or entry.layer == "*":
                defaults.setdefault((entry.kernel, entry.nm), entry)
                continue
            exact.setdefault(
                (entry.kernel, entry.nm, entry.model, entry.layer), entry)
            by_layer.setdefault(
                (entry.kernel, entry.nm, entry.layer), entry)
            if entry.bucket is not None:
                buckets.setdefault(
                    (entry.kernel, entry.nm, entry.bucket), entry)
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "_by_layer", by_layer)
        object.__setattr__(self, "_buckets", buckets)
        object.__setattr__(self, "_defaults", defaults)

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, kernel: str, nm: tuple[int, int], *,
               model: str | None = None, layer: str | None = None,
               gemm: GemmShape | None = None) -> BookEntry | None:
        """The entry for one layer identity, or None (see class doc)."""
        nm = tuple(nm)
        if layer is not None:
            entry = (self._exact.get((kernel, nm, model, layer))
                     if model is not None
                     else self._by_layer.get((kernel, nm, layer)))
            if entry is not None:
                return entry
        if gemm is not None:
            entry = self._buckets.get((kernel, nm, _gemm_bucket(gemm)))
            if entry is not None:
                return entry
        return self._defaults.get((kernel, nm))

    def merged(self, other: "ScheduleBook") -> "ScheduleBook":
        """This book extended by ``other`` (existing identities win)."""
        return ScheduleBook(entries=self.entries + other.entries)

    def to_dict(self) -> dict:
        return {"version": BOOK_VERSION,
                "entries": [e.to_dict() for e in self.entries]}

    @classmethod
    def from_dict(cls, payload: dict) -> "ScheduleBook":
        if not isinstance(payload, dict) or "entries" not in payload:
            raise KernelError(
                "schedule book must be a JSON object with an "
                "'entries' list")
        version = payload.get("version", BOOK_VERSION)
        if version != BOOK_VERSION:
            raise KernelError(
                f"schedule book version {version!r} is not supported "
                f"(expected {BOOK_VERSION})")
        entries = payload["entries"]
        if not isinstance(entries, list):
            raise KernelError("schedule book 'entries' must be a list")
        return cls(entries=tuple(BookEntry.from_dict(e) for e in entries))


def save_schedule_book(path, book: ScheduleBook) -> None:
    """Persist ``book`` as JSON (atomic temp-file + rename write)."""
    from repro.eval.engine import atomic_write_text

    atomic_write_text(Path(path),
                      json.dumps(book.to_dict(), indent=1) + "\n")


def load_schedule_book(path) -> ScheduleBook:
    """Load a schedule book saved by :func:`save_schedule_book`.

    A missing, unreadable, or structurally invalid file raises a clean
    :class:`TuningError` naming the path (never a raw traceback from
    the JSON layer).
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise TuningError(
            f"cannot read schedule book {path}: {exc}") from None
    try:
        return ScheduleBook.from_dict(payload)
    except (KernelError, KeyError, TypeError, ValueError) as exc:
        raise TuningError(
            f"schedule book {path} is invalid: {exc}") from None


def merge_schedule_books(books) -> ScheduleBook:
    """Merge several books (earlier books win on identity clashes)."""
    merged = ScheduleBook()
    for book in books:
        merged = merged.merged(book)
    return merged


@dataclass(frozen=True)
class TunedPolicy(SchedulePolicy):
    """Per-layer schedules from a :class:`ScheduleBook`.

    Layers the book does not cover (after shape-bucket and default
    fallback) resolve to the paper default ``Schedule()``, so a book
    tuned for one kernel/model never breaks the other side of a
    comparison.  ``cores`` (when set) overrides the core count of
    every layer's schedule, covered or not, mirroring ``--cores`` on
    the CLI.
    """

    book: ScheduleBook = field(default_factory=ScheduleBook)
    cores: int | None = None

    kind: ClassVar[str] = "tuned"

    def resolve(self, kernel, nm, *, model=None, layer=None, gemm=None,
                scaled=None):
        entry = self.book.lookup(kernel, nm, model=model, layer=layer,
                                 gemm=gemm)
        if entry is None:
            return Schedule() if self.cores is None \
                else Schedule(cores=self.cores)
        schedule = entry.schedule
        if self.cores is not None and self.cores != schedule.cores:
            schedule = replace(schedule, cores=self.cores, shard=None)
        return schedule

    def describe(self) -> str:
        return f"tuned ({len(self.book)} book entries)"


def coerce_policy(value) -> SchedulePolicy:
    """Accept a :class:`SchedulePolicy`, a bare :class:`Schedule`
    (wrapped in a :class:`FixedPolicy`), or ``None`` (the fixed paper
    default)."""
    if isinstance(value, SchedulePolicy):
        return value
    if value is None:
        return FixedPolicy()
    if isinstance(value, Schedule):
        return FixedPolicy(options=value)
    raise KernelError(
        f"expected SchedulePolicy or Schedule, got {type(value).__name__}")
