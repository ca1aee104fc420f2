"""Declarative kernel descriptions: :class:`KernelSpec` + :class:`Schedule`.

A *spec* says **what** a kernel computes and through which mechanism —
operand format, compute style (memory-gathered B rows vs. a
VRF-resident B tile driven by ``vindexmac``), and how A's column
indices are encoded.  A *schedule* says **how** the computation is laid
out — tile height L, unroll depth, dataflow (stationary operand),
vector length and B-tile residency.  The compiler pipeline in
:mod:`repro.kernels.compiler` lowers a (spec, schedule, staged
operands) triple through explicit passes into the loop-annotated Trace
IR of :mod:`repro.isa.trace`.

Schedules are plain data: they round-trip through :meth:`Schedule.
to_dict`/:meth:`Schedule.from_dict` and carry a process-stable
:meth:`Schedule.cache_key`, so the autotuner can persist winners and
the experiment engine can hash them into the simulation cache identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from repro.errors import KernelError
from repro.kernels.dataflow import Dataflow, validate_tile_rows

#: B-tile residency choices: ``memory`` gathers rows of B with vector
#: loads, ``vrf`` pre-loads the tile into the top of the vector
#: register file (the vindexmac mechanism).  ``auto`` resolves to the
#: spec's native residency during schedule normalization.
RESIDENCIES = ("auto", "memory", "vrf")


@dataclass(frozen=True)
class KernelSpec:
    """What a kernel computes, independent of any schedule choice."""

    name: str            #: table name (e.g. ``indexmac-spmm``)
    operand: str         #: A's format: ``nm-sparse`` | ``dense`` | ``csr``
    compute: str         #: ``mac-mem`` | ``indexmac-vrf`` | ``mac-scalar``
                         #: | ``dense-slide``
    index_source: str | None  #: col_idx encoding: ``scaled`` byte
                              #: offsets, ``raw`` indices, or None
    dataflows: tuple[Dataflow, ...]  #: schedulable dataflows (empty =
                                     #: the nest is fixed; ignored)
    b_residency: str     #: native residency: ``memory`` or ``vrf``
    display_name: str    #: paper name for reports


# The four kernels of the reproduction, as data.

#: Algorithm 1, dense row-wise: every element of a row of A multiplies
#: the whole matching row of B (``vfmacc.vf``) and a slide exposes the
#: next element.  One B-row load serves the whole unroll group.
DENSE_ROWWISE_SPEC = KernelSpec(
    name="dense-rowwise", operand="dense", compute="dense-slide",
    index_source=None, dataflows=(), b_residency="memory",
    display_name="Dense Row-Wise (Algorithm 1)")

#: Algorithm 2, the Row-Wise-SpMM baseline.  Per stored non-zero:
#: ``vmv.x.s`` (B-row address), ``vle32.v`` (that row of B),
#: ``vfmv.f.s`` (the value), ``vfmacc.vf`` and two ``vslide1down.vx``.
#: Column indices are staged pre-scaled by B's row stride.
ROWWISE_SPEC = KernelSpec(
    name="rowwise-spmm", operand="nm-sparse", compute="mac-mem",
    index_source="scaled",
    dataflows=(Dataflow.A_STATIONARY, Dataflow.B_STATIONARY,
               Dataflow.C_STATIONARY),
    b_residency="memory", display_name="Row-Wise-SpMM")

#: Algorithm 3, the proposed kernel.  A tile of L rows of B stays in the
#: top of the vector register file, so it is B-stationary by
#: construction.  Per stored non-zero: ``vmv.x.s`` (the index),
#: ``vindexmac.vx`` and two ``vslide1down.vx``, with no memory access.
INDEXMAC_SPEC = KernelSpec(
    name="indexmac-spmm", operand="nm-sparse", compute="indexmac-vrf",
    index_source="raw", dataflows=(Dataflow.B_STATIONARY,),
    b_residency="vrf", display_name="Proposed")

#: Unstructured CSR, the A4 ablation.  Nothing bounds a column index,
#: so B cannot be pre-loaded.  Per non-zero: scalar loads of the value
#: and the index, address arithmetic, a vector load of the B row and a
#: ``vfmacc.vf``.
CSR_SPEC = KernelSpec(
    name="csr-spmm", operand="csr", compute="mac-scalar",
    index_source="raw", dataflows=(), b_residency="memory",
    display_name="CSR Row-Wise (unstructured)")

#: The one kernel table: name -> spec.  Every kernel is compiled by
#: name through :func:`repro.kernels.compiler.compile_trace`.
SPECS = {spec.name: spec for spec in (
    DENSE_ROWWISE_SPEC, ROWWISE_SPEC, INDEXMAC_SPEC, CSR_SPEC)}


def get_spec(name: str) -> KernelSpec:
    """Look up a kernel spec by name."""
    try:
        return SPECS[name]
    except KeyError:
        known = ", ".join(sorted(SPECS))
        raise KernelError(
            f"unknown kernel spec {name!r} (known: {known})") from None


@dataclass(frozen=True)
class Schedule:
    """How a kernel is laid out: the autotuner's search space.

    ``Schedule()`` is the paper's layout (Section IV-A): L=16 pre-loaded
    rows of B (``tile_rows``), a 4-row micro-kernel (``unroll``),
    B-stationary, 16-element vectors (``vlmax``, the vsetvli AVL), the
    kernel's native B-tile residency and a register fill instead of the
    first k-tile's load of C (``init_c_zero``), on one core.
    """

    tile_rows: int = 16
    unroll: int = 4
    dataflow: Dataflow = Dataflow.B_STATIONARY
    vlmax: int = 16
    b_residency: str = "auto"
    init_c_zero: bool = True
    #: Simulated cores the output-row space is sharded across.  ``1``
    #: (the default) is the paper's single-core machine; ``N > 1``
    #: lowers one trace per core and the timing merge layer combines
    #: the per-core cycle streams into makespan cycles.
    cores: int = 1
    #: Which shard this lowering targets: ``None`` (the default) means
    #: the whole row space — what jobs and tuned schedules carry — and
    #: the multicore fan-out compiles per-core traces with
    #: :meth:`for_shard`.
    shard: int | None = None

    def __post_init__(self):
        if isinstance(self.dataflow, str):
            object.__setattr__(self, "dataflow",
                               parse_dataflow(self.dataflow))
        # a float or a bool would hash unlike its integer twin
        for name in ("tile_rows", "unroll", "vlmax", "cores"):
            value = getattr(self, name)
            if type(value) is not int:
                raise KernelError(
                    f"{name} must be an integer, not {value!r}")
        if type(self.init_c_zero) is not bool:
            raise KernelError(f"init_c_zero must be True or False, "
                              f"not {self.init_c_zero!r}")
        if self.unroll not in (1, 2, 4):
            raise KernelError(f"unroll must be 1, 2 or 4, not {self.unroll}")
        if self.tile_rows <= 0:
            raise KernelError("tile_rows must be positive")
        if self.vlmax <= 0:
            raise KernelError("vlmax must be positive")
        if self.b_residency not in RESIDENCIES:
            raise KernelError(
                f"b_residency must be one of {RESIDENCIES}, "
                f"not {self.b_residency!r}")
        if self.cores < 1:
            raise KernelError(
                f"cores must be a positive integer, not {self.cores!r}")
        if self.shard is not None and not (
                type(self.shard) is int and 0 <= self.shard < self.cores):
            raise KernelError(
                f"shard must be None or an integer in [0, {self.cores}), "
                f"not {self.shard!r}")

    def for_shard(self, shard: int) -> "Schedule":
        """This schedule narrowed to one core's shard of the row space."""
        return replace(self, shard=shard)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Deterministic, JSON-serializable representation."""
        return {
            "tile_rows": self.tile_rows,
            "unroll": self.unroll,
            "dataflow": self.dataflow.value,
            "vlmax": self.vlmax,
            "b_residency": self.b_residency,
            "init_c_zero": self.init_c_zero,
            "cores": self.cores,
            "shard": self.shard,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Schedule":
        """Inverse of :meth:`to_dict` (unknown keys are rejected;
        pre-multicore payloads without ``cores``/``shard`` load as
        single-core)."""
        known = {"tile_rows", "unroll", "dataflow", "vlmax",
                 "b_residency", "init_c_zero", "cores", "shard"}
        extra = set(payload) - known
        if extra:
            raise KernelError(
                f"unknown Schedule fields {sorted(extra)}")
        return cls(**payload)

    def cache_key(self) -> str:
        """Process-stable content hash (used in cache identities)."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        """Compact human-readable form for tables and logs."""
        text = (f"L={self.tile_rows} u{self.unroll} "
                f"{self.dataflow.value}-stat vl={self.vlmax}")
        if self.cores > 1:
            text += f" x{self.cores}cores"
            if self.shard is not None:
                text += f"[{self.shard}]"
        return text


def parse_dataflow(value) -> Dataflow:
    """Coerce ``'B'`` / ``'B_STATIONARY'`` / a :class:`Dataflow`."""
    if isinstance(value, Dataflow):
        return value
    try:
        return Dataflow(value)
    except ValueError:
        pass
    try:
        return Dataflow[str(value).upper()]
    except KeyError:
        raise KernelError(f"unknown dataflow {value!r}") from None


def coerce_schedule(value) -> Schedule:
    """Accept a :class:`Schedule`, or None for the paper default."""
    if value is None:
        return Schedule()
    if isinstance(value, Schedule):
        return value
    raise KernelError(f"expected a Schedule, got {type(value).__name__}")


def schedule_incompatibility(spec: KernelSpec, schedule: Schedule,
                             nm: tuple[int, int], *,
                             num_vregs: int = 32,
                             reserved_vregs: int = 16) -> str | None:
    """Why ``schedule`` cannot drive ``spec`` at ``nm`` (None = it can).

    A tuned schedule only applies to kernels that can actually schedule
    it — e.g. a rowwise-tuned A-stationary or L=64 winner cannot drive
    the vindexmac kernel (B-stationary by construction, L bounded by
    the vector-register budget).  An N:M kernel's tile height passes
    the compiler's check (:func:`~repro.kernels.dataflow.
    validate_tile_rows`).  Returns a human-readable reason string for
    the incompatibility, or ``None`` when the schedule is valid for
    the spec.
    """
    try:
        normalized = normalize_schedule(spec, schedule)
        if spec.operand == "nm-sparse":
            vrf = normalized.b_residency == "vrf"
            validate_tile_rows(normalized.tile_rows, *nm, normalized.vlmax,
                               num_vregs if vrf else None, reserved_vregs)
    except KernelError as exc:
        return str(exc)
    return None


def project_schedule(kernel: str, schedule: Schedule,
                     nm: tuple[int, int], *,
                     num_vregs: int = 32,
                     reserved_vregs: int = 16
                     ) -> tuple[Schedule, str | None]:
    """Project ``schedule`` onto what ``kernel`` can run at ``nm``.

    The compatibility projection behind ``--schedule``/``--policy``:
    returns ``(schedule, None)`` when the kernel can schedule it
    verbatim, else ``(paper-default layout with the requested core
    count, reason)`` — sharding applies to every kernel even when the
    tuned layout knobs do not.  The original (not normalized) schedule
    is handed back on success so cache identities match what the
    caller persisted; the compiler re-normalizes at lowering time.
    """
    reason = schedule_incompatibility(get_spec(kernel), schedule, nm,
                                      num_vregs=num_vregs,
                                      reserved_vregs=reserved_vregs)
    if reason is None:
        return schedule, None
    return replace(Schedule(), cores=schedule.cores), reason


def normalize_schedule(spec: KernelSpec, schedule: Schedule) -> Schedule:
    """Resolve ``auto`` residency and validate the schedule against the
    spec (the first compiler pass)."""
    residency = schedule.b_residency
    if residency == "auto":
        residency = spec.b_residency
    elif residency != spec.b_residency:
        raise KernelError(
            f"kernel {spec.name!r} requires {spec.b_residency!r} B-tile "
            f"residency (its compute style is {spec.compute!r}); "
            f"got {residency!r}")
    if spec.dataflows and schedule.dataflow not in spec.dataflows:
        allowed = "/".join(df.value for df in spec.dataflows)
        why = (" (the vindexmac kernel pre-loads B into the vector "
               "register file and is B-stationary by construction)"
               if spec.compute == "indexmac-vrf" else "")
        raise KernelError(
            f"kernel {spec.name!r} supports only {allowed}-stationary "
            f"dataflow, not {schedule.dataflow.value}-stationary{why}")
    return replace(schedule, b_residency=residency)
