"""Calibrated linear cycle model over static trace features.

The ``analytic-sampled`` timing backend predicts cycles without
executing anything: a trace is reduced to a small feature vector by a
static walk over its loop tree (O(static size) — loop bodies are
visited once and scaled by their trip counts), and cycles are the dot
product of those features with a calibration table fitted by least
squares against ``detailed`` runs.

Because the library's traces have no data-dependent control flow, every
instruction-class count extracted by the walk is *exact* — identical to
the counters a detailed simulation would report (including the paper's
Fig. 6 vector-memory-access metric).  Only the cycle estimate is
approximate, with accuracy gated by
:mod:`repro.analytic.validation`'s per-backend tolerance table.

The active table resolves from ``$REPRO_CALIBRATION`` (a JSON path) and
falls back to the packaged default ``calibration_default.json`` fitted
at the experiment scales.  An analytic job records the active table's
content digest when it is built, and the digest is part of its cache
key, so refitting can never be answered by stale cached predictions.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.arch.stats import CLASS_COUNTERS
from repro.errors import CalibrationError
from repro.isa.instructions import BRANCH_OPS, OPCODES, VECTOR_OPS, Op
from repro.isa.trace import AffineBlock, AffineLi, Block, TileLoop, Trace

#: Environment variable naming an alternative calibration JSON.
CALIBRATION_ENV = "REPRO_CALIBRATION"

#: The packaged default table (fitted from detailed runs; see
#: ``repro calibrate``).
DEFAULT_TABLE_PATH = Path(__file__).with_name("calibration_default.json")

#: Feature names, in vector order.  ``bias`` absorbs fixed start-up
#: cost; the counts are exact per-class dynamic instruction counts; the
#: ``v*_lines`` features count cache-line transfers of the vector
#: load/store streams (the bandwidth term); ``loop_entries`` counts
#: steady-loop activations (the cold-start transient term).
FEATURE_NAMES = (
    "bias",
    "scalar_alu",
    "branches",
    "scalar_loads",
    "scalar_stores",
    "vector_alu",
    "vector_mac",
    "vindexmac",
    "slides",
    "v2s_moves",
    "vle_lines",
    "vse_lines",
    "loop_entries",
)

def _profile_counts(spec) -> tuple[str, ...]:
    """The :class:`TraceProfile` counts one ``spec`` instruction adds to:
    its class's counters, and a model term for vector compute.
    ``vector_mac`` counts the reductions and every op that accumulates
    (``vfmacc``, ``vmacc``, ``vindexmac``), ``vector_alu`` the other
    ``valu``/``vmac``/``vmove`` ops."""
    if spec.timing == "vred" or spec.accumulate:
        term = ("vector_mac",)
    elif spec.timing in ("valu", "vmac", "vmove"):
        term = ("vector_alu",)
    else:
        term = ()
    return ("instructions",) + CLASS_COUNTERS[spec.timing] + term


_PROFILE_COUNTS = {op: _profile_counts(spec) for op, spec in OPCODES.items()}

#: Ops whose ``rd`` the constant tracker forgets, besides ``addi`` and
#: ``lui``: ``vmv.x.s`` and every scalar op but the jumps that writes ``rd``
#: (FP destinations too: the tracker is conservative).
_FORGETS_RD = frozenset(op for op, spec in OPCODES.items()
                        if op not in VECTOR_OPS and op not in BRANCH_OPS
                        and spec.dest == "rd") | {Op.VMV_X_S}

# The opcodes the walk tracks, bound once: an ``Op.X`` lookup goes
# through the enum metaclass and costs more than the walk's own work.
_VLE32, _VSE32, _VSETVLI, _ADDI, _LUI = \
    Op.VLE32, Op.VSE32, Op.VSETVLI, Op.ADDI, Op.LUI


@dataclass
class TraceProfile:
    """Exact per-class dynamic counts, named as the
    :class:`~repro.arch.stats.ExecutionStats` counters they equal, plus
    the model's feature terms (``vector_mac`` to ``loop_entries``)."""

    instructions: int = 0
    scalar_instructions: int = 0
    vector_instructions: int = 0
    vector_loads: int = 0
    vector_stores: int = 0
    scalar_loads: int = 0
    scalar_stores: int = 0
    vector_to_scalar_moves: int = 0
    vindexmac_count: int = 0
    vfmacc_count: int = 0
    slide_count: int = 0
    branches: int = 0
    vector_mac: int = 0
    vector_alu: int = 0
    vle_lines: float = 0.0
    vse_lines: float = 0.0
    loop_entries: int = 0
    _consts: dict = field(default_factory=dict, repr=False)

    def features(self) -> np.ndarray:
        scalar_alu = (self.scalar_instructions - self.scalar_loads
                      - self.scalar_stores - self.branches)
        return np.array([
            1.0,
            float(scalar_alu),
            float(self.branches),
            float(self.scalar_loads),
            float(self.scalar_stores),
            float(self.vector_alu),
            float(self.vector_mac),
            float(self.vindexmac_count),
            float(self.slide_count),
            float(self.vector_to_scalar_moves),
            self.vle_lines,
            self.vse_lines,
            float(self.loop_entries),
        ])


def _walk_profile(profile: TraceProfile, tally: Counter, nodes, mult: int,
                  vl: int, vlmax: int, line_bytes: int) -> int:
    """Accumulate ``mult`` executions of ``nodes``; returns the exit vl.

    Instructions are tallied per opcode in ``tally`` (folded into the
    class counts by :func:`profile_trace`); the walk itself adds the
    line-transfer features and loop entries.  ``vl`` is const-propagated
    through ``vsetvli`` (materialised AVLs flow through the small
    ``li``/``lui``/``addi`` tracker); an untrackable AVL pessimises to
    ``vlmax``, which only blurs the line-transfer features — the class
    counts stay exact.  A tile loop's template is walked once, scaled by
    its trip count; its affine ``li``/``li_addr`` items count as scalar
    ALU instructions and leave their register untracked (the value
    varies per tile).
    """
    consts = profile._consts
    for node in nodes:
        kind = type(node)
        if kind is Block or kind is AffineBlock:
            for instr in (node.instrs if kind is Block else node.items):
                if type(instr) is AffineLi:  # lui/addi: scalar ALU
                    tally[_ADDI] += mult * instr.length
                    consts[instr.reg] = None
                    continue
                op = instr.op
                tally[op] += mult
                if op is _VLE32:
                    profile.vle_lines += mult * (-(-4 * vl // line_bytes))
                elif op is _VSE32:
                    profile.vse_lines += mult * (-(-4 * vl // line_bytes))
                elif op is _VSETVLI:
                    avl = consts.get(instr.rs1)
                    vl = vlmax if avl is None or avl >= vlmax \
                        or avl < 0 else max(avl, 1)
                    if instr.rd:
                        consts[instr.rd] = vl
                elif instr.rd:
                    # track materialised constants for vsetvli AVLs
                    if op is _ADDI:
                        base = 0 if instr.rs1 == 0 \
                            else consts.get(instr.rs1)
                        consts[instr.rd] = (None if base is None
                                            else base + instr.imm)
                    elif op is _LUI:
                        value = instr.imm << 12
                        if value & 0x80000000:
                            value -= 1 << 32
                        consts[instr.rd] = value
                    elif op in _FORGETS_RD:
                        consts[instr.rd] = None  # a runtime value
        elif kind is TileLoop:
            # not a loop entry: a tile loop stands for unrolled code
            if node.count:
                vl = _walk_profile(profile, tally, node.body,
                                   mult * node.count, vl, vlmax, line_bytes)
        elif node.repeat:
            # a zero-trip loop never activates: its body must not count
            # an entry nor leak its vsetvli into the exit vl.  (Trace
            # builders discard empty loops, so this only guards
            # hand-built Loop nodes.)
            profile.loop_entries += mult
            vl = _walk_profile(profile, tally, node.body,
                               mult * node.repeat, vl, vlmax, line_bytes)
    return vl


def profile_trace(trace: Trace, config) -> TraceProfile:
    """Statically profile ``trace`` for ``config``'s vector/L2 geometry."""
    profile = TraceProfile()
    tally = Counter()
    _walk_profile(profile, tally, trace.nodes, 1, config.vector.vlmax,
                  config.vector.vlmax, config.l2.line_bytes)
    for op, count in tally.items():
        for name in _PROFILE_COUNTS[op]:
            setattr(profile, name, getattr(profile, name) + count)
    return profile


# ======================================================================
# the calibration table
# ======================================================================
@dataclass(frozen=True)
class CalibrationTable:
    """Fitted per-feature cycle weights (see :data:`FEATURE_NAMES`)."""

    weights: tuple[float, ...]
    fitted_on: tuple[str, ...] = ()   #: sample labels used by the fit
    residual: float = 0.0             #: relative RMS error on the fit set

    def __post_init__(self):
        if len(self.weights) != len(FEATURE_NAMES):
            raise CalibrationError(
                f"calibration table has {len(self.weights)} weights, "
                f"expected {len(FEATURE_NAMES)} ({', '.join(FEATURE_NAMES)})")

    def predict(self, features: np.ndarray) -> float:
        """Predicted cycles for one feature vector (never negative)."""
        return float(max(0.0, float(np.dot(self.weights, features))))

    def predict_many(self, matrix: np.ndarray) -> np.ndarray:
        """Predicted cycles for a feature matrix, one row per profile.

        Prices each row with the *same* dot-product kernel as
        :meth:`predict`, not a matrix-vector product: BLAS gemv may
        reassociate the reduction and differ from the dot kernel in the
        last ulp, and the bulk sweep path promises bit-identical cycles
        to the per-job path.  The per-row loop runs only over
        *deduplicated* profiles, so it is never the bulk bottleneck.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        return np.array([self.predict(row) for row in matrix],
                        dtype=np.float64)

    # -- persistence ---------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "features": list(FEATURE_NAMES),
            "weights": {name: weight for name, weight
                        in zip(FEATURE_NAMES, self.weights)},
            "fitted_on": list(self.fitted_on),
            "residual": self.residual,
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationTable":
        try:
            payload = json.loads(text)
            names = tuple(payload["features"])
            if names != FEATURE_NAMES:
                raise CalibrationError(
                    "calibration table features "
                    f"{names} do not match this build's {FEATURE_NAMES}; "
                    "refit with `repro calibrate`")
            weights = tuple(float(payload["weights"][name])
                            for name in FEATURE_NAMES)
            return cls(weights=weights,
                       fitted_on=tuple(payload.get("fitted_on", ())),
                       residual=float(payload.get("residual", 0.0)))
        except CalibrationError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            raise CalibrationError(
                f"unreadable calibration table: {exc}") from exc

    def save(self, path: Path) -> None:
        from repro.eval.engine import atomic_write_text
        atomic_write_text(Path(path), self.to_json() + "\n")

    @classmethod
    def load(cls, path: Path) -> "CalibrationTable":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CalibrationError(
                f"cannot read calibration table {path}: {exc}") from exc
        return cls.from_json(text)

    def digest(self) -> str:
        """Content hash (folded into analytic jobs' cache identity)."""
        return self.sha256()[:16]

    def sha256(self) -> str:
        """Full content digest (recorded in ``Run.stats.extra`` as
        result provenance; :meth:`digest` stays the 16-char cache-key
        prefix so existing job hashes are untouched)."""
        return self._sha256

    @cached_property
    def _sha256(self) -> str:
        # computed once per (immutable) table: every analytic job_hash
        # and every priced result asks for it
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def fit_table(samples) -> CalibrationTable:
    """Least-squares fit from ``(label, features, cycles)`` samples.

    Rows are weighted by ``1/cycles`` so the solver minimises
    *relative* error — without this, a fit set mixing small figure
    workloads with tall batched ones would be dominated entirely by
    the tall samples' absolute residuals.  Column scaling keeps the
    normal equations well-conditioned even though counts span many
    orders of magnitude; absent features (all-zero columns) get weight
    0 instead of a singular system.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise CalibrationError(
            f"calibration needs at least 2 samples, got {len(samples)}")
    labels = tuple(label for label, _, _ in samples)
    matrix = np.array([features for _, features, _ in samples],
                      dtype=np.float64)
    cycles = np.array([target for _, _, target in samples],
                      dtype=np.float64)
    safe = np.where(cycles > 0, cycles, 1.0)
    weighted = matrix / safe[:, None]
    target = cycles / safe
    scale = np.abs(weighted).max(axis=0)
    live = scale > 0
    scaled = weighted[:, live] / scale[live]
    solution, *_ = np.linalg.lstsq(scaled, target, rcond=None)
    weights = np.zeros(len(FEATURE_NAMES))
    weights[live] = solution / scale[live]
    predicted = matrix @ weights
    residual = float(np.sqrt(np.mean(((predicted - cycles) / safe) ** 2)))
    return CalibrationTable(weights=tuple(float(w) for w in weights),
                            fitted_on=labels, residual=residual)


# ======================================================================
# active-table resolution
# ======================================================================
_cache: dict[str, CalibrationTable] = {}


def active_table_path() -> Path:
    """``$REPRO_CALIBRATION`` if set, else the packaged default."""
    import os

    env = os.environ.get(CALIBRATION_ENV)
    return Path(env) if env else DEFAULT_TABLE_PATH


def active_table() -> CalibrationTable:
    """The calibration table analytic runs use (cached per path)."""
    path = str(active_table_path())
    table = _cache.get(path)
    if table is None:
        table = CalibrationTable.load(path)
        _cache[path] = table
    return table


def reset_cache() -> None:
    """Drop memoised tables (tests / after ``repro calibrate``)."""
    _cache.clear()


def active_digest() -> str:
    """Digest of the active table (what an analytic job records when
    it is built)."""
    return active_table().digest()
