"""Layer workload generation: scaled GEMM operands for the simulator.

The paper runs full-size layer GEMMs inside Gem5 (compiled C++); a pure
Python instruction-level simulator cannot retire the billions of
instructions that would take, so layer shapes are **dimension-scaled**
by a documented policy before simulation.  Scaling divides each GEMM
dimension by a constant and clamps to a range, which preserves the two
properties the paper's results depend on:

* the *relative* shape mix across a CNN's layers (wide-N early layers
  versus tall-rows/deep-K late layers), and
* the N:M inner-loop structure (trip counts per block are unchanged).

Weights are synthetic Gaussians magnitude-pruned to an exact N:M
pattern; kernel execution time depends only on the pattern geometry,
never on the values (see DESIGN.md, substitution table).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.nn.layers import ConvLayer, GemmShape
from repro.sparse.blocksparse import NMSparseMatrix
from repro.sparse.prune import prune_to_nm

_VL = 16  # elements per vector register (512-bit / 32-bit)


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


@dataclass(frozen=True)
class ScalePolicy:
    """Divide-and-clamp scaling of GEMM dimensions."""

    name: str
    rows_div: int
    rows_range: tuple[int, int]
    k_div: int
    k_range: tuple[int, int]
    n_div: int
    n_range: tuple[int, int]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise WorkloadError(
                f"policy name must be a string, not {self.name!r}")
        # a float or a bool would hash unlike its integer twin
        for dim in ("rows", "k", "n"):
            div = getattr(self, f"{dim}_div")
            bounds = getattr(self, f"{dim}_range")
            if type(div) is not int or div < 1:
                raise WorkloadError(f"{dim}_div must be a positive "
                                    f"integer, not {div!r}")
            if not (type(bounds) is tuple and len(bounds) == 2
                    and all(type(v) is int for v in bounds)
                    and bounds[0] <= bounds[1]):
                raise WorkloadError(f"{dim}_range must be two integers "
                                    f"(lo, hi) with lo <= hi, "
                                    f"not {bounds!r}")

    def scale(self, gemm: GemmShape) -> GemmShape:
        """Scaled (but not yet padded) dimensions of ``gemm``."""
        def clamp(value, lo, hi):
            return max(lo, min(hi, value))

        rows = clamp(-(-gemm.rows // self.rows_div), *self.rows_range)
        k = clamp(-(-gemm.k // self.k_div), *self.k_range)
        n = clamp(-(-gemm.n // self.n_div), *self.n_range)
        return GemmShape(rows=rows, k=k, n=n)


#: No scaling: the paper's full-size shapes (analytic model only).
FULL = ScalePolicy("full", 1, (1, 10**9), 1, (1, 10**9), 1, (1, 10**9))

#: Fast preset for unit tests.
TINY = ScalePolicy("tiny", 32, (8, 16), 16, (32, 64), 64, (16, 32))

#: Default benchmark preset (pairs with ProcessorConfig.scaled_default()).
SMALL = ScalePolicy("small", 4, (8, 64), 4, (32, 512), 16, (16, 256))

#: Higher-fidelity preset for the final benchmark runs.
MEDIUM = ScalePolicy("medium", 2, (8, 128), 2, (32, 1024), 8, (16, 512))

POLICIES = {p.name: p for p in (FULL, TINY, SMALL, MEDIUM)}


@dataclass(frozen=True)
class LayerWorkload:
    """Staged-ready operands of one (scaled) CNN layer GEMM."""

    layer_name: str
    nm: tuple[int, int]
    a: NMSparseMatrix      #: structured-sparse weights (scaled + padded)
    b: np.ndarray          #: dense input-feature matrix (scaled + padded)
    original: GemmShape    #: the full-size GEMM of the layer
    scaled: GemmShape      #: the simulated GEMM (after padding)

    @property
    def scale_factor(self) -> float:
        """MAC-count ratio between the original and simulated GEMMs."""
        return self.original.macs / self.scaled.macs


def padded_gemm(gemm: GemmShape, n: int, m: int,
                policy: ScalePolicy = SMALL,
                tile_rows: int = 16) -> GemmShape:
    """The simulated GEMM shape of ``gemm`` after scaling and padding.

    The single source of the padding arithmetic (k padded to a multiple
    of ``lcm(tile_rows, m)``, n to a multiple of VL): it computes what
    :func:`make_workload` materialises, without building the operand
    arrays — used by the experiment engine to compute scale factors for
    jobs whose arrays live in worker processes.
    """
    scaled = policy.scale(gemm)
    lcm = int(tile_rows * m // np.gcd(tile_rows, m))
    return GemmShape(rows=scaled.rows, k=_round_up(scaled.k, lcm),
                     n=_round_up(scaled.n, _VL))


def layer_seed(layer_name: str, n: int, m: int) -> int:
    """Deterministic per-layer RNG seed (stable across runs/processes)."""
    return zlib.crc32(f"{layer_name}:{n}:{m}".encode())


def check_workload(rows: int, k: int, n_cols: int, n: int, m: int) -> None:
    """Raise :class:`WorkloadError` unless an ``n:m`` GEMM of ``rows x k
    x n_cols`` is a workload :func:`make_workload` can build."""
    if min(rows, k, n_cols, n, m) < 1 or n > m:
        raise WorkloadError(
            f"bad workload request rows={rows} k={k} n_cols={n_cols} "
            f"{n}:{m}")


def make_workload(rows: int, k: int, n_cols: int, n: int, m: int,
                  rng: np.random.Generator,
                  tile_rows: int = 16) -> tuple[NMSparseMatrix, np.ndarray]:
    """Synthesize (A, B) for an arbitrary GEMM shape.

    ``k`` is padded up to a multiple of ``lcm(tile_rows, m)`` (so the
    kernels' k-tiling divides evenly) and ``n_cols`` to a multiple of
    VL=16 — the arithmetic lives in :func:`padded_gemm` (FULL policy =
    no scaling).  Padded columns of A hold explicit zero blocks; padded
    B rows/columns are zero.
    """
    check_workload(rows, k, n_cols, n, m)
    padded = padded_gemm(GemmShape(rows=rows, k=k, n=n_cols), n, m,
                         policy=FULL, tile_rows=tile_rows)
    k_pad, n_pad = padded.k, padded.n
    dense = np.zeros((rows, k_pad), dtype=np.float32)
    dense[:, :k] = rng.standard_normal((rows, k)).astype(np.float32)
    # keep pruned survivors away from zero so nnz is exact
    dense[dense != 0] += np.sign(dense[dense != 0]) * 0.05
    a = prune_to_nm(dense, n, m)
    b = np.zeros((k_pad, n_pad), dtype=np.float32)
    b[:k, :n_cols] = rng.standard_normal((k, n_cols)).astype(np.float32)
    return a, b


def make_layer_workload(layer: ConvLayer, n: int, m: int,
                        policy: ScalePolicy = SMALL,
                        tile_rows: int = 16) -> LayerWorkload:
    """Build the simulated workload of one CNN layer at ``n:m`` sparsity."""
    original = layer.gemm
    scaled = policy.scale(original)
    rng = np.random.default_rng(layer_seed(layer.name, n, m))
    a, b = make_workload(scaled.rows, scaled.k, scaled.n, n, m, rng,
                         tile_rows=tile_rows)
    padded = GemmShape(rows=a.rows, k=a.cols, n=b.shape[1])
    return LayerWorkload(
        layer_name=layer.name, nm=(n, m), a=a, b=b,
        original=original, scaled=padded,
    )
