"""Shared helpers of the benchmark: locations, the pinned environment,
provenance, percentiles, process readings and reference comparison.

Nothing here imports ``repro`` at module level, so the helpers (and
their tests) work before the source tree is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Build outputs and per-run scratch space, inside the checkout.
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference"

#: A timing percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Every counter of ``ExecutionStats`` except ``cycles`` and ``extra``:
#: a timing backend that models memory must reproduce all of them.
EXACT_COUNTERS = (
    "instructions", "scalar_instructions", "vector_instructions",
    "vector_loads", "vector_stores", "scalar_loads", "scalar_stores",
    "vector_to_scalar_moves", "vindexmac_count", "vfmacc_count",
    "slide_count", "branches", "l1d_hits", "l1d_misses", "l2_hits",
    "l2_misses", "l2_writebacks", "dram_reads", "dram_writes",
    "dram_row_hits", "dram_row_misses",
)

#: ``stats.extra`` keys that are host bookkeeping, not results.
HOST_EXTRA = ("wall_seconds",)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def pinned_env(cache_dir: Path, jobs: int, tmpdir: Path) -> dict:
    """The environment of every program process: no ambient
    ``REPRO_*`` knob survives, the cache is ``cache_dir`` and the
    worker count is ``jobs``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_JOBS"] = str(jobs)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    return env


def clear_repro_env() -> None:
    """Drop every ``REPRO_*`` variable from this process."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_rank(n: int, want: float = 99.0) -> float:
    """The tail percentile to report for ``n`` samples: ``want``, or
    the highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it, never below the median."""
    if n <= 0:
        raise ValueError("no samples")
    best = math.floor(1000.0 * (1.0 - MIN_BEYOND / n)) / 10.0
    return max(50.0, min(want, best))


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def proc_status_kb(pid: int, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (Linux ``/proc``; empty elsewhere)."""
    children: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children.extend(int(p) for p in handle.read().split())
        except (OSError, ValueError):
            continue
    return children


def peak_rss_mb(pids) -> float:
    """Summed peak resident memory (``VmHWM``) of ``pids``, in MB."""
    return sum(proc_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def cpu_seconds(pids) -> float:
    """User + system CPU seconds ``pids`` have consumed so far, all
    their threads included (0 for a process that is gone)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        except (OSError, ValueError, IndexError):
            continue
    return total / os.sysconf("SC_CLK_TCK")


def dir_usage(root: Path) -> tuple[int, int]:
    """(files, bytes) under ``root``."""
    files = size = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            try:
                size += os.stat(os.path.join(dirpath, name)).st_size
                files += 1
            except OSError:
                continue
    return files, size


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def source_digest() -> str:
    """sha256 over every file of the program's source tree."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int | None, traced: bool) -> dict:
    """Where a result came from.  The git fields are null outside a
    git work tree (the checkout must itself be the top level)."""
    import numpy

    from repro.analytic.calibration import active_digest

    sha = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == ROOT:
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "seed": seed,
        "calibration_digest": active_digest(),
        "traced": traced,
    }


# ----------------------------------------------------------------------
# reference comparison
# ----------------------------------------------------------------------
def result_stats(stats: dict) -> dict:
    """``stats`` without host bookkeeping (what must repeat exactly)."""
    extra = {k: v for k, v in stats.get("extra", {}).items()
             if k not in HOST_EXTRA}
    return {**stats, "extra": extra}


def check_against_detailed(got: dict, ref: dict,
                           tolerance: float) -> tuple[bool, float]:
    """Compare one functional run with its ``detailed`` reference.

    Returns ``(ok, relative_cycle_error)``: every counter in
    :data:`EXACT_COUNTERS` must match exactly and the cycles must lie
    within ``tolerance`` (a share) of the reference.
    """
    error = abs(got["cycles"] - ref["cycles"]) / ref["cycles"]
    exact = all(got[name] == ref[name] for name in EXACT_COUNTERS)
    return exact and error <= tolerance, error


def check_exact(got: dict, ref: dict) -> bool:
    """Bit-for-bit equality of two results, host bookkeeping aside."""
    return result_stats(got) == result_stats(ref)
