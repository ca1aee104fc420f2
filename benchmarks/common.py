"""Shared configuration for the benchmark harness.

Every ``bench_*.py`` file regenerates one table/figure of the paper (or
one ablation) and prints the rendered result alongside the
pytest-benchmark timing.  Set ``REPRO_BENCH_POLICY`` to ``tiny`` /
``small`` (default) / ``medium`` to trade fidelity against runtime.

Simulation-backed benches run through the experiment engine:
``REPRO_JOBS`` selects the worker-process count (``0`` = one per CPU)
and ``REPRO_NO_CACHE`` disables the on-disk result cache — with the
cache enabled (the default), a re-run of the suite re-renders every
artifact without re-simulating.  ``REPRO_BACKEND`` selects the timing
backend (``detailed``/``batch-replay``); the backend is part of
every job's cache identity, so switching backends never mixes results.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.arch import ProcessorConfig
from repro.eval.engine import ExperimentEngine, atomic_write_text, set_engine
from repro.nn import POLICIES

RESULTS_DIR = Path(__file__).parent / "results"


def policy_from_env():
    """The scale policy selected via REPRO_BENCH_POLICY (default: small)."""
    name = os.environ.get("REPRO_BENCH_POLICY", "small").lower()
    if name not in POLICIES:
        raise ValueError(
            f"REPRO_BENCH_POLICY={name!r} unknown; pick one of "
            f"{sorted(POLICIES)}")
    return POLICIES[name]


def config_from_env() -> ProcessorConfig:
    """Simulated processor used for scaled benchmark runs."""
    if policy_from_env().name == "full":
        return ProcessorConfig.paper_default()
    return ProcessorConfig.scaled_default()


def setup_engine() -> ExperimentEngine:
    """Install the experiment engine selected by the environment
    (``REPRO_JOBS`` / ``REPRO_NO_CACHE``) as the process default."""
    engine = ExperimentEngine.from_env()
    set_engine(engine)
    return engine


def publish(name: str, text: str, capsys=None) -> None:
    """Print a rendered result (bypassing capture) and archive it.

    The archive write is atomic (temp file + rename into
    ``RESULTS_DIR``), so concurrent engine workers or parallel bench
    processes can never interleave partial files.
    """
    banner = f"\n{'=' * 72}\n{text}\n{'=' * 72}"
    if capsys is not None:
        with capsys.disabled():
            print(banner)
    else:  # pragma: no cover - fallback
        print(banner)
    atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")
