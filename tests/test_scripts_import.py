"""Every example, benchmark and golden-capture script imports cleanly.

CI checks ``examples/`` and ``benchmarks/`` only with ruff, which does
not resolve imports, so a public name deleted from ``repro`` would show
up only when someone ran the script; a capture script would show it
only when its golden file is next regenerated.  Importing each file by
path (its ``main`` stays behind the ``__name__`` guard) catches that
here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = (sorted(ROOT.glob("examples/*.py"))
           + sorted(ROOT.glob("benchmarks/bench_*.py"))
           + sorted(ROOT.glob("tests/data/capture_*.py")))


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports(path, monkeypatch):
    # benches put their own directory on sys.path for ``common``
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        f"_script_{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
