"""Packaging of the ``repro`` package, whose sources live under ``src/``.

``pip install .`` installs it.  Where setuptools comes without
``wheel``, PEP 660 editable installs (``pip install -e .``) cannot build
an editable wheel; ``python setup.py develop`` then installs the package
in editable mode instead.  All metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    description="IndexMAC reproduction: an instruction-level RISC-V "
                "vector simulator for structured-sparse matrix multiplies",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.analytic": ["calibration_default.json"]},
    install_requires=["numpy"],
    python_requires=">=3.10",
)
