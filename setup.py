"""Setuptools metadata for the ``repro`` package.

This file is the package's only build configuration.  The version is read
from ``src/repro/_version.py`` without importing the package, the code lives
under ``src/``, and the runtime dependencies are NumPy and SciPy (the LP
baseline, :mod:`repro.baselines.lp`, imports SciPy).  Install with
``pip install -e .``, or, where PEP-517 editable builds are unavailable
(offline machines without the ``wheel`` package), with
``pip install -e . --no-use-pep517 --no-build-isolation``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "_version.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _VERSION_FILE.read_text(),
                     re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
