"""Packaging for the MotherNets reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml`` build isolation) so that
legacy editable installs (``pip install -e .``) work in offline environments
that lack the ``wheel`` package.  The version is the single source of truth in
``src/repro/__init__.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _read_version() -> str:
    text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if not match:
        raise RuntimeError("could not find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-mothernets",
    version=_read_version(),
    description="Reproduction of MotherNets: Rapid Deep Ensemble Learning (MLSys 2020)",
    long_description=(Path(__file__).parent / "README.md").read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy", "orjson"],
    entry_points={"console_scripts": ["repro = repro.__main__:main"]},
)
