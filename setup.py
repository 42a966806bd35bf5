"""Package metadata for minimal offline environments.

There is deliberately no ``pyproject.toml``: the target environments are
offline machines where pip's PEP 517/660 paths (which need the ``wheel``
package) are not always available, so everything lives in the legacy
``setup.py`` that ``pip install -e .`` can always fall back to.

The project has **no dependencies** — every experiment and the whole
engine stack run on the standard library (the optional native tier needs a
C compiler on the machine, not a Python package).
"""

from setuptools import find_packages, setup

from pathlib import Path

_version = "0.0.0"
for _line in (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text().splitlines():
    if _line.startswith("__version__"):
        _version = _line.split("=")[1].strip().strip("\"'")
        break

setup(
    name="repro",
    version=_version,
    description="Reproduction of the paper's microarchitectural evaluation",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
)
