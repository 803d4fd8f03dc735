"""Legacy setup shim — see the note at the top of pyproject.toml."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "P3S: a privacy preserving publish-subscribe middleware "
        "(MIDDLEWARE 2012) — full Python reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
)
