"""Legacy setup shim: enables `pip install -e . --no-use-pep517` on
environments without the `wheel` package (offline build isolation)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.25", "scipy>=1.10", "networkx>=3.0"],
)
