"""Packaging metadata for the reproduction.

numpy is the one runtime dependency: the frozen CSR backend runs its
peel kernels as numpy passes over the CSR arrays
(``src/repro/graph/kernels.py``).  The rest of the package needs only
the standard library.
"""

from setuptools import find_packages, setup

setup(
    name="repro-dccs",
    version="0.8.0",
    description=(
        "Reproduction of diversified coherent d-core search on "
        "multi-layer graphs (ICDE'18)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=["numpy"],
)
