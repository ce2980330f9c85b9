"""Legacy setup shim.

The environment this reproduction is developed in has no network access and no
``wheel`` package, so PEP 517 editable installs cannot build.  This setup.py
lets ``pip install -e . --no-use-pep517 --no-build-isolation`` (setuptools
``develop`` mode) work offline.  This file is the only package metadata.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
