"""Packaging for the HyRec reproduction.

All metadata is here: ``pip install -e . --no-build-isolation`` (or
``python setup.py develop``) installs the ``repro`` package from
``src/``.  Runtime dependency: numpy.
"""

from setuptools import find_packages, setup

setup(
    name="hyrec-repro",
    version="1.0.0",
    description="HyRec: leveraging browsers for scalable recommenders (reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
