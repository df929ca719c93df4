"""Run the doctests embedded in module and class docstrings.

Docstring examples are part of the public documentation; this keeps
them executable truth rather than decoration.
"""

import doctest

import pytest

import repro.core.regions
import repro.sim.engine
import repro.sim.rng

MODULES = [
    repro.sim.rng,
    repro.sim.engine,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
