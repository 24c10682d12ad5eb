"""Run the docstring examples of the analytical layers as tests.

CI also runs ``pytest --doctest-modules`` over these modules directly;
this wrapper keeps the examples honest under the plain tier-1 invocation
(``pytest -q``) so a drive-by docstring edit cannot silently rot.
"""

import doctest

import pytest

import repro.caching.onpath
import repro.caching.placement
import repro.contacts.rates
import repro.core.hierarchy
import repro.core.replication
import repro.experiments.runner
import repro.mobility.levy
import repro.scenarios.grid
import repro.sim.soa
import repro.theory.model
import repro.theory.validate
import repro.workloads.cycles

MODULES = [
    repro.core.replication,
    repro.contacts.rates,
    repro.experiments.runner,
    repro.theory.model,
    repro.theory.validate,
    repro.mobility.levy,
    repro.workloads.cycles,
    repro.caching.onpath,
    repro.caching.placement,
    repro.scenarios.grid,
    repro.core.hierarchy,
    repro.sim.soa,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctests"
    assert results.failed == 0
