"""Run the doctest examples embedded in public docstrings."""

import doctest
import importlib

import pytest

# Note: modules are resolved with importlib because some package __init__
# re-exports shadow submodule attributes (e.g. repro.core.skill the function
# vs repro.core.skill the module).
MODULE_NAMES = [
    "repro.analysis.pipeline",
    "repro.core.skill",
    "repro.obs.trace",
    "repro.nids.rule",
    "repro.util.iputil",
    "repro.util.rng",
    "repro.util.stats",
    "repro.util.timeutil",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_doctests(name):
    module = importlib.import_module(name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{name} lost its doctests"
    assert results.failed == 0
