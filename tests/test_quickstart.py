"""The package Quick start runs as written.

The docstrings of :mod:`repro` and :mod:`repro.core.model` show the HAP
facade end to end (build, the paper's lambda-bar, Solution 2, simulate);
pytest does not collect doctests here, so this runs them.
"""

from __future__ import annotations

import doctest

import pytest

import repro
import repro.core.model


@pytest.mark.parametrize("module", [repro, repro.core.model], ids=lambda m: m.__name__)
def test_quick_start_examples_pass(module):
    result = doctest.testmod(module)
    assert result.attempted >= 5
    assert result.failed == 0
