"""Shared fixtures.

The full n <= 13 sweep takes ~20s single-core, so it runs once per
session and every test that needs the classification reuses it.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ricci_halin.enumeration import verify_theorem

from oracles import distinct_halin_graphs


@pytest.fixture(scope="session")
def verification13():
    """Full verified classification up to 13 vertices."""
    return verify_theorem(13)


@pytest.fixture(scope="session")
def classification13(verification13):
    return verification13.result


@pytest.fixture(scope="session")
def halin_reps9():
    """Every distinct generalized Halin graph on <= 9 vertices, all
    curvature signs, one representative per isomorphism class."""
    return list(distinct_halin_graphs(9))
