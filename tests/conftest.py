"""Shared test fixtures."""

import pytest

from avgcycles.trigkernel import HarmonicSum


def _series_bilinear(F, G, ell):
    """B_l(F, G) of two _ZoneFields as one HarmonicSum, by termwise series products."""
    out = HarmonicSum()
    for left, right in zip(F.left, G.right[ell]):
        out = out + left * right
    return out


@pytest.fixture
def series_bilinear():
    """The series-product reference for the Gram-matrix contraction of avgcore._quadratic_rf2."""
    return _series_bilinear
