"""Tests for the exact coefficient layer: the rational field every
`TruncatedSeries` carries as its `ring`.

Series coefficients are `Fraction`s; the field object is read by the
bench's `series.mul` counter, so it must stay the one shared instance.
"""

from fractions import Fraction

from hilbclass.series import QQ, TruncatedSeries


def test_ring_objects():
    # the one ring object left is the rational field every series carries
    assert (QQ.zero, QQ.one) == (0, 1)
    assert isinstance(QQ.zero, Fraction) and isinstance(QQ.one, Fraction)
    assert TruncatedSeries.one(2).ring is QQ
    assert TruncatedSeries.from_coeffs([1, 2], 4).ring is QQ
