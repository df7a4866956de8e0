"""Exact computation of multiplicative characteristic classes on Hilbert
schemes of points on the affine plane, in the creation-operator basis, plus
the cup product of the associated cohomology rings."""

__version__ = "0.1.0"
