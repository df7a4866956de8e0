"""Exact computation of multiplicative characteristic classes on Hilbert
schemes of points on the affine plane, in the creation-operator basis, plus
the cup product of the associated cohomology rings."""

from .exact import ParamContext, ParamPoly
from .fock import FockElement, exp_linear, hilb_unit
from .hilbert import (
    TANGENT,
    TAUTOLOGICAL,
    builtin_f,
    chern_f,
    cprime_pow_f,
    cup,
    cup_basis,
    cup_nilpotent,
    hilbert_class,
    lemma_b1,
    oracle_top_tangent,
    oracle_top_taut,
    p_n_series,
    segre_f,
    sqrt_todd_f,
    tangent_g,
    taut_g,
)
from .series import TruncatedSeries, lagrange_g

__version__ = "0.1.0"
