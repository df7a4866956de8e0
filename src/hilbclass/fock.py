"""Finite linear combinations of creation monomials, as plain dicts.

An element is a finite linear combination of monomials q_lambda (one
creation operator per part of the partition lambda, applied to the
vacuum), stored as the dict {lambda: coefficient}: each key a partition
(`check_partition`), each coefficient a nonzero Fraction.  It carries no
weight bound of its own: the class expansion takes its bound N as an
argument, and the cup product keeps one weight n.  The weight-n piece
models the cohomology of the Hilbert scheme of n points on the affine
plane; the algebraic degree of q_lambda is weight(lambda) -
length(lambda).  Every producer keeps the terms in output order, by
weight and then reverse-lexicographically, so a writer iterates them as
stored; dict equality ignores that order.  The one exception is the
expansion the `class` command only prints, a list of its JSON records.
The cup product of such elements lives in :mod:`hilbclass.hilbert`.

`_exp_walk` expands exp(sum_k g_k q_k) by one depth-first walk over the
integer numerators and divisors of the g_k (`hilbert.hilbert_class`
passes those of the exponent series).  It hands each term's key, product
and divisor to the caller's `make` as it reaches the term and returns
what `make` gives in canonical order: (partition, Fraction) pairs for
`hilbert_class`'s dict, or the `class` command's finished JSON records,
so a term is written once.  Every partition is mu + 1^j with mu free of
1s, so the walk visits only such mu and writes each one's terms mu + 1^j,
j >= 1, in one step from a table of the runs 1^j.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def _exp_walk(nums, dens, bound: int, only: int | None, degree: int | None, make,
              label=None) -> list:
    """The terms of exp(sum_k (nums[k] / dens[k]) q_k) of weight at most
    `bound`, or exactly `only`, and of algebraic degree `degree` if given,
    as the list of make(key, product, divisor) in canonical order: `product`
    is the int prod nums[lambda_i], starting from 1, and `divisor` the int
    prod dens[lambda_i] prod m_i!.  The key is label[0] + label[lambda_1] +
    label[lambda_2] + ..., for a table `label` indexed by part up to the
    top weight; by default label[0] is () and label[k] is (k,), so the key
    is the partition.

    A depth-first walk appends parts above 1 in decreasing order, larger
    parts first, drawn from the k with nums[k] nonzero, and each step
    extends its parent's key by one table entry; a part k adds k - 1 to
    the degree, so a branch is cut once its degree passes `degree`.  The
    closing run of 1s is not walked: each node mu with weight left, of
    degree `degree` if given (a run adds none), pushes one entry before its
    children, which writes mu + 1^j for each j the weight left allows (j =
    left alone with `only`) from one table of label[1] * j, nums[1]^j and
    dens[1]^j j!.  It pops after every child's subtree, where a walk with
    parts 1 pops the chain mu + 1, mu + 1 + 1, ... back to back, so the
    order is kept.  Each weight's terms come out reverse-lexicographically
    and one list per weight, joined onto the first, orders the weights.
    """
    top = bound if only is None else only
    cap = top if degree is None else degree
    if label is None:
        label = [()] + [(k,) for k in range(1, top + 1)]
    support = [k for k in range(2, top + 1) if nums[k]]  # increasing
    # key piece, product and divisor of each run 1^j; none if g_1 is 0 (or absent, at top 0)
    runs = [(label[1] * j, nums[1] ** j, dens[1] ** j * factorial(j))
            for j in range(1, top + 1)] if top and nums[1] else []
    buckets = [[] for _ in range(top + 1)]
    # key, last support index allowed, weight left, degree, product, divisor, last run;
    # a last run of None marks the entry that writes the key's runs of 1s
    stack = [(label[0], len(support) - 1, top, 0, 1, 1, 0)]
    while stack:
        key, last, left, deg, c, d, run = stack.pop()
        if run is None:  # key + 1^j into bucket top - left + j: every j, or j = left alone
            skip = 0 if only is None else left - 1
            for bucket, (piece, a, b) in zip(buckets[top - left + 1 + skip:], runs[skip:]):
                bucket.append(make(key + piece, c * a, d * b))
            continue
        if (only is None or left == 0) and (degree is None or deg == degree):
            buckets[top - left].append(make(key, c, d))
        if left and runs and (degree is None or deg == degree):  # pops after the children
            stack.append((key, last, left, deg, c, d, None))
        for i in range(last + 1):  # pushed in increasing order: the largest pops first
            k = support[i]
            if k > left or deg + k - 1 > cap:
                break
            m = run + 1 if i == last else 1
            stack.append((key + label[k], i, left - k, deg + k - 1, c * nums[k], d * dens[k] * m, m))
    terms = buckets[0]
    for bucket in buckets[1:]:
        terms += bucket
    return terms


def hilb_unit(n: int) -> dict:
    """The cohomological unit of the weight-n piece: q_{1^n} / n!."""
    return {(1,) * n: Fraction(1, factorial(n))}
