"""Request pools of the four workloads and the seeded request sequences drawn
from them.

A request is the argv list of one `hilbclass` command.  The pool of a
workload is every request it can issue; `golden.json` records the expected
output of every member and its cost, the median time of three cold runs
in reference seconds (see `calibrate.py`) at the commit that recorded it.
The pool, ordered by that cost, is cut into strata of neighbouring costs.
One round draws one request from every stratum and shuffles the round, so
every round spans the whole range of costs in the same way whatever the
seed, and the medians and tails of different seeds compare.  The seed still picks the classes, exponents,
coefficient lists and pairs, and their order.

The `cup` pool is every basis pair of ranks 5 to 8.  Strata are drawn
without replacement, so no pair repeats until its whole stratum has been
used.
"""

from __future__ import annotations

import functools
import random

from checks import load_golden

WORKLOADS = ("gseries", "class", "cup", "verify")

# cprime-pow exponents: non-integer, both signs, of similar cost.  argparse
# reads "--r -3/2" as two options, so the exponent is joined with "=".
R_VALUES = ("-5/2", "-3/2", "-1/2", "2/3", "3/2", "5/2")

# custom defining series: dense, eight coefficients of small height.
CUSTOM_F = (
    "1,1/2,-1/3,2/3,-1,1/5,3/4,-2/7",
    "1,-2/3,1/4,1,-1/2,2/5,-3/4,1/6",
    "1,1,-1/2,1/3,-1/4,1/5,-1/6,1/7",
    "1,-1/5,3/2,-2/3,1/2,-1,2/7,-1/3",
)

TARGETS = ("tangent", "tautological")

VERIFY_SUITES = ("appendix", "examples", "oracle", "ring", "crossoracle")

CUP_RANKS = (5, 6, 7, 8)

# Strata per workload, so that a 20-second run holds at least two rounds.
# A stratum holds 2-3 gseries requests, 4 class requests or 9-10 cup pairs:
# a cup pair repeats only after 9 rounds of 51.
STRATA = {"gseries": 20, "class": 39, "cup": 51}


def class_variants(kind: str) -> list[list[str]]:
    """The class arguments of one class kind, as argv fragments."""
    if kind == "cprime-pow":
        return [["cprime-pow", f"--r={r}"] for r in R_VALUES]
    if kind == "custom":
        return [["custom", "--f", f] for f in CUSTOM_F]
    return [[kind]]


# gseries: (class kind, target, order).  The sparse Chern series and the
# dense custom ones reach order 121; the heavier kinds stop lower, so that no
# request runs much past half a second and a run holds several rounds.
GSERIES_REQUESTS = (
    ("chern", "tangent", 121), ("chern", "tangent", 61),
    ("chern", "tautological", 121), ("chern", "tautological", 61),
    ("segre", "tangent", 81), ("segre", "tangent", 41),
    ("segre", "tautological", 61), ("segre", "tautological", 41),
    ("sqrt-todd", "tangent", 61), ("sqrt-todd", "tangent", 41),
    ("sqrt-todd", "tautological", 51), ("sqrt-todd", "tautological", 41),
    ("cprime-pow", "tangent", 61), ("cprime-pow", "tangent", 41),
    ("cprime-pow", "tautological", 51), ("cprime-pow", "tautological", 41),
    ("custom", "tangent", 121), ("custom", "tangent", 61),
    ("custom", "tautological", 81), ("custom", "tautological", 41),
)

CLASS_KINDS = ("chern", "segre", "sqrt-todd", "cprime-pow", "custom")

# class: (target, weight, output filter), each for every class.  A filtered
# request still computes the whole class but prints one weight (weight - 4)
# or one degree (weight // 2) of it.
CLASS_REQUESTS = tuple(
    (target, weight, flt)
    for target in TARGETS
    for weight, flt in ((16, None), (20, None), (24, None), (28, None),
                        (22, "weight-only"), (26, "degree"))
)


def _gseries_pool() -> list[list[str]]:
    return [
        ["gseries", variant[0], target, "--order", str(order)] + variant[1:]
        for kind, target, order in GSERIES_REQUESTS
        for variant in class_variants(kind)
    ]


def _class_pool() -> list[list[str]]:
    pool = []
    for target, weight, flt in CLASS_REQUESTS:
        options = [target, "--weight", str(weight)]
        if flt == "weight-only":
            options += ["--weight-only", str(weight - 4)]
        elif flt == "degree":
            options += ["--degree", str(weight // 2)]
        pool.extend(
            ["class", variant[0]] + options + variant[1:]
            for kind in CLASS_KINDS
            for variant in class_variants(kind)
        )
    return pool


def _partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in reverse-lexicographic order (the benchmark's own
    enumeration, so the pool does not depend on the program)."""
    if n == 0:
        return [()]
    if max_part is None:
        max_part = n
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in _partitions(n - first, first))
    return out


def _fmt_partition(parts) -> str:
    return "[" + ",".join(str(p) for p in parts) + "]"


def cup_pool() -> list[list[str]]:
    """Every unordered basis pair (diagonal included) of ranks 5..8."""
    pool = []
    for n in CUP_RANKS:
        parts = _partitions(n)
        for i, a in enumerate(parts):
            for b in parts[i:]:
                pool.append(["cup", _fmt_partition(a), _fmt_partition(b)])
    return pool


def pool(workload: str) -> list[list[str]]:
    """Every request the workload can issue."""
    if workload == "gseries":
        return _gseries_pool()
    if workload == "class":
        return _class_pool()
    if workload == "cup":
        return cup_pool()
    if workload == "verify":
        return [["verify", suite] for suite in VERIFY_SUITES]
    raise ValueError(f"unknown workload {workload!r}")


@functools.cache
def recorded_costs() -> dict[str, float]:
    return {key: entry["cost_s"] for key, entry in load_golden().items()}


def strata(workload: str) -> list[list[list[str]]]:
    """The pool ordered by recorded cost, cut into STRATA[workload] runs of
    neighbouring costs; every verify suite is a stratum of its own."""
    if workload == "verify":
        return [[argv] for argv in pool(workload)]
    costs = recorded_costs()
    ordered = sorted(pool(workload), key=lambda argv: (costs[request_key(argv)], argv))
    k = STRATA[workload]
    return [ordered[len(ordered) * i // k: len(ordered) * (i + 1) // k] for i in range(k)]


def request_key(argv) -> str:
    return " ".join(argv)


def rounds(workload: str, seed: int):
    """Endless seeded sequence of rounds, each a list of requests.

    Every stratum is drawn from a seeded deck of its candidates, reshuffled
    when used up, so that over a run the candidates of a stratum come up
    evenly whatever the seed.
    """
    rng = random.Random(f"{workload}/{seed}")
    layers = strata(workload)
    decks = [[] for _ in layers]
    while True:
        batch = []
        for deck, stratum in zip(decks, layers):
            if not deck:
                deck.extend(stratum)
                rng.shuffle(deck)
            batch.append(list(deck.pop()))
        rng.shuffle(batch)
        yield batch
