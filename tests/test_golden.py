"""Golden CLI outputs: the exit status and the SHA-256 of stdout of a fixed
list of requests that the benchmark pools do not hold, recorded before the
series kernel moved to integer numerators; the two class requests with an
empty and a vacuum-only payload were recorded before the class expansion
became a depth-first walk with its own record writer; the three gseries
requests at orders 51-121, the orders the benchmark pool reaches, were
recorded before the Lagrange power loop kept `F^m` on reduced integer
numerators from one step to the next; the two sqrt-Todd series at orders
161 and 241, up to the `--order` ceiling, were recorded before the Lagrange
solve moved to baby-step/giant-step powers; the two class requests with
`--degree` at weight 18 were recorded before the class walk moved to
per-part reduced fractions, emitted its terms in output order and cut
branches by `--degree`.  Any change to a byte of these outputs fails here,
so determinism and exactness are enforced rather than assumed.

Every request of the benchmark pools is replayed from `bench/golden.json`,
read only, one test per workload, against its recorded exit status and
digest.  The outputs once pinned in both places are pinned there alone:
the five `verify` suites, three cups at ranks 6 and 8, the dense custom
tautological class at weight 16, the sqrt-Todd tautological class at
weight 20, and five Segre and sqrt-Todd series at orders 41 and 81.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hilbclass.cli import main

CUSTOM_F = "1,1/2,-1/3,2/3,-1,1/5"
DENSE_F = "1,1/2,-1/3,2/3,-1,1/5,3/4,-2/7"

GOLDEN = [
    (("gseries", "chern", "tangent", "--order", "41"), 0,
     "6a8cb150ba30d6daf0e4cdbd120972afbb5c8bf41734b1850332bbde3465e6fd"),
    (("gseries", "chern", "tautological", "--order", "41"), 0,
     "cd371e298b71b93e94c0a97115ee7d25248d9ff5c855021f2511c68919c878a0"),
    (("gseries", "cprime-pow", "tangent", "--r=-3/2", "--order", "41"), 0,
     "1867e76b3672418024efa840efe4c5aaae5fa3e7350226f5313ef99025285813"),
    (("gseries", "cprime-pow", "tautological", "--r=-3/2", "--order", "41"), 0,
     "0e6a8a60233fd1fc13dce06b62ff4f044cba7239a82ffc8e0076bcc68280eeb4"),
    (("gseries", "custom", "tangent", "--f", CUSTOM_F, "--order", "41"), 0,
     "85e2c99c8225f60338968eba939a583888ab78692cc1bc44aed1be2f5c4d137c"),
    # the bench's orders, where numerator growth shows
    (("gseries", "custom", "tangent", "--f", DENSE_F, "--order", "121"), 0,
     "e20016946c3c29a2a37d47d939597ec996558f7872c60df207aafb7a6c3087bc"),
    (("gseries", "sqrt-todd", "tautological", "--order", "61"), 0,
     "c45dde5ff5603fe05a90c77f6232ac16c2049e2d5909299d4268a8b5a7407a0e"),
    (("gseries", "cprime-pow", "tautological", "--r=-5/2", "--order", "51"), 0,
     "dded53df5e959e34f4666b5a4f0cea962c8ce9d2706f08e4d961069f1e861dd7"),
    # the --order ceiling, where the baby-step/giant-step solve moves run time most
    (("gseries", "sqrt-todd", "tangent", "--order", "241"), 0,
     "5768702a2a2c1b8d85ebff9d2f459ca852a31a5a1c543a183158919161326b65"),
    (("gseries", "sqrt-todd", "tautological", "--order", "161"), 0,
     "f6a8e665ad6211e3c4f72a94ad9168d504d8cf10271da9b7fd2941ac83e80057"),
    (("class", "sqrt-todd", "tangent", "--weight", "12"), 0,
     "0e8df0fdd001bc0526f2858dcce05a3ae379ca75bf6a5903b2ef65df54b44244"),
    (("class", "sqrt-todd", "tangent", "--weight", "12", "--weight-only", "10"), 0,
     "e534b3933dfef3ac92f122fd4f574d38541c7d9838bc0a20a6939231d61459fd"),
    (("class", "sqrt-todd", "tangent", "--weight", "12", "--degree", "5"), 0,
     "ea4e3b5cdff7f43600e415ed1fea3dcd30d39d38494a653172b13cdfc02b9c00"),
    # an empty payload
    (("class", "chern", "tangent", "--weight", "3", "--degree", "3"), 0,
     "cf3df40c7c11f055d29d7df264589ebd4a9fc4b82dd5cf5b6453b922ee4d71a7"),
    # the vacuum alone, whose partition is empty
    (("class", "chern", "tangent", "--weight", "4", "--weight-only", "0"), 0,
     "4775381355a2dfed78446c83cea9d5bbe0e874a272a1cbe1cc1782d48f9d60e8"),
    (("class", "cprime-pow", "tautological", "--r=-5/2", "--weight", "18",
      "--degree", "7"), 0,
     "11807e01d3f467acae917f4e3b51b2b0ce22d61c32d6c58e56eb3df4c35eeed8"),
    (("class", "custom", "tangent", "--f", DENSE_F, "--weight", "18",
      "--weight-only", "14", "--degree", "6"), 0,
     "893f6360d72d014d0f9bb6d289fdeddd3919ae8954652e020559fcea63e20454"),
    (("cup", "[2,1]", "[2,1]"), 0,
     "8a9a425364240cd2dbc2c0a91d6b2d3d83c8bf85119d420cde045600e20c6c85"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN],
)
def test_golden_output(capsys, argv, code, digest):
    assert main(list(argv)) == code
    assert _digest(capsys.readouterr().out) == digest


BENCH_GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


@pytest.mark.parametrize("workload", ["gseries", "class", "cup", "verify"])
def test_bench_golden_replay(capsys, workload):
    golden = json.loads(BENCH_GOLDEN.read_text())
    requests = {key: entry for key, entry in golden.items() if key.split()[0] == workload}
    assert requests
    wrong = []
    for key, entry in requests.items():
        code = main(key.split())
        if (code, _digest(capsys.readouterr().out)) != (entry["exit"], entry["sha256"]):
            wrong.append(key)
    assert wrong == []
