"""Deep tier: schur_product on Gr(6,12) against counted Littlewood-Richardson
tableaux.

Tier-1 compares every pair on Gr(3,6) and Gr(4,8) and a sample on Gr(5,10);
this file samples seeded pairs on Gr(6,12).  The tableau oracle is read from
``perfbench/oracles.py`` without importing perfbench as a package.  Run it with
``PYTHONPATH=src python -m pytest -q deeptests``.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from chowkit.schubert import GrChowClass, box_partitions, schur_product

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


def _lr_coefficient():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles.lr_coefficient


def _pairs(count=24):
    """Seeded pairs of partitions in the 6 x 6 box with lam inside the
    complement of mu, lam_i + mu_(7-i) <= 6, so that their product is not 0."""
    rng = random.Random("chowkit-deep-lr-gr612")
    partitions = box_partitions(6, 6)
    pairs = []
    while len(pairs) < count:
        lam, mu = rng.choice(partitions), rng.choice(partitions)
        padded = list(lam) + [0] * (6 - len(lam)), list(mu) + [0] * (6 - len(mu))
        if all(a + b <= 6 for a, b in zip(padded[0], reversed(padded[1]))):
            pairs.append((lam, mu))
    return pairs


@pytest.mark.parametrize("lam, mu", _pairs())
def test_schur_product_matches_lr_tableaux_on_gr612(lam, mu):
    lr_coefficient = _lr_coefficient()
    got = schur_product(GrChowClass.schubert(6, 12, lam), GrChowClass.schubert(6, 12, mu))
    size = sum(lam) + sum(mu)
    expected = GrChowClass(6, 12, size, {nu: lr_coefficient(lam, mu, nu)
                                         for nu in box_partitions(6, 6, size)})
    assert not got.is_zero
    assert got == expected, (lam, mu)
