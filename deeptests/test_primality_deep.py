"""Deep tier: is_prime against sympy.isprime at every bit length below the
bound where the first 13 prime bases stop proving primality.

Tier-1 checks every n below 200,000 by trial division and a few fixed
pseudoprimes; this file draws seeded odd integers of each bit length up to
that bound.  Run it with ``PYTHONPATH=src python -m pytest -q deeptests``.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from chowkit.exact import is_prime

BOUND = 3_317_044_064_679_887_385_961_981
PER_BIT_LENGTH = 100


def _odd_samples():
    rng = random.Random("chowkit-deep-is-prime")
    for bits in range(2, BOUND.bit_length() + 1):
        low, high = 1 << (bits - 1), min(1 << bits, BOUND)
        for _ in range(PER_BIT_LENGTH):
            yield rng.randrange(low, high) | 1


def test_is_prime_agrees_with_sympy_below_the_bound():
    primes = 0
    for n in _odd_samples():
        verdict = is_prime(n)
        assert verdict == sympy.isprime(n), n
        primes += verdict
    assert primes > 200   # both verdicts are exercised


def test_is_prime_at_the_edges_of_the_bases():
    # The least strong pseudoprime to the first 12 prime bases: 41 exposes it.
    assert not is_prime(318665857834031151167461)
    assert not sympy.isprime(318665857834031151167461)
    with pytest.raises(ValueError):
        is_prime(BOUND)
