"""Deep tier: both d2 routes agree at every twist of n = 13 and n = 17.

These sizes sit past the Tier-1 run (every twist to n = 11, a sample at
n = 13), so the directory is outside the ``testpaths`` of pyproject.toml.  Run
it with ``PYTHONPATH=src python -m pytest -q deeptests``.
"""

import pytest

from chowkit.tate import d2_matrix, d2_matrix_from_chern, max_weight


@pytest.mark.parametrize("n", [13, 17])
def test_d2_routes_agree_at_every_twist(n):
    for q in range(1, max_weight(n) + 1):
        assert d2_matrix(n, q).entries == d2_matrix_from_chern(n, q).entries, (n, q)
