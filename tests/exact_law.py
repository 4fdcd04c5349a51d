"""The exact-law check shared by the one-step law tests (Gate B)."""
import collections
import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps


def hypergeometric_law(units, k):
    """The multivariate hypergeometric pmf of how many of ``k`` units, picked
    uniformly without replacement, fall to each owner of ``units``:
    prod_i C(n_i, k_i) / C(N, k)."""
    ways = math.comb(sum(units), k)
    return {r: math.prod(map(math.comb, units, r)) / ways
            for r in itertools.product(*(range(n + 1) for n in units)) if sum(r) == k}


def assert_follows_law(outcomes, law):
    """Assert that the hashable ``outcomes`` follow ``law``, an exact pmf
    mapping each outcome to its probability.

    Every outcome must lie in the law's support, and the law must sum to 1.
    The outcomes are then counted against the law by a chi-square test:
    outcomes expected fewer than 5 times are pooled into one cell, and the
    p-value must exceed 1e-3, a threshold fixed in advance.
    """
    observed = collections.Counter(outcomes)
    support = [k for k, p in law.items() if p > 0]
    assert set(observed) <= set(support)
    assert sum(law[k] for k in support) == pytest.approx(1.0)
    expected = sum(observed.values()) * np.array([law[k] for k in support])
    counts = np.array([observed[k] for k in support])
    small = expected < 5
    if small.any():
        counts = np.append(counts[~small], counts[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    assert sps.chisquare(counts, expected).pvalue > 1e-3
