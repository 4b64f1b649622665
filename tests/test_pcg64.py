"""The member-set shuffle is numpy's `default_rng(seed).permutation(n)`,
computed without `numpy.random`; numpy.random is the oracle here."""

import numpy as np
import pytest

from qms22._pcg64 import permutation

# seeds of one to several 32-bit words, past the four-word pool too
SEEDS = [0, 1, 2, 42, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64,
         2 ** 70 + 3, 2 ** 128 + 5, 2 ** 200 + 7, 10 ** 40]
SIZES = [0, 1, 2, 3, 7, 64, 65, 257, 1000, 3339]


@pytest.mark.parametrize("seed", SEEDS)
def test_numpys_permutation(seed):
    for n in SIZES:
        want = np.random.default_rng(seed).permutation(n).tolist()
        assert permutation(seed, n) == want, n


def test_numpys_permutation_random_seeds_and_sizes():
    rng = np.random.default_rng(19)
    for _ in range(100):
        seed = int(rng.integers(0, 2 ** 62)) >> int(rng.integers(0, 62))
        n = int(rng.integers(0, 600))
        want = np.random.default_rng(seed).permutation(n).tolist()
        assert permutation(seed, n) == want, (seed, n)


def test_numpy_integer_seed():
    assert permutation(np.int64(7), 50) == permutation(7, 50)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        permutation(-1, 5)
