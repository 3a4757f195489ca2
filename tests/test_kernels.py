"""Differential tests of the exact cyclic convolution against the oracle."""

import random

import numpy as np
import pytest

from solfree import kernels

from oracles import convolve_cyclic as oracle_convolve


def _vector(rng, n, bits, signed):
    low = -(2**bits) if signed else 0
    return [rng.randrange(low, 2**bits) for _ in range(n)]


def _is_wide(a, b):
    return len(a) * max(map(abs, a)) * max(map(abs, b)) >= 2**62


# (value bits of a, of b, signed, wide): wide means the entry bound
# n * max|a| * max|b| reaches 2^62, so the limb branch runs
REGIMES = {
    "int64": (20, 20, False, False),
    "int64_signed": (20, 20, True, False),
    "limb": (40, 35, False, True),
    "limb_signed": (40, 35, True, True),
    "limb_signed_bigint": (130, 70, True, True),
    "limb_one_narrow": (100, 1, True, True),
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_matches_oracle(regime):
    bits_a, bits_b, signed, wide = REGIMES[regime]
    rng = random.Random(f"kernels-{regime}")
    for n in (1, 2, 3, 7, 16, 61):
        for _ in range(4):
            a = _vector(rng, n, bits_a, signed)
            b = _vector(rng, n, bits_b, signed)
            a[0] = 2**bits_a - 1  # pin the width so the regime is certain
            b[-1] = -(2**bits_b) if signed else 2**bits_b - 1
            assert _is_wide(a, b) == wide
            assert kernels.convolve_cyclic(a, b) == oracle_convolve(a, b)


def test_numpy_int64_inputs_do_not_wrap():
    # n * max|a| * max|b| = 2^72 wraps to 0 in int64 arithmetic
    a = np.full(4, 2**40)
    b = np.full(4, 2**30)
    assert kernels.convolve_cyclic(a, b) == [4 * 2**70] * 4


def test_numpy_int64_extremes():
    info = np.iinfo(np.int64)
    a = np.array([info.min, info.max, -1, 0, 5], dtype=np.int64)
    b = np.array([info.max, 3, info.min, 7, -2], dtype=np.int64)
    expected = oracle_convolve([int(v) for v in a], [int(v) for v in b])
    assert kernels.convolve_cyclic(a, b) == expected


def test_results_are_python_ints():
    out = kernels.convolve_cyclic(np.array([1, 2, 3]), np.array([4, 5, 6]))
    assert out == oracle_convolve([1, 2, 3], [4, 5, 6])
    assert all(type(v) is int for v in out)


@pytest.mark.parametrize("zero_first", [True, False])
def test_zero_operand_with_wide_other(zero_first):
    zeros = [0] * 5
    wide = [2**100, -(2**90), 3, 0, -1]
    a, b = (zeros, wide) if zero_first else (wide, zeros)
    assert kernels.convolve_cyclic(a, b) == [0] * 5


def test_empty_and_single():
    assert kernels.convolve_cyclic([], []) == []
    assert kernels.convolve_cyclic([-3], [7]) == [-21]
    assert kernels.convolve_cyclic([2**80], [-(2**70)]) == [-(2**150)]


def test_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        kernels.convolve_cyclic([1, 2], [1, 2, 3])
