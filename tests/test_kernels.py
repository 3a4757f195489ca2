"""Differential tests of the exact cyclic convolution against the oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solfree import kernels

from oracles import convolve_cyclic as oracle_convolve


def _vector(rng, n, bits, signed):
    low = -(2**bits) if signed else 0
    return [rng.randrange(low, 2**bits) for _ in range(n)]


def _is_wide(a, b):
    return len(a) * max(map(abs, a)) * max(map(abs, b)) >= 2**62


def _transform_length(n):
    return n if n & (n - 1) == 0 else 1 << (2 * n - 2).bit_length()


def _one_digit_edge(n):
    """Largest A for which entries of size A need one digit per operand."""
    size = _transform_length(n)
    lo, hi = 1, 2**53
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if kernels._digit_plan(n, size, mid, mid)[1:] == (1, 1):
            lo = mid
        else:
            hi = mid
    return lo


# (value bits of a, of b, signed, wide): wide means the entry bound
# n * max|a| * max|b| reaches 2^62; such inputs need several FFT digits
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


def test_numpy_uint64_inputs_keep_their_values():
    a = np.array([2**64 - 1, 1, 0], dtype=np.uint64)
    b = np.array([1, 2, 3], dtype=np.uint64)
    expected = oracle_convolve([int(v) for v in a], [int(v) for v in b])
    assert kernels.convolve_cyclic(a, b) == expected


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


# n = 2^k (the transform is cyclic as it is), 2^k + 1 (the longest padding)
# and a prime
LENGTHS = (256, 257, 251)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("past", [0, 1])
def test_all_maximal_digits_at_the_one_digit_edge(n, past):
    size = _transform_length(n)
    edge = _one_digit_edge(n)
    top = edge + past
    assert kernels._digit_plan(n, size, top, top)[1:] == ((1, 1) if not past else (2, 2))
    rng = random.Random(f"edge-{n}-{past}")
    a = [top] * n
    b = [rng.choice((-top, top)) for _ in range(n)]
    assert kernels.convolve_cyclic(a, b) == oracle_convolve(a, b)
    assert kernels.convolve_cyclic(b, b) == oracle_convolve(b, b)


@pytest.mark.parametrize("n", LENGTHS + (1, 2, 4, 5, 1024))
@pytest.mark.parametrize("bits", [1, 8, 21, 33, 64])
def test_transform_lengths(n, bits):
    rng = random.Random(f"length-{n}-{bits}")
    a = _vector(rng, n, bits, signed=True)
    b = _vector(rng, n, bits, signed=False)
    assert kernels.convolve_cyclic(a, b) == oracle_convolve(a, b)


@pytest.mark.parametrize("bits", [1, 21, 100])
def test_squaring_matches_distinct_operands(bits):
    rng = random.Random(f"square-{bits}")
    a = _vector(rng, 97, bits, signed=True)
    expected = oracle_convolve(a, a)
    assert kernels.convolve_cyclic(a, a) == expected
    assert kernels.convolve_cyclic(a, list(a)) == expected
    assert kernels.convolve_cyclic(np.array(a, dtype=object), a) == expected
    b = list(a)
    b[3] += 1  # equal but for one entry: the spectra must not be shared
    assert kernels.convolve_cyclic(a, b) == oracle_convolve(a, b)


@st.composite
def _operands(draw):
    n = draw(st.integers(1, 40))
    bound = 2 ** draw(st.sampled_from([1, 8, 21, 40, 62, 63, 70, 130]))
    values = st.integers(-bound, bound)
    a = draw(st.lists(values, min_size=n, max_size=n))
    b = draw(st.one_of(st.just(a), st.lists(values, min_size=n, max_size=n)))
    return a, b


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_operands())
def test_property_matches_oracle(operands):
    a, b = operands
    assert kernels.convolve_cyclic(a, b) == oracle_convolve(a, b)


def test_rounding_guard():
    # a linear convolution of length 2n - 1 = 5, padded to 8: entries within
    # 1/4 of an integer are rounded, and entries n.. fold onto 0..
    z = np.array([1.2, -2.0, 3.0, 0.1, 5.0, 0.0, 0.0, 0.0])
    assert kernels._round_exact(z, 3).tolist() == [1, 3, 3]
    # an entry further than 1/4 from an integer means the bound did not hold
    with pytest.raises(AssertionError, match="rounding error"):
        kernels._round_exact(np.array([1.0, 2.3, 0.0, 0.0]), 4)
