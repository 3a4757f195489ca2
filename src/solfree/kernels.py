"""Exact cyclic convolution of integer vectors by floating-point FFT.

Algorithm.  Both operands are split into balanced digits d, |d| <= h =
2^(w-1), in base 2^w, so that a = sum_i a_i 2^(w i) entrywise.  Each digit
row is transformed once by a real FFT of power-of-two length L: L = n when n
is a power of two, where the transform is already cyclic, else the power of
two >= 2n - 1, so that the linear convolution fits and is folded back to
length n.  For each output digit s the spectrum products a_i * b_j with
i + j = s are summed in the frequency domain and transformed back once.  The
result is rounded to integers, and the output digits are recombined in
Python ints as c = sum_s c_s 2^(w s).  Equal operands share their spectra.
Cost O(D n log n + D^2 n) for D digits per operand.

Bound.  C. Percival, "Rapid multiplication modulo the sum and difference of
highly composite numbers", Math. Comp. 72 (2003), bounds the error of a
floating-point FFT convolution of x and y of length L = 2^l in every entry
by

    |x| |y| ((1 + eps)^(3l) (1 + eps sqrt 5)^(3l + 1) (1 + beta)^(3l) - 1),

with |.| the Euclidean norm, eps = 2^-53 the unit roundoff and beta <= 2 eps
the error of the twiddle factors.  Digits bounded by h_a and h_b give
|x| |y| <= n h_a h_b, and one output digit sums at most min(D_a, D_b) such
products.  The digit width w is the largest for which that total stays
below 1/4, half the 1/2 that rounding to the nearest integer needs.

Guard.  The bound is proved for a radix-2 complex transform; numpy's
pocketfft uses mixed radices and a real-input transform.  So every result is
checked as well: an entry further than 1/4 from an integer before rounding
raises AssertionError.
"""

from __future__ import annotations

import math

import numpy as np

BACKEND = "numpy"

_EPS = 2.0**-53
_BETA = 2 * _EPS


def convolve_cyclic(a, b) -> list:
    """Exact cyclic convolution of two equal-length integer sequences.

    Returns the list c of Python ints with c[k] = sum_i a[i] * b[(k - i) mod n].
    Accepts Python or numpy integers of any sign and size.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("length mismatch")
    if n == 0:
        return []
    x = int_array(a)
    y = x if b is a else int_array(b)
    amax, bmax = max_abs(x), max_abs(y)
    if amax == 0 or bmax == 0:
        return [0] * n
    size = n if n & (n - 1) == 0 else 1 << (2 * n - 2).bit_length()
    width, da, db = _digit_plan(n, size, amax, bmax)
    spectra_x = _digit_spectra(x, width, da, size)
    if y is x or (x.dtype == y.dtype and np.array_equal(x, y)):
        spectra_y = spectra_x
    else:
        spectra_y = _digit_spectra(y, width, db, size)
    del x, y
    rows = []
    for s in range(da + db - 1):
        terms = range(max(0, s - db + 1), min(s, da - 1) + 1)  # a_i b_(s-i)
        acc = spectra_x[terms[0]] * spectra_y[s - terms[0]]
        for i in terms[1:]:
            acc += spectra_x[i] * spectra_y[s - i]
        z = np.fft.irfft(acc, size)
        del acc
        rows.append(_round_exact(z, n))
    del spectra_x, spectra_y
    out = rows.pop().astype(object)
    while rows:
        out <<= width
        out += rows.pop()
    return out.tolist()


def int_array(values) -> np.ndarray:
    """`values` as an int64 array, or as an object array of Python ints when
    some do not fit in int64."""
    if isinstance(values, np.ndarray) and not np.can_cast(values.dtype, np.int64):
        values = [int(v) for v in values]
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([int(v) for v in values], dtype=object)


def max_abs(x: np.ndarray) -> int:
    # in Python ints: -int64 min does not fit in int64
    return max(int(x.max()), -int(x.min()))


def _error_factor(size: int) -> float:
    """Percival's relative error factor for a transform of length 2^l."""
    ell = size.bit_length() - 1
    return math.expm1(
        3 * ell * math.log1p(_EPS)
        + (3 * ell + 1) * math.log1p(_EPS * math.sqrt(5))
        + 3 * ell * math.log1p(_BETA)
    )


def _digit_count(amax: int, width: int) -> int:
    """Balanced base-2^width digits that represent every |v| <= amax."""
    count, reach = 1, (1 << (width - 1)) - 1
    while amax > reach:
        count += 1
        reach <<= width
    return count


def _digit_plan(n: int, size: int, amax: int, bmax: int) -> tuple[int, int, int]:
    """(width, digits of a, digits of b) for the widest digits whose
    worst-case FFT error stays below 1/4."""
    factor = _error_factor(size)
    for width in range(53, 1, -1):
        half = 1 << (width - 1)
        da, db = _digit_count(amax, width), _digit_count(bmax, width)
        if min(da, db) * n * min(amax, half) * min(bmax, half) * factor < 0.25:
            return width, da, db
    raise ValueError(f"length {n} is too long for an exact float64 FFT")


def _digit_spectra(x: np.ndarray, width: int, count: int, size: int) -> list:
    """rfft of length `size` of each balanced digit row of `x`, least
    significant first; the digit rows themselves are dropped at once."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    spectra = []
    for _ in range(count):
        low = x & mask
        carry = low >= half
        digits = (low - (carry.astype(np.int64) << width)).astype(np.float64)
        spectra.append(np.fft.rfft(digits, size))
        x = (x >> width) + carry
    return spectra


def _round_exact(z: np.ndarray, n: int) -> np.ndarray:
    """Round an inverse transform to int64 and fold it to length n; raise if
    any entry is further than 1/4 from an integer."""
    rounded = np.rint(z)
    np.subtract(z, rounded, out=z)
    worst = float(np.abs(z, out=z).max())
    if worst > 0.25:
        raise AssertionError(f"FFT convolution rounding error {worst} exceeds 1/4")
    if len(rounded) > n:
        # exact: the bound keeps every entry far below 2^52
        rounded[: n - 1] += rounded[n : 2 * n - 1]
    return rounded[:n].astype(np.int64)
