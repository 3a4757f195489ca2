"""Exact cyclic convolution of integer vectors, on numpy int64.

When the worst-case entry n * max|a| * max|b| stays below 2^62, one int64
``np.convolve`` is exact.  Wider inputs are split into balanced limbs whose
pairwise convolutions each stay below that bound, and the partial results
are recombined exactly in Python integers.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_INT64_SAFE = 2**62


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
    # the bound is computed in Python ints: numpy int64 products would wrap
    amax = max(int(max(a)), -int(min(a)))
    bmax = max(int(max(b)), -int(min(b)))
    if amax == 0 or bmax == 0:
        return [0] * n
    if n * amax * bmax < _INT64_SAFE:
        return _convolve_int64(
            np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        ).tolist()
    # limb digits are at most `half` in size, so each limb-pair entry is at
    # most n * half^2 < 2^62
    half = 1 << ((61 - (n - 1).bit_length()) // 2)
    base = 2 * half
    limbs_a = _balanced_limbs(a, base)
    limbs_b = _balanced_limbs(b, base)
    out = [0] * n
    for i, la in enumerate(limbs_a):
        for j, lb in enumerate(limbs_b):
            shift = base ** (i + j)
            part = _convolve_int64(la, lb).tolist()
            out = [v + p * shift for v, p in zip(out, part)]
    return out


def _convolve_int64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cyclic convolution of int64 arrays whose exact result fits in int64."""
    n = len(a)
    lin = np.convolve(a, b)
    out = lin[:n].copy()
    out[: n - 1] += lin[n:]
    return out


def _balanced_limbs(values, base: int) -> list:
    """Digits of `values` in base `base`, each in [-base/2, base/2), as int64
    rows, least significant first: values == sum(row_i * base**i)."""
    half = base // 2
    vals = [int(v) for v in values]
    rows = []
    while any(vals):
        digits = [(v + half) % base - half for v in vals]
        rows.append(np.array(digits, dtype=np.int64))
        vals = [(v - d) // base for v, d in zip(vals, digits)]
    return rows
