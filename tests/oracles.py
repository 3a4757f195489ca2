"""Slow reference implementations that the fast paths are tested against.

Each is a direct transcription of its definition in pure Python, with no
numpy and no bound-dependent branches.
"""

from __future__ import annotations


def convolve_cyclic(a, b):
    """Cyclic convolution of two equal-length integer sequences.

    Returns c with c[k] = sum_i a[i] * b[(k - i) mod n], exact.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("length mismatch")
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            k = i + j
            if k >= n:
                k -= n
            out[k] += ai * bj
    return out


def u2_fourth_power(values):
    """Fourth power of the U^2 norm of a real-valued function on Z/m,
    by direct enumeration of the cubic parallelogram average:

        (1/m^3) * sum_{x,h,k} f(x) f(x+h) f(x+k) f(x+h+k)
    """
    m = len(values)
    total = 0.0
    for h in range(m):
        for k in range(m):
            s = 0.0
            for x in range(m):
                xh = x + h
                if xh >= m:
                    xh -= m
                xk = x + k
                if xk >= m:
                    xk -= m
                xhk = xh + k
                if xhk >= m:
                    xhk -= m
                s += values[x] * values[xh] * values[xk] * values[xhk]
            total += s
    return total / m**3


def u2_norm_bruteforce(values) -> float:
    """Quadruple-average U^2 norm, O(m^3); independent cross-check."""
    power = u2_fourth_power([float(v) for v in values])
    return float(max(power, 0.0) ** 0.25)
